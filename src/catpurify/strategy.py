"""Composite purification strategies and figure-level sweeps.

Ties together the block yields and the hashing yields: recurrence rounds
continued by hashing, single block steps of size m continued by hashing,
best-method selection on a fidelity grid, and the knee fidelity above which
recurrence stops paying.  Each method is one ``METHODS`` entry with an array
kernel over a stretch of fidelities; single-point functions are its one-point
calls, and ``yield_curve`` calls it once per ``GRID_CHUNK`` points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .ensemble import SingleDistribution, block_yield_rows, werner_rows
from .errors import CapacityError
from .hashing import two_party_hashing_yields, werner_hashing_yields
from .labels import amp_mask, phase_bit

DEFAULT_MAX_ROUNDS = 20
GRID_POINT_CAP = 10**6
# Grid points per kernel call.  A block kernel holds points x classes x
# labels doubles (128 x 480 at block8, under 0.5 MB), so peak memory does
# not grow with the grid.
GRID_CHUNK = 128


class Method(NamedTuple):
    """A ``yield-curve`` method: its id (a block id ends in the size), whether
    it needs N=2, and its kernel ``(spec, n_parties, fidelities) -> raw yields``."""

    id: str
    two_party: bool
    kernel: Callable[[MethodSpec, int, np.ndarray], np.ndarray]


# Keyed by ``MethodSpec.kind``; adding a method is adding an entry.
METHODS = {
    "recurrence_hashing": Method(
        "rec-hash", True, lambda spec, n, f: recurrence_grid(f, spec.max_rounds)[0]
    ),
    "block_then_hashing": Method(
        "block", True, lambda spec, n, f: block_yield_rows(2, werner_rows(2, f), spec.m)
    ),
    "multiparty_hashing": Method("mp-hash", False, lambda spec, n, f: werner_hashing_yields(n, f)),
    "two_party_hashing": Method(
        "2p-hash", True, lambda spec, n, f: two_party_hashing_yields(werner_rows(2, f))
    ),
}


@dataclass(frozen=True)
class MethodSpec:
    """One named strategy; ``m`` only applies to block methods."""

    kind: str
    m: int | None = None
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.kind == "block_then_hashing":
            if self.m is None or not 2 <= self.m <= 8:
                raise ValueError(f"block size {self.m} outside the supported range 2..8")
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no block size")

    @property
    def method_id(self) -> str:
        prefix = METHODS[self.kind].id
        return prefix if self.m is None else f"{prefix}{self.m}"

    @staticmethod
    def from_id(method_id: str, max_rounds: int = DEFAULT_MAX_ROUNDS) -> "MethodSpec":
        block = METHODS["block_then_hashing"].id
        size = method_id.removeprefix(block)
        if size != method_id:
            # A negative size gets the range error; since int() also takes
            # leading zeros, only canonical ids pass.
            if size.isascii() and size.removeprefix("-").isdigit():
                spec = MethodSpec("block_then_hashing", int(size), max_rounds)
                if spec.method_id == method_id:
                    return spec
        else:
            for kind, method in METHODS.items():
                if method.id == method_id:
                    return MethodSpec(kind, max_rounds=max_rounds)
        raise ValueError(f"unknown method id {method_id!r}")

    def requires_two_parties(self) -> bool:
        return METHODS[self.kind].two_party


def recurrence_round(single: SingleDistribution) -> tuple[float, SingleDistribution | None]:
    """One two-state purification round; the passed state's exact
    Bell-diagonal distribution is kept (no re-twirl).  Equals
    ``block_step(single, 2)``, in closed form."""
    p_pass, passed = recurrence_rows(single.n_parties, single.probs[None, :])
    if p_pass[0] == 0.0:
        return 0.0, None
    return float(p_pass[0]), SingleDistribution(single.n_parties, passed[0])


def recurrence_rows(n_parties: int, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m=2 block step for each row q of a (G, 2^N) array: pass
    probabilities p_pass = sum_a P(a)^2, P the amplitude marginal, and the
    passed rows q'(p, a) = sum_t q(p xor t, a) q(t, a) / p_pass, t running
    over the target's phase.  Rows with p_pass = 0 come back as zeros."""
    q = np.asarray(probs, dtype=float)
    codes = np.arange(1 << n_parties)
    flip = phase_bit(n_parties)
    amps = codes & amp_mask(n_parties)
    joint = q * q[:, amps] + q[:, codes ^ flip] * q[:, amps | flip]
    amp_codes = codes[codes == amps]
    marginal = q[:, amp_codes] + q[:, amp_codes | flip]
    p_pass = np.ascontiguousarray(marginal * marginal).sum(axis=1)
    # p_pass = 0 leaves every joint entry 0 as well.
    return p_pass, joint / np.where(p_pass > 0.0, p_pass, 1.0)[:, None]


RECURRENCE_VARIANTS = ("twirl", "exact")


def _recurrence_raw(
    fidelity: float, max_rounds: int, variant: str = "twirl"
) -> tuple[float, int]:
    raw, rounds = recurrence_grid(np.array([fidelity]), max_rounds, variant)
    return float(raw[0]), int(rounds[0])


def recurrence_grid(
    fidelities: np.ndarray, max_rounds: int, variant: str = "twirl"
) -> tuple[np.ndarray, np.ndarray]:
    """Raw best yield and its round count at each fidelity (see
    ``recurrence_then_hashing``), all points advancing one round at a time.
    Rows are normalized, so p_pass = sum_a P(a)^2 over the two amplitude
    classes is at least 1/2 and no point stops early."""
    if variant not in RECURRENCE_VARIANTS:
        raise ValueError(f"unknown recurrence variant {variant!r}")
    dist = werner_rows(2, fidelities)
    factor = np.ones(len(dist))
    best_yield = two_party_hashing_yields(dist)
    best_round = np.zeros(len(dist), dtype=int)
    for r in range(1, max_rounds + 1):
        p_pass, nxt = recurrence_rows(2, dist)
        factor *= p_pass / 2.0
        # Hashing always consumes the exact passed distribution of the
        # final round; the variants differ in what the next round sees.
        y = factor * two_party_hashing_yields(nxt)
        better = y > best_yield
        best_yield[better] = y[better]
        best_round[better] = r
        dist = nxt if variant == "exact" else werner_rows(2, nxt[:, 0])
    return best_yield, best_round


def recurrence_then_hashing(
    fidelity: float,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    variant: str = "twirl",
) -> tuple[float, int]:
    """Best yield over r recurrence rounds followed by two-party hashing.

    Each round keeps half the pairs at best (one target consumed per pair),
    so r rounds contribute prod(p_pass)/2^r and hashing contributes
    1 - H of the exact distribution passed out of the last round.  Returns
    (yield floored at 0, optimal round count); ties go to the smaller r.

    The default 'twirl' variant twirls back to isotropic form between
    rounds, which is what makes iterated rounds converge: the two-state
    parity check only catches amplitude disagreements, so iterating on the
    raw passed distribution piles weight onto the phase-flipped label and
    stalls at fidelity 1/2.  The 'exact' variant tracks that raw
    distribution anyway, for comparison; it is the stronger choice for a
    single round and the weaker one deep into the recurrence.
    """
    raw, rounds = _recurrence_raw(fidelity, max_rounds, variant)
    return max(0.0, raw), rounds


def block_then_hashing(fidelity: float, m: int) -> float:
    """Two-party block step of size m continued by hashing, clamped at 0."""
    return max(0.0, _raw_yield(MethodSpec("block_then_hashing", m=m), 2, fidelity))


def _raw_yield(spec: MethodSpec, n_parties: int, fidelity: float) -> float:
    return float(METHODS[spec.kind].kernel(spec, n_parties, np.array([fidelity]))[0])


def best_method(
    fidelity: float, methods: list[MethodSpec], n_parties: int = 2
) -> tuple[MethodSpec, float]:
    """Argmax of the raw (unclamped) yield; ties go to list order."""
    if not methods:
        raise ValueError("need at least one method")
    winner, best = methods[0], _raw_yield(methods[0], n_parties, fidelity)
    for spec in methods[1:]:
        y = _raw_yield(spec, n_parties, fidelity)
        if y > best:
            winner, best = spec, y
    return winner, best


@dataclass
class YieldCurve:
    """Per-fidelity yields of a set of methods; the CSV-facing result."""

    n_parties: int
    grid: np.ndarray
    raw: dict[str, np.ndarray] = field(default_factory=dict)
    clamped: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def method_ids(self) -> list[str]:
        return list(self.raw.keys())


def fidelity_grid(
    f_min: float, f_max: float, step: float, cap: int = GRID_POINT_CAP
) -> np.ndarray:
    """Arithmetic progression from f_min by ``step``, not exceeding f_max.
    A step larger than the range yields the single point f_min."""
    if not np.isfinite([f_min, f_max, step]).all():
        raise ValueError(
            f"fidelity grid bounds and step must be finite, got {f_min}:{f_max}:{step}"
        )
    if f_min > f_max:
        raise ValueError("f_min must not exceed f_max")
    if step <= 0:
        raise ValueError("step must be positive")
    # A subnormal step makes the index of the last point infinite, so it
    # is compared with the cap before int() sees it.
    last = np.floor((f_max - f_min) / step + 1e-9)
    if last >= cap:
        # Past 2^53 (or at infinity) a float count is not an exact integer.
        n_points = last + 1
        count = int(n_points) if n_points < 2**53 else f"{n_points:g}"
        raise CapacityError(f"{count} grid points exceeds the cap {cap}")
    return f_min + step * np.arange(int(last) + 1)


def yield_curve(
    n_parties: int,
    f_min: float,
    f_max: float,
    step: float,
    methods: list[MethodSpec],
) -> YieldCurve:
    """Evaluate every method on the grid; deterministic, with both raw and
    clamped-at-zero vectors."""
    ids = [spec.method_id for spec in methods]
    for spec in methods:
        if ids.count(spec.method_id) > 1:
            raise ValueError(f"method {spec.method_id} requested more than once")
        if spec.requires_two_parties() and n_parties != 2:
            raise ValueError(f"method {spec.method_id} only applies to N=2")
    grid = fidelity_grid(f_min, f_max, step)
    curve = YieldCurve(n_parties, grid)
    table = np.empty((len(methods), grid.size))
    for start in range(0, grid.size, GRID_CHUNK):
        cols = slice(start, start + GRID_CHUNK)
        chunk = grid[cols]
        try:
            for k, spec in enumerate(methods):
                table[k, cols] = METHODS[spec.kind].kernel(spec, n_parties, chunk)
        except ValueError:
            # Name the first bad (point, method) in row-major order, as a
            # point-by-point sweep would.
            for f in chunk:
                for spec in methods:
                    _raw_yield(spec, n_parties, float(f))
            raise
    for k, spec in enumerate(methods):
        curve.raw[spec.method_id] = table[k]
        curve.clamped[spec.method_id] = np.maximum(table[k], 0.0)
    return curve


def find_knee(
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    sweep_step: float = 0.005,
    tol: float = 1e-4,
) -> float | None:
    """Smallest fidelity in (0.5, 1) at which zero recurrence rounds is
    already optimal, by sweep plus bisection; None when absent."""

    def hashes_immediately(f: float) -> bool:
        return recurrence_then_hashing(f, max_rounds)[1] == 0

    prev = 0.5 + sweep_step
    if hashes_immediately(prev):
        return prev
    f = prev + sweep_step
    while f < 1.0:
        if hashes_immediately(f):
            lo, hi = prev, f
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if hashes_immediately(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = f
        f += sweep_step
    return None
