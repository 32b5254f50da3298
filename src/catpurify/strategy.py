"""Composite purification strategies and figure-level sweeps.

Ties together the block yields and the hashing yields: recurrence rounds
continued by hashing, single block steps of size m continued by hashing,
and the knee fidelity above which recurrence stops paying.  Each method is
one ``METHODS`` entry with an array kernel over a stretch of fidelities;
single-point functions are its one-point calls, and ``yield_curve`` calls
it once per ``GRID_CHUNK`` points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ensemble import SingleDistribution, block_yield_rows, check_fidelities, werner_rows
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
    """A ``yield-curve`` method: whether it needs N=2, and its kernel
    ``(spec, n_parties, fidelities) -> raw yields``."""

    two_party: bool
    kernel: Callable[[MethodSpec, int, np.ndarray], np.ndarray]


# Keyed by the method id, which a block id continues with its size; adding
# a method is adding an entry.
METHODS = {
    "rec-hash": Method(True, lambda spec, n, f: recurrence_grid(f, spec.max_rounds)[0]),
    "block": Method(True, lambda spec, n, f: block_yield_rows(2, werner_rows(2, f), spec.m)),
    "mp-hash": Method(False, lambda spec, n, f: werner_hashing_yields(n, f)),
    "2p-hash": Method(True, lambda spec, n, f: two_party_hashing_yields(werner_rows(2, f))),
}


@dataclass(frozen=True)
class MethodSpec:
    """One named strategy: ``kind`` is its ``METHODS`` key, and ``m`` only
    applies to block methods."""

    kind: str
    m: int | None = None
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.kind == "block":
            if self.m is None or not 2 <= self.m <= 8:
                raise ValueError(f"block size {self.m} outside the supported range 2..8")
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no block size")
        if self.max_rounds < 0:
            raise ValueError(f"max rounds must be non-negative, got {self.max_rounds}")

    @property
    def method_id(self) -> str:
        return self.kind if self.m is None else f"{self.kind}{self.m}"

    @staticmethod
    def from_id(method_id: str, max_rounds: int = DEFAULT_MAX_ROUNDS) -> "MethodSpec":
        size = method_id.removeprefix("block")
        if size != method_id:
            # A negative size gets the range error; since int() also takes
            # leading zeros, only canonical ids pass.
            if size.isascii() and size.removeprefix("-").isdigit():
                spec = MethodSpec("block", int(size), max_rounds)
                if spec.method_id == method_id:
                    return spec
        elif method_id in METHODS:
            return MethodSpec(method_id, max_rounds=max_rounds)
        raise ValueError(f"unknown method id {method_id!r}")


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


def _recurrence_raw(fidelity: float, max_rounds: int) -> tuple[float, int]:
    raw, rounds = recurrence_grid(np.array([fidelity]), max_rounds)
    return float(raw[0]), int(rounds[0])


def recurrence_grid(fidelities: np.ndarray, max_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw best yield and its round count at each fidelity (see
    ``recurrence_then_hashing``), all points advancing one round at a time.
    Each round scales a point's factor by p_pass/2 <= 1/2, and a round's
    yield is at most its factor.  So once no factor exceeds its point's
    best yield floored at 0, no yield or round count can change, and the
    loop stops there: a point whose best is positive needs a few rounds,
    and one whose best is still <= 0 runs until its factor underflows to
    exactly 0, within about 1,075 rounds."""
    dist = werner_rows(2, fidelities)
    factor = np.ones(len(dist))
    best_yield = two_party_hashing_yields(dist)
    best_round = np.zeros(len(dist), dtype=int)
    for r in range(1, max_rounds + 1):
        p_pass, nxt = recurrence_rows(2, dist)
        factor *= p_pass / 2.0
        # Hashing consumes the exact passed distribution of the final
        # round; the next round sees its twirl.
        y = factor * two_party_hashing_yields(nxt)
        better = y > best_yield
        best_yield[better] = y[better]
        best_round[better] = r
        # Later yields are at most the next factor, under half this one.
        if not (factor > np.maximum(best_yield, 0.0)).any():
            break
        dist = werner_rows(2, nxt[:, 0])
    return best_yield, best_round


def recurrence_then_hashing(fidelity: float) -> tuple[float, int]:
    """Best yield over r <= ``DEFAULT_MAX_ROUNDS`` recurrence rounds followed
    by two-party hashing.

    Each round keeps half the pairs at best (one target consumed per pair),
    so r rounds contribute prod(p_pass)/2^r and hashing contributes
    1 - H of the exact distribution passed out of the last round.  Returns
    (yield floored at 0, optimal round count); ties go to the smaller r.

    Each round twirls back to isotropic form before the next, which is
    what makes iterated rounds converge: the two-state parity check only
    catches amplitude disagreements, so iterating on the raw passed
    distribution piles weight onto the phase-flipped label and stalls at
    fidelity 1/2.
    """
    raw, rounds = _recurrence_raw(fidelity, DEFAULT_MAX_ROUNDS)
    return max(0.0, raw), rounds


def _check_methods(n_parties: int, methods: list[MethodSpec]) -> None:
    """Refuse a method named twice, or a two-party method at N != 2."""
    ids = [spec.method_id for spec in methods]
    for spec in methods:
        if ids.count(spec.method_id) > 1:
            raise ValueError(f"method {spec.method_id} requested more than once")
        if METHODS[spec.kind].two_party and n_parties != 2:
            raise ValueError(f"method {spec.method_id} only applies to N=2")


@dataclass
class YieldCurve:
    """Raw yields, not floored at 0, of a set of methods on a fidelity
    grid, keyed by method id in request order."""

    grid: np.ndarray
    raw: dict[str, np.ndarray]


def fidelity_grid(f_min: float, f_max: float, step: float) -> np.ndarray:
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
    if last >= GRID_POINT_CAP:
        # Past 2^53 (or at infinity) a float count is not an exact integer.
        n_points = last + 1
        count = int(n_points) if n_points < 2**53 else f"{n_points:g}"
        raise CapacityError(f"{count} grid points exceeds the cap {GRID_POINT_CAP}")
    return f_min + step * np.arange(int(last) + 1)


def yield_curve(
    n_parties: int,
    f_min: float,
    f_max: float,
    step: float,
    methods: list[MethodSpec],
) -> YieldCurve:
    """Evaluate every method on the grid; deterministic."""
    _check_methods(n_parties, methods)
    grid = fidelity_grid(f_min, f_max, step)
    # Every kernel applies this one rule, so checking the whole grid first
    # names the first bad point before any kernel runs.
    check_fidelities(n_parties, grid)
    table = np.empty((len(methods), grid.size))
    for start in range(0, grid.size, GRID_CHUNK):
        cols = slice(start, start + GRID_CHUNK)
        for k, spec in enumerate(methods):
            table[k, cols] = METHODS[spec.kind].kernel(spec, n_parties, grid[cols])
    return YieldCurve(grid, {spec.method_id: row for spec, row in zip(methods, table)})


def find_knee() -> float | None:
    """Smallest fidelity in (0.5, 1) at which zero recurrence rounds is
    already optimal at ``DEFAULT_MAX_ROUNDS``, by a sweep in steps of 0.005
    then bisection to within 1e-4; None when absent."""
    sweep_step, tol = 0.005, 1e-4
    # Sweep points summed one step at a time, left to right.
    points = np.add.accumulate(np.r_[0.5 + sweep_step, np.full(100, sweep_step)])
    points = points[points < 1.0]
    hits = np.flatnonzero(recurrence_grid(points, DEFAULT_MAX_ROUNDS)[1] == 0)
    if not hits.size:
        return None
    # A hit at the first point leaves nothing to bisect.
    lo, hi = float(points[max(hits[0] - 1, 0)]), float(points[hits[0]])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if recurrence_then_hashing(mid)[1] == 0:
            hi = mid
        else:
            lo = mid
    return hi
