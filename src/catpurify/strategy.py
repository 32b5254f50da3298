"""Composite purification strategies and figure-level sweeps.

Ties together the exact block-step engine and the hashing yields:
recurrence rounds continued by hashing, single block steps of size m
continued by hashing, best-method selection on a fidelity grid, and the
knee fidelity above which recurrence stops paying.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import SingleDistribution, block_yield, block_step, werner_single
from .errors import CapacityError
from .hashing import two_party_hashing_yield, werner_hashing_yield

DEFAULT_MAX_ROUNDS = 20
GRID_POINT_CAP = 10**6

METHOD_KINDS = (
    "recurrence_hashing",
    "block_then_hashing",
    "multiparty_hashing",
    "two_party_hashing",
)


@dataclass(frozen=True)
class MethodSpec:
    """One named strategy; ``m`` only applies to block methods."""

    kind: str
    m: int | None = None
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.kind == "block_then_hashing":
            if self.m is None or not 2 <= self.m <= 8:
                raise ValueError(f"block size {self.m} outside the supported range 2..8")
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no block size")

    @property
    def method_id(self) -> str:
        return {
            "recurrence_hashing": "rec-hash",
            "multiparty_hashing": "mp-hash",
            "two_party_hashing": "2p-hash",
        }.get(self.kind, f"block{self.m}")

    @staticmethod
    def from_id(method_id: str, max_rounds: int = DEFAULT_MAX_ROUNDS) -> "MethodSpec":
        if method_id == "rec-hash":
            return MethodSpec("recurrence_hashing", max_rounds=max_rounds)
        if method_id == "mp-hash":
            return MethodSpec("multiparty_hashing", max_rounds=max_rounds)
        if method_id == "2p-hash":
            return MethodSpec("two_party_hashing", max_rounds=max_rounds)
        if method_id.startswith("block"):
            return MethodSpec(
                "block_then_hashing", m=int(method_id[5:]), max_rounds=max_rounds
            )
        raise ValueError(f"unknown method id {method_id!r}")

    def requires_two_parties(self) -> bool:
        return self.kind != "multiparty_hashing"


def recurrence_round(single: SingleDistribution) -> tuple[float, SingleDistribution | None]:
    """One two-state purification round; the passed state's exact
    Bell-diagonal distribution is kept (no re-twirl)."""
    p_pass, passed = block_step(single, 2)
    if passed is None:
        return 0.0, None
    return p_pass, SingleDistribution(single.n_parties, passed.probs)


RECURRENCE_VARIANTS = ("twirl", "exact")


def _recurrence_raw(
    fidelity: float, max_rounds: int, variant: str = "twirl"
) -> tuple[float, int]:
    if variant not in RECURRENCE_VARIANTS:
        raise ValueError(f"unknown recurrence variant {variant!r}")
    dist = werner_single(2, fidelity)
    factor = 1.0
    best_yield = two_party_hashing_yield(dist)
    best_round = 0
    for r in range(1, max_rounds + 1):
        p_pass, nxt = recurrence_round(dist)
        if nxt is None:
            break
        factor *= p_pass / 2.0
        # Hashing always consumes the exact passed distribution of the
        # final round; the variants differ in what the next round sees.
        y = factor * two_party_hashing_yield(nxt)
        if y > best_yield:
            best_yield, best_round = y, r
        dist = nxt if variant == "exact" else werner_single(2, nxt.fidelity)
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
    if spec.kind == "recurrence_hashing":
        return _recurrence_raw(fidelity, spec.max_rounds)[0]
    if spec.kind == "block_then_hashing":
        return block_yield(werner_single(2, fidelity), spec.m)
    if spec.kind == "multiparty_hashing":
        return werner_hashing_yield(n_parties, fidelity)
    return two_party_hashing_yield(werner_single(2, fidelity))


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
    n_points = int(np.floor((f_max - f_min) / step + 1e-9)) + 1
    if n_points > cap:
        raise CapacityError(f"{n_points} grid points exceeds the cap {cap}")
    return f_min + step * np.arange(n_points)


def validate_methods(methods: list[MethodSpec], n_parties: int) -> None:
    for spec in methods:
        if spec.requires_two_parties() and n_parties != 2:
            raise ValueError(f"method {spec.method_id} only applies to N=2")


def yield_curve(
    n_parties: int,
    f_min: float,
    f_max: float,
    step: float,
    methods: list[MethodSpec],
) -> YieldCurve:
    """Evaluate every method on the grid; deterministic, with both raw and
    clamped-at-zero vectors."""
    validate_methods(methods, n_parties)
    grid = fidelity_grid(f_min, f_max, step)
    curve = YieldCurve(n_parties, grid)
    rows = [[_raw_yield(spec, n_parties, float(f)) for spec in methods] for f in grid]
    table = np.array(rows, dtype=float).reshape(grid.size, len(methods))
    for k, spec in enumerate(methods):
        curve.raw[spec.method_id] = table[:, k]
        curve.clamped[spec.method_id] = np.maximum(table[:, k], 0.0)
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
