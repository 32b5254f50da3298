"""Exact probability bookkeeping for cat-diagonal mixtures.

Block yields are sums over type classes: the block's states are i.i.d., so
the passed distribution depends on the source labels only through their
multiset, and ``block_yield_rows`` needs one term per multiset, for a whole
stack of single-state distributions (one per fidelity) at once.

The dense joint distribution over (2^N)^m encoded labels is kept only as
the reference engine behind ``block_step``, which the enumeration checks
and the closed-form recurrence round are tested against; no yield path
builds it.  The multilateral XOR permutes its index space,
the amplitude measurement conditions it, and entropies fall out of the
conditioned distribution.  Everything is exact double-precision arithmetic;
there is no sampling in this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError
from .labels import amp_bit, amp_mask, check_parties, phase_bit

ENSEMBLE_ENTRY_CAP = 1 << 24
NORMALIZATION_TOL = 1e-9


def check_fidelities(n_parties: int, fidelities: np.ndarray) -> np.ndarray:
    """The one fidelity rule, for every method and grid: the isotropic
    weight alpha = (f - 2^-N)/(1 - 2^-N) of the state
    alpha|target><target| + (1-alpha)*I/2^N must lie in [0, 1] up to 1e-12.
    Returns the fidelities as floats; the first one breaking the rule
    raises.  ``n_parties`` may be ``math.inf``, the many-party limit."""
    n_parties = check_parties(n_parties)
    dim_inv = 2.0 ** -n_parties
    f = np.asarray(fidelities, dtype=float)
    alpha = (f - dim_inv) / (1.0 - dim_inv)
    ok = (-1e-12 <= alpha) & (alpha <= 1.0 + 1e-12)
    if not ok.all():
        raise ValueError(f"fidelity {float(f[~ok][0])} outside [{dim_inv}, 1] for N={n_parties}")
    return f


@dataclass
class SingleDistribution:
    """Probability vector over the 2^N encoded labels of one state."""

    n_parties: int
    probs: np.ndarray

    def __post_init__(self):
        self.n_parties = check_parties(self.n_parties)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (1 << self.n_parties,):
            raise DimensionError("probability vector length must be 2^N")
        if abs(self.probs.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValueError("probabilities must sum to 1")

    @property
    def fidelity(self) -> float:
        return float(self.probs[0])


@dataclass
class DiagonalEnsemble:
    """Joint distribution over a block of ``n_states`` labels.

    The flat index concatenates encoded labels with state 0 in the most
    significant position.
    """

    n_parties: int
    n_states: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        size = (1 << self.n_parties) ** self.n_states
        if self.probs.shape != (size,):
            raise DimensionError("ensemble vector length must be (2^N)^n_states")

    def _shift(self, slot: int) -> int:
        if not 0 <= slot < self.n_states:
            raise IndexError(f"slot {slot} out of range")
        return self.n_parties * (self.n_states - 1 - slot)

    def slot_digits(self, slot: int) -> np.ndarray:
        """Encoded label of ``slot`` for every flat index."""
        mask = (1 << self.n_parties) - 1
        return (np.arange(self.probs.size) >> self._shift(slot)) & mask


def werner_single(n_parties: int, fidelity: float) -> SingleDistribution:
    """Cat-diagonal form of the isotropic state: the target label carries
    the fidelity, every other label (1-F)/(2^N - 1).  The one-row call of
    ``werner_rows``."""
    return SingleDistribution(n_parties, werner_rows(n_parties, np.array([fidelity]))[0])


def werner_rows(n_parties: int, fidelities: np.ndarray) -> np.ndarray:
    """``werner_single``'s probability vector for each fidelity, as the
    rows of a (G, 2^N) array, under ``check_fidelities``'s rule."""
    n_parties = check_parties(n_parties)
    f = check_fidelities(n_parties, fidelities)
    # 2^N labels fit the cap exactly when N is below the cap's bit length;
    # checking N first never builds (or prints) a huge 2^N.
    if n_parties >= ENSEMBLE_ENTRY_CAP.bit_length():
        raise CapacityError(f"2^{n_parties} labels exceeds the ensemble cap {ENSEMBLE_ENTRY_CAP}")
    dim = 1 << n_parties
    # Fidelities within validation tolerance of the endpoints may leave
    # negative dust in the off-target entries; snap it to zero.
    probs = np.empty((f.size, dim))
    probs[:, 1:] = np.maximum((1.0 - f) / (dim - 1), 0.0)[:, None]
    probs[:, 0] = np.minimum(f, 1.0)
    return probs


def iid_block(single: SingleDistribution, n_states: int) -> DiagonalEnsemble:
    """Product distribution of ``n_states`` independent copies."""
    if n_states < 1:
        raise ValueError("need at least one state")
    # 2^bits entries; 2^bits > cap exactly when bits >= cap.bit_length().
    bits = single.n_parties * n_states
    if bits >= ENSEMBLE_ENTRY_CAP.bit_length():
        raise CapacityError(f"2^{bits} ensemble entries exceeds the cap {ENSEMBLE_ENTRY_CAP}")
    probs = np.array([1.0])
    for _ in range(n_states):
        probs = np.kron(probs, single.probs)
    return DiagonalEnsemble(single.n_parties, n_states, probs)


def shannon_entropy(probs: np.ndarray) -> float:
    """-sum p log2 p in bits, with 0 log 0 = 0.  Input must be normalized."""
    p = np.asarray(probs, dtype=float).ravel()
    if abs(p.sum() - 1.0) > NORMALIZATION_TOL:
        raise ValueError("entropy input must sum to 1")
    return float(entropy_rows(p))


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """-sum p log2 p in bits along the last axis, with 0 log 0 = 0; no
    normalization check."""
    p = np.asarray(probs, dtype=float)
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * log_p).sum(axis=-1)


def apply_mxor(
    ensemble: DiagonalEnsemble, source_slot: int, target_slot: int
) -> DiagonalEnsemble:
    """Multilateral XOR between two slots, as an exact permutation of the
    joint index space."""
    if source_slot == target_slot:
        raise ValueError("source and target slot collide")
    n = ensemble.n_parties
    src = ensemble.slot_digits(source_slot)
    tgt = ensemble.slot_digits(target_slot)
    # Phase of the target XORs into the source; amplitudes of the source
    # XOR into the target.
    src_delta = tgt & phase_bit(n)
    tgt_delta = src & amp_mask(n)
    idx = np.arange(ensemble.probs.size)
    new_idx = (
        idx
        ^ (src_delta << ensemble._shift(source_slot))
        ^ (tgt_delta << ensemble._shift(target_slot))
    )
    out = np.empty_like(ensemble.probs)
    out[new_idx] = ensemble.probs
    return DiagonalEnsemble(n, ensemble.n_states, out)


def condition_amps_zero(
    ensemble: DiagonalEnsemble, slot: int
) -> tuple[float, DiagonalEnsemble]:
    """Project onto 'all amplitude bits of ``slot`` are zero'.

    Returns the pass probability and the (unnormalized) projected ensemble.
    """
    n = ensemble.n_parties
    keep = (ensemble.slot_digits(slot) & amp_mask(n)) == 0
    probs = np.where(keep, ensemble.probs, 0.0)
    return float(probs.sum()), DiagonalEnsemble(n, ensemble.n_states, probs)


def marginalize_slot(ensemble: DiagonalEnsemble, slot: int) -> DiagonalEnsemble:
    """Trace out one slot."""
    if ensemble.n_states < 2:
        raise ValueError("cannot marginalize the last remaining slot")
    dim = 1 << ensemble.n_parties
    shaped = ensemble.probs.reshape((dim,) * ensemble.n_states)
    return DiagonalEnsemble(
        ensemble.n_parties, ensemble.n_states - 1, shaped.sum(axis=slot).ravel()
    )


def block_step(single: SingleDistribution, m: int) -> tuple[float, DiagonalEnsemble | None]:
    """One block-size-m purification step.

    Forms m i.i.d. copies, XORs sources 1..m-1 into the m-th state, measures
    that target's amplitude bits and keeps only the all-zero outcome.  The
    target's phase bit is randomized by the measurement, so the passed
    ensemble is the renormalized marginal over the m-1 sources.

    Returns (p_pass, passed ensemble); the ensemble is None when p_pass is
    exactly 0 and callers must then treat the yield as 0.
    """
    if m < 2:
        raise ValueError("block size must be at least 2")
    block = iid_block(single, m)
    target = m - 1
    for source in range(target):
        block = apply_mxor(block, source, target)
    p_pass, projected = condition_amps_zero(block, target)
    if p_pass == 0.0:
        return 0.0, None
    passed = marginalize_slot(projected, target)
    passed.probs /= p_pass
    drift = abs(passed.probs.sum() - 1.0)
    if drift > NORMALIZATION_TOL:
        raise ValueError(f"normalization drift {drift} after conditioning")
    return p_pass, passed


# Sixteen tables cover every block size a sweep uses; each is bounded by the
# cap that block_yield checks before asking for it.
@functools.lru_cache(maxsize=16)
def _type_classes(n_parties: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every multiset of m-1 source labels as a count vector over the 2^N
    labels, with its amplitude XOR and its multinomial multiplicity
    (m-1)!/prod(c_l!), the number of label tuples in the class.

    Multisets are enumerated by stars and bars: the 2^N - 1 bar positions
    among m - 1 + 2^N - 1 slots fix the counts.  All three arrays are
    read-only because the cache shares them between calls.
    """
    dim, size = 1 << n_parties, m - 1
    n_classes = math.comb(dim + size - 1, size)
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(dim + size - 1), dim - 1)
        ),
        dtype=np.intp,
        count=n_classes * (dim - 1),
    ).reshape(n_classes, dim - 1)
    edges = np.column_stack(
        [np.full(n_classes, -1), bars, np.full(n_classes, dim + size - 1)]
    )
    counts = np.diff(edges, axis=1) - 1
    amps = np.arange(dim) & amp_mask(n_parties)
    amp_xor = np.bitwise_xor.reduce(np.where(counts & 1, amps, 0), axis=1)
    factorials = np.array([math.factorial(c) for c in range(size + 1)], dtype=object)
    mult = (math.factorial(size) // factorials[counts].prod(axis=1)).astype(float)
    for table in (counts, amp_xor, mult):
        table.flags.writeable = False
    return counts, amp_xor, mult


def block_yield(single: SingleDistribution, m: int) -> float:
    """Per-input yield of the block step followed by hashing the survivors:
    p_pass * (m-1)/m * (1 - H(passed)/(m-1)).  May be negative; clamping is
    left to presentation layers.  The one-row call of ``block_yield_rows``.
    """
    return float(block_yield_rows(single.n_parties, single.probs[None, :], m)[0])


def block_yield_rows(n_parties: int, probs: np.ndarray, m: int) -> np.ndarray:
    """``block_yield`` for each row of a (G, 2^N) array of single-state
    distributions; rows with p_pass = 0 yield 0.

    The i.i.d. sources make the passed distribution exchangeable, so it is
    summed over type classes (multisets S of passed source labels) rather
    than built densely.  A class with amplitude XOR A passes with
    P(S) = sum_b q(b, A) prod_{s in S} q(s xor b*2^(N-1)) for each of its
    mult(S) label tuples, b being the measured target's phase bit.
    ``ENSEMBLE_ENTRY_CAP`` bounds the class table's entries; the work per
    row is one table's worth, so callers bound G.
    """
    if m < 2:
        raise ValueError("block size must be at least 2")
    n = n_parties
    dim, size = 1 << n, m - 1
    # comb(a + b, a) >= 2^min(a, b), so a table that is certainly too large
    # is refused before its exact size, a huge integer, is computed.
    cap = ENSEMBLE_ENTRY_CAP
    if min(dim - 1, size) >= cap.bit_length() or dim * math.comb(dim + size - 1, size) > cap:
        raise CapacityError(
            f"the type-class table for N={n}, m={m} exceeds the cap of {cap} entries"
        )
    counts, amp_xor, mult = _type_classes(n, m)
    q = np.asarray(probs, dtype=float)
    labels = np.arange(dim)
    # (G, class), one phase branch at a time, kept in C order: every row
    # sum below is then a pairwise sum over that row alone, so a row's value
    # does not depend on how many rows share the call.
    p_class = np.ascontiguousarray(sum(
        q.take(amp_xor | b, axis=1)
        * np.multiply.reduce(q[:, labels ^ b][:, None, :] ** counts, axis=2)
        for b in (0, phase_bit(n))
    ))
    p_pass = np.add.reduce(p_class * mult, axis=1)
    # A row with p_pass = 0 has every p_class = 0, so it gets entropy 0
    # and yield 0.
    rel = p_class / np.where(p_pass > 0.0, p_pass, 1.0)[:, None]
    log_rel = np.log2(rel, out=np.zeros_like(rel), where=rel > 0.0)
    entropy = -np.add.reduce(mult * rel * log_rel, axis=1)
    return p_pass * ((m - 1) / m) * (1.0 - entropy / (m - 1))


def bit_marginals(single: SingleDistribution) -> tuple[float, np.ndarray]:
    """Marginal probability that the phase bit is 1, and that each
    amplitude bit is 1."""
    n = single.n_parties
    codes = np.arange(1 << n)
    p_phase = float(single.probs[(codes & phase_bit(n)) != 0].sum())
    p_amps = np.array(
        [float(single.probs[(codes & amp_bit(j, n)) != 0].sum()) for j in range(n - 1)]
    )
    return p_phase, p_amps
