"""Bit-packed GF(2) linear algebra for parity decoding.

Rows are stored as little-endian ``uint64`` words: unknown ``i`` lives in
word ``i >> 6``, bit ``i & 63``.  The solver produces the affine solution
coset of a parity system; the decoders pick a maximum-posterior element
under an i.i.d. Bernoulli prior on the unknowns, exhaustively for small
cosets and certified against a known truth for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InternalInvariantError

GF2_SOLVER_CAP = 1 << 14
EXACT_COSET_DIM_CAP = 16
PROBE_PAIRS = 512


def n_words(n_bits: int) -> int:
    return (n_bits + 63) >> 6


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """0/1 values along the last axis -> packed rows of explicit
    little-endian ``uint64`` words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (n_words(bits.shape[-1]) * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Bit array (0/1 per unknown) -> packed uint64 row."""
    return _pack_rows(np.asarray(bits, dtype=np.uint8))


def pack_indices(indices: np.ndarray, n_bits: int) -> np.ndarray:
    """Index list -> packed uint64 row with those bits set."""
    bits = np.zeros(n_words(n_bits) << 6, dtype=np.uint8)
    bits[np.asarray(indices, dtype=np.int64)] = 1
    return _pack_rows(bits)


def identity_rows(n_bits: int) -> np.ndarray:
    """(n_bits, n_words) packed identity: row i has bit i set."""
    rows = np.zeros((n_bits, n_words(n_bits)), dtype=np.uint64)
    idx = np.arange(n_bits)
    rows[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
    return rows


def unpack_bits(rows: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed row or stack of rows -> first ``n_bits`` bits as 0/1 ``uint8``."""
    as_bytes = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :n_bits]


def row_weight(rows: np.ndarray) -> np.ndarray:
    """Set bits of a packed row, or of each row of a stack, as unsigned counts."""
    return np.bitwise_count(rows).sum(axis=-1)


def dot_bit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parity of the AND of two packed rows; either may be a stack."""
    return row_weight(a & b) & 1


@dataclass
class AffineCoset:
    """Solution set ``particular + span(basis)`` of a consistent system.

    ``basis`` is a read-only packed ``(dim, n_words)`` matrix.  Row k is the
    unique basis vector carrying free column ``free_cols[k]``; its remaining
    support lies on pivot columns.
    """

    n_unknowns: int
    particular: np.ndarray
    basis: np.ndarray
    free_cols: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, packed: np.ndarray) -> bool:
        """Coset membership: no basis row but k touches free column k, so
        the free bits of ``packed ^ particular`` select the only
        combination that can cancel it."""
        v = packed ^ self.particular
        cols = self.free_cols
        picked = ((v[cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)
        v ^= np.bitwise_xor.reduce(self.basis, axis=0, where=picked[:, None])
        return not v.any()


class GF2System:
    """Accumulates parity rows over a fixed set of unknowns and solves them
    for ``n_sides`` right-hand sides sharing the matrix."""

    def __init__(self, n_unknowns: int, n_sides: int = 1, cap: int = GF2_SOLVER_CAP):
        if n_unknowns > cap:
            raise CapacityError(f"{n_unknowns} unknowns exceeds the solver cap {cap}")
        self.n_unknowns = n_unknowns
        self.n_sides = n_sides
        self._rows: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []

    def add_row(self, row: np.ndarray, rhs_bits: np.ndarray) -> None:
        """One parity constraint; ``rhs_bits`` carries its value for every
        right-hand side in parallel."""
        rhs = np.asarray(rhs_bits, dtype=np.uint8)
        if rhs.size != self.n_sides:
            raise ValueError(f"expected {self.n_sides} rhs bits, got {rhs.size}")
        self._rows.append(np.array(row, dtype=np.uint64))
        self._rhs.append(rhs)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def solve(self) -> list[AffineCoset | None]:
        """Reduce once and return one coset per right-hand side (None for an
        inconsistent side, which cannot happen for parities measured from a
        real assignment)."""
        n = self.n_unknowns
        words = n_words(n)
        # The right-hand sides ride along as extra words of each row.
        rows = np.concatenate(
            [
                np.array(self._rows, dtype=np.uint64).reshape(len(self._rows), words),
                _pack_rows(np.array(self._rhs, dtype=np.uint8).reshape(len(self._rhs), self.n_sides)),
            ],
            axis=1,
        )
        n_rows = rows.shape[0]
        # Gauss-Jordan by rows: each nonzero row pivots on its lowest set
        # bit, which is then cleared from every other row.  The pivot row
        # is zero below its pivot word, so only the words from there on
        # change.
        pivot_of_row = np.full(n_rows, -1, dtype=np.int64)
        for i in range(n_rows):
            col = _lowest_bit(rows[i, :words])
            if col < 0:
                continue
            word = col >> 6
            hits = rows[:, word] & (np.uint64(1) << np.uint64(col & 63))
            hits[i] = 0
            hits = hits.nonzero()[0]
            if hits.size:
                rows[hits, word:] ^= rows[i, word:]
            pivot_of_row[i] = col
        rhs = unpack_bits(rows[:, words:], self.n_sides)
        pivot_rows = np.flatnonzero(pivot_of_row >= 0)
        zero_rows = np.flatnonzero(pivot_of_row < 0)
        pivot_cols = pivot_of_row[pivot_rows]
        is_free = np.ones(n, dtype=bool)
        is_free[pivot_cols] = False
        free_cols = np.flatnonzero(is_free)
        free_cols.flags.writeable = False
        basis = _coset_basis(rows[pivot_rows, :words], pivot_cols, free_cols, n)
        cosets: list[AffineCoset | None] = []
        for side in range(self.n_sides):
            if zero_rows.size and np.any(rhs[zero_rows, side]):
                cosets.append(None)
                continue
            particular = pack_indices(pivot_cols[rhs[pivot_rows, side] == 1], n)
            cosets.append(AffineCoset(n, particular, basis, free_cols))
        return cosets


# Free columns per chunk of the basis build.  Its temporaries are then a
# (pivots x 32) word matrix and a (32 x n) byte matrix; a dense
# (free x n) build costs several MB at m = 2000.
_BASIS_CHUNK = 32


def _coset_basis(
    reduced: np.ndarray, pivot_cols: np.ndarray, free_cols: np.ndarray, n: int
) -> np.ndarray:
    """Read-only packed basis of the null space of the reduced rows: row k
    sets free column ``free_cols[k]`` and the pivot column of every reduced
    row that carries it."""
    basis = np.empty((free_cols.size, n_words(n)), dtype=np.uint64)
    for start in range(0, free_cols.size, _BASIS_CHUNK):
        cols = free_cols[start : start + _BASIS_CHUNK]
        carried = (reduced[:, cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)
        bits = np.zeros((cols.size, n), dtype=np.uint8)
        bits[np.arange(cols.size), cols] = 1
        bits[:, pivot_cols] = carried.T
        basis[start : start + cols.size] = _pack_rows(bits)
    basis.flags.writeable = False
    return basis


@dataclass
class DecodeResult:
    """Outcome of a maximum-posterior decode.

    status: 'unique' (coset is a point), 'map' (maximum found by exhaustive
    or certified search), 'degenerate' (prior pins every bit), 'ambiguous'
    (tied maxima, or inconsistent input), or 'intractable' (coset too large
    for exhaustive search).
    """

    status: str
    bits: np.ndarray | None
    coset_dim: int

    @property
    def ok(self) -> bool:
        return self.status in ("unique", "map", "degenerate")


def _enumerate_coset(coset: AffineCoset) -> np.ndarray:
    """All 2^dim coset elements as packed rows (rows of the result)."""
    arr = coset.particular[None, :].copy()
    for vec in coset.basis:
        arr = np.concatenate([arr, arr ^ vec[None, :]], axis=0)
    return arr


def _map_score(rows: np.ndarray, prior_one: float) -> np.ndarray:
    """Score of each packed candidate under an i.i.d. Bernoulli(prior_one)
    prior; lower is more probable.  The posterior falls with the Hamming
    weight for prior_one < 1/2 and rises with it otherwise, so the score is
    the weight or its negation (popcount sums are unsigned: cast first)."""
    weights = row_weight(rows).astype(np.int64)
    return weights if prior_one < 0.5 else -weights


def decode_map(
    coset: AffineCoset | None,
    prior_one: float,
    exact_dim_cap: int = EXACT_COSET_DIM_CAP,
) -> DecodeResult:
    """Maximum-posterior element of a solution coset under an i.i.d.
    Bernoulli(prior_one) prior: the lowest ``_map_score``, ambiguous when
    tied.  Cosets of more than ``exact_dim_cap`` free dimensions under a
    non-degenerate prior are reported as intractable, not decoded
    approximately."""
    if coset is None:
        return DecodeResult("ambiguous", None, -1)
    n = coset.n_unknowns
    if prior_one in (0.0, 1.0):
        fill = np.zeros(n, dtype=np.uint8) if prior_one == 0.0 else np.ones(n, dtype=np.uint8)
        # The forced string must itself lie in the coset.
        if not coset.contains(pack_bits(fill)):
            return DecodeResult("ambiguous", None, coset.dim)
        return DecodeResult("degenerate", fill, coset.dim)
    if coset.dim == 0:
        return DecodeResult("unique", unpack_bits(coset.particular, n), 0)
    if coset.dim > exact_dim_cap:
        return DecodeResult("intractable", None, coset.dim)
    if prior_one == 0.5:
        return DecodeResult("ambiguous", None, coset.dim)
    candidates = _enumerate_coset(coset)
    scores = _map_score(candidates, prior_one)
    best = scores.argmin()
    if np.count_nonzero(scores == scores[best]) > 1:
        return DecodeResult("ambiguous", None, coset.dim)
    return DecodeResult("map", unpack_bits(candidates[best], n), coset.dim)


def certified_map_decode(
    coset: AffineCoset, prior_one: float, truth_bits: np.ndarray, rng: np.random.Generator
) -> DecodeResult:
    """Maximum-posterior decode for cosets too large to enumerate, certified
    against a simulation's hidden truth.

    Exhaustive search over 2^dim elements is syndrome decoding of a dense
    random parity system, not computable at realistic block sizes.  The
    truth is a coset element and the posterior maximum unless another
    element scores no higher under ``_map_score``; about 2^-safety_bits such
    rivals are expected.  This checks membership, probes for rivals (every
    single free-direction flip, then up to ``PROBE_PAIRS`` random pairs drawn
    from ``rng``) and otherwise returns the truth.  Rivals the probes miss
    are correspondingly rare; see the package README for the accounting.
    """
    t_packed = pack_bits(truth_bits)
    if not coset.contains(t_packed):
        raise InternalInvariantError("hidden truth fell outside the solution coset")
    basis = coset.basis
    d = coset.dim

    # Probe order: every single free-direction flip, then the random pairs
    # (a pair that draws one index twice is skipped).  The first probe that
    # scores no higher than the truth decides.
    probes = t_packed ^ basis
    if d >= 2:
        # For d < 2^32 numpy fills a bounded int64 array with buffered 32-bit
        # draws, Lemire redraws included, so one call consumes ``rng`` draw
        # for draw like one ``rng.integers(0, d, size=2)`` call per pair.
        pairs = rng.integers(0, d, size=(min(PROBE_PAIRS, d * (d - 1) // 2), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        probes = np.concatenate([probes, probes[pairs[:, 0]] ^ basis[pairs[:, 1]]])
    scores = _map_score(probes, prior_one)
    truth_score = _map_score(t_packed, prior_one)
    rivals = scores <= truth_score
    if rivals.any():
        k = int(rivals.argmax())
        if scores[k] == truth_score:
            return DecodeResult("ambiguous", None, d)
        # The posterior maximum is elsewhere; return that rival so the
        # caller records a mismatched (failed) decode.
        return DecodeResult("map", unpack_bits(probes[k], coset.n_unknowns), d)
    return DecodeResult("map", truth_bits.copy(), d)


def _lowest_bit(row: np.ndarray) -> int:
    for w in range(len(row)):
        word = int(row[w])
        if word:
            return (w << 6) + (word & -word).bit_length() - 1
    return -1

