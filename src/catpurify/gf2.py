"""Bit-packed GF(2) linear algebra for parity decoding.

Rows are stored as little-endian ``uint64`` words: unknown ``i`` lives in
word ``i >> 6``, bit ``i & 63``.  The solver produces the affine solution
coset of a parity system and a maximum-posterior element under an i.i.d.
Bernoulli prior on the unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GF2_SOLVER_CAP = 1 << 14
EXACT_COSET_DIM_CAP = 16


def n_words(n_bits: int) -> int:
    return (n_bits + 63) >> 6


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Bit array (0/1 per unknown) -> packed uint64 row."""
    bits = np.asarray(bits, dtype=np.uint8)
    out = np.zeros(n_words(bits.size), dtype=np.uint64)
    idx = np.nonzero(bits)[0]
    np.bitwise_or.at(out, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))
    return out


def pack_indices(indices: np.ndarray, n_bits: int) -> np.ndarray:
    """Index list -> packed uint64 row with those bits set."""
    out = np.zeros(n_words(n_bits), dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.int64)
    np.bitwise_or.at(out, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))
    return out


def unpack_bits(row: np.ndarray, n_bits: int) -> np.ndarray:
    bits = np.unpackbits(row.view(np.uint8), bitorder="little")
    return bits[:n_bits].astype(np.uint8)


def row_weight(row: np.ndarray) -> int:
    return int(np.bitwise_count(row).sum())


def dot_bit(a: np.ndarray, b: np.ndarray) -> int:
    """Parity of the AND of two packed rows."""
    return int(np.bitwise_count(a & b).sum()) & 1


@dataclass
class AffineCoset:
    """Solution set ``particular + span(basis)`` of a consistent system.

    Basis vector k is the unique one carrying free column ``free_cols[k]``;
    its remaining support lies on pivot columns.
    """

    n_unknowns: int
    particular: np.ndarray
    basis: list[np.ndarray]
    free_cols: list[int]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, packed: np.ndarray) -> bool:
        """Coset membership via reduction on the free columns."""
        v = packed ^ self.particular
        for col, vec in zip(self.free_cols, self.basis):
            if _test_bit(v, col):
                v = v ^ vec
        return not v.any()


class GF2System:
    """Accumulates parity rows over a fixed set of unknowns and solves them
    for ``n_sides`` right-hand sides sharing the matrix."""

    def __init__(self, n_unknowns: int, n_sides: int = 1, cap: int = GF2_SOLVER_CAP):
        from .errors import CapacityError

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
        n_sides = self.n_sides
        if not self._rows:
            return [
                AffineCoset(
                    n,
                    np.zeros(n_words(n), dtype=np.uint64),
                    [pack_indices(np.array([i]), n) for i in range(n)],
                    list(range(n)),
                )
                for _ in range(n_sides)
            ]
        rows = np.array(self._rows, dtype=np.uint64)
        rhs = np.array(self._rhs, dtype=np.uint8)
        n_rows = rows.shape[0]
        # Gauss-Jordan by rows: each nonzero row pivots on its lowest set
        # bit, which is then cleared from every other row.
        pivot_of_row = np.full(n_rows, -1, dtype=np.int64)
        for i in range(n_rows):
            col = _lowest_bit(rows[i])
            if col < 0:
                continue
            word, bit = col >> 6, np.uint64(col & 63)
            hits = ((rows[:, word] >> bit) & np.uint64(1)).astype(bool)
            hits[i] = False
            if hits.any():
                rows[hits] ^= rows[i]
                rhs[hits] ^= rhs[i]
            pivot_of_row[i] = col
        pivot_rows = np.nonzero(pivot_of_row >= 0)[0]
        zero_rows = np.nonzero(pivot_of_row < 0)[0]
        free_cols = sorted(set(range(n)) - set(pivot_of_row[pivot_rows].tolist()))
        basis = []
        for col in free_cols:
            word, bit = col >> 6, np.uint64(col & 63)
            carriers = pivot_rows[((rows[pivot_rows, word] >> bit) & np.uint64(1)) == 1]
            support = np.concatenate([[col], pivot_of_row[carriers]]).astype(np.int64)
            basis.append(pack_indices(support, n))
        cosets: list[AffineCoset | None] = []
        for side in range(n_sides):
            if zero_rows.size and np.any(rhs[zero_rows, side]):
                cosets.append(None)
                continue
            ones = pivot_rows[rhs[pivot_rows, side] == 1]
            particular = pack_indices(pivot_of_row[ones], n)
            cosets.append(AffineCoset(n, particular, list(basis), list(free_cols)))
        return cosets


@dataclass
class DecodeResult:
    """Outcome of a maximum-posterior decode.

    status: 'unique' (coset is a point), 'map' (maximum found by exhaustive
    coset search), 'degenerate' (prior pins every bit), 'ambiguous' (tied
    maxima, or inconsistent input), or 'intractable' (coset too large for
    exhaustive search).
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


def decode_map(
    coset: AffineCoset | None,
    prior_one: float,
    exact_dim_cap: int = EXACT_COSET_DIM_CAP,
) -> DecodeResult:
    """Maximum-posterior element of a solution coset under an i.i.d.
    Bernoulli(prior_one) prior.

    The posterior of a candidate depends only on its Hamming weight, and is
    monotone decreasing (prior_one < 1/2) or increasing (> 1/2) in it, so
    the search reduces to an extreme-weight element with tie detection.
    Exhaustive search is only attempted up to ``exact_dim_cap`` free
    dimensions; larger cosets with a non-degenerate prior are reported as
    intractable rather than decoded approximately.
    """
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
    weights = np.bitwise_count(candidates).sum(axis=1)
    best = weights.argmin() if prior_one < 0.5 else weights.argmax()
    best_w = weights[best]
    if int((weights == best_w).sum()) > 1:
        return DecodeResult("ambiguous", None, coset.dim)
    return DecodeResult("map", unpack_bits(candidates[best], n), coset.dim)


def _lowest_bit(row: np.ndarray) -> int:
    for w in range(len(row)):
        word = int(row[w])
        if word:
            return (w << 6) + (word & -word).bit_length() - 1
    return -1


def _test_bit(row: np.ndarray, i: int) -> bool:
    return bool((row[i >> 6] >> np.uint64(i & 63)) & np.uint64(1))
