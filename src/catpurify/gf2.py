"""Bit-packed GF(2) linear algebra for parity decoding.

Rows are stored as little-endian ``uint64`` words: unknown ``i`` lives in
word ``i >> 6``, bit ``i & 63``, an order only this module knows; other
modules use ``to_ints``/``from_ints``.  The solver produces the affine
solution coset of a parity system by Gauss-Jordan elimination in blocks of
eight rows, each finished by one table of the XOR combinations of its
pivot rows (the Method of Four Russians; ``hashing`` moves lineage rows
through the same table step).  The decoders pick a maximum-posterior
element under an i.i.d. Bernoulli prior on the unknowns, exhaustively for
small cosets and certified against a known truth for large ones.
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


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """0/1 values along the last axis -> packed row, or stack of rows, of
    explicit little-endian ``uint64`` words."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")
    out = np.zeros(packed.shape[:-1] + (n_words(np.shape(bits)[-1]) * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def pack_indices(
    indices: np.ndarray, n_bits: int, starts: np.ndarray | None = None
) -> np.ndarray:
    """Index list -> packed uint64 row with those bits set.  With
    ``starts``, a stack with one row per segment
    ``indices[starts[k]:starts[k + 1]]``."""
    indices = np.asarray(indices, dtype=np.int64)
    segments = [0] if starts is None else starts
    lengths = np.diff(segments, append=indices.size)
    bits = np.zeros((len(segments), n_words(n_bits) << 6), dtype=np.uint8)
    bits[np.repeat(np.arange(len(segments)), lengths), indices] = 1
    rows = pack_bits(bits)
    return rows[0] if starts is None else rows


def xor_segments(rows: np.ndarray, indices: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """XOR of the packed rows ``rows[indices[starts[k]:starts[k + 1]]]`` for
    each segment k; every segment must be nonempty."""
    return np.bitwise_xor.reduceat(rows.take(indices, axis=0), starts, axis=0)


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


def to_ints(rows: np.ndarray) -> list[int]:
    """Stack of packed rows -> one Python int per row, unknown i as bit i."""
    raw = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    width = rows.shape[-1] * 8
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


def from_ints(values: list[int], n_bits: int) -> np.ndarray:
    """Python ints -> stack of packed rows over ``n_bits`` unknowns; a
    value with a bit at or past ``n_bits``, or a negative one, is refused."""
    if any(value >> n_bits for value in values):
        raise ValueError(f"row value has a bit at or past {n_bits}")
    width = n_words(n_bits) * 8
    raw = b"".join(value.to_bytes(width, "little") for value in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, width // 8)


def _column_bits(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bits at columns ``cols`` of a packed row, or of each row of a stack,
    as 0/1 ``uint64`` along the last axis."""
    return (rows[..., cols >> 6] >> (cols & 63).astype(np.uint64)) & np.uint64(1)


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
        picked = _column_bits(v, self.free_cols).astype(bool)
        v ^= np.bitwise_xor.reduce(self.basis, axis=0, where=picked[:, None])
        return not v.any()


# Rows per elimination block, and rounds per lineage group in ``hashing``:
# a block is applied through one table of the 2^8 XOR combinations of its
# rows, which each row or state indexes with one byte.
BLOCK_ROWS = 8


def xor_selected(rows: np.ndarray, selectors: np.ndarray, own: np.ndarray) -> np.ndarray:
    """For each column i of the 0/1 ``selectors`` (k, n), the XOR of the
    packed rows b whose ``selectors[b, i]`` is set; k <= ``BLOCK_ROWS``.
    Row b is itself column ``own[b]``, which may select only rows before
    b: the row first takes their XOR, a unitriangular solve on the way
    (lineage update or back-substitution).  The 2^k combinations are built
    by doubling, each column reading its own as one byte (Four Russians)."""
    places = np.arange(len(rows), dtype=selectors.dtype)[:, None]
    idx = np.bitwise_or.reduce(selectors << places, axis=0)
    table = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    for b, row in enumerate(rows):
        np.bitwise_xor(table[: 1 << b], row ^ table[idx[own[b]]], out=table[1 << b : 2 << b])
    return table[idx]


class GF2System:
    """Accumulates parity rows over a fixed set of unknowns and solves them
    for ``n_sides`` right-hand sides sharing the matrix."""

    def __init__(self, n_unknowns: int, n_sides: int = 1):
        if n_unknowns > GF2_SOLVER_CAP:
            raise CapacityError(f"{n_unknowns} unknowns exceeds the solver cap {GF2_SOLVER_CAP}")
        self.n_unknowns = n_unknowns
        self.n_sides = n_sides
        # Blocks of rows, and of their right-hand sides, as added.
        self._rows = [np.empty((0, n_words(n_unknowns)), dtype=np.uint64)]
        self._rhs = [np.empty((0, n_sides), dtype=np.uint8)]

    def add_row(self, row: np.ndarray, rhs_bits: np.ndarray) -> None:
        """One parity constraint, or a stack of them; ``rhs_bits`` carries
        each row's value for every right-hand side in parallel."""
        rows = np.array(row, dtype=np.uint64, ndmin=2)
        spare = ~(~np.uint64(0) >> np.uint64(-self.n_unknowns & 63))  # past the last unknown
        if rows.shape[1:] != (n_words(self.n_unknowns),) or (rows[:, -1:] & spare).any():
            raise ValueError(f"rows must be packed over exactly {self.n_unknowns} unknowns")
        rhs = np.asarray(rhs_bits, dtype=np.uint8)
        if rhs.size != len(rows) * self.n_sides:
            raise ValueError(f"expected {len(rows) * self.n_sides} rhs bits, got {rhs.size}")
        self._rows.append(rows)
        self._rhs.append(rhs.reshape(len(rows), self.n_sides))

    @property
    def n_rows(self) -> int:
        return sum(len(rows) for rows in self._rows)

    def solve(self) -> list[AffineCoset | None]:
        """Reduce once and return one coset per right-hand side (None for an
        inconsistent side, which cannot happen for parities measured from a
        real assignment)."""
        n = self.n_unknowns
        words = n_words(n)
        # The right-hand sides ride along as extra words of each row.
        rows = np.concatenate(
            [np.concatenate(self._rows), pack_bits(np.concatenate(self._rhs))], axis=1
        )
        n_rows, width = rows.shape
        unknowns = (1 << (words << 6)) - 1
        # Blocked Gauss-Jordan, rows taken in order: a block's rows reduce
        # forward by its earlier pivot rows on Python ints, each pivoting on
        # its lowest set bit as it would row by row.  One table gather, fed
        # the pivot rows latest first, back-substitutes them and clears their
        # columns from every other row.  The reduced form is unique, so the
        # cosets are too.
        pivot_of_row = np.full(n_rows, -1, dtype=np.int64)
        for start in range(0, n_rows, BLOCK_ROWS):
            block = to_ints(rows[start : start + BLOCK_ROWS])
            pivots: dict[int, int] = {}  # block position -> pivot column
            for i, row in enumerate(block):
                for j, col in pivots.items():
                    if row >> col & 1:
                        row ^= block[j]
                if row & unknowns:
                    pivots[i] = (row & -row).bit_length() - 1
                block[i] = row
            if not pivots:
                continue
            rows[start : start + len(block)] = from_ints(block, width << 6)
            at = start + np.fromiter(reversed(pivots), dtype=np.int64)
            cols = pivot_of_row[at] = np.fromiter(reversed(pivots.values()), dtype=np.int64)
            # A pivot row carries no earlier pivot's column, so as its own
            # column it selects only the later pivot rows.  Pivot rows are
            # zero below their pivot, so only the words from the lowest
            # pivot's on change.
            first = int(cols.min()) >> 6
            carried = _column_bits(rows, cols).T
            carried[np.arange(len(at)), at] = 0
            rows[:, first:] ^= xor_selected(rows[at, first:], carried, at)
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
        bits = np.zeros((cols.size, n), dtype=np.uint8)
        bits[np.arange(cols.size), cols] = 1
        bits[:, pivot_cols] = _column_bits(reduced, cols).T
        basis[start : start + cols.size] = pack_bits(bits)
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


def decode_map(coset: AffineCoset | None, prior_one: float) -> DecodeResult:
    """Maximum-posterior element of a solution coset under an i.i.d.
    Bernoulli(prior_one) prior: the lowest ``_map_score``, ambiguous when
    tied.  Cosets of more than ``EXACT_COSET_DIM_CAP`` free dimensions
    under a non-degenerate prior are reported as intractable, not decoded
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
    if coset.dim > EXACT_COSET_DIM_CAP:
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

