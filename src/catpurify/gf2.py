"""Bit-packed GF(2) linear algebra for parity decoding.

Rows are stored as little-endian ``uint64`` words: unknown ``i`` lives in
word ``i >> 6``, bit ``i & 63``, an order only this module knows; other
modules use ``to_ints``/``from_ints``.  The solver produces the affine
solution coset of a parity system by Gauss-Jordan elimination in blocks of
eight rows, each finished by one table of the XOR combinations of its
pivot rows (the Method of Four Russians; ``hashing`` moves lineage rows
through the same table step, and ``mat_mul`` multiplies packed matrices
through one table per byte).  ``pivot_cosets`` lays out every coset
from packed rows over the pivots, which ``scatter_columns``, the one
widening, spreads onto the unknowns: ``GF2System.solve`` feeds it the
reduced rows, and ``hashing``, which eliminates only its phase system,
the lineage, whose rows have one bit per amplitude round.  Every large
step goes a piece at a time within one byte budget, ``CHUNK_BYTES``,
which ``hashing`` reads too.  The decoders pick a maximum-posterior
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

# The one byte budget: each step taken a piece at a time, here and in
# ``hashing``, reads it at call time and sizes its pieces to fit within it.
CHUNK_BYTES = 1 << 20


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


def scatter_columns(rows: np.ndarray, cols: np.ndarray, n_bits: int) -> np.ndarray:
    """Stack of packed rows over ``cols.size`` bits -> the same rows packed
    over ``n_bits`` unknowns, bit k moved to column ``cols[k]``.  The rows
    are widened through one byte per unknown, within ``CHUNK_BYTES``."""
    out = np.empty((len(rows), n_words(n_bits)), dtype=np.uint64)
    # Per row: its bits unpacked and their copy onto ``cols``, its byte row
    # over the unknowns, and that row packed to bytes and then to words.
    row_bytes = (rows.shape[1] << 6) + cols.size + n_bits + out.shape[1] * 16
    step = max(1, CHUNK_BYTES // row_bytes)
    for start in range(0, len(rows), step):
        bits = np.zeros((min(step, len(rows) - start), n_bits), dtype=np.uint8)
        bits[:, cols] = unpack_bits(rows[start : start + step], cols.size)
        out[start : start + step] = pack_bits(bits)
        del bits  # before the next piece is built
    return out


def unpack_bits(rows: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed row or stack of rows -> first ``n_bits`` bits as 0/1 ``uint8``."""
    as_bytes = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :n_bits]


def to_ints(rows: np.ndarray) -> list[int]:
    """Stack of packed rows -> one Python int per row, unknown i as bit i."""
    raw = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    width = rows.shape[-1] * 8
    return [int.from_bytes(raw[k * width : (k + 1) * width], "little") for k in range(len(rows))]


def from_ints(values: list[int], n_bits: int) -> np.ndarray:
    """Python ints -> stack of packed rows over ``n_bits`` unknowns; a
    value with a bit at or past ``n_bits``, or a negative one, is refused."""
    if any(value >> n_bits for value in values):
        raise ValueError(f"row value has a bit at or past {n_bits}")
    width = n_words(n_bits) * 8
    raw = b"".join(value.to_bytes(width, "little") for value in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(values), width // 8)


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


def xor_selected(
    out: np.ndarray, rows: np.ndarray, selectors: np.ndarray, own: np.ndarray
) -> None:
    """XOR into row i of ``out`` the packed rows b whose ``selectors[b, i]``
    is set, for each column i of the 0/1 ``selectors`` (k, n); k <=
    ``BLOCK_ROWS``.  Row b is itself column ``own[b]``, which may select
    only rows before b: the row first takes their XOR, a unitriangular
    solve on the way (lineage update or back-substitution).  The 2^k
    combinations are built by doubling, each column reading its own as one
    byte (Four Russians), and gathered a quarter of ``CHUNK_BYTES`` at a time."""
    places = np.arange(len(rows), dtype=selectors.dtype)[:, None]
    idx = np.bitwise_or.reduce(selectors << places, axis=0)
    table = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    for b, row in enumerate(rows):
        np.bitwise_xor(table[: 1 << b], row ^ table[idx[own[b]]], out=table[1 << b : 2 << b])
    step = max(1, CHUNK_BYTES // (32 * rows.shape[1]))
    for start in range(0, len(out), step):
        out[start : start + step] ^= table.take(idx[start : start + step], axis=0)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product of two stacks of packed rows: row r is the XOR of the
    rows ``b[i]`` whose bit i is set in ``a[r]``, which is packed over
    ``len(b)`` bits.  Each byte of a row of ``a`` indexes a table of the
    2^8 XOR combinations of eight rows of ``b`` (Four Russians), the XOR of
    two tables of 2^4 built by doubling.  The tables are built a few bytes
    at a time and gathered a few rows of ``a`` at a time, their
    temporaries within about ``CHUNK_BYTES`` unless one byte's table alone
    is larger."""
    width = b.shape[1]
    out = np.zeros((len(a), width), dtype=np.uint64)
    if not out.size:
        return out
    a_bytes = np.ascontiguousarray(a, dtype="<u8").view(np.uint8)
    n_bytes = -(-len(b) // 8)
    # Half the budget goes to the tables: per byte, its table, two
    # half-byte tables and the eight rows they are built from.  The other
    # half goes to the gathers: per byte and row of ``a``, the gathered row
    # and its index, built in two steps.
    step = max(1, CHUNK_BYTES // (2 * 8 * (256 + 40) * width))
    rows_step = max(1, CHUNK_BYTES // (2 * 8 * step * (width + 3)))
    for start in range(0, n_bytes, step):
        stop = min(start + step, n_bytes)
        group = np.zeros(((stop - start) * 8, width), dtype=np.uint64)
        part = b[start * 8 : stop * 8]
        group[: len(part)] = part
        # Half-byte h of a byte selects rows 4h to 4h + 3.
        halves = group.reshape(stop - start, 2, 4, width)
        nibbles = np.zeros((stop - start, 2, 16, width), dtype=np.uint64)
        for bit in range(4):
            np.bitwise_xor(nibbles[:, :, : 1 << bit], halves[:, :, bit, None],
                           out=nibbles[:, :, 1 << bit : 2 << bit])
        tables = (nibbles[:, 1, :, None] ^ nibbles[:, 0, None, :]).reshape(-1, width)
        offsets = np.arange(0, (stop - start) << 8, 256)[:, None]
        for row in range(0, len(a), rows_step):
            # Byte-major, so the reduction XORs whole (rows x width) blocks.
            idx = np.add(a_bytes[row : row + rows_step, start:stop].T, offsets, order="C")
            gathered = tables.take(idx.ravel(), axis=0).reshape(*idx.shape, width)
            out[row : row + rows_step] ^= np.bitwise_xor.reduce(gathered, axis=0)
            del idx, gathered  # before the next ones are built
        del tables
    return out


class GF2System:
    """Accumulates parity rows over a fixed set of unknowns, each with its
    right-hand side bit, and solves them."""

    def __init__(self, n_unknowns: int):
        if n_unknowns > GF2_SOLVER_CAP:
            raise CapacityError(f"{n_unknowns} unknowns exceeds the solver cap {GF2_SOLVER_CAP}")
        self.n_unknowns = n_unknowns
        # Blocks of rows, and of their right-hand sides, as added.
        self._rows = [np.empty((0, n_words(n_unknowns)), dtype=np.uint64)]
        self._rhs = [np.empty(0, dtype=np.uint8)]

    def add_row(self, row: np.ndarray, rhs_bits: np.ndarray) -> None:
        """One parity constraint, or a stack of them; ``rhs_bits`` holds
        each row's right-hand side, 0 or 1."""
        rows = np.array(row, dtype=np.uint64, ndmin=2)
        spare = ~(~np.uint64(0) >> np.uint64(-self.n_unknowns & 63))  # past the last unknown
        if rows.shape[1:] != (n_words(self.n_unknowns),) or (rows[:, -1:] & spare).any():
            raise ValueError(f"rows must be packed over exactly {self.n_unknowns} unknowns")
        rhs = np.asarray(rhs_bits)
        if rhs.size != len(rows):
            raise ValueError(f"expected {len(rows)} rhs bits, got {rhs.size}")
        # Checked before the cast: packing reads any nonzero byte, even 2, as 1.
        if ((rhs != 0) & (rhs != 1)).any():
            raise ValueError("rhs bits must be 0 or 1")
        self._rows.append(rows)
        self._rhs.append(rhs.astype(np.uint8).reshape(len(rows)))

    @property
    def n_rows(self) -> int:
        return sum(len(rows) for rows in self._rows)

    def solve(self) -> AffineCoset | None:
        """The solution coset, or None for an inconsistent system (which
        parities measured from a real assignment never are)."""
        n = self.n_unknowns
        words = n_words(n)
        # The right-hand side rides along as an extra word of each row.
        rows = np.concatenate(
            [np.concatenate(self._rows), pack_bits(np.concatenate(self._rhs)[:, None])], axis=1
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
            xor_selected(rows[:, first:], rows[at, first:], carried, at)
        rhs = unpack_bits(rows[:, words:], 1)[:, 0]
        if rhs[pivot_of_row < 0].any():
            return None
        pivot_rows = np.flatnonzero(pivot_of_row >= 0)
        pivot_cols = pivot_of_row[pivot_rows]
        free_cols = np.delete(np.arange(n), pivot_cols)
        # Bit i of carried row k is set when pivot row i holds free column
        # k.  A piece reads 64 pivot rows per word of those rows: per word,
        # 64 rows of words and of bytes, their free bytes, and those packed.
        carried = np.empty((free_cols.size, n_words(pivot_rows.size)), dtype=np.uint64)
        step = max(1, CHUNK_BYTES // (64 * (words * 72 + free_cols.size) + free_cols.size * 16))
        for word in range(0, carried.shape[1], step):
            piece = rows[pivot_rows[word << 6 : (word + step) << 6], :words]
            carried[:, word : word + step] = pack_bits(unpack_bits(piece, n)[:, free_cols].T)
            del piece  # before the next piece is read
        return pivot_cosets(pack_bits(rhs[None, pivot_rows]), carried, pivot_cols, free_cols, n)[0]


def pivot_cosets(
    sides: np.ndarray, carried: np.ndarray, pivot_cols: np.ndarray, free_cols: np.ndarray,
    n: int,
) -> list[AffineCoset]:
    """The solution cosets over ``n`` unknowns of a system in reduced form,
    one per right-hand side, sharing one basis.

    Pivot i is column ``pivot_cols[i]``; every other column is listed in
    ``free_cols``.  Both inputs are packed rows over the pivots: row s of
    ``sides`` names the pivot columns that side s's particular solution
    sets, and row k of ``carried`` the pivots that carry free column
    ``free_cols[k]``, which basis row k sets along with their columns.
    The basis and ``free_cols`` are made read-only."""
    particulars = scatter_columns(sides, pivot_cols, n)
    basis = scatter_columns(carried, pivot_cols, n)
    basis[np.arange(free_cols.size), free_cols >> 6] |= (
        np.uint64(1) << (free_cols & 63).astype(np.uint64))
    basis.flags.writeable = False
    free_cols.flags.writeable = False
    return [AffineCoset(n, particular, basis, free_cols) for particular in particulars]


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

