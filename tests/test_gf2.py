import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify import gf2
from catpurify.errors import CapacityError
from catpurify.gf2 import (
    CHUNK_BYTES,
    GF2System,
    _enumerate_coset,
    decode_map,
    from_ints,
    mat_mul,
    n_words,
    pack_bits,
    pack_indices,
    pivot_cosets,
    row_weight,
    scatter_columns,
    to_ints,
    unpack_bits,
)
from oracles import row_by_row_cosets


def random_system(rng, n, k, truth):
    system = GF2System(n)
    rows = []
    for _ in range(k):
        sel = rng.random(n) < 0.5
        idxs = np.nonzero(sel)[0]
        bit = int(truth[sel].sum() & 1)
        system.add_row(pack_indices(idxs, n), np.array([bit], dtype=np.uint8))
        rows.append((sel, bit))
    return system, rows


def brute_force_map(rows, n, prior_one):
    """Posterior maximum over all 2^n candidates consistent with the rows."""
    best_weight, best, ties = None, None, 0
    for bits in itertools.product((0, 1), repeat=n):
        cand = np.array(bits, dtype=np.uint8)
        if any(int(cand[sel].sum() & 1) != bit for sel, bit in rows):
            continue
        w = int(cand.sum())
        key = w if prior_one < 0.5 else -w
        if best_weight is None or key < best_weight:
            best_weight, best, ties = key, cand, 1
        elif key == best_weight:
            ties += 1
    return best, ties


def test_pack_round_trip():
    rng = np.random.default_rng(0)
    for n in (1, 63, 64, 65, 130):
        bits = (rng.random(n) < 0.4).astype(np.uint8)
        packed = pack_bits(bits)
        assert row_weight(packed) == int(bits.sum())
        np.testing.assert_array_equal(unpack_bits(packed, n), bits)


@pytest.mark.parametrize("seed", range(40))
def test_decode_matches_brute_force(seed):
    for prior_one in (0.2, 0.8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, n + 3))
        truth = (rng.random(n) < prior_one).astype(np.uint8)
        system, rows = random_system(rng, n, k, truth)
        coset = system.solve()
        assert coset is not None
        assert coset.contains(pack_bits(truth))
        result = decode_map(coset, prior_one)
        expected, ties = brute_force_map(rows, n, prior_one)
        if ties > 1:
            assert result.status == "ambiguous"
        else:
            assert result.ok
            np.testing.assert_array_equal(result.bits, expected)


def test_decode_full_rank_unique():
    rng = np.random.default_rng(7)
    n = 20
    truth = (rng.random(n) < 0.3).astype(np.uint8)
    system = GF2System(n)
    # Unit rows pin every variable.
    for i in range(n):
        system.add_row(pack_indices(np.array([i]), n), np.array([truth[i]], dtype=np.uint8))
    coset = system.solve()
    assert coset.dim == 0
    result = decode_map(coset, 0.3)
    assert result.status == "unique"
    np.testing.assert_array_equal(result.bits, truth)


def test_decode_degenerate_prior():
    system = GF2System(6)
    coset = system.solve()
    result = decode_map(coset, 0.0)
    assert result.status == "degenerate"
    assert result.bits.sum() == 0
    result = decode_map(coset, 1.0)
    assert result.bits.sum() == 6
    # The forced string must lie in the coset: x0 + x1 = 1 excludes both.
    system.add_row(pack_indices(np.array([0, 1]), 6), np.array([1], dtype=np.uint8))
    coset = system.solve()
    for prior_one in (0.0, 1.0):
        assert decode_map(coset, prior_one).status == "ambiguous"


def test_decode_half_prior_is_ambiguous():
    system = GF2System(3)
    system.add_row(pack_indices(np.array([0, 1]), 3), np.array([0], dtype=np.uint8))
    coset = system.solve()
    assert decode_map(coset, 0.5).status == "ambiguous"


def test_decode_intractable_above_cap():
    system = GF2System(40)
    system.add_row(pack_indices(np.array([0, 1]), 40), np.array([1], dtype=np.uint8))
    coset = system.solve()
    assert decode_map(coset, 0.2).status == "intractable"


def test_shared_matrix_multiple_sides():
    # One matrix measured from two truths: each system holds its own truth,
    # and the two reduce to the same basis.
    rng = np.random.default_rng(3)
    n = 12
    truths = [(rng.random(n) < 0.25).astype(np.uint8) for _ in range(2)]
    systems = [GF2System(n), GF2System(n)]
    for i in range(n):
        sel = rng.random(n) < 0.5
        idxs = np.nonzero(sel)[0]
        for system, t in zip(systems, truths):
            system.add_row(pack_indices(idxs, n), np.array([int(t[sel].sum() & 1)]))
    cosets = [system.solve() for system in systems]
    for coset, truth in zip(cosets, truths):
        assert coset.contains(pack_bits(truth))
    for field in ("basis", "free_cols"):
        np.testing.assert_array_equal(getattr(cosets[0], field), getattr(cosets[1], field))


def test_inconsistent_side_reports_none():
    system = GF2System(4)
    system.add_row(pack_indices(np.array([0, 1]), 4), np.array([0], dtype=np.uint8))
    system.add_row(pack_indices(np.array([0, 1]), 4), np.array([1], dtype=np.uint8))
    assert system.solve() is None
    result = decode_map(None, 0.2)
    assert (result.status, result.bits, result.coset_dim) == ("ambiguous", None, -1)


@pytest.mark.parametrize("n,n_stacks", [(5, 1), (70, 2), (130, 3)])
def test_stacked_rows_give_the_row_by_row_cosets(n, n_stacks):
    rng = np.random.default_rng(n)
    for n_rows in (0, 1, 2, n // 2, n + 4):
        segments = [np.flatnonzero(rng.random(n) < 0.5) for _ in range(n_rows)]
        rhs = rng.integers(0, 2, size=n_rows, dtype=np.uint8)
        one_by_one, stacked = GF2System(n), GF2System(n)
        for idxs, bit in zip(segments, rhs):
            one_by_one.add_row(pack_indices(idxs, n), [bit])
        # Stacks built by the segment packer, the first ones possibly empty.
        ends = [n_rows * k // (n_stacks + 1) for k in range(1, n_stacks)] + [n_rows]
        for part in map(slice, [0] + ends[:-1], ends):
            sizes = [seg.size for seg in segments[part]]
            starts = np.cumsum([0] + sizes[:-1]) if sizes else np.zeros(0, dtype=np.int64)
            indices = np.concatenate([np.zeros(0, dtype=np.int64)] + segments[part])
            rows = pack_indices(indices, n, starts)
            for seg, row in zip(segments[part], rows):
                np.testing.assert_array_equal(row, pack_indices(seg, n))
            stacked.add_row(rows, rhs[part])
        assert stacked.n_rows == one_by_one.n_rows == n_rows
        a, b = stacked.solve(), one_by_one.solve()
        assert (a is None) == (b is None)
        if a is not None:
            for field in ("particular", "basis", "free_cols"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("n,bad_bit", [(10, 20), (70, 104), (64, None), (130, 191)])
def test_add_row_refuses_rows_not_packed_over_the_unknowns(n, bad_bit):
    system = GF2System(n)
    good = pack_indices(np.array([0, n - 1]), n)
    malformed = [good[:-1], np.concatenate([good, good[:1]])]
    if bad_bit is not None:
        # A bit past the last unknown, in the last word.
        malformed.append(good | pack_indices(np.array([bad_bit]), n_words(n) << 6))
    for row in malformed:
        # As one row, and as the last row of a stack.
        stack = np.stack([np.resize(good, row.shape), row])
        for rows, rhs in ((row, [1]), (stack, [0, 1])):
            with pytest.raises(ValueError, match=f"packed over exactly {n} unknowns"):
                system.add_row(rows, np.array(rhs, dtype=np.uint8))
    assert system.n_rows == 0
    system.add_row(np.stack([good, good]), np.array([1, 1], dtype=np.uint8))
    assert system.solve().dim == n - 1


def test_stacked_rows_need_every_rhs_bit():
    system = GF2System(8)
    rows = pack_indices(np.array([0, 1, 1, 2]), 8, np.array([0, 2]))
    for rhs in ([1], [1, 0, 1]):
        with pytest.raises(ValueError, match=f"expected 2 rhs bits, got {len(rhs)}"):
            system.add_row(rows, np.array(rhs, dtype=np.uint8))
    assert system.n_rows == 0


def test_add_row_refuses_rhs_values_that_are_not_bits():
    # Cast to uint8 and packed, 2 would read as 1, 256 as 0 and -1 as 1;
    # none of them is a bit.
    system = GF2System(3)
    for rhs in ([2], [-1], [256], [0.5], [0, 2]):
        rows = pack_indices(np.zeros(len(rhs), dtype=np.int64), 3, np.arange(len(rhs)))
        with pytest.raises(ValueError, match="rhs bits must be 0 or 1"):
            system.add_row(rows, np.array(rhs))
    assert system.n_rows == 0
    system.add_row(pack_indices(np.array([0]), 3), np.array([True]))
    assert unpack_bits(system.solve().particular, 3).tolist() == [1, 0, 0]


def test_solver_cap():
    with pytest.raises(CapacityError):
        GF2System(1 << 15)


def row_to_int(row):
    return int.from_bytes(np.asarray(row, dtype="<u8").tobytes(), "little")


def int_to_bits(x, n):
    return np.array([(x >> i) & 1 for i in range(n)], dtype=np.uint8)


def assert_solve_matches_row_by_row(n, rows, rhs):
    """``GF2System.solve`` against the row-by-row reference, on rows given
    as int bitmasks with one right-hand side bit each."""
    system = GF2System(n)
    if rows:
        system.add_row(np.array([pack_bits(int_to_bits(row, n)) for row in rows]), rhs)
    (reference,) = row_by_row_cosets(rows, rhs, n, 1)
    coset = system.solve()
    assert (coset is None) == (reference is None)
    if coset is not None:
        particular, basis, free_cols = reference
        assert row_to_int(coset.particular) == particular
        assert [row_to_int(vec) for vec in coset.basis] == basis
        assert coset.free_cols.tolist() == free_cols
    return coset


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_blocked_solve_matches_row_by_row_reference(monkeypatch, n):
    # A one-byte budget reads the carried bits one word, 64 pivot rows, at
    # a time and widens the basis one row at a time.
    for budget in (CHUNK_BYTES, 1):
        monkeypatch.setattr(gf2, "CHUNK_BYTES", budget)
        assert_blocked_solve_matches_row_by_row_reference(n)


def assert_blocked_solve_matches_row_by_row_reference(n):
    rng = np.random.default_rng(n)

    def random_mask(density):
        return sum(1 << c for c in np.flatnonzero(rng.random(n) < density).tolist())

    shapes = set()
    for n_rows in (0, 1, 7, 8, 9, 17, n, n + 9):
        for density in (0.5, 0.05):
            rows = [random_mask(density) for _ in range(n_rows)]
            if n_rows >= 9:
                # An all-zero row in the first block, and a duplicate of
                # row 1 in the second.
                rows[3], rows[8] = 0, rows[1]
            truth = random_mask(0.5)
            # One right-hand side measured from a truth, and one of free
            # bits, inconsistent with odds 1/2 per dependent row.
            measured = [bin(row & truth).count("1") & 1 for row in rows]
            coset = assert_solve_matches_row_by_row(n, rows, measured)
            assert coset is not None
            free = rng.integers(0, 2, size=n_rows).tolist()
            inconsistent = assert_solve_matches_row_by_row(n, rows, free) is None
            kind = "full" if coset.dim == 0 else "partial"
            shapes |= {(kind, False), (kind, inconsistent)}
    assert {("full", False), ("partial", False), ("partial", True)} <= shapes


def test_blocked_solve_clears_both_ways_inside_a_block():
    # Rows 8-10 form the second block: row 9 holds row 8's pivot 67, and
    # after clearing it pivots on 64, below 67; row 10 pivots on 70, which
    # is then cleared from rows 8 and 9, right-hand sides included.  The
    # first block's rows carry each of bits 64-70, so the table gather
    # changes them too.
    first = [(1 << 2 * k) | (1 << 64 + k % 7) for k in range(8)]
    block = [(1 << 67) | (1 << 70), (1 << 64) | (1 << 67), 1 << 70]
    for side in range(2):
        rhs = [value >> side & 1 for value in [k % 4 for k in range(8)] + [0, 1, 3]]
        coset = assert_solve_matches_row_by_row(72, first + block, rhs)
        assert not ({64, 67, 70} & set(coset.free_cols.tolist()))


@pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 2000])
def test_scatter_columns_moves_bit_k_to_column_k(monkeypatch, n_bits):
    # Against a per-bit reference built through from_ints.  The columns are
    # unsorted, as solve's pivot columns arrive in row order; the cases
    # include no columns, every column and no rows.  A one-byte budget
    # widens one row per piece.
    rng = np.random.default_rng(n_bits)
    for budget in (CHUNK_BYTES, 1):
        monkeypatch.setattr(gf2, "CHUNK_BYTES", budget)
        for n_cols, n_rows in [(0, 3), (n_bits, 0), (n_bits, 5), ((n_bits + 1) // 2, 7)]:
            cols = rng.permutation(n_bits)[:n_cols]
            bits = rng.integers(0, 2, size=(n_rows, n_cols))
            rows = pack_bits(bits)
            expected = from_ints(
                [sum(int(bit) << int(col) for bit, col in zip(row, cols)) for row in bits],
                n_bits)
            got = scatter_columns(rows, cols, n_bits)
            assert got.dtype == np.uint64 and got.shape == (n_rows, n_words(n_bits))
            np.testing.assert_array_equal(got, expected)
            assert not any(value >> n_bits for value in to_ints(got))


@pytest.mark.parametrize(
    "n,n_pivots", [(70, 70), (70, 25), (65, 0), (1, 0), (600, 100), (2000, 652)])
def test_coset_basis_rows_follow_the_reduced_rows(monkeypatch, n, n_pivots):
    # Reduced rows in any pivot order: row i sets its pivot column, no
    # other pivot column, and random free columns.  Basis row k must set
    # free column k and exactly the pivots of the rows that carry it, and
    # each of three sides' particulars exactly the pivots its packed bits
    # name.  The cases cover dimension 0, n not a multiple of 64, no
    # pivots, and, under a quarter of the budget, a dimension (500)
    # spanning more than one piece of the widening and the README trial's
    # shape, 1348 free columns, in several; a piece's byte rows stay within
    # the budget.
    budget = CHUNK_BYTES >> 2
    monkeypatch.setattr(gf2, "CHUNK_BYTES", budget)
    real_pack, pieces = gf2.pack_bits, []

    def pack(bits):
        pieces.append(bits.shape)
        return real_pack(bits)

    monkeypatch.setattr(gf2, "pack_bits", pack)
    rng = np.random.default_rng(n + n_pivots)
    pivot_cols = rng.permutation(n)[:n_pivots]
    is_free = np.ones(n, dtype=bool)
    is_free[pivot_cols] = False
    free_cols = np.flatnonzero(is_free)
    bits = (rng.random((n_pivots, n)) < 0.5).astype(np.uint8)
    bits[:, pivot_cols] = np.eye(n_pivots, dtype=np.uint8)
    pivot_bits = rng.integers(0, 2, size=(3, n_pivots), dtype=np.uint8)
    sides, carried = pack_bits(pivot_bits), pack_bits(bits[:, free_cols].T)
    pieces.clear()
    cosets = pivot_cosets(sides, carried, pivot_cols, free_cols, n)
    assert len(cosets) == 3
    basis = cosets[0].basis
    assert basis.shape == (free_cols.size, n_words(n)) and not basis.flags.writeable
    assert not free_cols.flags.writeable
    # The particulars take one piece, the basis the rest.
    assert pieces[0] == (3, n) and sum(rows for rows, _ in pieces[1:]) == free_cols.size
    assert all(rows * n <= budget for rows, _ in pieces)
    if n == 600:
        assert len(pieces) - 1 > 1
    if n == 2000:
        assert len(pieces) - 1 >= 6
    for k, col in enumerate(free_cols.tolist()):
        expected = {col} | set(pivot_cols[bits[:, col] == 1].tolist())
        assert set(np.flatnonzero(unpack_bits(basis[k], n)).tolist()) == expected
    assert not (unpack_bits(basis, n).astype(int) @ bits.T.astype(int) % 2).any()
    for coset, side in zip(cosets, pivot_bits):
        assert coset.n_unknowns == n
        assert coset.basis is basis and coset.free_cols is free_cols
        assert set(np.flatnonzero(unpack_bits(coset.particular, n)).tolist()) == set(
            pivot_cols[side == 1].tolist())


@st.composite
def parity_systems(draw):
    """(n, rows as bitmask ints, rhs bit per row); rhs bits are free, so
    inconsistent systems occur."""
    n = draw(st.integers(1, 12))
    n_rows = draw(st.integers(0, n + 3))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n_rows, max_size=n_rows))
    rhs = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    return n, rows, rhs


@settings(max_examples=150, deadline=None)
@given(parity_systems(), st.lists(st.integers(0, (1 << 12) - 1), max_size=32))
def test_solve_matches_brute_force(system_spec, probes):
    n, rows, rhs = system_spec
    system = GF2System(n)
    for mask, bit in zip(rows, rhs):
        idxs = [i for i in range(n) if (mask >> i) & 1]
        system.add_row(pack_indices(np.array(idxs, dtype=np.int64), n), np.array([bit]))
    coset = system.solve()
    solutions = {
        x for x in range(1 << n)
        if all(bin(mask & x).count("1") % 2 == bit for mask, bit in zip(rows, rhs))
    }
    if not solutions:
        assert coset is None
        return
    assert coset is not None
    elements = [row_to_int(r) for r in _enumerate_coset(coset)]
    assert len(elements) == 1 << coset.dim
    assert set(elements) == solutions
    # Basis row k carries free column k and no other free column.
    free = set(coset.free_cols.tolist())
    for col, vec in zip(coset.free_cols.tolist(), coset.basis):
        support = set(np.flatnonzero(unpack_bits(vec, n)).tolist())
        assert support & free == {col}
    for x in list(solutions)[:8] + [p & ((1 << n) - 1) for p in probes]:
        assert coset.contains(pack_bits(int_to_bits(x, n))) == (x in solutions)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pack_round_trip_property(n, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    packed = pack_bits(bits)
    assert packed.dtype == np.uint64 and packed.shape == (n_words(n),)
    # Unknown i is bit i & 63 of word i >> 6; bits past n stay clear.
    assert row_to_int(packed) == sum(int(b) << i for i, b in enumerate(bits))
    np.testing.assert_array_equal(unpack_bits(packed, n), bits)
    np.testing.assert_array_equal(pack_indices(np.flatnonzero(bits), n), packed)
    assert row_weight(packed) == int(bits.sum())
    # The int pair round-trips a stack, in row_to_int's bit order.
    stack = np.stack([packed, ~packed & pack_bits(np.ones(n, dtype=np.uint8))])
    values = to_ints(stack)
    assert values == [row_to_int(row) for row in stack]
    rows = from_ints(values, n)
    assert rows.dtype == np.uint64 and rows.shape == (2, n_words(n))
    np.testing.assert_array_equal(rows, stack)
    assert from_ints([], n).shape == (0, n_words(n))
    for bad in (values[0] | 1 << n, -1):
        with pytest.raises(ValueError, match=f"bit at or past {n}"):
            from_ints([values[1], bad], n)


def test_rows_over_zero_unknowns_round_trip():
    # Rows over no unknowns are zero words wide, as pack_bits makes them;
    # each value must be 0.
    for values in ([], [0, 0]):
        rows = from_ints(values, 0)
        assert rows.dtype == np.uint64 and rows.shape == (len(values), 0)
        assert to_ints(rows) == values
        assert pack_bits(np.zeros((len(values), 0), dtype=np.uint8)).shape == rows.shape
    with pytest.raises(ValueError, match="bit at or past 0"):
        from_ints([0, 1], 0)


@pytest.mark.parametrize("n_a,n_b,width", [
    (0, 5, 2), (4, 0, 3), (3, 5, 0), (1, 1, 1), (9, 8, 1), (7, 9, 2), (40, 130, 3), (30, 700, 11),
])
def test_mat_mul_matches_row_by_row_xor(monkeypatch, n_a, n_b, width):
    # Row r of the product is the XOR of the rows of b that row r of a
    # selects.  A budget of 1 byte builds one table and gathers one row at
    # a time; the large one builds and gathers all at once.
    rng = np.random.default_rng([n_a, n_b, width])
    selectors = rng.integers(0, 2, size=(n_a, n_b), dtype=np.uint8)
    a = pack_bits(selectors)
    b = rng.integers(0, 1 << 63, size=(n_b, width), dtype=np.uint64)
    expected = np.zeros((n_a, width), dtype=np.uint64)
    for r, row in enumerate(selectors):
        for i in np.flatnonzero(row):
            expected[r] ^= b[i]
    for budget in (1, 1 << 12, 1 << 30):
        monkeypatch.setattr(gf2, "CHUNK_BYTES", budget)
        got = mat_mul(a, b)
        assert got.dtype == np.uint64 and got.shape == (n_a, width)
        np.testing.assert_array_equal(got, expected)


def test_solve_peaks_within_its_rows_and_the_chunk_budget():
    # Traced allocations of one solve of 1000 random rows over 3000
    # unknowns, over the coset it returns: two copies of the working rows
    # (the solve concatenates them, right-hand sides as one more word), the
    # carried bits, and pieces within the budget for the rest: the carried
    # read, the widening and the table gathers.  Reading the carried bits
    # through dense byte matrices, (pivots x unknowns) and then (pivots x
    # free), would take 5 MB here.
    n, n_rows = 3000, 1000
    rng = np.random.default_rng(n)
    system = GF2System(n)
    system.add_row(pack_bits(rng.integers(0, 2, size=(n_rows, n), dtype=np.uint8)),
                   rng.integers(0, 2, size=n_rows))
    tracemalloc.start()
    try:
        coset = system.solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coset is not None and coset.dim == n - n_rows
    outputs = coset.particular.nbytes + coset.basis.nbytes + coset.free_cols.nbytes
    working = n_rows * (n_words(n) + 1) * 8
    carried = coset.dim * n_words(n_rows) * 8
    assert peak - outputs <= 2 * working + carried + CHUNK_BYTES
