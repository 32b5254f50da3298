import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify.errors import CapacityError
from catpurify.gf2 import (
    GF2System,
    _enumerate_coset,
    decode_map,
    n_words,
    pack_bits,
    pack_indices,
    row_weight,
    unpack_bits,
)


def random_system(rng, n, k, truth):
    system = GF2System(n, n_sides=1)
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
        coset = system.solve()[0]
        assert coset is not None
        assert coset.contains(pack_bits(truth))
        result = decode_map(coset, prior_one, exact_dim_cap=16)
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
    system = GF2System(n, n_sides=1)
    # Unit rows pin every variable.
    for i in range(n):
        system.add_row(pack_indices(np.array([i]), n), np.array([truth[i]], dtype=np.uint8))
    coset = system.solve()[0]
    assert coset.dim == 0
    result = decode_map(coset, 0.3)
    assert result.status == "unique"
    np.testing.assert_array_equal(result.bits, truth)


def test_decode_degenerate_prior():
    system = GF2System(6, n_sides=1)
    coset = system.solve()[0]
    result = decode_map(coset, 0.0)
    assert result.status == "degenerate"
    assert result.bits.sum() == 0
    result = decode_map(coset, 1.0)
    assert result.bits.sum() == 6
    # The forced string must lie in the coset: x0 + x1 = 1 excludes both.
    system.add_row(pack_indices(np.array([0, 1]), 6), np.array([1], dtype=np.uint8))
    coset = system.solve()[0]
    for prior_one in (0.0, 1.0):
        assert decode_map(coset, prior_one).status == "ambiguous"


def test_decode_half_prior_is_ambiguous():
    system = GF2System(3, n_sides=1)
    system.add_row(pack_indices(np.array([0, 1]), 3), np.array([0], dtype=np.uint8))
    coset = system.solve()[0]
    assert decode_map(coset, 0.5).status == "ambiguous"


def test_decode_intractable_above_cap():
    system = GF2System(40, n_sides=1)
    system.add_row(pack_indices(np.array([0, 1]), 40), np.array([1], dtype=np.uint8))
    coset = system.solve()[0]
    assert decode_map(coset, 0.2, exact_dim_cap=16).status == "intractable"


def test_shared_matrix_multiple_sides():
    rng = np.random.default_rng(3)
    n = 12
    truths = [(rng.random(n) < 0.25).astype(np.uint8) for _ in range(2)]
    system = GF2System(n, n_sides=2)
    for i in range(n):
        sel = rng.random(n) < 0.5
        idxs = np.nonzero(sel)[0]
        rhs = np.array([int(t[sel].sum() & 1) for t in truths], dtype=np.uint8)
        system.add_row(pack_indices(idxs, n), rhs)
    cosets = system.solve()
    assert len(cosets) == 2
    for coset, truth in zip(cosets, truths):
        assert coset.contains(pack_bits(truth))


def test_inconsistent_side_reports_none():
    system = GF2System(4, n_sides=1)
    system.add_row(pack_indices(np.array([0, 1]), 4), np.array([0], dtype=np.uint8))
    system.add_row(pack_indices(np.array([0, 1]), 4), np.array([1], dtype=np.uint8))
    assert system.solve()[0] is None
    result = decode_map(None, 0.2)
    assert (result.status, result.bits, result.coset_dim) == ("ambiguous", None, -1)


def test_solver_cap():
    with pytest.raises(CapacityError):
        GF2System(1 << 15)


def row_to_int(row):
    return int.from_bytes(np.asarray(row, dtype="<u8").tobytes(), "little")


def int_to_bits(x, n):
    return np.array([(x >> i) & 1 for i in range(n)], dtype=np.uint8)


@st.composite
def parity_systems(draw):
    """(n, rows as bitmask ints, rhs per row per side); rhs bits are free,
    so inconsistent sides occur."""
    n = draw(st.integers(1, 12))
    n_sides = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, n + 3))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n_rows, max_size=n_rows))
    rhs = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n_sides, max_size=n_sides),
        min_size=n_rows, max_size=n_rows,
    ))
    return n, n_sides, rows, rhs


@settings(max_examples=150, deadline=None)
@given(parity_systems(), st.lists(st.integers(0, (1 << 12) - 1), max_size=32))
def test_solve_matches_brute_force(system_spec, probes):
    n, n_sides, rows, rhs = system_spec
    system = GF2System(n, n_sides=n_sides)
    for mask, bits in zip(rows, rhs):
        idxs = [i for i in range(n) if (mask >> i) & 1]
        system.add_row(pack_indices(np.array(idxs, dtype=np.int64), n), np.array(bits))
    cosets = system.solve()
    assert len(cosets) == n_sides
    for side, coset in enumerate(cosets):
        solutions = {
            x for x in range(1 << n)
            if all(bin(mask & x).count("1") % 2 == bits[side] for mask, bits in zip(rows, rhs))
        }
        if not solutions:
            assert coset is None
            continue
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

