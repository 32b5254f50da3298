import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify.ensemble import (
    DiagonalEnsemble,
    SingleDistribution,
    WernerParams,
    apply_mxor,
    bit_marginals,
    block_step,
    block_yield,
    iid_block,
    shannon_entropy,
    werner_rows,
    werner_single,
)
from catpurify.errors import CapacityError
from catpurify.labels import CatLabel, mxor
from oracles import brute_force_block_step, flatten_joint

# Frozen by independent extended-precision summation.
ENTROPY_WERNER_07 = 1.3567796494470395


def test_werner_params_relation():
    params = WernerParams.from_fidelity(3, 0.9)
    assert abs(params.fidelity - (params.alpha + (1 - params.alpha) / 8)) < 1e-12
    with pytest.raises(ValueError):
        WernerParams.from_fidelity(2, 0.2)


def test_werner_single_examples():
    np.testing.assert_allclose(werner_single(2, 1.0).probs, [1, 0, 0, 0], atol=0)
    np.testing.assert_allclose(werner_single(2, 0.25).probs, [0.25] * 4, atol=1e-15)
    np.testing.assert_allclose(
        werner_single(2, 0.7).probs, [0.7, 0.1, 0.1, 0.1], atol=1e-15
    )


def test_werner_rows_match_scalar_formula():
    # Interior points, both endpoints and fidelities within the validation
    # tolerance outside them (their dust is snapped to zero), against the
    # formula in Python floats.
    for n in (2, 3, 5):
        dim = 1 << n
        fids = np.concatenate([np.linspace(1.0 / dim, 1.0, 37), [1.0 / dim - 5e-13, 1.0 + 5e-13]])
        rows = werner_rows(n, fids)
        for f, row in zip(fids.tolist(), rows):
            assert row.tolist() == [min(f, 1.0)] + [max((1.0 - f) / (dim - 1), 0.0)] * (dim - 1)
            assert row.tolist() == werner_single(n, f).probs.tolist()
    for bad in ([0.9, 1.1, 0.1], [0.2, 0.5]):
        with pytest.raises(ValueError) as grid_error:
            werner_rows(2, np.array(bad))
        first = next(f for f in bad if not 0.25 <= f <= 1.0)
        with pytest.raises(ValueError) as point_error:
            WernerParams.from_fidelity(2, first)
        assert str(grid_error.value) == str(point_error.value) == (
            f"fidelity {first} outside [0.25, 1] for N=2"
        )


def test_werner_single_domain_error():
    with pytest.raises(ValueError):
        werner_single(2, 0.2)
    with pytest.raises(ValueError):
        werner_single(2, 1.1)


def test_iid_block_single_state_is_identity():
    single = werner_single(2, 0.7)
    block = iid_block(single, 1)
    np.testing.assert_allclose(block.probs, single.probs, atol=0)
    # A block step needs a target and at least one source.
    for fn in (block_step, block_yield):
        with pytest.raises(ValueError, match="at least 2"):
            fn(single, 1)


def test_iid_block_point_mass():
    block = iid_block(werner_single(2, 1.0), 3)
    assert block.probs[0] == 1.0
    assert block.probs.sum() == 1.0


def test_iid_block_product_arithmetic():
    block = iid_block(werner_single(2, 0.7), 2)
    assert abs(block.probs[0] - 0.49) < 1e-15
    assert abs(block.probs.sum() - 1.0) < 1e-12


def test_iid_block_capacity():
    with pytest.raises(CapacityError):
        iid_block(werner_single(4, 0.9), 7)


@pytest.mark.parametrize("m", [10**5, 10**8])
def test_dense_capacity_error_without_big_integers(m):
    # 4^m entries: the check must refuse by exponent, not by building and
    # formatting a 2m-bit integer.
    single = werner_single(2, 0.9)
    for fn in (iid_block, block_step):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapacityError):
                fn(single, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5
        assert peak < 100_000


def test_shannon_entropy_examples():
    assert shannon_entropy(np.full(4, 0.25)) == 2.0
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert abs(shannon_entropy(np.array([0.7, 0.1, 0.1, 0.1])) - ENTROPY_WERNER_07) < 1e-12
    with pytest.raises(ValueError):
        shannon_entropy(np.array([0.5, 0.4]))


def test_block_step_pure_input():
    p_pass, passed = block_step(werner_single(2, 1.0), 2)
    assert p_pass == 1.0
    assert passed.probs[0] == 1.0


def test_block_step_pass_probability_m2():
    p_pass, _ = block_step(werner_single(2, 0.7), 2)
    assert abs(p_pass - 0.68) < 1e-12


@pytest.mark.parametrize(
    "n_parties,m",
    [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)],
)
def test_block_step_matches_enumeration_oracle(n_parties, m):
    single = werner_single(n_parties, 0.7 if n_parties == 2 else 0.85)
    p_pass, passed = block_step(single, m)
    oracle_p, oracle_passed = brute_force_block_step(
        single.probs.tolist(), n_parties, m
    )
    assert abs(p_pass - oracle_p) < 1e-12
    expected = flatten_joint(oracle_passed, n_parties, m - 1)
    np.testing.assert_allclose(passed.probs, expected, atol=1e-12)


def test_block_step_zero_pass_probability():
    # Point mass on the amplitude-one label: three copies can never cancel.
    probs = np.zeros(4)
    probs[0b01] = 1.0
    single = SingleDistribution(2, probs)
    p_pass, passed = block_step(single, 3)
    assert p_pass == 0.0
    assert passed is None
    assert block_yield(single, 3) == 0.0


def test_block_step_order_invariance_m4():
    single = werner_single(2, 0.72)
    _, default = block_step(single, 4)
    _, reversed_order = block_step(single, 4, source_order=(2, 1, 0))
    np.testing.assert_allclose(default.probs, reversed_order.probs, atol=1e-12)


@pytest.mark.parametrize("m", [3, 4])
def test_block_step_exchangeability(m):
    # i.i.d. sources: the passed joint distribution is slot-symmetric.
    _, passed = block_step(werner_single(2, 0.8), m)
    dim = 4
    shaped = passed.probs.reshape((dim,) * (m - 1))
    for perm in itertools.permutations(range(m - 1)):
        np.testing.assert_allclose(shaped, shaped.transpose(perm), atol=1e-12)


@pytest.mark.parametrize("n_parties", [2, 3, 4])
def test_m2_pass_probability_independent_loop(n_parties):
    single = werner_single(n_parties, 0.8)
    amp_mask = (1 << (n_parties - 1)) - 1
    total = 0.0
    for a in range(1 << n_parties):
        for b in range(1 << n_parties):
            if (a & amp_mask) == (b & amp_mask):
                total += single.probs[a] * single.probs[b]
    p_pass, _ = block_step(single, 2)
    assert abs(p_pass - total) < 1e-12


@pytest.mark.parametrize("f", [0.55, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_block_step_normalization_and_bounds(f, m):
    single = werner_single(2, f)
    p_pass, passed = block_step(single, m)
    assert 0.0 <= p_pass <= 1.0
    assert abs(passed.probs.sum() - 1.0) < 1e-9
    entropy = shannon_entropy(passed.probs)
    assert 0.0 <= entropy <= (m - 1) * 2


def test_block_yield_pure_input_exact():
    for m in range(2, 7):
        assert block_yield(werner_single(2, 1.0), m) == (m - 1) / m
    for n_parties, m in ((2, 24), (3, 8), (3, 12), (4, 5)):
        assert block_yield(werner_single(n_parties, 1.0), m) == (m - 1) / m


def dense_block_yield(single, m):
    """The block yield through the dense joint distribution."""
    p_pass, passed = block_step(single, m)
    if passed is None:
        return 0.0
    return p_pass * ((m - 1) / m) * (1.0 - shannon_entropy(passed.probs) / (m - 1))


def tilted_single(n_parties, fidelity):
    """A non-isotropic distribution: off-target weights rise with the label
    and the phase-flipped target label carries none."""
    dim = 1 << n_parties
    rest = np.arange(1, dim, dtype=float)
    rest[dim // 2 - 1] = 0.0
    probs = np.concatenate([[fidelity], (1.0 - fidelity) * rest / rest.sum()])
    return SingleDistribution(n_parties, probs)


@pytest.mark.parametrize(
    "n_parties,m",
    [(2, m) for m in range(2, 9)] + [(3, m) for m in range(2, 8)] + [(4, m) for m in range(2, 6)],
)
def test_block_yield_matches_dense_engine(n_parties, m):
    for single in (werner_single(n_parties, 0.9), tilted_single(n_parties, 0.7)):
        assert abs(block_yield(single, m) - dense_block_yield(single, m)) < 1e-12


@pytest.mark.parametrize("n_parties,m", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)])
def test_block_yield_matches_enumeration_oracle(n_parties, m):
    single = tilted_single(n_parties, 0.8)
    p_pass, passed = brute_force_block_step(single.probs.tolist(), n_parties, m)
    entropy = -sum(p * math.log2(p) for p in passed.values() if p > 0.0)
    expected = p_pass * ((m - 1) / m) * (1.0 - entropy / (m - 1))
    assert abs(block_yield(single, m) - expected) < 1e-12


@st.composite
def single_and_block_size(draw):
    n_parties = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 6 if n_parties == 2 else 4))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            min_size=1 << n_parties,
            max_size=1 << n_parties,
        ).filter(lambda w: sum(w) > 0.0)
    )
    probs = np.array(weights) / sum(weights)
    return SingleDistribution(n_parties, probs), m


@settings(max_examples=80, deadline=None)
@given(single_and_block_size())
def test_block_yield_matches_dense_engine_on_any_iid_input(case):
    single, m = case
    assert abs(block_yield(single, m) - dense_block_yield(single, m)) < 1e-12


@pytest.mark.parametrize("n_parties", [2, 3])
def test_block_yield_zero_pass(n_parties):
    # A point mass on an amplitude-one label never passes an odd block.
    probs = np.zeros(1 << n_parties)
    probs[1] = 1.0
    for m in (3, 5, 11):
        assert block_yield(SingleDistribution(n_parties, probs), m) == 0.0


@pytest.mark.parametrize("n_parties,m", [(2, 24), (3, 12)])
def test_block_yield_large_m(n_parties, m):
    start = time.monotonic()
    for f in (0.6, 0.8, 0.95, 0.99):
        y = block_yield(werner_single(n_parties, f), m)
        assert math.isfinite(y) and -1.0 <= y < 1.0
    # Uniform input: a share 2^-(N-1) of the blocks passes, the survivors stay
    # uniform, and the yield is 2^-(N-1) * (m-1)/m * (1 - N).
    uniform = werner_single(n_parties, 1.0 / (1 << n_parties))
    expected = (m - 1) / m * (1 - n_parties) / (1 << (n_parties - 1))
    assert abs(block_yield(uniform, m) - expected) < 1e-12
    assert time.monotonic() - start < 5.0


def test_block_yield_capacity_is_the_class_table():
    single = werner_single(2, 0.9)
    entries = 4 * math.comb(4 + 5 - 2, 5 - 1)  # N=2, m=5
    assert block_yield(single, 5, cap=entries) == block_yield(single, 5)
    with pytest.raises(CapacityError):
        block_yield(single, 5, cap=entries - 1)
    # The dense engine's cap is unchanged: 8^9 entries is out of its reach,
    # while the N=3, m=9 class table is small.
    with pytest.raises(CapacityError):
        block_step(werner_single(3, 0.9), 9)
    assert math.isfinite(block_yield(werner_single(3, 0.9), 9))


@pytest.mark.parametrize("n_parties,m", [(8, 8), (2, 10**9), (16, 10**6)])
def test_block_yield_capacity_error_before_allocation(n_parties, m):
    single = SingleDistribution(n_parties, np.full(1 << n_parties, 2.0**-n_parties))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            block_yield(single, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_block_yield_boundary_nonpositive():
    single = werner_single(2, 0.501)
    for m in range(2, 7):
        assert block_yield(single, m) <= 0.0


def test_block_step_monte_carlo_consistency():
    # 10^6 sampled label tuples wired classically reproduce p_pass.
    single = werner_single(2, 0.7)
    m = 3
    p_pass, _ = block_step(single, m)
    rng = np.random.default_rng(123)
    codes = rng.choice(4, size=(10**6, m), p=single.probs)
    amps = codes & 1
    passed = (np.bitwise_xor.reduce(amps, axis=1) == 0).mean()
    stderr = math.sqrt(p_pass * (1 - p_pass) / 10**6)
    assert abs(passed - p_pass) < 4 * stderr


def test_bit_marginals_examples():
    p_phase, p_amps = bit_marginals(werner_single(2, 0.7))
    assert abs(p_phase - 0.2) < 1e-12
    np.testing.assert_allclose(p_amps, [0.2], atol=1e-12)

    p_phase, p_amps = bit_marginals(werner_single(3, 1.0))
    assert p_phase == 0.0
    np.testing.assert_allclose(p_amps, [0.0, 0.0], atol=0)

    p_phase, p_amps = bit_marginals(werner_single(3, 0.9))
    expected = 4 * 0.1 / 7
    assert abs(p_phase - expected) < 1e-12
    np.testing.assert_allclose(p_amps, [expected, expected], atol=1e-12)


def test_apply_mxor_permutation_preserves_mass():
    ens = iid_block(werner_single(3, 0.8), 2)
    out = apply_mxor(ens, 0, 1)
    assert abs(out.probs.sum() - 1.0) < 1e-12
    # Involution: applying the same gate twice restores the ensemble.
    back = apply_mxor(out, 0, 1)
    np.testing.assert_allclose(back.probs, ens.probs, atol=0)


@st.composite
def ensemble_and_slot_pair(draw):
    n_parties = draw(st.sampled_from([2, 3]))
    n_states = draw(st.integers(2, 3))
    source, target = draw(st.permutations(range(n_states)))[:2]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random((1 << n_parties) ** n_states)
    return DiagonalEnsemble(n_parties, n_states, weights / weights.sum()), source, target


@settings(max_examples=60, deadline=None)
@given(ensemble_and_slot_pair())
def test_apply_mxor_moves_every_entry_as_labels_mxor_does(case):
    ens, source, target = case
    n, n_states = ens.n_parties, ens.n_states
    out = apply_mxor(ens, source, target)
    # State 0 holds the most significant N bits of the flat index.
    shifts = [n * (n_states - 1 - slot) for slot in range(n_states)]
    for flat in range(ens.probs.size):
        codes = [(flat >> shift) & ((1 << n) - 1) for shift in shifts]
        new_source, new_target = mxor(
            CatLabel.decode(codes[source], n), CatLabel.decode(codes[target], n)
        )
        codes[source], codes[target] = new_source.encode(), new_target.encode()
        moved = sum(code << shift for code, shift in zip(codes, shifts))
        assert out.probs[moved] == ens.probs[flat]
    np.testing.assert_array_equal(apply_mxor(out, source, target).probs, ens.probs)


def test_diagonal_ensemble_validation():
    with pytest.raises(Exception):
        DiagonalEnsemble(2, 2, np.zeros(5))
