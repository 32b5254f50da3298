import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify.errors import CapacityError
from catpurify.hashing import two_party_hashing_yield, werner_hashing_yield
from catpurify.ensemble import SingleDistribution, block_step, werner_single
from catpurify.strategy import (
    GRID_CHUNK,
    METHODS,
    MethodSpec,
    _raw_yield,
    _recurrence_raw,
    best_method,
    block_then_hashing,
    fidelity_grid,
    find_knee,
    recurrence_round,
    recurrence_then_hashing,
    yield_curve,
)
from oracles import brute_force_block_step, flatten_joint


def test_recurrence_pure_input():
    assert recurrence_then_hashing(1.0) == (1.0, 0)


def test_recurrence_hashes_immediately_at_high_fidelity():
    y, rounds = recurrence_then_hashing(0.95)
    assert rounds == 0
    assert abs(y - two_party_hashing_yield(werner_single(2, 0.95))) < 1e-15


def test_recurrence_helps_at_low_fidelity():
    y, rounds = recurrence_then_hashing(0.6)
    assert rounds >= 1
    assert y > 0.0


def test_recurrence_exact_variant_stalls_at_low_fidelity():
    # Tracking the raw passed distribution never catches accumulated phase
    # errors: from f=0.6 the iterate converges to the half/half mixture and
    # the yield collapses, which is why every round twirls.
    y_exact = max(dense_recurrence(0.6, 20, "exact"))
    assert y_exact <= 1e-12
    y_twirl, _ = recurrence_then_hashing(0.6)
    assert y_twirl > y_exact


def test_block_then_hashing_examples():
    assert block_then_hashing(1.0, 4) == 0.75
    assert block_then_hashing(0.55, 4) == 0.0
    rec, _ = recurrence_then_hashing(0.85)
    assert max(block_then_hashing(0.85, 3), block_then_hashing(0.85, 4)) > rec
    with pytest.raises(ValueError):
        block_then_hashing(0.9, 9)
    with pytest.raises(ValueError):
        block_then_hashing(0.9, 1)


def method_list():
    return [
        MethodSpec.from_id("rec-hash"),
        MethodSpec.from_id("block3"),
        MethodSpec.from_id("block4"),
        MethodSpec.from_id("block5"),
    ]


def test_best_method_near_one():
    winner, y = best_method(0.99, method_list())
    assert winner.method_id == "rec-hash"
    winner, y = best_method(1.0, method_list())
    assert winner.method_id == "rec-hash"
    assert y == 1.0


def test_best_method_picks_a_later_method():
    methods = [MethodSpec.from_id("2p-hash"), MethodSpec.from_id("rec-hash")]
    winner, y = best_method(0.7, methods)
    assert winner is methods[1]
    assert y == recurrence_then_hashing(0.7)[0] > 0.0


def test_best_method_single_entry():
    only = [MethodSpec.from_id("block3")]
    winner, _ = best_method(0.9, only)
    assert winner is only[0]


def test_best_method_applies_the_method_list_rules():
    two_party = [MethodSpec.from_id("rec-hash"), MethodSpec.from_id("mp-hash")]
    with pytest.raises(ValueError, match=r"^method rec-hash only applies to N=2$"):
        best_method(0.9, two_party, n_parties=3)
    twice = [MethodSpec.from_id("mp-hash"), MethodSpec.from_id("mp-hash")]
    with pytest.raises(ValueError, match=r"^method mp-hash requested more than once$"):
        best_method(0.9, twice)


def test_method_spec_ids_round_trip():
    for mid in ("rec-hash", "block3", "mp-hash", "2p-hash"):
        assert MethodSpec.from_id(mid).method_id == mid
    specs = [MethodSpec(kind) for kind in METHODS if kind != "block"]
    specs += [MethodSpec("block", m=m) for m in range(2, 9)]
    for spec in specs:
        assert MethodSpec.from_id(spec.method_id, max_rounds=7) == replace(spec, max_rounds=7)
    assert len({spec.method_id for spec in specs}) == len(specs)
    with pytest.raises(ValueError):
        MethodSpec.from_id("block-3")
    with pytest.raises(ValueError):
        MethodSpec("mp-hash", m=3)
    with pytest.raises(ValueError, match=r"^max rounds must be non-negative, got -5$"):
        MethodSpec("rec-hash", max_rounds=-5)
    assert MethodSpec("rec-hash", max_rounds=0).max_rounds == 0


def test_fidelity_grid_shapes():
    grid = fidelity_grid(0.5, 1.0, 0.1)
    np.testing.assert_allclose(grid, [0.5, 0.6, 0.7, 0.8, 0.9, 1.0], atol=1e-12)
    assert fidelity_grid(0.7, 0.8, 0.5).tolist() == [0.7]
    assert fidelity_grid(0.7, 0.7, 0.1).tolist() == [0.7]
    with pytest.raises(CapacityError, match=r"^1000000000 grid points exceeds the cap 1000000$"):
        fidelity_grid(0.0, 1.0, 1e-9)
    with pytest.raises(CapacityError, match=r"^1000001 grid points exceeds the cap 1000000$"):
        fidelity_grid(0.0, 1.0, 1e-6)
    assert fidelity_grid(0.0, 0.999999, 1e-6).size == 1000000
    # Subnormal steps overflow the point count to infinity.
    for step in (1e-320, 5e-324):
        with pytest.raises(CapacityError, match=r"^inf grid points exceeds the cap 1000000$"):
            fidelity_grid(0.5, 1.0, step)
    # Past 2^53 the float count is printed, not its 300 integer digits.
    with pytest.raises(CapacityError, match=r"^5e\+299 grid points exceeds the cap 1000000$"):
        fidelity_grid(0.5, 1.0, 1e-300)
    with pytest.raises(ValueError):
        fidelity_grid(0.9, 0.8, 0.1)


def test_yield_curve_multiparty_structure():
    methods = [MethodSpec.from_id("mp-hash")]
    for n in (2, 3, 4):
        curve = yield_curve(n, 0.8, 1.0, 0.01, methods)
        raw = curve.raw["mp-hash"]
        assert np.all(np.diff(raw) > 0)
        assert raw[-1] == 1.0
        np.testing.assert_allclose(
            raw, [werner_hashing_yield(n, float(f)) for f in curve.grid], atol=1e-15
        )


def test_yield_curve_n2_separate_below_joint():
    methods = [MethodSpec.from_id("mp-hash"), MethodSpec.from_id("2p-hash")]
    curve = yield_curve(2, 0.5, 1.0, 0.01, methods)
    assert np.all(curve.raw["mp-hash"] <= curve.raw["2p-hash"] + 1e-12)


def test_yield_curve_rejects_two_party_methods_at_higher_n():
    with pytest.raises(ValueError):
        yield_curve(3, 0.8, 0.9, 0.01, [MethodSpec.from_id("rec-hash")])


def test_yield_curve_needs_two_parties():
    with pytest.raises(ValueError, match=r"^need at least 2 parties, got 1$"):
        yield_curve(1, 0.6, 0.6, 1, [MethodSpec("mp-hash")])


@pytest.mark.parametrize(
    "method_id", ["rec-hash", "2p-hash", "mp-hash", "block3", "block4"]
)
def test_method_yields_monotone_in_fidelity(method_id):
    curve = yield_curve(2, 0.5, 1.0, 0.001, [MethodSpec.from_id(method_id)])
    raw = curve.raw[method_id]
    assert np.all(np.diff(raw) >= -1e-12)
    expected_at_one = 1.0 if not method_id.startswith("block") else (
        (int(method_id[5:]) - 1) / int(method_id[5:])
    )
    assert abs(raw[-1] - expected_at_one) < 1e-12


def test_raw_yields_within_global_bounds():
    methods = [MethodSpec.from_id(mid) for mid in ("rec-hash", "2p-hash", "block3", "block6")]
    curve = yield_curve(2, 0.5, 1.0, 0.01, methods)
    for mid in curve.raw:
        assert np.all(curve.raw[mid] <= 1.0)
        assert np.all(curve.raw[mid] >= -4.0)
    deep = yield_curve(4, 0.3, 1.0, 0.01, [MethodSpec.from_id("mp-hash")])
    assert np.all(deep.raw["mp-hash"] >= -8.0)


def test_find_knee_location_and_meaning():
    knee = find_knee()
    assert knee is not None
    assert 0.5 < knee < 1.0
    for f in (knee + 0.001, knee + 0.01, knee + 0.05):
        if f <= 1.0:
            assert recurrence_then_hashing(f)[1] == 0
    assert recurrence_then_hashing(knee - 0.01)[1] >= 1


@st.composite
def any_single(draw):
    """A non-isotropic distribution at N=2 or 3, often with zero entries."""
    n_parties = draw(st.sampled_from([2, 3]))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            min_size=1 << n_parties,
            max_size=1 << n_parties,
        ).filter(lambda w: sum(w) > 0.0)
    )
    return SingleDistribution(n_parties, np.array(weights) / sum(weights))


@settings(max_examples=150, deadline=None)
@given(any_single())
def test_recurrence_round_matches_dense_step_and_enumeration(single):
    p_pass, passed = recurrence_round(single)
    dense_p, dense = block_step(single, 2)
    oracle_p, oracle = brute_force_block_step(single.probs.tolist(), single.n_parties, 2)
    assert abs(p_pass - dense_p) <= 1e-15 and abs(p_pass - oracle_p) <= 1e-15
    assert np.max(np.abs(passed.probs - dense.probs)) <= 1e-15
    assert np.max(np.abs(passed.probs - flatten_joint(oracle, single.n_parties, 1))) <= 1e-15


@pytest.mark.parametrize("n_parties", [2, 3])
def test_recurrence_round_zero_pass(n_parties):
    # No normalized input fails every pair (sum_a P(a)^2 >= 2^-(N-1)), so
    # zero the vector after validation to reach the p_pass = 0 branch.
    single = werner_single(n_parties, 0.9)
    single.probs[:] = 0.0
    assert block_step(single, 2) == (0.0, None)
    assert recurrence_round(single) == (0.0, None)


def dense_recurrence(fidelity, max_rounds, variant):
    """Per-round yields of the recurrence chain on the dense engine: entry r
    is the yield of r rounds then hashing (entry 0 hashes at once)."""
    dist = werner_single(2, fidelity)
    factor = 1.0
    yields = [two_party_hashing_yield(dist)]
    for _ in range(max_rounds):
        p_pass, passed = block_step(dist, 2)
        if passed is None:
            break
        nxt = SingleDistribution(2, passed.probs)
        factor *= p_pass / 2.0
        yields.append(factor * two_party_hashing_yield(nxt))
        dist = nxt if variant == "exact" else werner_single(2, nxt.fidelity)
    return yields


# The library runs the twirled chain; the dense chain's "exact" variant is
# kept only to show that it stalls.
@pytest.mark.parametrize("variant", ["twirl"])
def test_recurrence_matches_dense_chain(variant):
    for f in fidelity_grid(0.5, 1.0, 0.01):
        y, rounds = _recurrence_raw(float(f), 20)
        yields = dense_recurrence(float(f), 20, variant)
        best = int(np.argmax(yields))  # first maximum: ties go to fewer rounds
        assert abs(y - yields[best]) <= 1e-15
        assert rounds == best


@pytest.mark.parametrize("variant", ["twirl"])
def test_recurrence_stops_once_every_factor_underflows(variant):
    # A point whose best yield is positive stops once its factor falls to
    # that yield; one whose best is <= 0 stops when its factor is exactly 0,
    # within about 1,075 rounds.  So a limit of 10^9 rounds returns at once.
    # The dense chain, which never stops early, gives the same best yield
    # and round count; at f=0.25 and 0.5 the best round is the deep one
    # where the factor reaches 0 and a negative yield becomes -0.0.
    for f in (0.25, 0.5, 0.6, 0.75, 0.9):
        y, rounds = _recurrence_raw(f, 10**9)
        assert (y, rounds) == _recurrence_raw(f, 2000)
        yields = dense_recurrence(f, 2000, variant)
        best = int(np.argmax(yields))
        assert abs(y - yields[best]) <= 1e-15
        assert rounds == best or abs(yields[rounds] - yields[best]) <= 1e-15


@pytest.mark.parametrize("n_parties, methods", [
    (2, ["rec-hash", "block3", "block8", "2p-hash", "mp-hash"]),
    (3, ["mp-hash"]),
])
def test_yield_curve_equals_one_point_calls(n_parties, methods):
    # 0.0025 steps make 301 points on [0.25, 1]: two full chunks and a
    # partial one.  Each cell must not depend on its chunk's other points.
    specs = [MethodSpec.from_id(mid) for mid in methods]
    curve = yield_curve(n_parties, 0.25, 1.0, 0.0025, specs)
    assert curve.grid.size > 2 * GRID_CHUNK
    for spec in specs:
        expected = [_raw_yield(spec, n_parties, float(f)) for f in curve.grid]
        assert curve.raw[spec.method_id].tolist() == expected


def test_yield_curve_memory_does_not_grow_with_grid():
    methods = [MethodSpec.from_id("block7"), MethodSpec.from_id("rec-hash")]
    tracemalloc.start()
    try:
        curve = yield_curve(2, 0.5, 1.0, 0.000025, methods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_points = curve.grid.size
    assert n_points >= 20_001
    # The grid and the method-by-point table.
    outputs = 8 * n_points * (1 + len(methods))
    # Evaluating all 20,001 points at once peaks at about 94 MB (block7).
    assert peak - outputs < 4_000_000
