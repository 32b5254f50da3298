import numpy as np
import pytest

from catpurify.errors import CapacityError
from catpurify.hashing import two_party_hashing_yield, werner_hashing_yield
from catpurify.ensemble import werner_single
from catpurify.strategy import (
    MethodSpec,
    best_method,
    block_then_hashing,
    fidelity_grid,
    find_knee,
    recurrence_then_hashing,
    yield_curve,
)


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
    # the yield collapses, which is why 'twirl' is the default.
    y_exact, _ = recurrence_then_hashing(0.6, variant="exact")
    assert y_exact <= 1e-12
    y_twirl, _ = recurrence_then_hashing(0.6, variant="twirl")
    assert y_twirl > y_exact


def test_recurrence_variant_validation():
    with pytest.raises(ValueError):
        recurrence_then_hashing(0.8, variant="other")


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


def test_best_method_single_entry():
    only = [MethodSpec.from_id("block3")]
    winner, _ = best_method(0.9, only)
    assert winner is only[0]


def test_method_spec_ids_round_trip():
    for mid in ("rec-hash", "block3", "mp-hash", "2p-hash"):
        assert MethodSpec.from_id(mid).method_id == mid
    with pytest.raises(ValueError):
        MethodSpec.from_id("block-3")
    with pytest.raises(ValueError):
        MethodSpec("multiparty_hashing", m=3)


def test_fidelity_grid_shapes():
    grid = fidelity_grid(0.5, 1.0, 0.1)
    np.testing.assert_allclose(grid, [0.5, 0.6, 0.7, 0.8, 0.9, 1.0], atol=1e-12)
    assert fidelity_grid(0.7, 0.8, 0.5).tolist() == [0.7]
    assert fidelity_grid(0.7, 0.7, 0.1).tolist() == [0.7]
    with pytest.raises(CapacityError):
        fidelity_grid(0.0, 1.0, 1e-9)
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


def test_yield_curve_clamps_display_vector():
    curve = yield_curve(2, 0.5, 0.6, 0.05, [MethodSpec.from_id("2p-hash")])
    assert np.all(curve.clamped["2p-hash"] >= 0.0)
    assert np.any(curve.raw["2p-hash"] < 0.0)


def test_yield_curve_rejects_two_party_methods_at_higher_n():
    with pytest.raises(ValueError):
        yield_curve(3, 0.8, 0.9, 0.01, [MethodSpec.from_id("rec-hash")])


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
        assert np.all(curve.clamped[mid] >= 0.0)
        assert np.all(curve.clamped[mid] <= 1.0)
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
