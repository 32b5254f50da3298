import numpy as np
import pytest

from catpurify.errors import DimensionError
from catpurify.labels import (
    CatLabel,
    all_labels,
    amp_bit,
    amp_mask,
    mxor,
    phase_bit,
)


def test_mxor_three_party_worked_case():
    source = CatLabel(3, 1, (0, 1))
    target = CatLabel(3, 1, (1, 1))
    new_source, new_target = mxor(source, target)
    assert new_source == CatLabel(3, 0, (0, 1))
    assert new_target == CatLabel(3, 1, (1, 0))


def test_mxor_all_zero_fixed_point():
    zero = CatLabel(2, 0, (0,))
    assert mxor(zero, zero) == (zero, zero)


def test_mxor_inputs_unmodified():
    source = CatLabel(3, 0, (1, 0))
    target = CatLabel(3, 1, (1, 0))
    mxor(source, target)
    assert source == CatLabel(3, 0, (1, 0))
    assert target == CatLabel(3, 1, (1, 0))


def test_mxor_dimension_mismatch():
    with pytest.raises(DimensionError):
        mxor(CatLabel(2, 0, (0,)), CatLabel(3, 0, (0, 0)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mxor_pair_involution(n):
    for a in all_labels(n):
        for b in all_labels(n):
            a1, b1 = mxor(a, b)
            a2, b2 = mxor(a1, b1)
            assert (a2, b2) == (a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mxor_untouched_halves(n):
    for a in all_labels(n):
        for b in all_labels(n):
            a1, b1 = mxor(a, b)
            assert a1.amplitudes == a.amplitudes
            assert b1.phase == b.phase


@pytest.mark.parametrize("n", range(2, 9))
def test_encode_decode_round_trip(n):
    for value in range(1 << n):
        label = CatLabel.decode(value, n)
        assert label.encode() == value
        assert CatLabel.decode(label.encode(), n) == label


def test_encode_places_phase_most_significant():
    assert CatLabel(3, 1, (0, 1)).encode() == 0b101
    assert CatLabel(3, 0, (1, 0)).encode() == 0b010


@pytest.mark.parametrize("n", range(2, 9))
def test_layout_helpers_match_decode(n):
    codes = range(1 << n)
    labels = [CatLabel.decode(code, n) for code in codes]
    for code, label in zip(codes, labels):
        # Written in binary, a code reads the phase bit, then the amplitude
        # bits of parties 2..N.
        assert format(code, f"0{n}b") == "".join(map(str, (label.phase, *label.amplitudes)))
        assert int((code & phase_bit(n)) != 0) == label.phase
        assert [int((code & amp_bit(j, n)) != 0) for j in range(n - 1)] == list(label.amplitudes)
        assert code & amp_mask(n) == CatLabel(n, 0, label.amplitudes).encode()
    # The helpers mask numpy arrays as they mask ints.
    array = np.arange(1 << n)
    np.testing.assert_array_equal((array & phase_bit(n)) != 0, [lb.phase for lb in labels])
    for j in range(n - 1):
        np.testing.assert_array_equal(
            (array & amp_bit(j, n)) != 0, [lb.amplitudes[j] for lb in labels]
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_correction_maps_every_label_to_zero(n):
    # A label read as a Pauli frame flips the phase bit iff its phase is
    # set (Z on party 1) and amplitude bit j iff its own is (X on party
    # j+1), so its own frame maps it to the all-zero label and no other
    # frame does.
    zero = CatLabel.decode(0, n)
    labels = all_labels(n)
    for label in labels:
        corrected = [
            CatLabel(n, label.phase ^ frame.phase,
                     tuple(a ^ f for a, f in zip(label.amplitudes, frame.amplitudes)))
            for frame in labels
        ]
        assert [frame for frame, out in zip(labels, corrected) if out == zero] == [label]


def test_label_validation():
    with pytest.raises(DimensionError):
        CatLabel(3, 0, (0,))
    with pytest.raises(ValueError):
        CatLabel(3, 2, (0, 0))
    with pytest.raises(ValueError):
        CatLabel.decode(8, 2)
