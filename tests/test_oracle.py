import numpy as np
import pytest

from catpurify import oracle
from catpurify.errors import CapacityError
from catpurify.labels import CatLabel, all_labels, mxor
from catpurify.oracle import (
    CNOT,
    PAULI_MATRICES,
    BlockLayout,
    PauliString,
    build_cat_state,
    corrupted_mxor_rule,
    multilateral_cnot,
    stabilizer_generators,
    states_equal_up_to_phase,
    verify_conjugation_rules,
    verify_mxor,
)

SQ2 = 1.0 / np.sqrt(2.0)


def test_build_phi_plus():
    state = build_cat_state(CatLabel(2, 0, (0,)))
    np.testing.assert_allclose(state, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_build_singlet_like_state():
    state = build_cat_state(CatLabel(2, 1, (1,)))
    np.testing.assert_allclose(state, [0, SQ2, -SQ2, 0], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_cat_basis_orthonormal(n):
    basis = np.array([build_cat_state(lab) for lab in all_labels(n)])
    gram = basis.conj() @ basis.T
    np.testing.assert_allclose(gram, np.eye(1 << n), atol=1e-10)


def test_build_capacity():
    with pytest.raises(CapacityError):
        build_cat_state(CatLabel(13, 0, (0,) * 12))


def test_generators_two_party_zero_label():
    gens = stabilizer_generators(CatLabel(2, 0, (0,)))
    assert [str(g) for g in gens] == ["+XX", "+ZZ"]


def test_generators_three_party_worked_case():
    gens = stabilizer_generators(CatLabel(3, 1, (0, 1)))
    assert [str(g) for g in gens] == ["-XXX", "+ZZI", "-ZIZ"]


@pytest.mark.parametrize("n", [2, 3])
def test_generators_stabilize_their_state(n):
    for label in all_labels(n):
        state = build_cat_state(label)
        for gen in stabilizer_generators(label):
            np.testing.assert_allclose(gen.apply(state), state, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvalue_correspondence(n):
    # Unsigned operators: all-X has eigenvalue (-1)^p, the Z pairs (-1)^i_j.
    for label in all_labels(n):
        state = build_cat_state(label)
        signed = stabilizer_generators(label)
        unsigned = [PauliString(1, g.ops) for g in signed]
        expected = [(-1) ** label.phase] + [(-1) ** b for b in label.amplitudes]
        for op, eig in zip(unsigned, expected):
            np.testing.assert_allclose(op.apply(state), eig * state, atol=1e-10)


def test_measurement_commutation_structure():
    # The Z-type generators commute pairwise, so all amplitude bits are
    # jointly measurable.  The all-X generator commutes with them globally
    # (an even number of anticommuting slots), but each party's local X and
    # Z factors anticommute, which is what randomizes the amplitude bits
    # once the phase bit is measured and vice versa.
    gens = stabilizer_generators(CatLabel(3, 0, (0, 0)))
    s0, s1, s2 = (g.to_matrix() for g in gens)
    np.testing.assert_allclose(s1 @ s2, s2 @ s1, atol=1e-12)
    np.testing.assert_allclose(s0 @ s1, s1 @ s0, atol=1e-12)
    x, z = PAULI_MATRICES["X"], PAULI_MATRICES["Z"]
    np.testing.assert_allclose(x @ z, -(z @ x), atol=1e-12)
    assert np.max(np.abs(x @ z - z @ x)) > 1.0


def test_pauli_matrix_matches_vector_application():
    rng = np.random.default_rng(5)
    ps = PauliString(-1, ("X", "Z", "I"))
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_allclose(ps.apply(vec), ps.to_matrix() @ vec, atol=1e-12)


def test_multilateral_cnot_fixed_point():
    layout = BlockLayout(2, 2)
    phi = build_cat_state(CatLabel(2, 0, (0,)))
    joint = np.kron(phi, phi)
    np.testing.assert_allclose(
        multilateral_cnot(joint, layout, 0, 1), joint, atol=1e-12
    )


def test_multilateral_cnot_three_party_worked_case():
    layout = BlockLayout(3, 2)
    a, b = CatLabel(3, 1, (0, 1)), CatLabel(3, 1, (1, 1))
    joint = np.kron(build_cat_state(a), build_cat_state(b))
    evolved = multilateral_cnot(joint, layout, 0, 1)
    expected = np.kron(
        build_cat_state(CatLabel(3, 0, (0, 1))),
        build_cat_state(CatLabel(3, 1, (1, 0))),
    )
    assert states_equal_up_to_phase(evolved, expected, 1e-10)


def test_multilateral_cnot_unitary_on_random_vectors():
    layout = BlockLayout(3, 2)
    rng = np.random.default_rng(11)
    for _ in range(100):
        vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        vec /= np.linalg.norm(vec)
        out = multilateral_cnot(vec, layout, 0, 1)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_multilateral_cnot_slot_errors():
    layout = BlockLayout(2, 2)
    state = np.kron(
        build_cat_state(CatLabel(2, 0, (0,))), build_cat_state(CatLabel(2, 0, (0,)))
    )
    with pytest.raises(ValueError):
        multilateral_cnot(state, layout, 1, 1)
    with pytest.raises(IndexError):
        layout.qubit(2, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_mxor_exhaustive(n):
    report = verify_mxor(n)
    assert report.ok
    assert len(report.checks) == (1 << n) ** 2


def test_verify_mxor_negative_control():
    report = verify_mxor(2, rule=corrupted_mxor_rule)
    assert report.n_fail > 0


def test_verify_mxor_capacity():
    with pytest.raises(CapacityError):
        verify_mxor(9)


def test_mxor_rule_oracle_spot_check():
    # Independent spot check of the classical rule on 6-qubit vectors.
    layout = BlockLayout(3, 2)
    a, b = CatLabel(3, 0, (1, 0)), CatLabel(3, 1, (1, 0))
    joint = np.kron(build_cat_state(a), build_cat_state(b))
    evolved = multilateral_cnot(joint, layout, 0, 1)
    a2, b2 = mxor(a, b)
    assert (a2, b2) == (CatLabel(3, 1, (1, 0)), CatLabel(3, 1, (0, 0)))
    expected = np.kron(build_cat_state(a2), build_cat_state(b2))
    assert states_equal_up_to_phase(evolved, expected, 1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corrections_against_oracle(n):
    # A label is its own correction: Z on party 1 iff its phase bit and X on
    # party j+1 iff its amplitude bit j must map its cat state to the target
    # state.
    target = build_cat_state(CatLabel.decode(0, n))
    for label in all_labels(n):
        ops = ["Z" if label.phase else "I"]
        ops += ["X" if flip else "I" for flip in label.amplitudes]
        state = PauliString(1, tuple(ops)).apply(build_cat_state(label))
        assert states_equal_up_to_phase(state, target, 1e-10)


def test_conjugation_rules_hold():
    report = verify_conjugation_rules()
    assert report.ok
    assert len(report.checks) == 4


def test_conjugation_rules_tolerance_1e12():
    for before, after in [
        (("X", "I"), ("X", "X")),
        (("I", "X"), ("I", "X")),
        (("Z", "I"), ("Z", "I")),
        (("I", "Z"), ("Z", "Z")),
    ]:
        lhs = CNOT @ np.kron(PAULI_MATRICES[before[0]], PAULI_MATRICES[before[1]]) @ CNOT.conj().T
        rhs = np.kron(PAULI_MATRICES[after[0]], PAULI_MATRICES[after[1]])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conjugation_negative_control(monkeypatch):
    monkeypatch.setattr(oracle, "CONJUGATION_RULES", [(("X", "I"), ("X", "I"))])
    report = verify_conjugation_rules()
    assert not report.ok
