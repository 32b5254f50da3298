"""Brute-force quantum oracle for the cat-label algebra.

Builds cat states as explicit complex vectors, applies the multilateral
CNOT as a real unitary, and certifies that the classical label rules
(`labels.mxor`, the corrections, the stabilizer signs) agree with actual
linear algebra.  Dense vectors only; capacity is capped at 12 qubits so
every exhaustive check stays sub-second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError
from .labels import CatLabel, amp_mask, mxor
from . import labels as _labels

ORACLE_QUBIT_LIMIT = 12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Two-qubit CNOT, control on the first (most significant) qubit.
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of I/X/Z factors, one per qubit."""

    sign: int
    ops: tuple[str, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +/-1, got {self.sign}")
        if any(op not in PAULI_MATRICES for op in self.ops):
            raise ValueError(f"ops must be I/X/Z, got {self.ops!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Apply to a state vector without building the 2^n matrix.

        Qubit 0 is the most significant index bit.
        """
        n = self.n_qubits
        if state.shape != (1 << n,):
            raise DimensionError("state length does not match Pauli width")
        xmask = 0
        zmask = 0
        for q, op in enumerate(self.ops):
            bit = 1 << (n - 1 - q)
            if op == "X":
                xmask |= bit
            elif op == "Z":
                zmask |= bit
        idx = np.arange(1 << n)
        src = idx ^ xmask
        parity = bit_parity(src & zmask)
        signs = self.sign * (1 - 2 * parity)
        return signs * state[src]

    def to_matrix(self) -> np.ndarray:
        if self.n_qubits > ORACLE_QUBIT_LIMIT:
            raise CapacityError("Pauli matrix too large for the dense oracle")
        mat = np.array([[self.sign]], dtype=complex)
        for op in self.ops:
            mat = np.kron(mat, PAULI_MATRICES[op])
        return mat

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + "".join(self.ops)


def bit_parity(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64) & 1


def build_cat_state(label: CatLabel) -> np.ndarray:
    """(|0 i_1..i_{N-1}> + (-1)^p |1 ~i_1..~i_{N-1}>)/sqrt(2) as a dense
    vector.  Qubit k (party k+1) sits at index bit N-1-k."""
    n = label.n_parties
    if n > ORACLE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds the oracle limit {ORACLE_QUBIT_LIMIT}")
    amp_bits = label.encode() & amp_mask(n)
    state = np.zeros(1 << n, dtype=complex)
    state[amp_bits] = _SQRT2_INV
    state[amp_bits ^ ((1 << n) - 1)] = (-1) ** label.phase * _SQRT2_INV
    return state


def stabilizer_generators(label: CatLabel) -> list[PauliString]:
    """The N signed generators stabilizing ``build_cat_state(label)``:
    (-1)^p X..X, and (-1)^{i_j} with Z on parties 1 and j+1."""
    n = label.n_parties
    gens = [PauliString((-1) ** label.phase, ("X",) * n)]
    for j, bit in enumerate(label.amplitudes, start=1):
        ops = ["I"] * n
        ops[0] = "Z"
        ops[j] = "Z"
        gens.append(PauliString((-1) ** bit, tuple(ops)))
    return gens


@dataclass(frozen=True)
class BlockLayout:
    """Register layout for blocks of cat states inside one state vector.

    Registers (slots) are concatenated; within a register qubits are in
    party order, and slot 0 holds the most significant index bits.
    """

    n_parties: int
    n_slots: int

    @property
    def n_qubits(self) -> int:
        return self.n_parties * self.n_slots

    def qubit(self, slot: int, party: int) -> int:
        """Flat qubit index (0 = most significant) of one party's share."""
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range")
        if not 0 <= party < self.n_parties:
            raise IndexError(f"party {party} out of range")
        return slot * self.n_parties + party


def multilateral_cnot(
    state: np.ndarray, layout: BlockLayout, source_slot: int, target_slot: int
) -> np.ndarray:
    """Every party applies CNOT from its qubit of the source register to
    its qubit of the target register (local gates only)."""
    if source_slot == target_slot:
        raise ValueError("source and target slot collide")
    n = layout.n_qubits
    if n > ORACLE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds the oracle limit {ORACLE_QUBIT_LIMIT}")
    if state.shape != (1 << n,):
        raise DimensionError("state length does not match layout")
    idx = np.arange(1 << n)
    for party in range(layout.n_parties):
        c_pos = n - 1 - layout.qubit(source_slot, party)
        t_pos = n - 1 - layout.qubit(target_slot, party)
        # CNOT permutes basis states; the permutation is an involution, so
        # gathering through it applies the gate.
        idx = idx ^ (((idx >> c_pos) & 1) << t_pos)
    return state[idx]


def states_equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff |<u|v>| = 1 within ``tol`` for normalized inputs."""
    return abs(abs(np.vdot(u, v)) - 1.0) < tol


@dataclass
class VerificationReport:
    """Outcome of one exhaustive oracle check."""

    name: str
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def record(self, case: str, passed: bool) -> None:
        self.checks.append((case, passed))

    @property
    def n_pass(self) -> int:
        return sum(1 for _, ok in self.checks if ok)

    @property
    def n_fail(self) -> int:
        return len(self.checks) - self.n_pass

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def __str__(self) -> str:
        lines = [f"{self.name}: {self.n_pass}/{len(self.checks)} checks pass"]
        for case, passed in self.checks:
            if not passed:
                lines.append(f"  FAIL {case}")
        return "\n".join(lines)


def verify_mxor(n_parties: int, rule=mxor, tol: float = 1e-10) -> VerificationReport:
    """Exhaustively certify the classical XOR rule against the unitary.

    For every ordered pair of labels (a, b), applies the multilateral CNOT
    to build(a) (x) build(b) and compares, up to global phase, with the
    tensor product of the states named by ``rule(a, b)``.
    """
    layout = BlockLayout(n_parties, 2)
    if layout.n_qubits > ORACLE_QUBIT_LIMIT:
        raise CapacityError(
            f"2*{n_parties} qubits exceeds the oracle limit {ORACLE_QUBIT_LIMIT}"
        )
    report = VerificationReport(f"mxor N={n_parties}")
    cats = [build_cat_state(lab) for lab in _labels.all_labels(n_parties)]
    for a in _labels.all_labels(n_parties):
        for b in _labels.all_labels(n_parties):
            joint = np.kron(cats[a.encode()], cats[b.encode()])
            evolved = multilateral_cnot(joint, layout, 0, 1)
            a2, b2 = rule(a, b)
            expected = np.kron(cats[a2.encode()], cats[b2.encode()])
            passed = states_equal_up_to_phase(evolved, expected, tol)
            report.record(f"({a.encode()},{b.encode()})", passed)
    return report


def corrupted_mxor_rule(source: CatLabel, target: CatLabel):
    """Deliberately wrong rule (XORs the phase into the target too); used
    as a negative control for the verification harness."""
    new_source, new_target = mxor(source, target)
    bad_target = CatLabel(
        new_target.n_parties,
        new_target.phase ^ source.phase,
        new_target.amplitudes,
    )
    return new_source, bad_target


CONJUGATION_RULES = [
    (("X", "I"), ("X", "X")),
    (("I", "X"), ("I", "X")),
    (("Z", "I"), ("Z", "I")),
    (("I", "Z"), ("Z", "Z")),
]


def verify_conjugation_rules(tol: float = 1e-12) -> VerificationReport:
    """Check U (A x B) U^dag = mapped operator as exact 4x4 identities,
    with U the two-qubit CNOT."""
    report = VerificationReport("xor-conjugation")
    for before, after in CONJUGATION_RULES:
        lhs = CNOT @ np.kron(PAULI_MATRICES[before[0]], PAULI_MATRICES[before[1]]) @ CNOT.conj().T
        rhs = np.kron(PAULI_MATRICES[after[0]], PAULI_MATRICES[after[1]])
        passed = bool(np.max(np.abs(lhs - rhs)) < tol)
        report.record(f"{''.join(before)}->{''.join(after)}", passed)
    return report
