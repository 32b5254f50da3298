"""Classical bit-label algebra for N-party cat states.

Every cat-basis state of N qubits (one per party) is identified by a phase
bit ``p`` and N-1 amplitude bits ``i_1 .. i_{N-1}``.  The multilateral XOR
gate acts classically on these labels, so purification protocols on
cat-diagonal mixtures can be simulated without touching state vectors.  The
two allowed local measurements read a label's fields: the joint Z
measurement its amplitude bits, the X-basis one its phase bit.  A known
label is its own correction: Z on party 1 iff ``p`` and X on party j+1 iff
``i_j`` map the state to the all-zero label.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import DimensionError


def phase_bit(n_parties: int) -> int:
    """Code value of the phase bit, the most significant one: the encoded
    label of a phase flip."""
    return 1 << (n_parties - 1)


def amp_mask(n_parties: int) -> int:
    """Code bits holding the N-1 amplitude bits."""
    return phase_bit(n_parties) - 1


def amp_bit(j: int, n_parties: int) -> int:
    """Code value of amplitude bit ``j`` (party j+2's); the amplitude bits
    follow the phase bit in party order.  Masks ints and arrays alike."""
    return 1 << (n_parties - 2 - j)


def check_parties(n_parties: int) -> int:
    """A cat state needs a whole number of parties, at least 2;
    ``math.inf`` stands for the many-party limit.  Returns the count as a
    Python int (or ``math.inf``), so that a narrow numpy integer cannot
    wrap in ``1 << N`` or ``1 - N`` further on."""
    if isinstance(n_parties, numbers.Integral):
        n_parties = operator.index(n_parties)
    elif n_parties == math.inf:
        n_parties = math.inf
    else:
        raise ValueError(f"party count must be an integer, got {n_parties!r}")
    if n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {n_parties}")
    return n_parties


@dataclass(frozen=True)
class CatLabel:
    """Label (p, i_1..i_{N-1}) of one N-party cat-basis state.

    Labels are immutable values.  Measurement "consumes" a label only by
    caller-side convention; nothing here enforces single use.
    """

    n_parties: int
    phase: int
    amplitudes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_parties", check_parties(self.n_parties))
        if self.phase not in (0, 1):
            raise ValueError(f"phase must be a bit, got {self.phase!r}")
        if len(self.amplitudes) != self.n_parties - 1:
            raise DimensionError(
                f"expected {self.n_parties - 1} amplitude bits, "
                f"got {len(self.amplitudes)}"
            )
        if any(b not in (0, 1) for b in self.amplitudes):
            raise ValueError(f"amplitude bits must be 0/1, got {self.amplitudes!r}")

    def encode(self) -> int:
        """Pack into an integer in [0, 2^N) with the layout of
        :func:`phase_bit` and :func:`amp_bit`.  The all-zero label (the
        purification target state) encodes to 0."""
        n = self.n_parties
        return self.phase * phase_bit(n) + sum(
            bit * amp_bit(j, n) for j, bit in enumerate(self.amplitudes)
        )

    @staticmethod
    def decode(value: int, n_parties: int) -> "CatLabel":
        """Inverse of :meth:`encode`."""
        if not 0 <= value < (1 << n_parties):
            raise ValueError(f"encoded label {value} out of range for N={n_parties}")
        amps = [int((value & amp_bit(j, n_parties)) != 0) for j in range(n_parties - 1)]
        return CatLabel(n_parties, int((value & phase_bit(n_parties)) != 0), tuple(amps))


def mxor(source: CatLabel, target: CatLabel) -> tuple[CatLabel, CatLabel]:
    """Multilateral XOR on a pair of cat labels.

    Each party applies a CNOT from its share of ``source`` to its share of
    ``target``.  Classically: the phase bits XOR into the source, the
    amplitude bits XOR into the target, and the other halves are untouched.
    Pure function; inputs are not modified.
    """
    if source.n_parties != target.n_parties:
        raise DimensionError(
            f"party-count mismatch: {source.n_parties} vs {target.n_parties}"
        )
    new_source = CatLabel(
        source.n_parties, source.phase ^ target.phase, source.amplitudes
    )
    new_target = CatLabel(
        target.n_parties,
        target.phase,
        tuple(a ^ b for a, b in zip(source.amplitudes, target.amplitudes)),
    )
    return new_source, new_target


def all_labels(n_parties: int):
    """All 2^N labels in encoded order."""
    return [CatLabel.decode(v, n_parties) for v in range(1 << n_parties)]
