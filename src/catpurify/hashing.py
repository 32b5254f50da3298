"""Hashing yields and a finite-size simulation of subset-parity hashing.

The closed forms give the asymptotic yield of hashing on cat-diagonal
mixtures: one shared random hash determines all amplitude strings in
parallel, a second (reversed-direction) hash determines the phase string.
``simulate_hashing`` runs the protocol at finite block size with explicit
safety rounds, records every measured subset parity, and decodes the hidden
labels with a maximum-posterior completion of each solution coset.  Each
phase is drawn straight into packed membership rows; the record pass and
the back-action read them as one byte per state, a chunk of rounds at a
time, all within ``gf2.CHUNK_BYTES``.  Phase B's system rows are built
from the lineage before its record pass, so both phases take one pass.
The amplitude cosets are read off the phase lineage, which keeps one bit
per amplitude round, and checked against the recorded parities; the phase
coset comes from GF(2) elimination.  ``gf2.pivot_cosets`` lays out both.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    SingleDistribution, bit_marginals, check_fidelities, entropy_rows,
)
from .errors import CapacityError, DimensionError, InternalInvariantError
from . import gf2
from .labels import amp_bit, amp_mask, check_parties, phase_bit


def binary_entropy(x: float) -> float:
    """H2(x) in bits, with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return float(entropy_rows(np.array([x, 1.0 - x])))


def multiparty_hashing_yield(single: SingleDistribution) -> float:
    """Asymptotic hashing yield 1 - max_j H2(P(i_j=1)) - H2(P(p=1)).

    The amplitude strings share one hash, so only the worst per-bit entropy
    among them is paid; the phase string costs its own.  May be negative.
    """
    p_phase, p_amps = bit_marginals(single)
    return 1.0 - max(binary_entropy(x) for x in p_amps) - binary_entropy(p_phase)


def werner_hashing_yield(n_parties: int, fidelity: float) -> float:
    """Closed form for isotropic input: every bit marginal equals
    (1-f) 2^(N-1)/(2^N - 1), so the yield is 1 - 2 H2 of that."""
    return float(werner_hashing_yields(n_parties, np.array([fidelity]))[0])


def werner_hashing_yields(n_parties: int, fidelities: np.ndarray) -> np.ndarray:
    """``werner_hashing_yield`` at each fidelity, under
    ``check_fidelities``'s rule."""
    n_parties = check_parties(n_parties)
    f = check_fidelities(n_parties, fidelities)
    # A fidelity within the tolerance above 1 leaves negative dust in the
    # marginal; snap it to zero, as ``werner_rows`` does.
    x = np.maximum((1.0 - f) / (2.0 - 2.0 ** (1 - n_parties)), 0.0)
    return 1.0 - 2.0 * entropy_rows(np.stack([x, 1.0 - x], axis=-1))


def werner_hashing_yield_limit(fidelity: float) -> float:
    """Many-party limit 1 - 2 H2((1-f)/2): ``werner_hashing_yield`` at
    N = inf, where 2^-N is exactly 0."""
    return werner_hashing_yield(math.inf, fidelity)


def two_party_hashing_yield(single: SingleDistribution) -> float:
    """Bell-diagonal hashing yield 1 - H(probs); the two-party protocol can
    hash phase and amplitude information together."""
    if single.n_parties != 2:
        raise DimensionError("two-party hashing needs a two-party distribution")
    return float(two_party_hashing_yields(single.probs[None])[0])


def two_party_hashing_yields(probs: np.ndarray) -> np.ndarray:
    """``two_party_hashing_yield`` for each row of a (G, 4) array."""
    return 1.0 - entropy_rows(probs)


# The lines of a transcript, as ``HashingRun.to_text`` writes them.
_HEADER = "catpurify-hashing-run v2"
_PARAMETERS = re.compile(r"n_parties=(\d+) block_size=(\d+) seed=(\d+) safety_bits=(\d+)", re.A)
_TRUTH = re.compile(r"truth=([0-9a-f]+(?:,[0-9a-f]+)*)")
_ROUND = re.compile(r"([AB]) (\d+) ([0-9a-f]+) (\d+) ([0-9a-f]+)", re.A)


def _fields(pattern: re.Pattern, line: str, what: str) -> tuple[str, ...]:
    """The fields of one transcript line, or ``ValueError`` naming ``what``
    was expected."""
    match = pattern.fullmatch(line)
    if match is None:
        raise ValueError(f"expected {what}, got {line!r}")
    return match.groups()


@dataclass
class HashingRun:
    """Full transcript and outcome of one simulated hashing run.

    Each phase keeps one packed membership row (over the m states, as
    ``gf2`` packs them) and one measured value per round; the rounds'
    targets are ``consumed``, phase A's first."""

    n_parties: int
    block_size: int
    seed: int
    safety_bits: int
    initial_codes: np.ndarray
    amp_rows: np.ndarray
    amp_measured: np.ndarray
    phase_rows: np.ndarray
    phase_measured: np.ndarray
    consumed: list[int]
    survivors: np.ndarray | None = None
    decoded_amps: np.ndarray | None = None
    decoded_survivor_phases: np.ndarray | None = None
    amp_decode_status: str = "skipped"
    phase_decode_status: str = "skipped"
    decode_mode: str = "exact"
    success: bool = False
    failure_reason: str | None = None
    empirical_yield: float = 0.0

    @property
    def rounds_a(self) -> int:
        return len(self.amp_measured)

    @property
    def rounds_b(self) -> int:
        return len(self.phase_measured)

    def to_text(self) -> str:
        """Line-oriented transcript: the hidden initial codes in hex,
        comma-separated, then one line per round with its index, the subset
        bitmask in hex, the target and the measured bits."""
        lines = [
            _HEADER,
            f"n_parties={self.n_parties} block_size={self.block_size} "
            f"seed={self.seed} safety_bits={self.safety_bits}",
            "truth=" + ",".join(f"{c:x}" for c in self.initial_codes.tolist()),
        ]
        targets = iter(self.consumed)
        for tag, rows, measured in (("A", self.amp_rows, self.amp_measured),
                                    ("B", self.phase_rows, self.phase_measured)):
            for r, (mask, value) in enumerate(zip(gf2.to_ints(rows), measured.tolist())):
                lines.append(f"{tag} {r} {mask:x} {next(targets)} {value:x}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> HashingRun:
        """The one inverse of ``to_text``: ``from_text(t).to_text() == t``,
        with the record fields equal to the run's and the outcome fields at
        their defaults.  The lines are read once, in order; a field that
        disagrees with the header or with how rounds are drawn raises
        ``ValueError``."""
        lines = iter(text.splitlines())
        header, params, truth = (next(lines, "") for _ in range(3))
        if header != _HEADER:
            raise ValueError(f"expected the header {_HEADER!r}, got {header!r}")
        n, m, seed, safety_bits = map(int, _fields(_PARAMETERS, params, "the parameter line"))
        check_parties(n)
        codes = [int(c, 16) for c in _fields(_TRUTH, truth, "the truth line")[0].split(",")]
        if len(codes) != m or max(codes) >> n:
            raise ValueError(f"truth line must hold {m} codes below 2^{n}")
        masks, values, consumed = {"A": [], "B": []}, {"A": [], "B": []}, []
        measured = 0  # the targets so far, as a mask
        for line in lines:
            tag, index, mask, target, value = _fields(_ROUND, line, "a round line")
            index, mask, target, value = int(index), int(mask, 16), int(target), int(value, 16)
            lowest = mask & -mask
            if tag == "A" and masks["B"]:
                raise ValueError(f"phase A round {line!r} after phase B")
            if index != len(values[tag]):
                raise ValueError(f"round {line!r} should have index {len(values[tag])}")
            if mask == lowest or lowest.bit_length() - 1 != target:
                raise ValueError(f"round {line!r} must target the lowest of two or more states")
            if mask & measured:
                raise ValueError(f"round {line!r} holds a state measured in an earlier round")
            if value >> (n - 1 if tag == "A" else 1):
                raise ValueError(f"round {line!r} measured a value too wide for phase {tag}")
            masks[tag].append(mask)
            values[tag].append(value)
            consumed.append(target)
            measured |= lowest
        return cls(
            n_parties=n, block_size=m, seed=seed, safety_bits=safety_bits,
            initial_codes=np.array(codes, dtype=np.int64),
            amp_rows=gf2.from_ints(masks["A"], m),
            amp_measured=np.array(values["A"], dtype=np.int64),
            phase_rows=gf2.from_ints(masks["B"], m),
            phase_measured=np.array(values["B"], dtype=np.int64),
            consumed=consumed,
        )


def _default_safety_bits(m: int) -> int:
    return 0 if m < 2 else math.ceil(2.0 * math.log2(m))


def _round_count(m: int, entropy_per_bit: float, safety_bits: int) -> int:
    return max(0, math.ceil(m * entropy_per_bit - 1e-9)) + safety_bits


# Largest bulk read of subset selectors, in doubles.
SELECTOR_CHUNK = 1 << 15


def _draw_phases(
    rng: np.random.Generator, m: int, round_counts: tuple[int, ...]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each phase's subsets for a block of m states, yielded as drawn: the
    packed membership rows (over the m states, as ``gf2`` packs them) and
    the measured states, or targets, of its rounds.

    Each live state joins with probability 1/2, redrawn until the subset
    has at least two members; its minimum is measured and leaves the live
    set.  A phase ends early once fewer than two states are live.  The
    selectors come from ``rng.random`` in reads of ``SELECTOR_CHUNK`` and
    are used strictly in order, exactly the values one ``rng.random(live)``
    call per draw would give.  A read runs past the selectors used, so the
    caller must read nothing more from ``rng``, between phases or after
    them.

    Rounds are drawn in batches, over the positions of the states live as
    the batch begins.  A scalar pass finds each draw's first set selector,
    the target's position, and tells a redraw (fewer than two set) by the
    second; a redraw uses up its selectors and adds no row.  It keeps h,
    the highest target position so far, and the live positions below it
    (the head).  Every position above h is live, so a draw's selectors past
    the head are one contiguous run: one sliding-window gather lays out
    the batch's rows, positions up to h are cleared and the head bits set,
    and the live positions are spread onto their states and packed.
    """
    words = gf2.n_words(m)
    live = np.arange(m)
    data = b""  # selectors read and not yet used, one 0/1 byte each
    for n_rounds in round_counts:
        # Each round measures one live state, and rounds run while two are.
        n = max(0, min(n_rounds, live.size - 1))
        rows = np.empty((n, words), dtype=np.uint64)
        targets = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            k = live.size
            # Per round, at most a byte per state each: its selectors, its
            # gathered row, its row over the m states and that row packed.
            batch = min(n - done, max(1, gf2.CHUNK_BYTES // (5 * m)))
            need = batch * k - batch * (batch - 1) // 2
            if len(data) < need:
                parts = [data]
                for _ in range(-(-(need - len(data)) // SELECTOR_CHUNK)):
                    parts.append((rng.random(SELECTOR_CHUNK) < 0.5).tobytes())
                data = b"".join(parts)
                del parts
            at, size, high, head = 0, k, -1, []
            picks, bases, highs, head_rows, head_cols = [], [], [], [], []
            while len(picks) < batch and at + size <= len(data):
                end = at + size
                first = data.find(1, at, end)
                if first >= 0 and data.find(1, first + 1, end) >= 0:
                    for j, position in enumerate(head):
                        if data[at + j]:
                            head_rows.append(len(picks))
                            head_cols.append(position)
                    # Position q > high reads selector base + q.
                    bases.append(at + len(head) - high - 1)
                    highs.append(high)
                    first -= at
                    if first < len(head):
                        picks.append(head.pop(first))
                    else:
                        pick = high + 1 + first - len(head)
                        head.extend(range(high + 1, pick))
                        picks.append(pick)
                        high = pick
                    size -= 1
                at = end
            if picks:
                selectors = np.lib.stride_tricks.sliding_window_view(
                    np.frombuffer(data, dtype=np.uint8), k)
                drawn = selectors[bases]
                # Positions up to ``high`` hold earlier draws' selectors.
                drawn[:, : high + 1] *= np.arange(high + 1) > np.array(highs)[:, None]
                drawn[head_rows, head_cols] = 1
                bits = np.zeros((len(picks), m), dtype=np.uint8)
                bits[:, live] = drawn
                stop = done + len(picks)
                rows[done:stop] = gf2.pack_bits(bits)
                del selectors, drawn, bits  # before the next batch is read
                targets[done:stop] = live[picks]
                live = np.delete(live, picks)
                done = stop
            data = data[at:]
        yield rows, targets


def _byte_chunks(
    rows: np.ndarray, m: int, round_bytes: int, fixed_bytes: int = 0, group: int = 1
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Packed rows over m states in consecutive chunks, each unpacked to one
    0/1 byte per state: the chunk's first and end round, and its byte
    rows.  A chunk holds whole groups of ``group`` rounds, taking
    ``round_bytes`` per round beside the ``fixed_bytes`` its pass holds
    throughout, at most ``gf2.CHUNK_BYTES`` in all unless one group alone
    is larger."""
    step = max(1, (gf2.CHUNK_BYTES - fixed_bytes) // (round_bytes * group)) * group
    for start in range(0, len(rows), step):
        stop = min(start + step, len(rows))
        yield start, stop, gf2.unpack_bits(rows[start:stop], m)


def _records(
    member_rows: np.ndarray, rows: np.ndarray, targets: np.ndarray, values: np.ndarray,
    side_bits: np.ndarray, side_truth: np.ndarray, label: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (one column per side) and measured values of the
    rounds of ``label``'s phase, given their packed membership rows,
    system rows over the initial labels and targets.

    Each value is the XOR of the members' ``values`` as the phase began:
    the target is consumed after its round, and the phase changes no live
    state's value.  That premise is checked: the membership rows' target
    columns are unitriangular, each round holding its own target and no
    earlier round's.  Each right-hand side is checked against the system
    row's dot product with each side's initial bits ``side_truth``; the
    values come from the byte rows, the products from the packed rows.
    """
    n_rounds, m = len(member_rows), values.size
    words = gf2.n_words(m)
    packed_truth = gf2.pack_bits(side_truth)
    parities = np.empty(n_rounds, dtype=values.dtype)
    narrow = values.astype(np.min_scalar_type(int(values.max(initial=0))))
    # Per round a chunk unpacks one byte per bit of its row, takes each
    # member's value, reads its bytes at the targets so far and takes the
    # row's products with the truth.
    round_bytes = (words << 6) + m * narrow.itemsize + n_rounds + side_bits.size * words * 16
    rhs = np.empty((n_rounds, side_bits.size), dtype=np.uint8)
    for start, stop, members in _byte_chunks(member_rows, m, round_bytes):
        chunk_parities = parities[start:stop] = np.bitwise_xor.reduce(members * narrow, axis=1)
        chunk_rhs = rhs[start:stop] = (chunk_parities[:, None] & side_bits) != 0
        held = members[:, targets[:stop]]
        own = np.arange(start, stop)
        if not (
            np.array_equal(held.argmax(axis=1), own)
            and held[own - start, own].all()
            and np.array_equal(gf2.dot_bit(rows[start:stop, None], packed_truth), chunk_rhs)
        ):
            raise InternalInvariantError(f"{label} parity bookkeeping drifted")
        del members, held  # before the next chunk is unpacked
    return rhs, parities


def _amplitude_backaction(
    member_rows: np.ndarray, targets: np.ndarray, m: int, init_phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lineage rows and true phases after the amplitude rounds, whose packed
    membership rows are ``member_rows`` and whose targets are ``targets``:
    each round XORs its target's phase into every source.  A state's phase
    is then the XOR of the initial phases of some rounds' targets, and its
    own unless it is a target, so the lineage keeps one bit per round, in
    round order: bit r of row i is set when state i's phase holds that of
    round r's target (a target's row holds its own round).  The rows are
    read as bytes a chunk at a time.  The true phases follow the same
    labels one round at a time, as an independent route; the lineage moves
    in groups of ``gf2.BLOCK_ROWS`` rounds."""
    true_phases = init_phases.copy()
    lineage = np.zeros((m, gf2.n_words(targets.size)), dtype=np.uint64)
    rounds = np.arange(targets.size)
    lineage[targets, rounds >> 6] = np.uint64(1) << (rounds & 63).astype(np.uint64)
    # Per round a chunk unpacks one byte per bit of its row; each group's
    # table step takes a selector byte and a shifted copy per state, one
    # table of lineage rows and one gather piece of them.
    fixed_bytes = m * 9 + lineage.shape[1] * 2048 + min(lineage.nbytes, gf2.CHUNK_BYTES // 4)
    chunks = _byte_chunks(member_rows, m, gf2.n_words(m) << 6, fixed_bytes, gf2.BLOCK_ROWS)
    for start, stop, sources in chunks:
        # Row b: the sources of round start + b.
        sources[np.arange(stop - start), targets[start:stop]] = 0
        for b, target in enumerate(targets[start:stop].tolist()):
            if true_phases[target]:
                true_phases ^= sources[b]
        for first in range(start, stop, gf2.BLOCK_ROWS):
            group = targets[first : first + gf2.BLOCK_ROWS]
            # No round has yet moved a bit of a later round, so words past
            # the group's last round are zero.
            span = gf2.n_words(first + group.size)
            # Each state takes the rows of the group's rounds it was a
            # source of.  A target was a source only of rounds before its
            # own, so its row is complete, as its round reads it, before
            # the later rounds need it.
            gf2.xor_selected(lineage[:, :span], lineage[group, :span],
                             sources[first - start : first - start + group.size], group)
        del sources  # before the next chunk is unpacked
    return lineage, true_phases


def _amplitude_cosets(
    lineage: np.ndarray, targets: np.ndarray, rhs: np.ndarray, m: int
) -> list[gf2.AffineCoset]:
    """The solution coset of the amplitude rounds for each side, read off
    the lineage instead of eliminated.

    Round r's row sets its target, which no earlier round measured, and
    otherwise only states still live, so the rows pivot on their targets
    and the free columns are the states no round measured.  The lineage
    is the transpose of the inverse of the rounds' amplitude map, so a
    state's full lineage row (its own bit, unless it is a target, and its
    lineage bits spread onto the rounds' targets) is the solution that
    reads 1 in that state's final amplitude and 0 in every other and every
    measured parity.  Free state c's row is thus basis vector c, and side
    j's particular solution is the XOR of the rows of the targets whose
    round measured 1 on side j: the cosets ``GF2System.solve`` gives, the
    reduced form being unique."""
    free_cols = np.delete(np.arange(m), targets)
    target_rows = lineage[targets]
    sides = np.array([np.bitwise_xor.reduce(target_rows[side == 1], axis=0) for side in rhs.T])
    return gf2.pivot_cosets(sides, lineage[free_cols], targets, free_cols, m)


# Random combinations of the rows that each amplitude coset's basis is
# checked against: a basis row off the null space passes each with
# probability 1/2.
CHECK_COMBINATIONS = 16


def _check_amplitude_cosets(
    cosets: list[gf2.AffineCoset], rows: np.ndarray, rhs: np.ndarray, rng: np.random.Generator
) -> None:
    """Raise ``InternalInvariantError`` unless every particular solution
    meets every recorded parity ``rows`` x = ``rhs``, checked exactly, and
    the shared basis meets the homogeneous rows, checked on
    ``CHECK_COMBINATIONS`` random combinations of them drawn from ``rng``
    (Freivalds)."""
    particulars = np.array([coset.particular for coset in cosets])
    combinations = (np.bitwise_xor.reduce(rows[picked], axis=0)
                    for picked in rng.random((CHECK_COMBINATIONS, len(rows))) < 0.5)
    if not (
        np.array_equal(gf2.dot_bit(rows[:, None], particulars), rhs)
        and not any(gf2.dot_bit(cosets[0].basis, row).any() for row in combinations)
    ):
        raise InternalInvariantError("amplitude coset misses its recorded parities")


def simulate_hashing(
    n_parties: int,
    block_size_m: int,
    single: SingleDistribution,
    seed: int,
    safety_bits: int | None = None,
) -> tuple[bool, float, HashingRun]:
    """Simulate the two-phase subset-parity hashing protocol.

    Phase A consumes ceil(m * max_j H2(P(i_j=1))) + safety_bits states as
    measured targets, each revealing one subset parity of every amplitude
    string simultaneously.  Phase B, with the XOR direction reversed,
    consumes ceil(m * H2(P(p=1))) + safety_bits more for the phase string;
    its amplitude side effects on live states are corrected with the
    already-decoded amplitudes.  Success means the decoded labels of every
    surviving state match the hidden truth.

    A block that cannot supply the planned rounds of both phases (e.g.
    m = 1 with nonzero entropy) fails with reason 'exhausted'.  Otherwise a
    failed trial is 'ambiguous' when a decode ties or finds no solution,
    and 'wrong-decode' when the decoded labels differ from the truth.
    """
    n_parties = check_parties(n_parties)
    if single.n_parties != n_parties:
        raise DimensionError("distribution and simulation disagree on N")
    m = block_size_m
    if m < 1:
        raise ValueError("block size must be positive")
    if m * (n_parties - 1) > gf2.GF2_SOLVER_CAP:
        raise CapacityError(
            f"{m * (n_parties - 1)} decoding unknowns exceeds the solver cap {gf2.GF2_SOLVER_CAP}"
        )
    if safety_bits is None:
        safety_bits = _default_safety_bits(m)
    elif safety_bits < 0:
        raise ValueError(f"safety bits must be non-negative, got {safety_bits}")

    rng = np.random.default_rng(seed)
    dim = 1 << n_parties
    codes = rng.choice(dim, size=m, p=single.probs)
    init_phases = ((codes & phase_bit(n_parties)) != 0).astype(np.uint8)
    init_amps = (codes & amp_mask(n_parties)).astype(np.int64)
    # Amplitude side j decodes the string of party j+2's amplitude bits.
    side_bits = np.array([amp_bit(j, n_parties) for j in range(n_parties - 1)], dtype=np.int64)
    side_truth = ((init_amps & side_bits[:, None]) != 0).astype(np.uint8)

    p_phase, p_amps = bit_marginals(single)
    h_amp = max(binary_entropy(x) for x in p_amps)
    h_phase = binary_entropy(p_phase)
    planned_a = _round_count(m, h_amp, safety_bits)
    planned_b = _round_count(m, h_phase, safety_bits)

    # Subsets depend only on rng and the live set, so each phase is drawn
    # whole, as packed rows, just before its records are taken.
    phases = _draw_phases(rng, m, (planned_a, planned_b))
    amp_rows, targets_a = next(phases)
    amp_feasible = targets_a.size == planned_a

    # Both phases' records, before either is decoded.  Phase rounds: the
    # measured state acts as the XOR source, so the subset's phase bits
    # accumulate in it while its amplitude bits leak into the other members,
    # untracked: success checks the decoded amplitudes of every state live
    # there against the initial ones.  The phase string is the one-side case
    # of the amplitude strings, read through the lineage.
    amp_rhs, amp_parities = _records(
        amp_rows, amp_rows, targets_a, init_amps, side_bits, side_truth, "amplitude")
    lineage, true_phases = _amplitude_backaction(amp_rows, targets_a, m, init_phases)
    phase_members, targets_b = next(phases)
    del phases
    feasible = amp_feasible and targets_b.size == planned_b
    # No phase member is an amplitude target, so a phase row is its
    # membership row XOR its members' lineage rows, spread onto the targets.
    phase_rows = gf2.scatter_columns(gf2.mat_mul(phase_members, lineage), targets_a, m)
    phase_rows ^= phase_members
    phase_rhs, phase_parities = _records(
        phase_members, phase_rows, targets_b, true_phases, np.ones(1, dtype=np.int64),
        init_phases[None], "phase")
    run = HashingRun(
        n_parties=n_parties, block_size=m, seed=seed, safety_bits=safety_bits,
        initial_codes=codes, amp_rows=amp_rows, amp_measured=amp_parities,
        phase_rows=phase_members, phase_measured=phase_parities,
        consumed=targets_a.tolist() + targets_b.tolist(),
    )

    live_at_b = np.delete(np.arange(m), targets_a)
    probe_rng = np.random.default_rng([seed, 0x5AFE])
    modes = set()

    def decode(
        cosets: list[gf2.AffineCoset | None], priors: list[float], truth: np.ndarray
    ) -> tuple[str, list[np.ndarray] | None]:
        """Decode each side's coset: the last side's status, and every
        side's bits or None at the first side that fails."""
        decoded = []
        for coset, prior_one, truth_bits in zip(cosets, priors, truth):
            result = gf2.decode_map(coset, prior_one)
            if result.status == "intractable":
                result = gf2.certified_map_decode(coset, prior_one, truth_bits, probe_rng)
                modes.add("certified")
            else:
                modes.add("exact")
            if not result.ok or result.bits is None:
                return result.status, None
            decoded.append(result.bits)
        return result.status, decoded

    # Decode the amplitude strings before the phase string needs them.  The
    # amplitude cosets come off the lineage, so they are checked against
    # the recorded parities on a stream of their own.
    decoded_amps = None
    if amp_feasible:
        amp_cosets = _amplitude_cosets(lineage, targets_a, amp_rhs, m)
        _check_amplitude_cosets(
            amp_cosets, amp_rows, amp_rhs, np.random.default_rng([seed, 0xC4EC])
        )
        run.amp_decode_status, amp_bits = decode(
            amp_cosets, [float(x) for x in p_amps], side_truth
        )
        if amp_bits is not None:
            decoded_amps = side_bits @ np.array(amp_bits, dtype=np.int64)
        run.decoded_amps = decoded_amps

    survivors = np.delete(np.arange(m), run.consumed)
    run.survivors = survivors
    run.empirical_yield = survivors.size / m

    # Solve and decode the initial phase string, then read off each
    # survivor's current phase through its lineage row: its own initial
    # phase and those of its rounds' targets.
    survivor_phase_belief = None
    if feasible:
        system = gf2.GF2System(m)
        system.add_row(phase_rows, phase_rhs)
        run.phase_decode_status, phase_bits = decode(
            [system.solve()], [float(p_phase)], init_phases[None]
        )
        if phase_bits is not None:
            initial = phase_bits[0]
            belief = initial[survivors] ^ gf2.dot_bit(
                lineage[survivors], gf2.pack_bits(initial[targets_a])
            )
            survivor_phase_belief = belief.astype(np.uint8)
            run.decoded_survivor_phases = survivor_phase_belief
    run.decode_mode = "/".join(sorted(modes)) if modes else "none"

    if not feasible or decoded_amps is None or survivor_phase_belief is None:
        run.failure_reason = "ambiguous" if feasible else "exhausted"
        return False, run.empirical_yield, run

    amp_ok = bool(np.array_equal(decoded_amps[live_at_b], init_amps[live_at_b]))
    phase_ok = bool(
        np.array_equal(survivor_phase_belief, true_phases[survivors].astype(np.uint8))
    )
    run.success = amp_ok and phase_ok
    if not run.success:
        run.failure_reason = "wrong-decode"
    return run.success, run.empirical_yield, run
