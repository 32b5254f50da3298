"""Hashing yields and a finite-size simulation of subset-parity hashing.

The closed forms give the asymptotic yield of hashing on cat-diagonal
mixtures: one shared random hash determines all amplitude strings in
parallel, a second (reversed-direction) hash determines the phase string.
``simulate_hashing`` runs the protocol at finite block size with explicit
safety rounds, records every measured subset parity, and decodes the hidden
labels by GF(2) elimination with a maximum-posterior completion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    SingleDistribution, bit_marginals, check_fidelities, entropy_rows, shannon_entropy,
)
from .errors import CapacityError, DimensionError, InternalInvariantError
from . import gf2
from .labels import amp_bit, amp_mask, phase_bit


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
    return 1.0 - shannon_entropy(single.probs)


def two_party_hashing_yields(probs: np.ndarray) -> np.ndarray:
    """``two_party_hashing_yield`` for each row of a (G, 4) array."""
    return 1.0 - entropy_rows(probs)


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
            "catpurify-hashing-run v2",
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

    @staticmethod
    def parse_truth(text: str) -> np.ndarray:
        """Recover the hidden initial codes from a serialized transcript."""
        for line in text.splitlines():
            if line.startswith("truth="):
                codes = line[len("truth="):].split(",")
                return np.array([int(c, 16) for c in codes], dtype=np.int64)
        raise ValueError("transcript has no truth= line")

    @staticmethod
    def parse_rounds(text: str) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Recover the round records of a serialized transcript: for phase A
        and then phase B, the packed membership rows, the targets and the
        measured values, as ``HashingRun`` holds them."""
        m, fields = None, {"A": [], "B": []}
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in fields:
                fields[parts[0]].append(parts[2:])
            elif line.startswith("n_parties="):
                m = int(dict(part.split("=") for part in parts)["block_size"])
        if m is None:
            raise ValueError("transcript has no parameter line")
        phases = []
        for rounds in fields.values():
            rows = gf2.from_ints([int(mask, 16) for mask, _, _ in rounds], m)
            targets = np.array([int(target) for _, target, _ in rounds], dtype=np.int64)
            measured = np.array([int(value, 16) for _, _, value in rounds], dtype=np.int64)
            phases.append((rows, targets, measured))
        return phases[0], phases[1]


def _default_safety_bits(m: int) -> int:
    return 0 if m < 2 else math.ceil(2.0 * math.log2(m))


def _round_count(m: int, entropy_per_bit: float, safety_bits: int) -> int:
    return max(0, math.ceil(m * entropy_per_bit - 1e-9)) + safety_bits


# Largest bulk read of subset selectors, in doubles.
SELECTOR_CHUNK = 1 << 15


def _draw_subsets(
    rng: np.random.Generator, m: int, round_counts: tuple[int, ...]
) -> list[list[np.ndarray]]:
    """The subsets of every phase, in order, for a block of m states.

    Each live state joins with probability 1/2, redrawn until the subset
    has at least two members; its minimum is measured and leaves the live
    set.  A phase ends early once fewer than two states are live.  The
    selectors come from ``rng.random`` in bulk and are used strictly in
    order, exactly the values one ``rng.random(live)`` call per draw would
    give.  The last read runs past the selectors used, so the caller must
    read nothing more from ``rng``.
    """
    live = np.arange(m)
    selectors = np.empty(0, dtype=bool)
    phases = []
    for n_rounds in round_counts:
        subsets = []
        while len(subsets) < n_rounds and live.size >= 2:
            k = live.size
            if selectors.size < k:
                fresh = rng.random(max(k, SELECTOR_CHUNK) - selectors.size)
                selectors = np.concatenate([selectors, fresh < 0.5])
            sel, selectors = selectors[:k], selectors[k:]
            if np.count_nonzero(sel) >= 2:
                subsets.append(live.compress(sel))
                # The minimum is the first member.  Shifting the rest down
                # over it costs less than a compare and compress per round.
                first = int(sel.argmax())
                live[first:-1] = live[first + 1:]
                live = live[:-1]
        phases.append(subsets)
    return phases


# Largest gather of the round bookkeeping, in bytes.  Rounds are handled in
# runs whose per-member temporaries and unpacked membership rows fit within
# it.
ROUND_CHUNK_BYTES = 1 << 20


def _member_runs(
    subsets: list[np.ndarray], member_bytes: int, round_bytes: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The rounds in consecutive runs: each run's round indices, its
    members concatenated, and where each of its rounds starts in them.  A
    run gathers ``member_bytes`` per member plus ``round_bytes`` per round,
    at most ``ROUND_CHUNK_BYTES`` in all unless one round alone is larger."""
    sizes = np.array([members.size for members in subsets], dtype=np.int64)
    ends = np.cumsum(sizes * member_bytes + round_bytes)
    start = 0
    while start < sizes.size:
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + ROUND_CHUNK_BYTES, side="right")))
        starts = np.cumsum(sizes[start:stop]) - sizes[start:stop]
        yield np.arange(start, stop), np.concatenate(subsets[start:stop]), starts
        start = stop


def _targets(subsets: list[np.ndarray]) -> np.ndarray:
    """Each round's measured state: members ascend, so its first member."""
    return np.array([members[0] for members in subsets], dtype=np.int64)


def _records(
    subsets: list[np.ndarray], targets: np.ndarray, values: np.ndarray,
    side_bits: np.ndarray, side_truth: np.ndarray, lineage: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Packed membership rows, system rows over the initial labels,
    right-hand sides (one column per side) and measured values of one
    phase's rounds.

    Each value is the XOR of the members' ``values`` as the phase began:
    the target is consumed after its round, and the phase changes no live
    state's value.  That premise is checked, and so is each right-hand side
    against the row's dot product with each side's initial bits
    ``side_truth``.  Without ``lineage`` the values are the initial labels
    and the rows are the membership rows themselves (the amplitude phase);
    with it, a row is the XOR of its members' lineage rows (the phase
    string, one side).
    """
    n_rounds, m = len(subsets), values.size
    words = gf2.n_words(m)
    label = "amplitude" if lineage is None else "phase"
    packed_truth = gf2.pack_bits(side_truth)
    # The first round that measures each state, or n_rounds if none does.
    measured_at = np.full(m, n_rounds, dtype=np.int64)
    np.minimum.at(measured_at, targets, np.arange(n_rounds))
    members = np.empty((n_rounds, words), dtype=np.uint64)
    rows = members if lineage is None else np.empty_like(members)
    rhs = np.empty((n_rounds, side_bits.size), dtype=np.uint8)
    parities = np.empty(n_rounds, dtype=values.dtype)
    # Per member a run holds three int64 values (its index, its row in
    # pack_indices and its measuring round), its value and its lineage row
    # if any; per round it unpacks one byte per bit.
    member_bytes = 24 + values.itemsize + (0 if lineage is None else words * lineage.itemsize)
    for rounds, indices, starts in _member_runs(subsets, member_bytes, words << 6):
        run_rows = members[rounds] = gf2.pack_indices(indices, m, starts)
        if lineage is not None:
            run_rows = rows[rounds] = gf2.xor_segments(lineage, indices, starts)
        run_parities = parities[rounds] = np.bitwise_xor.reduceat(values[indices], starts)
        run_rhs = rhs[rounds] = (run_parities[:, None] & side_bits) != 0
        # A round measures its own first member, so the earliest measuring
        # round among its members equals the round itself exactly when it
        # reads no state an earlier round measured.
        first_measured = np.minimum.reduceat(measured_at[indices], starts)
        if not (
            np.array_equal(first_measured, rounds)
            and np.array_equal(gf2.dot_bit(run_rows[:, None], packed_truth), run_rhs)
        ):
            raise InternalInvariantError(f"{label} parity bookkeeping drifted")
    return members, rows, rhs, parities


def _amplitude_backaction(
    subsets: list[np.ndarray], member_rows: np.ndarray, m: int, init_phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lineage rows and true phases after the amplitude rounds, whose packed
    membership rows are ``member_rows``: each round XORs its target's phase
    into every source.  Lineage row i packs the initial phases whose XOR is
    state i's phase.  The true phases follow the same labels one round at a
    time, as an independent route; the lineage moves in groups of
    ``gf2.BLOCK_ROWS`` rounds."""
    true_phases = init_phases.copy()
    for members in subsets:
        true_phases[members[1:]] ^= true_phases[members[0]]
    lineage = gf2.identity_rows(m)
    targets = _targets(subsets)
    for start in range(0, targets.size, gf2.BLOCK_ROWS):
        group = targets[start : start + gf2.BLOCK_ROWS]
        # Row b: the sources of the group's round b.
        sources = gf2.unpack_bits(member_rows[start : start + gf2.BLOCK_ROWS], m)
        sources[np.arange(group.size), group] = 0
        # Every lineage bit of a state sits at or below its own index
        # (targets are subset minima), so words past the last target's are
        # zero.
        span = gf2.n_words(int(group.max()) + 1)
        # Each state takes the rows of the group's rounds it was a source
        # of.  A target was a source only of rounds before its own, so its
        # row is complete, as its round reads it, before the later rounds
        # need it.
        lineage[:, :span] ^= gf2.xor_selected(lineage[group, :span], sources, group)
    return lineage, true_phases


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

    # Every subset depends only on rng and the live set, so both phases are
    # drawn before any label is read.
    subsets_a, subsets_b = _draw_subsets(rng, m, (planned_a, planned_b))
    amp_feasible = len(subsets_a) == planned_a
    feasible = amp_feasible and len(subsets_b) == planned_b

    # Both phases' records, before either system is solved.  Phase rounds:
    # the measured state acts as the XOR source, so the subset's phase bits
    # accumulate in it while its amplitude bits leak into the other members,
    # untracked: success checks the decoded amplitudes of every state live
    # there against the initial ones.  The phase string is the one-side case
    # of the amplitude strings, read through the lineage.
    targets_a, targets_b = _targets(subsets_a), _targets(subsets_b)
    amp_rows, _, amp_rhs, amp_parities = _records(
        subsets_a, targets_a, init_amps, side_bits, side_truth
    )
    lineage, true_phases = _amplitude_backaction(subsets_a, amp_rows, m, init_phases)
    phase_members, phase_rows, phase_rhs, phase_parities = _records(
        subsets_b, targets_b, true_phases, np.ones(1, dtype=np.int64), init_phases[None], lineage
    )
    del subsets_a, subsets_b
    run = HashingRun(
        n_parties=n_parties, block_size=m, seed=seed, safety_bits=safety_bits,
        initial_codes=codes, amp_rows=amp_rows, amp_measured=amp_parities,
        phase_rows=phase_members, phase_measured=phase_parities,
        consumed=targets_a.tolist() + targets_b.tolist(),
    )

    live_at_b = np.delete(np.arange(m), targets_a)
    probe_rng = np.random.default_rng([seed, 0x5AFE])
    modes = set()

    def solve_and_decode(
        rows: np.ndarray, rhs: np.ndarray, priors: list[float], truth: np.ndarray
    ) -> tuple[str, list[np.ndarray] | None]:
        """Solve one shared matrix for every side's right-hand side and
        decode each coset: the last side's status, and every side's bits or
        None at the first side that fails."""
        system = gf2.GF2System(m, n_sides=len(priors))
        system.add_row(rows, rhs)
        decoded = []
        for coset, prior_one, truth_bits in zip(system.solve(), priors, truth):
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

    # Decode the amplitude strings before the phase string needs them.
    decoded_amps = None
    if amp_feasible:
        run.amp_decode_status, amp_bits = solve_and_decode(
            amp_rows, amp_rhs, [float(x) for x in p_amps], side_truth
        )
        if amp_bits is not None:
            decoded_amps = side_bits @ np.array(amp_bits, dtype=np.int64)
        run.decoded_amps = decoded_amps

    survivors = np.delete(np.arange(m), run.consumed)
    run.survivors = survivors
    run.empirical_yield = survivors.size / m

    # Decode the initial phase string, then read off each survivor's
    # current phase through its recorded lineage.
    survivor_phase_belief = None
    if feasible:
        run.phase_decode_status, phase_bits = solve_and_decode(
            phase_rows, phase_rhs, [float(p_phase)], init_phases[None]
        )
        if phase_bits is not None:
            belief = gf2.dot_bit(lineage[survivors], gf2.pack_bits(phase_bits[0]))
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
