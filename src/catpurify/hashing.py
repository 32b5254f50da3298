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
from dataclasses import dataclass, field

import numpy as np

from .ensemble import SingleDistribution, bit_marginals, entropy_rows, shannon_entropy
from .errors import CapacityError, DimensionError, InternalInvariantError
from . import gf2
from .labels import amp_bit, amp_mask, phase_bit


def _entropy_domain_error(x: float) -> ValueError:
    return ValueError(f"binary entropy argument {x} outside [0, 1]")


def binary_entropy(x: float) -> float:
    """H2(x) in bits, with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise _entropy_domain_error(x)
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
    """``werner_hashing_yield`` at each fidelity; the first fidelity out of
    range raises."""
    dim_inv = 2.0 ** (1 - n_parties)
    f = np.asarray(fidelities, dtype=float)
    x = (1.0 - f) / (2.0 - dim_inv)
    outside = ~((1.0 / (1 << n_parties) - 1e-12 <= f) & (f <= 1.0 + 1e-12))
    # A fidelity within the tolerance above 1 gives x < 0, outside H2's
    # domain; the first point failing either test names the error.
    bad = outside | (x < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        if outside[i]:
            raise ValueError(f"fidelity {float(f[i])} outside [2^-N, 1] for N={n_parties}")
        raise _entropy_domain_error(float(x[i]))
    return 1.0 - 2.0 * entropy_rows(np.stack([x, 1.0 - x], axis=-1))


def werner_hashing_yield_limit(fidelity: float) -> float:
    """Many-party limit: 1 - 2 H2((1-f)/2)."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [0, 1]")
    return 1.0 - 2.0 * binary_entropy((1.0 - fidelity) / 2.0)


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
class HashingRound:
    """One measured subset parity."""

    index: int
    members: np.ndarray
    target: int
    measured: int

    def subset_mask(self) -> int:
        bits = np.zeros(int(self.members.max(initial=-1)) + 1, dtype=np.uint8)
        bits[self.members] = 1
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@dataclass
class HashingRun:
    """Full transcript and outcome of one simulated hashing run."""

    n_parties: int
    block_size: int
    seed: int
    safety_bits: int
    initial_codes: np.ndarray
    planned_rounds_a: int = 0
    planned_rounds_b: int = 0
    amp_rounds: list[HashingRound] = field(default_factory=list)
    phase_rounds: list[HashingRound] = field(default_factory=list)
    consumed: list[int] = field(default_factory=list)
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
        return len(self.amp_rounds)

    @property
    def rounds_b(self) -> int:
        return len(self.phase_rounds)

    def to_text(self) -> str:
        """Line-oriented transcript: the hidden initial codes in hex,
        comma-separated, then one line per round with the subset bitmask in
        hex and the measured bits."""
        lines = [
            "catpurify-hashing-run v2",
            f"n_parties={self.n_parties} block_size={self.block_size} "
            f"seed={self.seed} safety_bits={self.safety_bits}",
            "truth=" + ",".join(f"{c:x}" for c in self.initial_codes.tolist()),
        ]
        for tag, rounds in (("A", self.amp_rounds), ("B", self.phase_rounds)):
            for rnd in rounds:
                lines.append(
                    f"{tag} {rnd.index} {rnd.subset_mask():x} "
                    f"{rnd.target} {rnd.measured:x}"
                )
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_truth(text: str) -> np.ndarray:
        """Recover the hidden initial codes from a serialized transcript."""
        for line in text.splitlines():
            if line.startswith("truth="):
                codes = line[len("truth="):].split(",")
                return np.array([int(c, 16) for c in codes if c], dtype=np.int64)
        raise ValueError("transcript has no truth= line")

    @staticmethod
    def parse_rounds(text: str) -> tuple[list[HashingRound], list[HashingRound]]:
        """Recover the round records from a serialized transcript."""
        amp, phase = [], []
        for line in text.splitlines():
            parts = line.split()
            if not parts or parts[0] not in ("A", "B"):
                continue
            mask = int(parts[2], 16)
            mask_bytes = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(mask_bytes, np.uint8), bitorder="little")
            members = np.flatnonzero(bits)
            rnd = HashingRound(int(parts[1]), members, int(parts[3]), int(parts[4], 16))
            (amp if parts[0] == "A" else phase).append(rnd)
        return amp, phase


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


def simulate_hashing(
    n_parties: int,
    block_size_m: int,
    single: SingleDistribution,
    seed: int,
    safety_bits: int | None = None,
    solver_cap: int = gf2.GF2_SOLVER_CAP,
    exact_dim_cap: int = gf2.EXACT_COSET_DIM_CAP,
) -> tuple[bool, float, HashingRun]:
    """Simulate the two-phase subset-parity hashing protocol.

    Phase A consumes ceil(m * max_j H2(P(i_j=1))) + safety_bits states as
    measured targets, each revealing one subset parity of every amplitude
    string simultaneously.  Phase B, with the XOR direction reversed,
    consumes ceil(m * H2(P(p=1))) + safety_bits more for the phase string;
    its amplitude side effects on live states are corrected with the
    already-decoded amplitudes.  Success means the decoded labels of every
    surviving state match the hidden truth.

    Degenerate blocks that cannot supply the requested rounds (e.g. m = 1
    with nonzero entropy) fail with reason 'ambiguous', since the system
    stays underdetermined.
    """
    if single.n_parties != n_parties:
        raise DimensionError("distribution and simulation disagree on N")
    m = block_size_m
    if m < 1:
        raise ValueError("block size must be positive")
    if m * (n_parties - 1) > solver_cap:
        raise CapacityError(
            f"{m * (n_parties - 1)} decoding unknowns exceeds the solver cap {solver_cap}"
        )
    if safety_bits is None:
        safety_bits = _default_safety_bits(m)

    rng = np.random.default_rng(seed)
    dim = 1 << n_parties
    codes = rng.choice(dim, size=m, p=single.probs)
    init_phases = ((codes & phase_bit(n_parties)) != 0).astype(np.uint8)
    init_amps = (codes & amp_mask(n_parties)).astype(np.int64)
    # Amplitude side j decodes the string of party j+2's amplitude bits.
    side_bits = [amp_bit(j, n_parties) for j in range(n_parties - 1)]
    true_phases = init_phases.copy()
    true_amps = init_amps.copy()

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
    run = HashingRun(
        n_parties=n_parties,
        block_size=m,
        seed=seed,
        safety_bits=safety_bits,
        initial_codes=codes.copy(),
        planned_rounds_a=planned_a,
        planned_rounds_b=planned_b,
        consumed=[int(members[0]) for members in subsets_a + subsets_b],
    )

    lineage = gf2.identity_rows(m)
    amp_system = gf2.GF2System(m, n_sides=n_parties - 1, cap=solver_cap)
    for r, members in enumerate(subsets_a):
        # Members ascend, so the first is the minimum.
        target, sources = int(members[0]), members[1:]
        parity = int(np.bitwise_xor.reduce(true_amps[members]))
        true_phases[sources] ^= true_phases[target]
        # Every lineage bit of a state sits at or below its own index
        # (targets are subset minima), so words past the target's are zero.
        span = gf2.n_words(target + 1)
        lineage[sources, :span] ^= lineage[target, :span]
        true_amps[target] = parity
        # Live amplitudes never change during this phase, so the measured
        # value must equal the parity of the initial bits.
        if parity != int(np.bitwise_xor.reduce(init_amps[members])):
            raise InternalInvariantError("amplitude parity bookkeeping drifted")
        rhs = np.array([(parity & bit) != 0 for bit in side_bits], dtype=np.uint8)
        amp_system.add_row(gf2.pack_indices(members, m), rhs)
        run.amp_rounds.append(HashingRound(r, members, target, parity))

    live_at_b = np.delete(np.arange(m), run.consumed[:len(subsets_a)])
    probe_rng = np.random.default_rng([seed, 0x5AFE])
    modes = set()

    def decode(coset, prior_one: float, truth_bits: np.ndarray) -> gf2.DecodeResult:
        result = gf2.decode_map(coset, prior_one, exact_dim_cap)
        if result.status == "intractable":
            result = gf2.certified_map_decode(coset, prior_one, truth_bits, probe_rng)
            modes.add("certified")
        else:
            modes.add("exact")
        return result

    # Decode the amplitude strings before the phase rounds need them (one
    # shared matrix, one right-hand side per amplitude bit position).
    amp_cosets = amp_system.solve()
    decoded_amps = None
    if amp_feasible:
        decoded_amps = np.zeros(m, dtype=np.int64)
        for j, bit in enumerate(side_bits):
            truth_j = ((init_amps & bit) != 0).astype(np.uint8)
            result = decode(amp_cosets[j], float(p_amps[j]), truth_j)
            run.amp_decode_status = result.status
            if not result.ok or result.bits is None:
                decoded_amps = None
                break
            decoded_amps |= result.bits.astype(np.int64) * bit
        run.decoded_amps = decoded_amps

    # Phase rounds: the measured state acts as the XOR source, so the
    # subset's phase bits accumulate in it while its amplitude bits leak
    # into the other members, untracked: success checks the decoded
    # amplitudes of every state live here against the initial ones.
    phase_system = gf2.GF2System(m, n_sides=1, cap=solver_cap)
    packed_init_phases = gf2.pack_bits(init_phases)
    for r, members in enumerate(subsets_b):
        measured = int(members[0])
        parity = int(np.bitwise_xor.reduce(true_phases[members]))
        row = np.bitwise_xor.reduce(lineage.take(members, axis=0), axis=0)
        if gf2.dot_bit(row, packed_init_phases) != parity:
            raise InternalInvariantError("phase parity bookkeeping drifted")
        true_phases[measured] = parity
        phase_system.add_row(row, np.array([parity], dtype=np.uint8))
        run.phase_rounds.append(HashingRound(r, members, measured, parity))

    survivors = np.delete(np.arange(m), run.consumed)
    run.survivors = survivors
    run.empirical_yield = survivors.size / m

    # Decode the initial phase string, then read off each survivor's
    # current phase through its recorded lineage.
    survivor_phase_belief = None
    if feasible:
        result = decode(phase_system.solve()[0], float(p_phase), init_phases)
        run.phase_decode_status = result.status
        if result.ok and result.bits is not None:
            packed_decoded = gf2.pack_bits(result.bits)
            belief = gf2.dot_bit(lineage[survivors], packed_decoded)
            survivor_phase_belief = belief.astype(np.uint8)
            run.decoded_survivor_phases = survivor_phase_belief
    run.decode_mode = "/".join(sorted(modes)) if modes else "none"

    if not feasible or decoded_amps is None or survivor_phase_belief is None:
        run.failure_reason = "ambiguous"
        return False, run.empirical_yield, run

    amp_ok = bool(np.array_equal(decoded_amps[live_at_b], init_amps[live_at_b]))
    phase_ok = bool(
        np.array_equal(survivor_phase_belief, true_phases[survivors].astype(np.uint8))
    )
    run.success = amp_ok and phase_ok
    if not run.success:
        run.failure_reason = "wrong-decode"
    return run.success, run.empirical_yield, run
