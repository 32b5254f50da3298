import copy
import dataclasses
import hashlib
import itertools
import pathlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from catpurify.ensemble import SingleDistribution, bit_marginals, werner_single
from catpurify.errors import CapacityError, DimensionError, InternalInvariantError
from catpurify import gf2, hashing
from catpurify.gf2 import (
    CHUNK_BYTES,
    PROBE_PAIRS,
    GF2System,
    _enumerate_coset,
    certified_map_decode,
    pack_bits,
    pack_indices,
    row_weight,
    unpack_bits,
)
from catpurify.cli import main
from catpurify.labels import CatLabel, amp_bit
from catpurify.strategy import METHODS, MethodSpec
from oracles import replay_hashing, row_by_row_cosets
from catpurify.hashing import (
    HashingRun,
    _amplitude_backaction,
    _amplitude_cosets,
    _draw_phases,
    _records,
    binary_entropy,
    multiparty_hashing_yield,
    simulate_hashing,
    two_party_hashing_yield,
    werner_hashing_yield,
    werner_hashing_yield_limit,
    werner_hashing_yields,
)

# Frozen by independent extended-precision evaluation.
MP_HASH_N2_F07 = -0.4438561897747247
MP_HASH_N4_F09 = 0.3992171652704363
TWO_PARTY_THRESHOLD = 0.8107103750847682
MP_HASH_N2_THRESHOLD = 0.8349582033424607


def bisect_zero(fn, lo, hi, tol=1e-9):
    assert fn(lo) < 0 < fn(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("fidelities", [
    [0.9, 1.0 + 5e-13, 1.5],  # within the tolerance above 1, then out of range
    [0.9, 1.5, 1.0 + 5e-13],  # out of range, then within the tolerance
    [0.2, 0.5],
    [0.24, 0.3],
])
def test_werner_hashing_yields_raise_first_point_error(fidelities):
    with pytest.raises(ValueError) as grid_error:
        werner_hashing_yields(2, np.array(fidelities))
    for f in fidelities:
        try:
            werner_hashing_yield(2, f)
        except ValueError as point_error:
            assert str(grid_error.value) == str(point_error)
            break
    else:
        pytest.fail("no point raised")


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.110028) - 0.5) < 1e-4
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_multiparty_yield_examples():
    for n in (2, 3, 4):
        assert multiparty_hashing_yield(werner_single(n, 1.0)) == 1.0
    value = multiparty_hashing_yield(werner_single(2, 0.7))
    assert abs(value - MP_HASH_N2_F07) < 1e-12


def test_multiparty_yield_matches_closed_form_n3():
    rng = np.random.default_rng(42)
    for f in rng.uniform(0.125, 1.0, size=20):
        f = float(f)
        direct = multiparty_hashing_yield(werner_single(3, f))
        closed = werner_hashing_yield(3, f)
        assert abs(direct - closed) < 1e-12


def test_werner_yield_examples():
    for n in (2, 3, 4):
        assert werner_hashing_yield(n, 1.0) == 1.0
        # Within the tolerance above 1, the marginal's dust snaps to 0.
        assert werner_hashing_yield(n, 1.0 + 5e-13) == 1.0
    assert abs(werner_hashing_yield(4, 0.9) - MP_HASH_N4_F09) < 1e-12
    with pytest.raises(ValueError):
        werner_hashing_yield(2, 0.1)


def test_werner_yield_zero_crossing():
    crossing = bisect_zero(lambda f: werner_hashing_yield(2, f), 0.7, 0.95)
    assert abs(crossing - 0.8350) < 1e-3
    assert abs(crossing - MP_HASH_N2_THRESHOLD) < 1e-4


def test_limit_examples():
    assert werner_hashing_yield_limit(1.0) == 1.0
    assert werner_hashing_yield_limit(0.0) == -1.0
    for f in (-0.1, 1.1):
        with pytest.raises(ValueError, match="outside"):
            werner_hashing_yield_limit(f)
    # The one fidelity rule's tolerance, with 2^-N = 0.
    assert werner_hashing_yield_limit(1.0 + 5e-13) == 1.0
    assert werner_hashing_yield_limit(-5e-13) == werner_hashing_yield_limit(0.0)
    for f in (0.85, 0.9, 0.95):
        d8 = abs(werner_hashing_yield(8, f) - werner_hashing_yield_limit(f))
        d16 = abs(werner_hashing_yield(16, f) - werner_hashing_yield_limit(f))
        assert d16 < d8


def test_two_party_yield_examples():
    assert two_party_hashing_yield(werner_single(2, 1.0)) == 1.0
    assert abs(two_party_hashing_yield(werner_single(2, 0.25)) - (-1.0)) < 1e-12
    with pytest.raises(DimensionError):
        two_party_hashing_yield(werner_single(3, 0.9))


def test_two_party_threshold():
    crossing = bisect_zero(
        lambda f: two_party_hashing_yield(werner_single(2, f)), 0.7, 0.95
    )
    assert abs(crossing - 0.8107) < 1e-3
    assert abs(crossing - TWO_PARTY_THRESHOLD) < 1e-4


def test_separate_string_hashing_never_beats_joint():
    for k in range(25, 101):
        f = k / 100.0
        assert multiparty_hashing_yield(werner_single(2, f)) <= two_party_hashing_yield(
            werner_single(2, f)
        ) + 1e-12


def transcript_rounds(parsed: HashingRun):
    """Each phase of a run read back by ``from_text``, as (members, target,
    measured) per round."""
    targets = iter(parsed.consumed)
    return [
        [(np.flatnonzero(bits), next(targets), int(measured))
         for bits, measured in zip(unpack_bits(rows, parsed.block_size), measured_values)]
        for rows, measured_values in ((parsed.amp_rows, parsed.amp_measured),
                                      (parsed.phase_rows, parsed.phase_measured))
    ]


def replay_transcript(run: HashingRun):
    """Independent replay of the serialized transcript: re-derive every
    parity from the initial labels and the recorded wiring, checking the
    measured bits as it goes."""
    parsed = HashingRun.from_text(run.to_text())
    n = run.n_parties
    codes = parsed.initial_codes
    amp_mask = (1 << (n - 1)) - 1
    phases = ((codes >> (n - 1)) & 1).astype(int)
    amps = (codes & amp_mask).astype(int)
    amp_rounds, phase_rounds = transcript_rounds(parsed)
    for members, target, measured in amp_rounds:
        parity = int(np.bitwise_xor.reduce(amps[members]))
        assert parity == measured
        sources = members[members != target]
        phases[sources] ^= phases[target]
        amps[target] = parity
    for members, target, measured in phase_rounds:
        parity = int(np.bitwise_xor.reduce(phases[members]))
        assert parity == measured
        others = members[members != target]
        phases[target] = parity
        amps[others] ^= amps[target]
    return phases, amps


def test_simulate_pure_input():
    success, empirical_yield, run = simulate_hashing(
        3, 32, werner_single(3, 1.0), seed=9, safety_bits=0
    )
    assert success
    assert empirical_yield == 1.0 - len(run.consumed) / 32
    assert empirical_yield == 1.0
    assert np.all(run.decoded_amps == 0)
    assert np.all(run.decoded_survivor_phases == 0)


def test_simulate_pure_input_with_safety_rounds():
    success, empirical_yield, run = simulate_hashing(
        3, 32, werner_single(3, 1.0), seed=9, safety_bits=3
    )
    assert success
    assert run.rounds_a == run.rounds_b == 3
    assert empirical_yield == 1.0 - 6 / 32


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_parity_ground_truth_and_replay(seed):
    success, _, run = simulate_hashing(
        2, 48, werner_single(2, 0.9), seed=seed, safety_bits=4
    )
    phases, amps = replay_transcript(run)
    survivors = run.survivors
    # When the decode succeeded, its beliefs must match the replayed truth.
    if success:
        np.testing.assert_array_equal(
            run.decoded_survivor_phases, phases[survivors] & 1
        )


def test_reproducible_transcripts():
    single = werner_single(3, 0.9)
    runs = [simulate_hashing(3, 64, single, seed=5, safety_bits=4)[2] for _ in range(2)]
    assert runs[0].to_text() == runs[1].to_text()
    other = simulate_hashing(3, 64, single, seed=6, safety_bits=4)[2]
    assert other.to_text() != runs[0].to_text()


@pytest.mark.parametrize("n_parties", [5, 8])
def test_transcript_truth_round_trip(n_parties):
    # Codes above 0xf need the separator: at N=5, seed 3 draws 0x13.
    for seed in range(3, 6):
        _, _, run = simulate_hashing(
            n_parties, 8, werner_single(n_parties, 0.5), seed=seed, safety_bits=0
        )
        text = run.to_text()
        assert text.startswith("catpurify-hashing-run v2\n")
        np.testing.assert_array_equal(HashingRun.from_text(text).initial_codes, run.initial_codes)
        if n_parties == 5 and seed == 3:
            assert run.initial_codes.max() > 0xF
            assert text.splitlines()[2] == "truth=0,0,13,6,0,0,0,0"


RECORD_FIELDS = (
    "n_parties", "block_size", "seed", "safety_bits", "initial_codes",
    "amp_rows", "amp_measured", "phase_rows", "phase_measured", "consumed",
)


def assert_round_trip(run: HashingRun) -> HashingRun:
    """``from_text`` inverts ``to_text``: the text comes back byte for byte,
    every record field equals the run's and the outcome fields keep their
    defaults.  Returns the run read back."""
    text = run.to_text()
    parsed = HashingRun.from_text(text)
    assert parsed.to_text() == text
    for name in RECORD_FIELDS:
        got, want = getattr(parsed, name), getattr(run, name)
        assert np.shape(got) == np.shape(want), name
        np.testing.assert_array_equal(got, want)
    for field in dataclasses.fields(HashingRun):
        if field.name not in RECORD_FIELDS:
            assert getattr(parsed, field.name) == field.default, field.name
    for rows in (parsed.amp_rows, parsed.phase_rows):
        assert rows.dtype == np.uint64 and rows.shape[1] == gf2.n_words(run.block_size)
    return parsed


def test_transcript_round_trip():
    # (m, f, safety_bits): both phases empty (m=1, and a pure m=2 block with
    # no safety rounds), phase B empty, rows of one word (m=24 and a full
    # word at m=64) and of two (m=65).
    cases = [(1, 0.9, 0), (2, 1.0, 0), (2, 1.0, None), (24, 0.9, 2), (64, 0.9, 4), (65, 0.9, 4)]
    empty = set()
    for n, (m, f, safety_bits) in itertools.product((2, 3, 4), cases):
        _, _, run = simulate_hashing(n, m, werner_single(n, f), seed=2, safety_bits=safety_bits)
        assert_round_trip(run)
        empty.add((run.rounds_a == 0, run.rounds_b == 0))
    assert empty == {(True, True), (False, True), (False, False)}


def test_transcript_parse_rejects_a_missing_line():
    lines = simulate_hashing(2, 8, werner_single(2, 0.9), seed=0)[2].to_text().splitlines(True)
    with pytest.raises(ValueError, match="^expected the truth line, got 'A 0 "):
        HashingRun.from_text("".join(l for l in lines if not l.startswith("truth=")))
    with pytest.raises(ValueError, match="^expected the parameter line, got 'truth="):
        HashingRun.from_text("".join(l for l in lines if not l.startswith("n_parties=")))
    with pytest.raises(ValueError, match="^expected the truth line, got ''$"):
        HashingRun.from_text("".join(lines[:2]))


def test_transcript_parse_rejects_corrupt_fields():
    text = simulate_hashing(2, 10, werner_single(2, 0.9), seed=0, safety_bits=2)[2].to_text()
    first = next(line for line in text.splitlines() if line.startswith("A 0 "))
    mask = first.split()[2]
    # A mask naming state 12 of 10, and one wider than the block.
    for bad in ("1" + mask.rjust(3, "0"), "1" + mask.rjust(10, "0")):
        with pytest.raises(ValueError, match="bit at or past 10"):
            HashingRun.from_text(text.replace(first, first.replace(f" {mask} ", f" {bad} ")))
    with pytest.raises(ValueError, match="^expected the truth line, got 'truth=0,,0,"):
        HashingRun.from_text(text.replace("truth=0,0,", "truth=0,,0,"))


# The N=2, m=10, seed 0 transcript with 2 safety bits, which each case below
# edits by replacing one substring.
REFUSAL_TEXT = """\
catpurify-hashing-run v2
n_parties=2 block_size=10 seed=0 safety_bits=2
truth=0,0,0,0,0,1,0,0,0,2
A 0 32a 1 1
A 1 45 0 0
A 2 330 4 1
A 3 2a0 5 1
A 4 144 2 0
A 5 340 6 0
B 0 288 3 1
B 1 380 7 1
B 2 300 8 1
"""


@pytest.mark.parametrize("old,new,message", [
    pytest.param("A 1 45", "A 7 45", "^round 'A 7 45 0 0' should have index 1$", id="index"),
    pytest.param("B 0 288", "Z 0 288", "^expected a round line, got 'Z 0 288 3 1'$", id="tag"),
    pytest.param("A 5 340 6 0\nB 0 288 3 1\n", "B 0 288 3 1\nA 5 340 6 0\n",
                 "^phase A round 'A 5 340 6 0' after phase B$", id="phase-order"),
    pytest.param("A 1 45 0 0", "A 1 32a 1 1",
                 "^round 'A 1 32a 1 1' holds a state measured in an earlier round$",
                 id="targeted-twice"),
    pytest.param("B 2 300 8", "B 2 302 1",
                 "^round 'B 2 302 1 1' holds a state measured in an earlier round$",
                 id="phase-b-reads-a-target"),
    pytest.param(" block_size=10", "", "^expected the parameter line, got 'n_parties=2 seed=0 ",
                 id="no-block-size"),
    pytest.param(",0,2\n", ",0,9\n", "^truth line must hold 10 codes below 2\\^2$", id="wide-code"),
    pytest.param(",0,2\n", ",2\n", "^truth line must hold 10 codes below 2\\^2$", id="code-count"),
    pytest.param("run v2", "run v1",
                 "^expected the header 'catpurify-hashing-run v2', got 'catpurify-hashing-run v1'$",
                 id="v1-header"),
    pytest.param("A 0 32a 1", "A 0 32a 3",
                 "^round 'A 0 32a 3 1' must target the lowest of two or more states$", id="target"),
    pytest.param("A 0 32a 1", "A 0 32a " + "9" * 30,
                 "^round 'A 0 32a 9{30} 1' must target the lowest of two or more states$",
                 id="huge-target"),
    pytest.param("A 1 45 0", "A 1 1 0",
                 "^round 'A 1 1 0 0' must target the lowest of two or more states$",
                 id="one-member"),
    pytest.param("A 1 45 0", "A 1 0 0",
                 "^round 'A 1 0 0 0' must target the lowest of two or more states$",
                 id="no-member"),
    pytest.param("A 0 32a 1 1", "A 0 32a 1 ff",
                 "^round 'A 0 32a 1 ff' measured a value too wide for phase A$", id="wide-a"),
    pytest.param("B 0 288 3 1", "B 0 288 3 2",
                 "^round 'B 0 288 3 2' measured a value too wide for phase B$", id="wide-b"),
])
def test_from_text_refuses_corrupt_input(old, new, message):
    run = simulate_hashing(2, 10, werner_single(2, 0.9), seed=0, safety_bits=2)[2]
    assert assert_round_trip(run).to_text() == REFUSAL_TEXT
    assert REFUSAL_TEXT.count(old) == 1
    with pytest.raises(ValueError, match=message):
        HashingRun.from_text(REFUSAL_TEXT.replace(old, new))


def test_safety_monotonicity_weak_form():
    # Observed failure counts must be non-increasing in the safety margin.
    single = werner_single(2, 0.92)
    failures = []
    for safety in (0, 8, 16, 24):
        count = 0
        for seed in range(200):
            ok, _, _ = simulate_hashing(2, 256, single, seed=seed, safety_bits=safety)
            count += 0 if ok else 1
        failures.append(count)
    assert all(a >= b for a, b in zip(failures, failures[1:]))


def test_block_too_small_for_rounds_is_exhausted():
    success, _, run = simulate_hashing(2, 1, werner_single(2, 0.8), seed=0, safety_bits=0)
    assert not success
    assert run.failure_reason == "exhausted"
    success, empirical_yield, _ = simulate_hashing(
        2, 1, werner_single(2, 1.0), seed=0, safety_bits=0
    )
    assert success and empirical_yield == 1.0


@pytest.mark.parametrize("seed,statuses", [(4, ("ambiguous", "map")), (5, ("map", "ambiguous"))])
def test_tied_decode_is_ambiguous(seed, statuses):
    # Both phases get their planned rounds; one exhaustive decode ties.
    success, _, run = simulate_hashing(2, 24, werner_single(2, 0.95), seed=seed, safety_bits=2)
    assert not success
    assert (run.amp_decode_status, run.phase_decode_status, run.decode_mode) == (*statuses, "exact")
    assert run.failure_reason == "ambiguous"


def test_solver_cap_enforced():
    with pytest.raises(CapacityError):
        simulate_hashing(3, 10000, werner_single(3, 0.9), seed=0)


def test_solver_cap_is_read_at_call_time(monkeypatch):
    # N=3, m=8 has 16 decoding unknowns: a cap of 16 admits them, 15 not.
    single = werner_single(3, 0.9)
    monkeypatch.setattr(gf2, "GF2_SOLVER_CAP", 16)
    simulate_hashing(3, 8, single, seed=0)
    monkeypatch.setattr(gf2, "GF2_SOLVER_CAP", 15)
    with pytest.raises(CapacityError, match=r"^16 decoding unknowns exceeds the solver cap 15$"):
        simulate_hashing(3, 8, single, seed=0)
    with pytest.raises(CapacityError, match=r"^16 unknowns exceeds the solver cap 15$"):
        GF2System(16)


def test_negative_safety_bits_refused():
    with pytest.raises(ValueError, match=r"^safety bits must be non-negative, got -20$"):
        simulate_hashing(2, 64, werner_single(2, 0.99), 0, safety_bits=-20)


def test_single_party_refused():
    with pytest.raises(ValueError, match=r"^need at least 2 parties, got 1$"):
        werner_hashing_yield(1, 0.9)
    with pytest.raises(ValueError, match=r"^need at least 2 parties, got 1$"):
        simulate_hashing(1, 4, werner_single(1, 0.9), 0)


def test_party_count_must_be_an_integer():
    message = r"^party count must be an integer, got 2\.5$"
    with pytest.raises(ValueError, match=message):
        werner_hashing_yield(2.5, 0.9)
    with pytest.raises(ValueError, match=message):
        werner_single(2.5, 0.9)
    # numpy integers and the many-party limit pass.
    assert werner_single(np.int64(3), 0.9).n_parties == 3
    assert werner_hashing_yield(np.int64(3), 0.9) == werner_hashing_yield(3, 0.9)
    assert werner_hashing_yield(float("inf"), 0.9) == werner_hashing_yield_limit(0.9)


@pytest.mark.parametrize("narrow", [np.uint8, np.int8, np.int16])
def test_narrow_numpy_party_counts_match_python_ints(narrow):
    # 1 - N, -N and 1 << N would wrap in the narrow type; the count is
    # taken as a Python int at each entry point.
    mp_hash = METHODS["mp-hash"].kernel
    fidelities = np.array([0.6, 0.9, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 3, 7, 8, 12):
            assert werner_hashing_yield(narrow(n), 0.9) == werner_hashing_yield(n, 0.9)
            single = werner_single(narrow(n), 0.9)
            assert type(single.n_parties) is int
            assert np.array_equal(single.probs, werner_single(n, 0.9).probs)
            assert np.array_equal(mp_hash(MethodSpec("mp-hash"), narrow(n), fidelities),
                                  mp_hash(MethodSpec("mp-hash"), n, fidelities))
            assert CatLabel(narrow(n), 1, (1,) * (n - 1)).encode() == (1 << n) - 1
        run = simulate_hashing(narrow(3), 16, werner_single(3, 0.9), seed=4)[2]
    assert run.to_text() == simulate_hashing(3, 16, werner_single(3, 0.9), seed=4)[2].to_text()
    assert werner_hashing_yield(narrow(3), 0.9) == pytest.approx(0.3680, abs=1e-4)


def consistent_amp_candidates(run: HashingRun):
    """All amplitude strings (N=2) consistent with the serialized parities."""
    m = run.block_size
    amp_rounds, _ = transcript_rounds(HashingRun.from_text(run.to_text()))
    consistent = []
    for bits in itertools.product((0, 1), repeat=m):
        cand = np.array(bits, dtype=np.uint8)
        ok = all(
            int(cand[members].sum() & 1) == measured
            for members, _, measured in amp_rounds
        )
        if ok:
            consistent.append(cand)
    return consistent


@pytest.mark.parametrize("seed", range(50))
def test_small_instance_decoder_matches_enumeration(seed):
    # N=2, m=10: the GF(2) decode must agree exactly with brute force over
    # all 2^10 candidate amplitude strings.
    single = werner_single(2, 0.85)
    x = float(2 * (1 - 0.85) / 3)
    _, _, run = simulate_hashing(2, 10, single, seed=seed, safety_bits=1)
    candidates = consistent_amp_candidates(run)
    assert candidates, "true string is always consistent"
    weights = np.array([int(c.sum()) for c in candidates])
    best = weights.min()
    n_best = int((weights == best).sum())
    if n_best > 1:
        assert run.amp_decode_status == "ambiguous"
        assert run.decoded_amps is None
    else:
        assert run.decoded_amps is not None
        expected = candidates[int(weights.argmin())]
        np.testing.assert_array_equal(run.decoded_amps.astype(np.uint8), expected)
    assert x < 0.5  # the weight ordering above assumes the biased prior


def test_three_party_run_decodes_both_amplitude_strings():
    # One shared hash matrix serves every amplitude bit position; a
    # successful run must therefore have both decoded strings equal to the
    # replayed truth on the surviving states.
    success, _, run = simulate_hashing(
        3, 40, werner_single(3, 0.95), seed=8, safety_bits=6
    )
    phases, _ = replay_transcript(run)
    if success:
        survivors = run.survivors
        initial_amps = (run.initial_codes & 0b11)[survivors]
        np.testing.assert_array_equal(run.decoded_amps[survivors], initial_amps)
        np.testing.assert_array_equal(
            run.decoded_survivor_phases, phases[survivors] & 1
        )


@pytest.mark.parametrize("seed", range(5))
def test_amplitude_sides_follow_party_order(seed):
    # Non-isotropic input: party 2's amplitude bit is never set, party 3's
    # is set with probability 0.1, so a prior, right-hand side or truth
    # string taken from the wrong party fails the decode.
    probs = np.zeros(8)
    probs[[0b000, 0b001, 0b100]] = 0.85, 0.10, 0.05
    single = SingleDistribution(3, probs)
    p_phase, p_amps = bit_marginals(single)
    assert p_phase == pytest.approx(0.05)
    np.testing.assert_allclose(p_amps, [0.0, 0.10])
    success, _, run = simulate_hashing(3, 256, single, seed=seed, safety_bits=12)
    assert success, run.failure_reason
    assert not (run.decoded_amps & 0b10).any()
    survivors = run.survivors
    np.testing.assert_array_equal(run.decoded_amps[survivors], run.initial_codes[survivors] & 0b11)


def test_returned_run_keeps_only_packed_records():
    # One packed row of 32 words and one measured value per round, plus
    # per-state arrays: about 0.4 MB.
    _, _, run = simulate_hashing(3, 2000, werner_single(3, 0.9), seed=1000, safety_bits=20)
    arrays = [value for value in vars(run).values() if isinstance(value, np.ndarray)]
    assert run.amp_rows.shape == run.phase_rows.shape == (652, 32)
    assert sum(value.nbytes for value in arrays) < 1 << 20


def test_large_block_monte_carlo_quick():
    single = werner_single(3, 0.9)
    results = [
        simulate_hashing(3, 2000, single, seed=1000 + k, safety_bits=20)
        for k in range(3)
    ]
    assert all(ok for ok, _, _ in results)
    for _, empirical_yield, run in results:
        assert run.decode_mode == "certified"
        assert abs(empirical_yield - 696 / 2000) < 1e-12


# (N, m, f, safety_bits, seeds, SHA-256 of every run).  Recorded with a
# per-round subset sampler, per-pair probe draws and per-probe scoring, so
# any change to either random stream, the transcript or a decode shows
# here.  The transcripts were v1 then and are hashed in that layout (see
# ``v1_text``); ``test_transcript_truth_round_trip`` pins the v2 layout.
GOLDEN_RUNS = [
    # m=1: no round can run
    (2, 1, 0.8, 0, range(0, 4), "176794c26c47b52929e08701164c9b23f2414a11790b49d52f9303e742ebb3a3"),
    # m=1, pure: degenerate decode of an empty system
    (2, 1, 1.0, 0, range(0, 2), "51a8be724830d60ff266a82cf0d6ba5473ea9c00883a80e42b9a8cb902206a05"),
    # m=3..6: frequent resamples
    (2, 3, 0.85, 0, range(0, 20), "0a60f2364f0c1927ef50a761ae93b2d9ad2a9e76e819fb37c325e9b4cd5c5677"),
    (2, 4, 0.85, 1, range(0, 20), "b9e8f807e0da1292f47d540ecde2492b16d8f82febca68d2dd01f7db80042cec"),
    (2, 5, 0.9, 1, range(0, 20), "f87afebd5179b607628da0c7e94b79e6cb2d4a73d1cea68d2e2c563fe156698d"),
    (2, 6, 0.9, 2, range(0, 20), "b677c18580fc3e775f04cf961ef76118827a6294c01b0aedd7b3519bf23b78e7"),
    # exact decodes (map, degenerate), successes and failures
    (3, 5, 0.9, 0, range(0, 20), "77bc6ac4391a04d49158071e3c5ea8bbc8d02be24080a74b418e8fba9e29cda7"),
    (3, 32, 1.0, 0, range(0, 2), "b32b070fe4361a452a0cf0eb4eb1794f5726fc322360b36aa51f32b00b713964"),
    (2, 10, 0.85, 1, range(0, 20), "5fc18fda7772621ed15d5c63cd28b018ec8b109917e591c4a90ef5193235aedf"),
    # N=4, certified
    (4, 24, 0.95, 2, range(0, 10), "bb15cb61fcb4200ee1b513781d5264129ff896f5e682bec8e4d3dbfda8a28b81"),
    (4, 64, 0.9, None, range(0, 5), "540398d43114056f434fafee2666aa13b0cb928d856799207fa204971a3475d5"),
    # certified rivals: ties and wrong decodes
    (2, 30, 0.95, 0, range(0, 30), "e66c0277fff49ed53fdfb01a45f788a8ad014ab79fa6478938715256e0eb567c"),
    (2, 40, 0.85, 0, range(0, 30), "ab7dbc04fc56cdb302fd9252e808df472cb34e664a27f93cd320cf20f57faa6e"),
    (2, 256, 0.92, 0, range(0, 10), "18ca956def0a4d1776a1c4524a743a55ac5fbbde11404c401c41c3d62b2f702e"),
    (2, 256, 0.92, None, range(0, 10), "6a8a6174da61af52da1c1dc716d8aabea9d6fac8d50120f51682dd179a3101e8"),
    # three certified decodes share probe_rng
    (3, 200, 0.9, 4, range(0, 10), "a2e38f3afd9df574ad653ea458d872fc20bf17c24710ca84df44ace659d03cfc"),
    # phases draw more selectors than one read holds
    (3, 2000, 0.9, 20, range(1000, 1001), "b10089a0daa4ebebd331af746d975ba9e3c01ba29d3d6dfb89fb9041ba1a5912"),
]


def v1_text(run):
    """The transcript in the v1 layout, whose truth line ran the hex codes
    together; v2 only adds commas between them and bumps the header."""
    header, params, truth, *rounds = run.to_text().split("\n")
    assert header == "catpurify-hashing-run v2" and truth.startswith("truth=")
    return "\n".join(["catpurify-hashing-run v1", params, truth.replace(",", ""), *rounds])


def run_digest(n, m, f, safety_bits, seeds):
    """The digest of each seed's transcript and outcome.  Each transcript
    read back up to m = 256 is also replayed through ``labels.mxor``, which
    raises unless every measured value matches; the m = 2000 run, which
    would add about 0.3 s, is left out."""
    h = hashlib.sha256()
    single = werner_single(n, f)
    for seed in seeds:
        ok, empirical_yield, run = simulate_hashing(n, m, single, seed=seed, safety_bits=safety_bits)
        parsed = assert_round_trip(run)
        if m <= 256:
            replay_hashing(parsed)
        h.update(v1_text(run).encode())
        # The digests were recorded when an exhausted block shared the
        # reason of a tied decode.
        reason = "ambiguous" if run.failure_reason == "exhausted" else run.failure_reason
        h.update(repr((ok, empirical_yield, reason, run.amp_decode_status,
                       run.phase_decode_status, run.decode_mode)).encode())
        for arr in (run.decoded_amps, run.decoded_survivor_phases):
            h.update(b"-" if arr is None else arr.dtype.str.encode() + arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n,m,f,safety_bits,seeds,expected", GOLDEN_RUNS)
def test_golden_transcripts(n, m, f, safety_bits, seeds, expected):
    assert run_digest(n, m, f, safety_bits, seeds) == expected


@pytest.mark.parametrize("tag", ["A", "B"])
def test_replay_catches_a_flipped_measurement(tag):
    # Negative control: a golden transcript with one measured value flipped
    # still reads back, but its labels no longer give that value.
    _, _, run = simulate_hashing(2, 40, werner_single(2, 0.85), seed=0, safety_bits=0)
    lines = run.to_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(f"{tag} 3 "))
    *fields, value = lines[k].split(" ")
    lines[k] = " ".join([*fields, format(int(value, 16) ^ 1, "x")])
    corrupted = HashingRun.from_text("\n".join(lines) + "\n")
    replay_hashing(HashingRun.from_text(run.to_text()))
    with pytest.raises(ValueError, match=f"^phase {tag} round 3 measured "):
        replay_hashing(corrupted)


def test_replay_corrects_every_survivor_of_a_success():
    # Read as its Pauli frame, a survivor's belief label corrects it to the
    # all-zero label exactly when it equals the survivor's true label.
    # Every success must correct every survivor and every wrong decode
    # leave one mis-corrected; a tie leaves no belief to apply.
    reasons = set()
    for n, m, f, safety_bits, seeds in ((2, 32, 0.9, 2, range(300)), (3, 40, 0.9, 4, range(60)),
                                        (4, 24, 0.95, 2, range(40))):
        single = werner_single(n, f)
        for seed in seeds:
            ok, _, run = simulate_hashing(n, m, single, seed=seed, safety_bits=safety_bits)
            truth, belief = replay_hashing(run)
            assert len(truth) == len(run.survivors)
            if ok:
                assert belief == truth
            elif run.failure_reason == "wrong-decode":
                assert belief is not None and belief != truth
            else:
                assert belief is None
            reasons.add(run.failure_reason)
    assert reasons == {None, "ambiguous", "wrong-decode"}


def reference_subsets(rng, live_count, n_rounds, redraws=None):
    """The per-round sampler: one rng.random(live) call per draw.  Each
    redraw is counted in ``redraws[0]``, if given."""
    subsets = []
    live = np.arange(live_count)
    for _ in range(n_rounds):
        if live.size < 2:
            break
        while True:
            sel = rng.random(live.size) < 0.5
            if int(sel.sum()) >= 2:
                break
            if redraws is not None:
                redraws[0] += 1
        subsets.append(live[sel])
        live = live[live != live[sel].min()]
    return subsets


def packed_phase(subsets, m):
    """Packed membership rows and targets (each round's minimum) of member
    lists, as ``_draw_phases`` yields them."""
    rows = np.array([pack_indices(members, m) for members in subsets], dtype=np.uint64)
    targets = np.array([min(members) for members in subsets], dtype=np.int64)
    return rows.reshape(len(subsets), gf2.n_words(m)), targets


def member_lists(rows, m):
    """Each packed membership row's members, ascending."""
    return [np.flatnonzero(bits) for bits in unpack_bits(rows, m)]


def assert_draws_match_reference(seed, live_count, round_counts):
    """The bulk draw's phases against the per-round sampler's subsets when
    each phase reads on from where the last stopped; returns the
    reference's redraw count."""
    redraws = [0]
    expected = reference_subsets(
        np.random.default_rng(seed), live_count, sum(round_counts), redraws)
    drawn = list(_draw_phases(np.random.default_rng(seed), live_count, round_counts))
    assert len(drawn) == len(round_counts)
    first = 0
    for (rows, targets), planned in zip(drawn, round_counts):
        want_rows, want_targets = packed_phase(expected[first : first + planned], live_count)
        assert rows.dtype == np.uint64 and targets.dtype == np.int64
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(targets, want_targets)
        first += len(targets)
    assert first == len(expected)
    return redraws[0]


@pytest.mark.parametrize("live_count,n_rounds", [
    (2, 1), (3, 5), (5, 2), (6, 6), (40, 10), (40, 39), (300, 250),
])
def test_subset_sampler_matches_per_round_draws(live_count, n_rounds):
    # Two phases drawn from one selector buffer must give the subsets the
    # per-round calls give when phase B reads on from where phase A
    # stopped.  Rounds stop once fewer than two states are live, as in
    # simulate_hashing, and a phase that runs short leaves none for the next.
    for seed in range(20):
        split = seed % (n_rounds + 1)
        assert_draws_match_reference(seed, live_count, (split, n_rounds - split))


@pytest.mark.parametrize("selector_read,batch_rounds", [
    (1, 1), (1, 3), (7, 1), (7, 2), (100, 3), (1 << 15, 1), (1 << 15, None),
])
def test_bulk_draw_matches_per_round_draws_in_any_batches(
        monkeypatch, selector_read, batch_rounds):
    # The budget sets both the batch (the draw charges 5 bytes per state
    # and round) and the read, a 32nd of it.  Each block gets the budget
    # nearest 32 * selector_read that still gives batches of batch_rounds
    # rounds, so reads run from one selector to a third of a round's, and
    # draws straddle them.  Blocks of 2 to 6 states are redraw-heavy and
    # their phases run short.  A read of no more than a batch needs without
    # redraws leaves a redraw to cut its batch short, and to end a
    # one-round batch with no round drawn.  No batch size keeps the
    # default budget and its 1 << 15 reads.
    redraws, short, reads = 0, 0, set()
    for m in (2, 3, 4, 5, 6, 9, 20, 40, 130, 200):
        if batch_rounds is not None:
            low = 5 * m * batch_rounds
            budget = min(max(32 * selector_read, low), low + 5 * m - 1)
            monkeypatch.setattr(gf2, "CHUNK_BYTES", budget)
        reads.add(max(1, gf2.CHUNK_BYTES >> 5))
        for seed in range(12):
            counts = (seed % 4, 2 + seed % 3, seed % 2) if m < 9 else (m // 3, m // 2, m)
            redraws += assert_draws_match_reference(seed, m, counts)
            short += sum(counts) >= m
    assert redraws > 20 and short > 20
    # Each aimed read is met, but 1 << 15 is past every one-round batch here.
    assert selector_read in reads or selector_read > max(reads)


def test_subset_sampler_reads_in_bounded_chunks():
    class CountingRng:
        def __init__(self):
            self.rng, self.sizes = np.random.default_rng(0), []

        def random(self, size):
            self.sizes.append(size)
            return self.rng.random(size)

    counting = CountingRng()
    (rows_a, targets_a), (rows_b, targets_b) = _draw_phases(counting, 2000, (150, 250))
    assert len(targets_a) + len(targets_b) == 400
    assert len(rows_a) + len(rows_b) == 400
    assert max(counting.sizes) <= gf2.CHUNK_BYTES >> 5
    # 2000 + 1999 + ... + 1601 doubles at least; chunks keep the calls few.
    assert sum(counting.sizes) >= sum(range(1601, 2001))
    assert len(counting.sizes) < 40


def traced_peak_over_outputs(run):
    """Traced peak of ``run()`` less the bytes of the arrays it returns,
    each counted once."""
    tracemalloc.start()
    try:
        outputs = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(out.nbytes for out in {id(out): out for out in outputs}.values())


def test_draw_peaks_within_the_chunk_cap(monkeypatch):
    # Traced allocations of drawing each phase at m=2000, over the rows and
    # targets it yields: the selectors read, the gathered rows and the rows
    # over the states, one batch at a time.  With no cap one batch holds
    # every round's.
    for cap, within in ((CHUNK_BYTES, True), (1 << 40, False)):
        monkeypatch.setattr(gf2, "CHUNK_BYTES", cap)
        phases = _draw_phases(np.random.default_rng(1000), 2000, (700, 700))
        for _ in range(2):
            peak = traced_peak_over_outputs(lambda: next(phases))
            if within:
                assert peak <= CHUNK_BYTES + (64 << 10)
            else:
                assert peak > 2 * CHUNK_BYTES


def reference_bookkeeping(subsets_a, subsets_b, m, codes, n):
    """The per-round bookkeeping, with rows and lineage as Python int
    bitmasks: one parity, row and label update per round, reading the
    labels as the rounds before it left them."""
    amp_mask = (1 << (n - 1)) - 1
    amps = [int(c) & amp_mask for c in codes]
    phases = [int(c) >> (n - 1) for c in codes]
    lineage = [1 << i for i in range(m)]
    amp_rows, amp_parities = [], []
    for members in subsets_a:
        target, *sources = members.tolist()
        parity, row = 0, 0
        for i in members.tolist():
            parity ^= amps[i]
            row |= 1 << i
        for i in sources:
            phases[i] ^= phases[target]
            lineage[i] ^= lineage[target]
        amps[target] = parity
        amp_rows.append(row)
        amp_parities.append(parity)
    lineage_after_a, phases_after_a = list(lineage), list(phases)
    phase_members, phase_rows, phase_parities = [], [], []
    for members in subsets_b:
        parity, member_row, row = 0, 0, 0
        for i in members.tolist():
            parity ^= phases[i]
            member_row |= 1 << i
            row ^= lineage[i]
        phases[int(members[0])] = parity
        phase_members.append(member_row)
        phase_rows.append(row)
        phase_parities.append(parity)
    return (amp_rows, amp_parities, lineage_after_a, phases_after_a,
            phase_members, phase_rows, phase_parities)


def packed_as_ints(rows):
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in rows]


def amplitude_records(rows, targets, init_amps, n):
    """The amplitude pass, whose system rows are its membership rows:
    (rows, rhs, parities)."""
    side_bits = np.array([amp_bit(j, n) for j in range(n - 1)], dtype=np.int64)
    side_truth = ((init_amps & side_bits[:, None]) != 0).astype(np.uint8)
    return (rows, *_records(rows, rows, targets, init_amps, side_bits, side_truth, "amplitude"))


def phase_records(rows, targets, lineage, targets_a, phases, init_phases):
    """The phase rows, built as ``simulate_hashing`` builds them, and the
    phase pass: (rows, rhs, parities)."""
    m = phases.size
    phase_rows = gf2.scatter_columns(gf2.mat_mul(rows, lineage), targets_a, m)
    phase_rows ^= rows
    return (phase_rows, *_records(rows, phase_rows, targets, phases, np.ones(1, dtype=np.int64),
                                  init_phases[None], "phase"))


def full_lineage(lineage, targets_a, m):
    """The lineage rows over the m initial phases: a state's own bit,
    unless an amplitude round measured it, and its bits spread from the
    rounds onto their targets."""
    assert lineage.shape == (m, gf2.n_words(targets_a.size))
    rows = gf2.scatter_columns(lineage, targets_a, m)
    live = np.delete(np.arange(m), targets_a)
    rows[live] ^= pack_bits(np.eye(m, dtype=np.uint8))[live]
    return rows


def bulk_bookkeeping(phase_a, phase_b, m, codes, n):
    """The simulator's bulk passes on the same phases and labels."""
    (amp_members, targets_a), (phase_members, targets_b) = phase_a, phase_b
    init_phases = (codes >> (n - 1)).astype(np.uint8)
    init_amps = codes & ((1 << (n - 1)) - 1)
    side_bits = np.array([amp_bit(j, n) for j in range(n - 1)], dtype=np.int64)
    amp_rows, rhs, amp_parities = amplitude_records(amp_members, targets_a, init_amps, n)
    assert amp_parities.dtype == init_amps.dtype
    np.testing.assert_array_equal(rhs, (amp_parities[:, None] & side_bits) != 0)
    lineage, phases = _amplitude_backaction(amp_members, targets_a, m, init_phases)
    # The lineage keeps one bit per amplitude round.
    assert lineage.shape[1] == gf2.n_words(len(targets_a))
    phase_rows, phase_rhs, phase_parities = phase_records(
        phase_members, targets_b, lineage, targets_a, phases, init_phases)
    np.testing.assert_array_equal(phase_rhs[:, 0], phase_parities)
    return (packed_as_ints(amp_rows), amp_parities.tolist(),
            packed_as_ints(full_lineage(lineage, targets_a, m)),
            phases.tolist(), packed_as_ints(phase_members), packed_as_ints(phase_rows),
            phase_parities.tolist())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bulk_bookkeeping_matches_per_round_reference(n):
    rng = np.random.default_rng(n)
    cases = [(1, 3, 3), (2, 2, 2), (2, 0, 0), (5, 0, 4), (5, 4, 0), (64, 40, 30), (65, 70, 70)]
    # The lineage moves in groups of 8 amplitude rounds: one short group,
    # one full, one full and one more, and two full ones and one more.
    cases += [(40, 1, 5), (40, 7, 5), (40, 8, 5), (40, 9, 5), (40, 17, 5)]
    cases += [(int(rng.integers(1, 130)), int(rng.integers(0, 60)), int(rng.integers(0, 60)))
              for _ in range(12)]
    shapes, rounds_a = set(), set()
    for seed, (m, planned_a, planned_b) in enumerate(cases):
        draw = np.random.default_rng([n, seed])
        phase_a, phase_b = _draw_phases(draw, m, (planned_a, planned_b))
        codes = draw.integers(0, 1 << n, size=m)
        subsets_a, subsets_b = (member_lists(rows, m) for rows, _ in (phase_a, phase_b))
        expected = reference_bookkeeping(subsets_a, subsets_b, m, codes, n)
        assert bulk_bookkeeping(phase_a, phase_b, m, codes, n) == expected
        shapes.add((len(subsets_a) == 0, len(subsets_b) == 0))
        rounds_a.add(len(subsets_a))
    # Both phases run empty, and each runs empty while the other does not.
    assert shapes == {(False, False), (True, True), (False, True), (True, False)}
    assert {1, 7, 8, 9, 17} <= rounds_a


@pytest.mark.parametrize("n", [2, 3])
def test_bulk_bookkeeping_chains_targets_within_a_group(n):
    # Round r measures state r and reads r + 1, the next round's target, so
    # each target was a source earlier in its own group of 8; r + 12 ties
    # the groups together through states no round measures.
    m = 24
    subsets_a = [np.array([r, r + 1, r + 12]) for r in range(10)]
    subsets_b = [np.array([10, 11, 22, 23])]
    codes = np.random.default_rng(n).integers(0, 1 << n, size=m)
    expected = reference_bookkeeping(subsets_a, subsets_b, m, codes, n)
    phases = [packed_phase(subsets, m) for subsets in (subsets_a, subsets_b)]
    assert bulk_bookkeeping(*phases, m, codes, n) == expected
    # State 9's phase gathers those of states 0-9.
    assert expected[2][9] == (1 << 10) - 1


# (m, planned amplitude rounds): none; phases that run short, as a block
# of m states runs at most m - 1 rounds; 63 to 65 rounds, around a word
# boundary of the lineage; and the README size.
LINEAGE_COSET_CASES = [
    (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2), (3, 3), (40, 0), (40, 17), (40, 60),
    (64, 30), (64, 63), (65, 64), (65, 70), (256, 63), (256, 64), (256, 65), (256, 93),
    (2000, 652),
]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_amplitude_cosets_equal_the_eliminated_ones(n):
    # The cosets read off the lineage are, byte for byte, the ones the
    # elimination gives each side's amplitude rows, and the ones the
    # row-by-row reference gives all sides at once.
    short = set()
    for seed, (m, planned_a) in enumerate(LINEAGE_COSET_CASES):
        draw = np.random.default_rng([n, seed, 0xC0])
        ((rows, targets),) = _draw_phases(draw, m, (planned_a,))
        codes = draw.integers(0, 1 << n, size=m)
        init_amps = codes & ((1 << (n - 1)) - 1)
        _, rhs, _ = amplitude_records(rows, targets, init_amps, n)
        lineage, _ = _amplitude_backaction(
            rows, targets, m, (codes >> (n - 1)).astype(np.uint8))
        assert lineage.shape == (m, gf2.n_words(len(targets)))
        cosets = _amplitude_cosets(lineage, targets, rhs, m)
        hashing._check_amplitude_cosets(cosets, rows, rhs, np.random.default_rng(seed))
        assert len(cosets) == n - 1
        for got, side in zip(cosets, rhs.T):
            system = GF2System(m)
            system.add_row(rows, side)
            want = system.solve()
            assert got.n_unknowns == want.n_unknowns == m
            for field in ("particular", "basis", "free_cols"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert a.flags.writeable == b.flags.writeable
        # The reference takes side j's right-hand side as bit j.
        sides = (rhs.astype(np.int64) << np.arange(n - 1)).sum(axis=1)
        reference = row_by_row_cosets(packed_as_ints(rows), sides.tolist(), m, n - 1)
        for got, (particular, basis, free_cols) in zip(cosets, reference, strict=True):
            assert packed_as_ints(got.particular[None]) == [particular]
            assert packed_as_ints(got.basis) == basis
            assert got.free_cols.tolist() == free_cols
        if len(targets) < planned_a:
            short.add(m)
    assert short == {1, 2, 3, 40, 65}


def test_one_constructor_lays_out_every_coset(monkeypatch):
    # An N=3 trial builds its two amplitude cosets, then its phase coset,
    # each set through gf2.pivot_cosets, and nothing else in the package
    # builds an AffineCoset.
    real, sides = gf2.pivot_cosets, []

    def spy(rows, *args):
        sides.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(gf2, "pivot_cosets", spy)
    _, _, run = simulate_hashing(3, 200, werner_single(3, 0.95), seed=1)
    assert run.phase_decode_status != "skipped"
    assert sides == [2, 1]
    package = pathlib.Path(gf2.__file__).parent
    calls = {path.name: path.read_text().count("AffineCoset(")
             for path in package.glob("*.py")}
    assert {name: count for name, count in calls.items() if count} == {"gf2.py": 1}


def test_each_phase_is_drawn_after_the_last_one_is_dropped(monkeypatch):
    # Byte rows (one byte per state and round) grow as m^2, so the trial
    # holds one chunk of them at a time: each is made from packed rows and
    # dropped before the next stage.  Phase A's back-action runs before
    # phase B's first draw and reads every phase-A round, no selector read
    # of phase B finds a byte row alive, and none outlives its pass into
    # the coset builds.
    real_draw, real_backaction, real_chunks, real_cosets = (
        hashing._draw_phases, hashing._amplitude_backaction, hashing._byte_chunks,
        gf2.pivot_cosets)
    events, unpacked, backaction_rounds = [], [], []

    def alive():
        return sum(ref() is not None for ref in unpacked)

    class WatchedRng:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            events.append(("read", alive()))
            return self.rng.random(size)

    def draw(rng, m, round_counts):
        phases = real_draw(WatchedRng(rng), m, round_counts)
        for _ in round_counts:
            events.append(("draw", alive()))
            yield next(phases)

    def chunks(*args):
        for start, stop, members in real_chunks(*args):
            unpacked.append(weakref.ref(members))
            backaction_rounds.append(stop - start)
            yield start, stop, members

    def backaction(*args):
        events.append(("backaction", alive()))
        backaction_rounds.clear()
        outputs = real_backaction(*args)
        events.append(("backaction done", sum(backaction_rounds)))
        return outputs

    def cosets(*args):
        events.append(("cosets", alive()))
        return real_cosets(*args)

    monkeypatch.setattr(hashing, "_draw_phases", draw)
    monkeypatch.setattr(hashing, "_amplitude_backaction", backaction)
    monkeypatch.setattr(hashing, "_byte_chunks", chunks)
    monkeypatch.setattr(gf2, "pivot_cosets", cosets)
    _, _, run = simulate_hashing(2, 2000, werner_single(2, 0.9), seed=3)
    assert run.phase_decode_status != "skipped"
    stages = [name for name, _ in events if name != "read"]
    assert stages == ["draw", "backaction", "backaction done", "draw", "cosets", "cosets"]
    # The back-action reads every phase-A round, a chunk at a time.
    assert ("backaction done", run.rounds_a) in events
    assert len(unpacked) > 4
    draw_b = max(i for i, (name, _) in enumerate(events) if name == "draw")
    reads_b = [count for name, count in events[draw_b:] if name == "read"]
    assert reads_b and not any(reads_b)
    assert all(count == 0 for name, count in events if name in ("backaction", "cosets"))


def test_bulk_bookkeeping_runs_in_bounded_chunks(monkeypatch):
    # Each pass reads its phase's byte rows in chunks of rounds whose
    # temporaries fit the cap: a round unpacks its row, takes each state's
    # value (one byte at N=3), reads its bytes at the targets so far and
    # takes its products with the truth.
    passes, in_records = [], []
    real_chunks, real_records = hashing._byte_chunks, hashing._records

    def records(member_rows, rows, targets, values, side_bits, *rest):
        m, words = values.size, gf2.n_words(values.size)
        per_round = (words << 6) + m + len(targets) + side_bits.size * words * 16
        passes.append((per_round, []))
        in_records.append(True)
        try:
            return real_records(member_rows, rows, targets, values, side_bits, *rest)
        finally:
            in_records.pop()

    def counting_chunks(*args):
        for start, stop, members in real_chunks(*args):
            if in_records:
                passes[-1][1].append(stop - start)
            yield start, stop, members

    monkeypatch.setattr(hashing, "_records", records)
    monkeypatch.setattr(hashing, "_byte_chunks", counting_chunks)
    single = werner_single(3, 0.9)
    # At m=2000 a phase round takes about 8 KB.  At m=300 each round takes
    # more than 600 bytes, so a cap of 600 runs each alone, over it.
    for m, cap in ((2000, CHUNK_BYTES), (300, 600)):
        passes.clear()
        monkeypatch.setattr(gf2, "CHUNK_BYTES", cap)
        _, _, run = simulate_hashing(3, m, single, seed=1000, safety_bits=20)
        assert [sum(rounds) for _, rounds in passes] == [run.rounds_a, run.rounds_b]
        for per_round, rounds in passes:
            assert len(rounds) > 1
            assert all(n * per_round <= cap or n == 1 for n in rounds)
            if cap == CHUNK_BYTES:
                assert max(rounds) > 1
            else:
                assert max(rounds) == 1 and per_round > cap


def test_bulk_bookkeeping_peaks_within_the_chunk_cap(monkeypatch):
    # Traced numpy allocations of each pass: one chunk of rounds at a time,
    # plus the records it returns, each allocated once.  The amplitude
    # system rows are its membership rows, allocated before; the phase
    # pass first builds its system rows from the lineage, one piece of the
    # widening at a time.  With no cap a pass holds every round's
    # temporaries.
    m, n = 2000, 3
    draw = np.random.default_rng(1000)
    (rows_a, targets_a), (rows_b, targets_b) = _draw_phases(draw, m, (700, 700))
    codes = draw.integers(0, 1 << n, size=m)
    init_phases = (codes >> (n - 1)).astype(np.uint8)
    init_amps = codes & ((1 << (n - 1)) - 1)
    lineage, phases = _amplitude_backaction(rows_a, targets_a, m, init_phases)
    passes = (
        lambda: amplitude_records(rows_a, targets_a, init_amps, n)[1:],
        lambda: phase_records(rows_b, targets_b, lineage, targets_a, phases, init_phases),
    )
    for run_pass in passes:
        assert traced_peak_over_outputs(run_pass) <= CHUNK_BYTES + (64 << 10)
    monkeypatch.setattr(gf2, "CHUNK_BYTES", 1 << 40)
    for run_pass in passes:
        assert traced_peak_over_outputs(run_pass) > 2 * CHUNK_BYTES


def assert_backaction_peaks_within_the_chunk_cap(m, n, n_rounds):
    """Traced numpy allocations of the amplitude back-action over its
    outputs stay within ``CHUNK_BYTES``."""
    draw = np.random.default_rng(1000)
    ((rows_a, targets_a),) = _draw_phases(draw, m, (n_rounds,))
    assert len(targets_a) == n_rounds
    codes = draw.integers(0, 1 << n, size=m)
    init_phases = (codes >> (n - 1)).astype(np.uint8)
    peak = traced_peak_over_outputs(
        lambda: _amplitude_backaction(rows_a, targets_a, m, init_phases))
    assert peak <= CHUNK_BYTES + (64 << 10)


def test_backaction_peaks_within_the_chunk_cap():
    # The back-action reads the rounds' byte rows a chunk at a time, and the
    # lineage moves a group of 8 rounds at a time, through one byte per
    # state and group: an (m x rounds) selector array would be 1.4 MB here.
    assert_backaction_peaks_within_the_chunk_cap(2000, 3, 700)


def test_backaction_gathers_a_wide_lineage_within_the_chunk_cap():
    # Each group's table is gathered into the lineage a piece at a time:
    # one (m x lineage words) gather would be 2.9 MB here, the round count
    # of an N=2, f=0.9 trial at m=8000.
    assert_backaction_peaks_within_the_chunk_cap(8000, 2, 2853)


def test_backaction_seeds_a_long_lineage_within_the_chunk_cap():
    # The lineage is seeded one bit per round in place: a packed identity
    # over the rounds would be 2.3 MB here, the round count of an N=2,
    # f=0.9 trial at m=12000.
    assert_backaction_peaks_within_the_chunk_cap(12000, 2, 4290)


def test_bulk_passes_reject_a_state_read_after_it_was_measured():
    # Each pass reads every label as the phase began, which holds only if
    # no round reads a state an earlier round of its phase measured.  Such
    # subsets give parities that agree with the rows, so only the premise
    # check can catch them.
    m = 6
    # With no amplitude rounds the lineage has no columns, and the phase
    # rows are the membership rows.
    lineage, targets_a = np.zeros((m, 0), dtype=np.uint64), np.zeros(0, dtype=np.int64)
    phases = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
    amps = np.array([1, 1, 0, 0, 1, 1])
    reread = [[[0, 2], [0, 3, 4]], [[1, 2], [0, 1, 5]], [[2, 3], [0, 4], [1, 2, 5]]]
    fresh = [[[0, 2], [1, 3, 4]], [[1, 2], [0, 3, 5]], [[2, 3], [0, 4], [1, 3, 5]]]
    for rounds in reread + fresh:
        rows, targets = packed_phase(rounds, m)
        for label, build in (
            ("amplitude", lambda: amplitude_records(rows, targets, amps, 2)),
            ("phase", lambda: phase_records(rows, targets, lineage, targets_a, phases, phases)),
        ):
            if rounds in fresh:
                build()
                continue
            with pytest.raises(InternalInvariantError) as raised:
                build()
            assert str(raised.value) == f"{label} parity bookkeeping drifted"
    # A round that does not hold its own target, with one that does not
    # read an earlier target: the rows no longer pivot on the targets.
    rows, _ = packed_phase([[0, 2], [1, 3, 4]], m)
    for targets in ([1, 1], [0, 2], [3, 1]):
        with pytest.raises(InternalInvariantError, match="^amplitude parity bookkeeping drifted$"):
            amplitude_records(rows, np.array(targets), amps, 2)


def simulate_until_invariant_fails(capsys):
    # Both phases reach their planned rounds, so both are decoded.
    code = main(["simulate-hashing", "-N", "2", "-m", "64", "-f", "0.97",
                 "--trials", "3", "--seed", "21"])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def neighbour_bytes(real_chunks):
    """``_byte_chunks`` whose byte rows name each member's neighbour (the
    next state up), while the packed rows stay as drawn."""
    def chunks(*args):
        for start, stop, members in real_chunks(*args):
            yield start, stop, np.roll(members, 1, axis=1)
    return chunks


def test_amplitude_check_fires_on_drifted_rows(monkeypatch, capsys):
    # Byte rows that name each member's neighbour give parities the packed
    # rows no longer match.
    monkeypatch.setattr(hashing, "_byte_chunks", neighbour_bytes(hashing._byte_chunks))
    code, err = simulate_until_invariant_fails(capsys)
    assert code == 4
    assert err == "internal invariant violated: amplitude parity bookkeeping drifted\n"


def rolled_lineage(real_backaction):
    """``_amplitude_backaction`` whose lineage rows are shifted by one
    state, while the true phases stay as tracked."""
    def backaction(*args):
        lineage, true_phases = real_backaction(*args)
        return np.roll(lineage, 1, axis=0), true_phases
    return backaction


def test_phase_check_fires_on_drifted_lineage(monkeypatch, capsys):
    # A lineage shifted by one state misnames every phase row.
    monkeypatch.setattr(
        hashing, "_amplitude_backaction", rolled_lineage(hashing._amplitude_backaction))
    code, err = simulate_until_invariant_fails(capsys)
    assert code == 4
    assert err == "internal invariant violated: phase parity bookkeeping drifted\n"


def test_coset_check_fires_on_a_flipped_parity(monkeypatch, capsys):
    # The phase system is the one that is eliminated.  With its first
    # recorded parity flipped it no longer holds the truth; at m=64 its
    # coset is too large to enumerate, so the certified decoder checks it.
    real = gf2.GF2System.add_row

    def flip_first(self, rows, rhs_bits):
        flipped = np.array(rhs_bits, dtype=np.uint8)
        flipped.reshape(-1)[0] ^= 1
        real(self, rows, flipped)

    monkeypatch.setattr(gf2.GF2System, "add_row", flip_first)
    code, err = simulate_until_invariant_fails(capsys)
    assert code == 4
    assert err == "internal invariant violated: hidden truth fell outside the solution coset\n"


def drift_amplitude_cosets(monkeypatch, drift):
    """Build the amplitude cosets from inputs that ``drift`` changed in
    place, leaving the records they are checked against as recorded."""
    real = hashing._amplitude_cosets

    def drifted(lineage, targets, rhs, m):
        lineage, rhs = lineage.copy(), rhs.copy()
        drift(lineage, rhs, m)
        return real(lineage, targets, rhs, m)

    monkeypatch.setattr(hashing, "_amplitude_cosets", drifted)


def test_amplitude_coset_check_fires_on_a_flipped_parity(monkeypatch, capsys):
    # The particular solutions then meet a parity other than the one
    # recorded.
    def flip(lineage, rhs, m):
        rhs[0, 0] ^= 1

    drift_amplitude_cosets(monkeypatch, flip)
    code, err = simulate_until_invariant_fails(capsys)
    assert code == 4
    assert err == "internal invariant violated: amplitude coset misses its recorded parities\n"


def test_amplitude_coset_check_fires_on_a_drifted_lineage_bit(monkeypatch, capsys):
    # State m-1 is never a subset minimum, so its lineage row is a basis
    # vector; one more round's bit takes it off the null space, which only
    # the random row combinations can see.
    def drift(lineage, rhs, m):
        lineage[m - 1, 0] ^= np.uint64(1)

    drift_amplitude_cosets(monkeypatch, drift)
    code, err = simulate_until_invariant_fails(capsys)
    assert code == 4
    assert err == "internal invariant violated: amplitude coset misses its recorded parities\n"


def test_two_state_pure_block_runs_one_round(capsys):
    # m=2 supplies one amplitude round and no phase round, so the phase
    # passes get no input at all.
    _, _, run = simulate_hashing(2, 2, werner_single(2, 1.0), seed=0)
    assert (run.rounds_a, run.rounds_b, run.failure_reason) == (1, 0, "exhausted")
    assert main(["simulate-hashing", "-m", "2", "-f", "1.0", "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["0,0,0.5,1,0,1", "1,0,0.5,1,0,1", "summary,0,0.5,,,"]


def bulk_probe_pairs(rng, d, n_pairs):
    """The probe-pair draw of ``certified_map_decode``."""
    return rng.integers(0, d, size=(n_pairs, 2))


@pytest.mark.parametrize("d", [2, 3, 163, 1348])
def test_probe_pairs_match_per_pair_draws(d):
    for seed in range(60):
        ref_rng = np.random.default_rng([seed, 0x5AFE])
        rng = np.random.default_rng([seed, 0x5AFE])
        n_pairs = min(PROBE_PAIRS, d * (d - 1) // 2)
        expected = np.array([ref_rng.integers(0, d, size=2) for _ in range(n_pairs)])
        np.testing.assert_array_equal(bulk_probe_pairs(rng, d, n_pairs), expected)
        np.testing.assert_array_equal(rng.integers(0, d, size=3), ref_rng.integers(0, d, size=3))
        assert rng.random() == ref_rng.random()


def test_probe_pairs_match_through_rejections_and_buffered_half():
    # At d = 2^31 + 1 about half of all 32-bit draws are rejected by
    # Lemire's method and redrawn.
    d = (1 << 31) + 1
    for seed in range(20):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.array([ref_rng.integers(0, d, size=2) for _ in range(16)])
        np.testing.assert_array_equal(bulk_probe_pairs(rng, d, 16), expected)
        assert rng.integers(0, 1000) == ref_rng.integers(0, 1000)
    # A generator holding the spare 32-bit half of a 64-bit output carries it
    # into the next call either way.
    for seed in range(20):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref_rng.integers(0, 7)
        rng.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"]
        expected = np.array([ref_rng.integers(0, 163, size=2) for _ in range(40)])
        np.testing.assert_array_equal(bulk_probe_pairs(rng, 163, 40), expected)
        assert rng.random() == ref_rng.random()


def reference_certified_decode(coset, prior_one, truth_bits, rng):
    """Probe by probe: every single flip, then one rng.integers call per
    pair; the first probe that ties or beats the truth decides."""
    t = pack_bits(truth_bits)
    w_truth = row_weight(t)
    basis = list(coset.basis)
    d = len(basis)
    probes = [t ^ vec for vec in basis]
    if d >= 2:
        for _ in range(min(PROBE_PAIRS, d * (d - 1) // 2)):
            i, j = rng.integers(0, d, size=2)
            if i != j:
                probes.append(t ^ basis[int(i)] ^ basis[int(j)])
    for candidate in probes:
        w = row_weight(candidate)
        if w == w_truth:
            return "ambiguous", None
        if (w < w_truth) == (prior_one < 0.5):
            return "map", unpack_bits(candidate, coset.n_unknowns)
    return "map", truth_bits


@pytest.mark.parametrize("prior_one", [0.1, 0.3, 0.5, 0.7])
def test_certified_decode_matches_probe_loop(prior_one):
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 150))
        truth = (rng.random(n) < prior_one).astype(np.uint8)
        system = GF2System(n)
        for _ in range(int(rng.integers(0, n))):
            sel = rng.random(n) < 0.5
            system.add_row(pack_indices(np.flatnonzero(sel), n), [int(truth[sel].sum() & 1)])
        coset = system.solve()
        probe_rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        result = certified_map_decode(coset, prior_one, truth, probe_rng)
        status, bits = reference_certified_decode(coset, prior_one, truth, ref_rng)
        assert result.status == status and result.coset_dim == coset.dim
        if bits is None:
            assert result.bits is None
        else:
            np.testing.assert_array_equal(result.bits, bits)
            outcomes.add("truth" if np.array_equal(bits, truth) else "rival")
        outcomes.add(status)
        assert probe_rng.random() == ref_rng.random()
    # Every exit is exercised; at prior 1/2 some probe always weighs at
    # least as much as the truth, so the truth itself is never returned.
    assert outcomes >= {"ambiguous", "rival"} | ({"truth"} if prior_one != 0.5 else set())


def simulate_with_exact_cap(monkeypatch, exact_cap, single, seed, safety_bits):
    """``simulate_hashing`` at N=2, m=32 with ``EXACT_COSET_DIM_CAP`` set to
    ``exact_cap``: 0 sends every coset to certified decoding, 24 every
    coset at m=32 to exhaustive decoding."""
    monkeypatch.setattr(gf2, "EXACT_COSET_DIM_CAP", exact_cap)
    return simulate_hashing(2, 32, single, seed, safety_bits=safety_bits)


@pytest.mark.parametrize("safety_bits", [2, 4])
def test_certified_mislabel_rate_within_readme_bound(safety_bits, monkeypatch):
    # The same transcript decoded twice: certified (no coset is small
    # enough for exhaustive search) and exhaustive (every coset at m=32 is).
    # A certified success that exhaustive MAP fails is a mislabel; the
    # README bounds their rate by about 2^-safety_bits per phase, so by
    # 2 * 2^-safety_bits per trial.
    single = werner_single(2, 0.9)
    seeds = range(200)
    mislabels = 0
    for seed in seeds:
        certified, _, run_c = simulate_with_exact_cap(monkeypatch, 0, single, seed, safety_bits)
        exhaustive, _, run_e = simulate_with_exact_cap(monkeypatch, 24, single, seed, safety_bits)
        assert run_c.to_text() == run_e.to_text()
        assert (run_c.decode_mode, run_e.decode_mode) == ("certified", "exact")
        mislabels += certified and not exhaustive
    assert mislabels <= 2 * 2.0**-safety_bits * len(seeds)


def test_seed_1432_minimum_lies_beyond_probe_reach(monkeypatch):
    # Certified and exhaustive decoding disagree on this seed because the
    # coset's lightest element is four free-column flips from the truth:
    # no single or pair flip reaches it, and the probes meet a tie first.
    calls = []

    def spy(coset, prior_one, truth_bits, rng):
        calls.append((coset, truth_bits, copy.deepcopy(rng)))
        return certified(coset, prior_one, truth_bits, rng)

    certified = gf2.certified_map_decode
    monkeypatch.setattr(gf2, "certified_map_decode", spy)
    single = werner_single(2, 0.9)
    ok_c, _, run_c = simulate_with_exact_cap(monkeypatch, 0, single, 1432, 2)
    ok_e, _, run_e = simulate_with_exact_cap(monkeypatch, 24, single, 1432, 2)
    assert run_c.to_text() == run_e.to_text()
    assert not ok_c and run_c.phase_decode_status == "ambiguous"
    assert ok_e and run_e.phase_decode_status == "map"

    assert len(calls) == 2  # the amplitude decode, then the phase decode
    coset, truth_bits, rng = calls[-1]
    truth = pack_bits(truth_bits)
    assert coset.dim == 18 and row_weight(truth) == 5
    elements = _enumerate_coset(coset)
    weights = np.bitwise_count(elements).sum(axis=1)
    assert weights.min() == 3 and np.count_nonzero(weights == 3) == 1
    flips = unpack_bits(elements[weights.argmin()] ^ truth, coset.n_unknowns)
    assert flips[coset.free_cols].sum() == 4

    # No single or pair flip is lighter than the truth, and the probe set
    # (the singles, then the drawn pairs) holds one tie.
    basis = coset.basis
    singles = truth ^ basis
    pairs = np.array([singles[i] ^ basis[j] for i, j in itertools.combinations(range(coset.dim), 2)])
    assert np.bitwise_count(np.concatenate([singles, pairs])).sum(axis=1).min() == 5
    drawn = rng.integers(0, coset.dim, size=(min(PROBE_PAIRS, len(pairs)), 2))
    drawn = drawn[drawn[:, 0] != drawn[:, 1]]
    probes = np.concatenate([singles, singles[drawn[:, 0]] ^ basis[drawn[:, 1]]])
    probe_weights = np.bitwise_count(probes).sum(axis=1)
    assert probe_weights.min() == 5 and np.count_nonzero(probe_weights == 5) == 1
