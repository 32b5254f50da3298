"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside pytest's own verdicts.
"""

import itertools
import time

import numpy as np

from catpurify.cli import main as cli_main
from catpurify.ensemble import block_step, block_yield, werner_single
from catpurify.gf2 import unpack_bits
from catpurify.hashing import (
    simulate_hashing,
    two_party_hashing_yield,
    werner_hashing_yield,
    werner_hashing_yield_limit,
)
from catpurify.labels import all_labels
from catpurify.oracle import (
    PauliString,
    build_cat_state,
    stabilizer_generators,
    verify_conjugation_rules,
    verify_mxor,
)
from catpurify.strategy import _recurrence_raw, find_knee, recurrence_then_hashing

from oracles import brute_force_block_step, flatten_joint

# Regression constants frozen after independent extended-precision runs.
TWO_PARTY_THRESHOLD = 0.8107103750847682
SEPARATE_STRING_THRESHOLD = 0.8349582033424607


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def bisect_zero(fn, lo, hi, tol=1e-9):
    assert fn(lo) < 0 < fn(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_mxor_oracle_equivalence():
    start = time.monotonic()
    for n, pairs in ((2, 16), (3, 64)):
        result = verify_mxor(n, tol=1e-10)
        assert result.ok and len(result.checks) == pairs
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"classical XOR rule certified on all 16+64 state pairs in {elapsed:.2f}s")


def test_criterion_2_conjugation_rules():
    result = verify_conjugation_rules(tol=1e-12)
    assert result.ok and len(result.checks) == 4
    report(2, "all four CNOT conjugation rules hold as matrix identities at 1e-12")


def test_criterion_3_stabilizer_eigenvalues():
    for n in (2, 3):
        for label in all_labels(n):
            state = build_cat_state(label)
            expected = [(-1) ** label.phase] + [(-1) ** b for b in label.amplitudes]
            for gen, eig in zip(stabilizer_generators(label), expected):
                unsigned = PauliString(1, gen.ops)
                assert np.max(np.abs(unsigned.apply(state) - eig * state)) < 1e-10
    report(3, "every cat state has the advertised stabilizer eigenvalues at 1e-10")


def test_criterion_4_block_step_vs_enumeration():
    cases = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    for n, m in cases:
        single = werner_single(n, 0.7 if n == 2 else 0.85)
        p_pass, passed = block_step(single, m)
        oracle_p, oracle_passed = brute_force_block_step(single.probs.tolist(), n, m)
        assert abs(p_pass - oracle_p) < 1e-12
        expected = flatten_joint(oracle_passed, n, m - 1)
        assert np.max(np.abs(passed.probs - expected)) < 1e-12
    report(4, f"block step matches the enumeration oracle on {len(cases)} cases at 1e-12")


def test_criterion_5_closed_form_endpoints():
    for n in (2, 3, 4):
        assert werner_hashing_yield(n, 1.0) == 1.0
    assert werner_hashing_yield_limit(1.0) == 1.0
    for m in range(2, 7):
        assert block_yield(werner_single(2, 1.0), m) == (m - 1) / m
    report(5, "unit fidelity gives yield 1 (hashing) and (m-1)/m (blocks), exactly")


def test_criterion_6_thresholds_by_bisection():
    two_party = bisect_zero(
        lambda f: two_party_hashing_yield(werner_single(2, f)), 0.7, 0.95
    )
    assert abs(two_party - 0.8107) <= 0.001
    assert abs(two_party - TWO_PARTY_THRESHOLD) < 1e-4
    separate = bisect_zero(lambda f: werner_hashing_yield(2, f), 0.7, 0.95)
    assert abs(separate - SEPARATE_STRING_THRESHOLD) < 1e-4
    report(
        6,
        f"hashing thresholds re-derived: joint {two_party:.4f}, "
        f"separate-string {separate:.4f}",
    )


def test_criterion_7_bipartite_figure_claims():
    start = time.monotonic()
    grid = [0.5 + 0.001 * k for k in range(501)]
    improvement = 0
    block5_unique_best = 0
    block7_violations = 0
    for f in grid:
        rec = max(0.0, _recurrence_raw(f, 20)[0])
        b = {m: max(0.0, block_yield(werner_single(2, f), m)) for m in (3, 4, 5, 7)}
        if max(b[3], b[4]) > rec:
            improvement += 1
        if b[5] > max(rec, b[3], b[4]):
            block5_unique_best += 1
        if b[7] > rec + 1e-9:
            block7_violations += 1
    knee = find_knee()
    elapsed = time.monotonic() - start
    assert improvement > 0
    assert block5_unique_best == 0
    assert block7_violations == 0
    assert knee is not None and 0.5 < knee < 1.0
    assert recurrence_then_hashing(min(knee + 0.005, 1.0))[1] == 0
    assert recurrence_then_hashing(knee - 0.01)[1] >= 1
    assert elapsed < 300.0
    report(
        7,
        f"improvement region {improvement} pts, m=5 never best, m=7 never beats "
        f"recurrence, knee at {knee:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_8_multiparty_figure_claims():
    grid = [0.5 + 0.001 * k for k in range(501)]
    for n in (2, 3, 4):
        values = [werner_hashing_yield(n, f) for f in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
    limits = [werner_hashing_yield_limit(f) for f in grid]
    assert all(b > a for a, b in zip(limits, limits[1:]))
    for f in grid:
        assert werner_hashing_yield(2, f) <= two_party_hashing_yield(
            werner_single(2, f)
        ) + 1e-12
    for f in (0.85, 0.9, 0.95):
        gaps = [
            abs(werner_hashing_yield(n, f) - werner_hashing_yield_limit(f))
            for n in (2, 3, 4, 8, 16)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
    report(8, "multiparty hashing curves monotone, below the joint bound, converging")


def test_criterion_9_monte_carlo_hashing():
    start = time.monotonic()
    single = werner_single(3, 0.9)
    successes = 0
    yields = []
    for k in range(100):
        ok, empirical_yield, _ = simulate_hashing(
            3, 2000, single, seed=20_000 + k, safety_bits=20
        )
        successes += int(ok)
        yields.append(empirical_yield)
    elapsed = time.monotonic() - start
    success_rate = successes / 100
    mean_yield = sum(yields) / len(yields)
    target = werner_hashing_yield(3, 0.9) - 2 * 20 / 2000
    assert success_rate >= 0.99
    assert abs(mean_yield - target) <= 0.05
    assert elapsed < 120.0
    report(
        9,
        f"hashing Monte Carlo: success {success_rate:.2f}, mean yield "
        f"{mean_yield:.4f} vs target {target:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_10_small_instance_decoder_oracle():
    single = werner_single(2, 0.85)
    agreements = 0
    for seed in range(50):
        _, _, run = simulate_hashing(2, 10, single, seed=seed, safety_bits=1)
        rounds = list(zip(
            (np.flatnonzero(row) for row in unpack_bits(run.amp_rows, 10)),
            run.amp_measured.tolist(),
        ))
        consistent = []
        for bits in itertools.product((0, 1), repeat=10):
            cand = np.array(bits, dtype=np.uint8)
            if all(
                int(cand[members].sum() & 1) == measured for members, measured in rounds
            ):
                consistent.append(cand)
        weights = np.array([c.sum() for c in consistent])
        if int((weights == weights.min()).sum()) > 1:
            assert run.amp_decode_status == "ambiguous" and run.decoded_amps is None
        else:
            best = consistent[int(weights.argmin())]
            np.testing.assert_array_equal(run.decoded_amps.astype(np.uint8), best)
        agreements += 1
    assert agreements == 50
    report(10, "GF(2) decode equals the 2^10-candidate posterior maximum on 50 runs")


def test_criterion_11_byte_identical_output(tmp_path):
    curve_args = ["yield-curve", "-N", "2", "--methods", "rec-hash,block3,block4",
                  "--f", "0.7:0.9:0.01"]
    blobs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(curve_args + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    sim_args = ["simulate-hashing", "-N", "2", "-m", "48", "-f", "0.9",
                "--trials", "5", "--seed", "3", "--safety-bits", "4"]
    sims = []
    for tag in ("d", "e"):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(sim_args + ["--out", str(out)]) == 0
        sims.append(out.read_bytes())
    assert sims[0] == sims[1]
    report(11, "CSV output byte-identical across repeat runs and worker counts")
