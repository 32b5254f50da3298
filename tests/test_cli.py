import argparse
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpurify import cli, hashing
from catpurify.cli import CELL, _DELIMITERS, _fmt, build_parser, main
from catpurify.hashing import werner_hashing_yield_limit
from catpurify.strategy import METHODS, MethodSpec, yield_curve

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return main(args)


def read(path):
    return path.read_bytes()


def test_yield_curve_csv_shape(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        ["yield-curve", "-N", "2", "--methods", "rec-hash,block3",
         "--f", "0.8:0.9:0.05", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fidelity,rec-hash_raw,rec-hash_clamped,block3_raw,block3_clamped"
    assert len(lines) == 4  # header + 3 grid points
    first = lines[1].split(",")
    assert first[0] == "0.8"
    assert float(first[2]) >= 0.0


def test_yield_curve_deterministic_across_runs_and_workers(tmp_path):
    args = ["yield-curve", "-N", "2", "--methods", "rec-hash,block3,block4",
            "--f", "0.6:0.9:0.01"]
    outs = []
    for k, workers in enumerate(("1", "1", "4")):
        out = tmp_path / f"c{k}.csv"
        assert run_cli(args + ["--workers", workers, "--out", str(out)]) == 0
        outs.append(read(out))
    assert outs[0] == outs[1] == outs[2]


def test_yield_curve_single_row_when_step_exceeds_range(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli(
        ["yield-curve", "--methods", "2p-hash", "--f", "0.7:0.75:0.5",
         "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.7,")


def test_yield_curve_tsv(tmp_path):
    out = tmp_path / "curve.tsv"
    assert run_cli(
        ["yield-curve", "--methods", "mp-hash", "--f", "0.9:1.0:0.1",
         "--format", "tsv", "--out", str(out)]
    ) == 0
    assert "\t" in out.read_text().splitlines()[0]


def test_yield_curve_12_significant_digits(tmp_path):
    out = tmp_path / "digits.csv"
    assert run_cli(
        ["yield-curve", "--methods", "2p-hash", "--f", "0.77:0.77:1",
         "--out", str(out)]
    ) == 0
    value = out.read_text().splitlines()[1].split(",")[1]
    assert value == format(float(value), ".12g")
    assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 11


def test_yield_curve_bad_method_is_config_error(capsys):
    assert run_cli(["yield-curve", "--methods", "nope", "--f", "0.8:0.9:0.1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_yield_curve_bad_range_is_config_error():
    assert run_cli(["yield-curve", "--methods", "2p-hash", "--f", "0.9:0.8:0.1"]) == 2
    assert run_cli(["yield-curve", "--methods", "2p-hash", "--f", "0.9-1.0"]) == 2


@pytest.mark.parametrize(
    "f_range", ["0.5:inf:0.1", "-inf:1:0.1", "0.5:1:inf", "nan:1:0.1", "0.5:1:nan"]
)
def test_yield_curve_non_finite_grid_is_config_error(capsys, f_range):
    assert run_cli(["yield-curve", "--methods", "mp-hash", f"--f={f_range}"]) == 2
    assert "config error: fidelity grid bounds and step must be finite" in (
        capsys.readouterr().err
    )


def test_yield_curve_block_cells_correctly_rounded(capsys):
    # Both yields lie within 1e-16 of a 12-digit rounding boundary; 50-digit
    # evaluations at the grid's doubles give -0.0170534125291500609 (block4,
    # f=0.756) and 0.000425199601713294187 (block5, f=0.775).
    assert run_cli(["yield-curve", "--methods", "block4,block5", "--f", "0.5:1.0:0.001"]) == 0
    rows = {
        row[0]: row[1:]
        for row in (line.split(",") for line in capsys.readouterr().out.splitlines())
    }
    assert rows["fidelity"] == ["block4_raw", "block4_clamped", "block5_raw", "block5_clamped"]
    assert rows["0.756"][0] == "-0.0170534125292"
    assert rows["0.775"][2:] == ["0.000425199601713", "0.000425199601713"]


def test_yield_curve_clamped_column_floors_raw(capsys):
    assert run_cli(["yield-curve", "--methods", "2p-hash", "--f", "0.5:0.6:0.05"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fidelity,2p-hash_raw,2p-hash_clamped"
    cells = [line.split(",") for line in lines[1:]]
    assert all(clamped == _fmt(max(float(raw), 0.0)) for _, raw, clamped in cells)
    assert any(float(raw) < 0.0 for _, raw, _ in cells)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_cell_is_python_g12_format(x):
    assert _fmt(x) == format(x, ".12g")


@pytest.mark.parametrize("delimiter", _DELIMITERS.values())
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=5))
def test_block_of_rows_is_the_rows_cell_by_cell(delimiter, rows):
    # One ``%`` over a block of rows writes what formatting every cell on
    # its own and joining it would.
    row_format = delimiter.join([CELL] * 3) + "\n"
    block = row_format * len(rows) % tuple(x for row in rows for x in row)
    assert block == "".join(delimiter.join(format(x, ".12g") for x in row) + "\n" for row in rows)


@pytest.mark.parametrize("fmt", _DELIMITERS)
def test_blocks_of_three_rows_join_seamlessly(monkeypatch, tmp_path, capsys, fmt):
    # Grids of 1 to 7 points end inside, and exactly at, a block boundary.
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 3)
    delimiter = _DELIMITERS[fmt]
    methods = [MethodSpec.from_id("rec-hash"), MethodSpec.from_id("2p-hash")]
    for points in range(1, 8):
        grid = f"0.5:{0.5 + 0.05 * (points - 1):.2f}:0.05"
        curve = yield_curve(2, *cli._f_range(grid), methods)
        assert curve.grid.size == points
        expected = ["fidelity,rec-hash_raw,rec-hash_clamped,2p-hash_raw,2p-hash_clamped"]
        for k, f in enumerate(curve.grid.tolist()):
            cells = [f]
            for raw in curve.raw.values():
                cells += [float(raw[k]), max(float(raw[k]), 0.0)]
            expected.append(",".join(map(_fmt, cells)))
        expected = "".join(line.replace(",", delimiter) + "\n" for line in expected)
        argv = ["yield-curve", "--methods", "rec-hash,2p-hash", "--f", grid, "--format", fmt]
        out = tmp_path / f"curve{points}.{fmt}"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == out.read_text() == expected


@pytest.mark.parametrize("fmt", _DELIMITERS)
def test_trial_blocks_of_three_rows_join_seamlessly(monkeypatch, tmp_path, capsys, fmt):
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 3)
    force_cpus(monkeypatch, 1)
    delimiter = _DELIMITERS[fmt]
    single = cli.werner_single(2, 0.9)
    for trials in range(1, 8):
        rows = [cli._trial(2, 8, single, 2, seed) for seed in range(5, 5 + trials)]
        expected = ["seed,success,empirical_yield,rounds_a,rounds_b,consumed"]
        expected += [",".join([str(seed), str(ok), _fmt(y), str(a), str(b), str(c)])
                     for seed, ok, y, a, b, c in rows]
        expected.append(",".join(["summary", _fmt(sum(row[1] for row in rows) / trials),
                                  _fmt(sum(row[2] for row in rows) / trials), "", "", ""]))
        expected = "".join(line.replace(",", delimiter) + "\n" for line in expected)
        argv = ["simulate-hashing", "-N", "2", "-m", "8", "-f", "0.9", "--safety-bits", "2",
                "--seed", "5", "--trials", str(trials), "--format", fmt]
        out = tmp_path / f"sim{trials}.{fmt}"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == out.read_text() == expected


def test_method_list_matches_help_and_readme():
    # Each METHODS key as the docs spell it, a block id with its size m.
    names = {f"{key}<m>" if key == "block" else key for key in METHODS}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    methods_help = sub.choices["yield-curve"]._option_string_actions["--methods"].help
    assert {name.strip() for name in methods_help.partition(":")[2].split(",")} == names
    table = README.read_text(encoding="utf-8").partition("## Method identifiers")[2]
    table = table.partition("\n## ")[0]
    assert set(re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)) == names


def test_yield_curve_capacity_error():
    code = run_cli(["yield-curve", "--methods", "2p-hash", "--f", "0:1:1e-9"])
    assert code == 3


def test_yield_curve_rejects_two_party_method_at_n3():
    assert run_cli(["yield-curve", "-N", "3", "--methods", "rec-hash",
                    "--f", "0.8:0.9:0.1"]) == 2


def test_config_file_fills_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmethods=mp-hash\n\nf=0.9:1.0:0.1\nparties=4\n")
    out1 = tmp_path / "a.csv"
    assert run_cli(["yield-curve", "--config", str(cfg), "--out", str(out1)]) == 0
    header = out1.read_text().splitlines()[0]
    assert "mp-hash" in header
    # explicit flag overrides the config value
    out2 = tmp_path / "b.csv"
    assert run_cli(
        ["yield-curve", "--config", str(cfg), "--methods", "2p-hash",
         "-N", "2", "--out", str(out2)]
    ) == 0
    assert "2p-hash" in out2.read_text().splitlines()[0]


def test_config_unknown_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("blocksize=12\n")
    assert run_cli(["yield-curve", "--config", str(cfg)]) == 2


def test_verify_passes(capsys):
    assert run_cli(["verify", "-N", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "mxor N=2: 16/16" in out
    assert "mxor N=3: 64/64" in out
    assert "xor-conjugation: 4/4" in out


def test_verify_capacity(capsys):
    assert run_cli(["verify", "-N", "9"]) == 3
    assert "capacity error" in capsys.readouterr().err


def test_verify_self_test(capsys):
    assert run_cli(["verify", "--self-test"]) == 0
    assert "failures detected" in capsys.readouterr().out


def test_simulate_hashing_pure_input(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(
        ["simulate-hashing", "-N", "3", "-m", "16", "-f", "1.0",
         "--trials", "3", "--seed", "5", "--safety-bits", "0", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,success,empirical_yield,rounds_a,rounds_b,consumed"
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[0] for r in rows] == ["5", "6", "7"]
    assert all(r[1] == "1" and r[2] == "1" for r in rows)
    summary = lines[-1].split(",")
    assert summary[0] == "summary" and summary[1] == "1" and summary[2] == "1"


def test_simulate_hashing_deterministic(tmp_path):
    args = ["simulate-hashing", "-N", "2", "-m", "64", "-f", "0.9",
            "--trials", "4", "--seed", "11", "--safety-bits", "6"]
    blobs = []
    for k in range(2):
        out = tmp_path / f"s{k}.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        blobs.append(read(out))
    assert blobs[0] == blobs[1]


def test_simulate_hashing_degenerate_m1(tmp_path):
    out = tmp_path / "m1.csv"
    assert run_cli(
        ["simulate-hashing", "-N", "2", "-m", "1", "-f", "0.8", "--trials", "1",
         "--seed", "0", "--safety-bits", "0", "--out", str(out)]
    ) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[1] == "0"  # guaranteed failure: required parities unobtainable


def test_simulate_hashing_solver_cap():
    assert run_cli(
        ["simulate-hashing", "-N", "3", "-m", "10000", "-f", "0.9", "--trials", "1"]
    ) == 3


def test_output_is_plain_lf_csv(tmp_path):
    out = tmp_path / "plain.csv"
    assert run_cli(
        ["yield-curve", "--methods", "2p-hash", "--f", "0.8:0.9:0.05",
         "--out", str(out)]
    ) == 0
    blob = out.read_bytes()
    assert b"\r" not in blob
    assert b'"' not in blob
    assert blob.endswith(b"\n")


def test_stdout_output(capsys):
    assert run_cli(["yield-curve", "--methods", "mp-hash", "--f", "1:1:1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out.splitlines()[1] == "1,1,1"


@pytest.mark.parametrize(
    "argv, config, code",
    [
        (["simulate-hashing", "-N", "2", "-m", "32", "--safety-bits", "-5"], None, 2),
        (["simulate-hashing", "-N", "2", "-m", "32"], "safety-bits=-5", 2),
        (["yield-curve", "--methods", "rec-hash", "--max-rounds", "-3"], None, 2),
        (["yield-curve", "--methods", "rec-hash"], "max-rounds=-3", 2),
        (["simulate-hashing", "-N", "2", "-m", "8", "--trials", "0"], None, 2),
        (["simulate-hashing", "-N", "2", "-m", "8"], "trials=0", 2),
        (["yield-curve", "--methods", "2p-hash", "--format", "xml"], None, 2),
        (["yield-curve", "--methods", "2p-hash"], "format=xml", 2),
        (["yield-curve"], "meth=mp-hash", 2),
        (["yield-curve"], "config=x", 2),
        (["verify"], "self-test=maybe", 2),
        (["verify", "-N", "0"], None, 2),
        (["verify", "-N", "1"], None, 2),
        (["verify"], "parties=2,1", 2),
        (["yield-curve", "-N", "1", "--methods", "mp-hash"], None, 2),
        (["yield-curve", "--methods", "mp-hash"], "parties=1", 2),
        (["simulate-hashing", "-N", "40", "-m", "4"], None, 3),
        (["simulate-hashing", "-m", "4"], "parties=40", 3),
        (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "0.5:inf:0.1"], None, 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f=-inf:1:0.1"], None, 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "0.5:1:inf"], None, 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "nan:1:0.1"], None, 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "0.5:nan:0.1"], None, 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "0.5:1:nan"], None, 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash"], "f=0.5:inf:0.1", 2),
        (["yield-curve", "-N", "3", "--methods", "mp-hash"], "f=0.5:1:nan", 2),
        # Subnormal steps: the point count overflows to infinity.
        (["yield-curve", "--methods", "mp-hash", "--f", "0.5:1:1e-320"], None, 3),
        (["yield-curve", "--methods", "mp-hash", "--f", "0.5:1:5e-324"], None, 3),
        (["yield-curve", "--methods", "mp-hash"], "f=0.5:1:1e-320", 3),
        # A config line with no '='.
        (["yield-curve", "--methods", "mp-hash"], "parties", 2),
        (["simulate-hashing", "-N", "2", "-m", "8", "--seed", "-1"], None, 2),
        (["simulate-hashing", "-N", "2", "-m", "8"], "seed=-1", 2),
        # 2^N past every double's range, and past what memory could hold.
        (["simulate-hashing", "-N", "1024", "-m", "2"], None, 3),
        (["simulate-hashing", "-N", "1000000000000", "-m", "2"], None, 3),
        # An empty party list would check nothing.
        (["verify", "-N", ","], None, 2),
        (["verify"], "parties=,", 2),
    ],
)
def test_rejected_input_exits_before_output(tmp_path, capsys, argv, config, code):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = argv + ["--config", str(cfg)]
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err
    if code == 3:
        assert captured.err.startswith("capacity error: ")


def test_yield_curve_mp_hash_beyond_ensemble_cap(capsys):
    assert run_cli(["yield-curve", "-N", "40", "--methods", "mp-hash", "--f", "1:1:1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,1,1"


@pytest.mark.parametrize("n", ["1024", "1000000000"])
def test_yield_curve_mp_hash_at_huge_party_counts(capsys, n):
    # 2^-N is at most 2^-1024, so every cell equals the many-party limit.
    assert run_cli(["yield-curve", "-N", n, "--methods", "mp-hash", "--f", "0.5:1:0.25"]) == 0
    expected = []
    for f in (0.5, 0.75, 1.0):
        y = werner_hashing_yield_limit(f)
        expected.append(",".join(_fmt(v) for v in (f, y, max(y, 0.0))))
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_fidelity_within_tolerance_above_one_is_one(capsys):
    # Every method applies the one fidelity rule and snaps a point within
    # its tolerance above 1 to the f=1 row; at 12 digits the fidelity cell
    # reads 1 as well.
    argv = ["yield-curve", "-N", "2", "--methods", "rec-hash,mp-hash,2p-hash,block3", "--f"]
    outputs = []
    for grid in ("1.0000000000004:1.0000000000004:1", "1:1:1"):
        assert run_cli(argv + [grid]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_max_rounds_past_the_underflow_costs_nothing(capsys):
    argv = ["yield-curve", "--methods", "rec-hash", "--f", "0.3:0.9:0.15", "--max-rounds"]
    outputs = []
    for max_rounds in ("2000", "1000000000"):
        assert run_cli(argv + [max_rounds]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_config_file_round_trip_simulate_hashing(tmp_path):
    flags = ["-N", "2", "-m", "32", "-f", "0.9", "--trials", "3", "--safety-bits", "4"]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "parties=2\nblock-size=32\nfidelity=0.9\ntrials=3\nseed=11\nsafety-bits=4\n"
    )
    blobs = []
    for k, argv in enumerate((
        flags + ["--seed", "11"],
        ["--config", str(cfg)],
        flags + ["--seed", "12"],
        ["--config", str(cfg), "--seed", "12"],
    )):
        out = tmp_path / f"s{k}.csv"
        assert run_cli(["simulate-hashing", *argv, "--out", str(out)]) == 0
        blobs.append(read(out))
    assert blobs[0] == blobs[1]
    assert blobs[2] == blobs[3] != blobs[0]


def test_config_file_round_trip_verify(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    outs = []
    for argv, config in (
        (["-N", "2"], None),
        ([], "parties=2\nself-test=no\n"),
        (["--self-test"], None),
        ([], "self-test=yes\n"),
        (["--self-test"], "self-test=0\n"),
    ):
        if config is not None:
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert run_cli(["verify", *argv]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "mxor N=2" in outs[0]
    assert outs[2] == outs[3] == outs[4] and "self-test" in outs[2]


# SHA-256 of stdout for the README's examples and a short Monte Carlo run,
# recorded before the label layout moved behind the ``labels`` helpers:
# any change to an output byte shows here.
STDOUT_DIGESTS = [
    (["yield-curve", "-N", "2", "--methods", "rec-hash,block3,block4,block5",
      "--f", "0.5:1.0:0.005"],
     "bd6f4894bc15b3bb9bd938dd6ce945842c47a7d38d07be79f33844769ebc5b39"),
    (["yield-curve", "-N", "4", "--methods", "mp-hash", "--f", "0.8:1.0:0.001"],
     "8a3873e12d38c7d88aeda265f595854f12fa61609a705b2c478a56b43dada4ac"),
    (["verify", "-N", "2,3"],
     "da5eb99077913155b5645f3a0120fcdadbc6c4842f2ae033e7cea943fe613bc5"),
    (["simulate-hashing", "-N", "3", "-m", "2000", "-f", "0.9", "--trials", "3",
      "--seed", "7", "--safety-bits", "20"],
     "f97e8f56dd4afa5319d025db8a6a1ec1973520a692707f3f7279a7d4e4305f71"),
    # The benchmark's bipartite figure and N=3 multiparty sweep, recorded
    # while every yield was still evaluated one point and one method at a
    # time.
    (["yield-curve", "-N", "2", "--methods", "rec-hash,block3,block4,block5,block7,2p-hash",
      "--f", "0.5:1.0:0.001"],
     "2b96b725b99213ae4fc5819d3287afb33b5e041ee2bbbcacfe5561838e89bebf"),
    (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "0.5:1.0:0.0001"],
     "23e7e10afa9a21b1f0f61d14bedcdc009ce46d4f6966acd516c7f4cec944e58c"),
    # Recorded while rec-hash still ran every point until its factor
    # underflowed.
    (["yield-curve", "-N", "2", "--methods", "rec-hash", "--f", "0.25:1:0.0001",
      "--max-rounds", "2000"],
     "0dde1faec10e30645710a61f2810727d13d5c5f5ea572ee5c28a5e4e00ab0c1d"),
    # The benchmark's N=4 and N=8 sweeps, and the N=3 sweep as TSV,
    # recorded while every cell was still formatted on its own.
    (["yield-curve", "-N", "4", "--methods", "mp-hash", "--f", "0.5:1.0:0.0001"],
     "8fd62556f925691e83a31d0467fdf3a4aa8b4bdd4ab20259ecfdc541d7e3e24a"),
    (["yield-curve", "-N", "8", "--methods", "mp-hash", "--f", "0.5:1.0:0.0001"],
     "1850235ce6c4431789ea5f25ebd4fe5cd3026ccbb124db8bdea2360225ff3dc6"),
    (["yield-curve", "-N", "3", "--methods", "mp-hash", "--f", "0.5:1.0:0.0001",
      "--format", "tsv"],
     "e62422e9e008652b40e49947de0243b2cd8a2b23ea88b682749f879280e9db89"),
]


@pytest.mark.parametrize("argv, expected", STDOUT_DIGESTS)
def test_stdout_bytes_unchanged(capsys, argv, expected):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


# Grids leaving [2^-N, 1]: every method applies one fidelity rule, so the
# error names the first offending point, whatever the methods and their
# order, even when it lies past the first chunk of grid points.
OUT_OF_RANGE = [
    ("2", "rec-hash", "0.2:0.5:0.1", "fidelity 0.2 outside [0.25, 1] for N=2"),
    ("2", "block3", "0.2:0.5:0.1", "fidelity 0.2 outside [0.25, 1] for N=2"),
    ("2", "2p-hash", "0.2:0.5:0.1", "fidelity 0.2 outside [0.25, 1] for N=2"),
    ("3", "mp-hash", "0.1:0.5:0.1", "fidelity 0.1 outside [0.125, 1] for N=3"),
    ("2", "rec-hash", "0.9:1.2:0.1", "fidelity 1.1 outside [0.25, 1] for N=2"),
    ("2", "block3", "0.9:1.2:0.1", "fidelity 1.1 outside [0.25, 1] for N=2"),
    ("2", "2p-hash", "0.9:1.2:0.1", "fidelity 1.1 outside [0.25, 1] for N=2"),
    ("3", "mp-hash", "0.9:1.2:0.1", "fidelity 1.1 outside [0.125, 1] for N=3"),
    ("2", "mp-hash,2p-hash", "0.24:0.5:0.01", "fidelity 0.24 outside [0.25, 1] for N=2"),
    ("2", "2p-hash,mp-hash", "0.24:0.5:0.01", "fidelity 0.24 outside [0.25, 1] for N=2"),
    ("2", "block3,rec-hash,2p-hash", "0.5:1.2:0.001",
     "fidelity 1.001 outside [0.25, 1] for N=2"),
    # The first point lies within the tolerance above 1 and passes every
    # method; the second does not, whatever the method order.
    ("2", "rec-hash,mp-hash", "1.0000000000004:1.00000000001:0.0000000000096",
     "fidelity 1.00000000001 outside [0.25, 1] for N=2"),
    ("2", "2p-hash,mp-hash", "1.0000000000004:1.00000000001:0.0000000000096",
     "fidelity 1.00000000001 outside [0.25, 1] for N=2"),
]

# Method lists rejected before any yield is computed, and their messages.
BAD_METHODS = [
    ("2", "block-3", "0.8:0.9:0.1", "block size -3 outside the supported range 2..8"),
    ("2", "block", "0.8:0.9:0.1", "unknown method id 'block'"),
    ("2", "blockx", "0.8:0.9:0.1", "unknown method id 'blockx'"),
    ("2", "block9", "0.8:0.9:0.1", "block size 9 outside the supported range 2..8"),
    ("2", "foo", "0.8:0.9:0.1", "unknown method id 'foo'"),
    ("2", "", "0.8:0.9:0.1", "no methods requested"),
    ("2", ",", "0.8:0.9:0.1", "no methods requested"),
    ("3", "rec-hash", "0.8:0.9:0.1", "method rec-hash only applies to N=2"),
    ("3", "block3", "0.8:0.9:0.1", "method block3 only applies to N=2"),
    ("3", "mp-hash,2p-hash", "0.1:0.5:0.1", "method 2p-hash only applies to N=2"),
    # int() accepts these block sizes, but the ids do not round-trip.
    ("2", "block+3", "0.8:0.9:0.1", "unknown method id 'block+3'"),
    ("2", "block03", "0.8:0.9:0.1", "unknown method id 'block03'"),
    ("2", "block 5", "0.8:0.9:0.1", "unknown method id 'block 5'"),
    ("2", "block\u0663", "0.8:0.9:0.1", "unknown method id 'block\u0663'"),
    ("2", "block-\u0663", "0.8:0.9:0.1", "unknown method id 'block-\u0663'"),
    ("2", "block1_0", "0.8:0.9:0.1", "unknown method id 'block1_0'"),
    ("2", "block3,block3", "0.8:0.9:0.1", "method block3 requested more than once"),
    ("2", "mp-hash,rec-hash,mp-hash", "0.8:0.9:0.1", "method mp-hash requested more than once"),
]


@pytest.mark.parametrize("n, methods, grid, message", OUT_OF_RANGE + BAD_METHODS)
def test_out_of_range_grid_names_first_point(capsys, n, methods, grid, message):
    assert run_cli(["yield-curve", "-N", n, "--methods", methods, f"--f={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


# Trials run on min(trials, usable CPUs) forked processes; the CPU count is
# forced through the one helper that reads it.
def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


def sim_argv(*extra):
    return ["simulate-hashing", "-N", "3", "-m", "64", "-f", "0.9", "--seed", "30", *extra]


def test_worker_count_is_bounded_by_trials_and_cpus():
    assert cli._trial_workers(1, 2) == 1
    assert cli._trial_workers(1, 4096) == 1
    for trials in (2, 3, 7, 10, 5000):
        for cpus in (1, 2, 3, 4096):
            assert cli._trial_workers(trials, cpus) == min(trials, cpus)


def test_usable_cpus_without_affinity(monkeypatch):
    assert 1 <= cli._usable_cpus() <= os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


# 40 trials on 2 workers go three to a task.
@pytest.mark.parametrize("trials", ["1", "2", "3", "7", "40"])
def test_pooled_stdout_matches_one_cpu(monkeypatch, capsys, trials):
    outs = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        assert run_cli(sim_argv("--trials", trials)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == int(trials) + 2
    assert multiprocessing.active_children() == []


def trial_pids(monkeypatch, capsys, trials):
    """The processes that ran each trial, reported through the yield column."""
    def simulate(n_parties, m, single, seed, safety_bits=None):
        return True, float(os.getpid()), SimpleNamespace(rounds_a=0, rounds_b=0, consumed=[])

    monkeypatch.setattr(cli, "simulate_hashing", simulate)
    assert run_cli(sim_argv("--trials", str(trials))) == 0
    return {int(line.split(",")[2]) for line in capsys.readouterr().out.splitlines()[1:-1]}


def test_pooled_trials_run_in_at_most_cpus_children(monkeypatch, capsys):
    force_cpus(monkeypatch, 2)
    pids = trial_pids(monkeypatch, capsys, 6)
    assert 1 <= len(pids) <= 2 and os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_trials_run_in_process_where_the_platform_cannot_fork(monkeypatch, capsys):
    force_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert trial_pids(monkeypatch, capsys, 6) == {os.getpid()}


def test_one_worker_imports_no_multiprocessing():
    # One trial runs in-process even with 4096 CPUs reported.
    code = (
        "import sys\n"
        "from catpurify import cli\n"
        "cli._usable_cpus = lambda: 4096\n"
        f"assert cli.main({sim_argv('--trials', '1')!r}) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [
    ["simulate-hashing", "-N", "40", "-m", "2"],
    # The solver cap is checked inside each trial, so in the workers.
    ["simulate-hashing", "-N", "3", "-m", "10000"],
])
def test_pooled_capacity_error_matches_one_trial(monkeypatch, capsys, argv):
    force_cpus(monkeypatch, 2)
    errs = []
    for trials in ("1", "3"):
        assert run_cli(argv + ["--trials", trials]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1] and errs[0].startswith("capacity error: ")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("broken", [{31}, {31, 32}, {32}])
def test_pooled_invariant_failure_names_the_first_failing_trial(monkeypatch, capsys, broken):
    # Seed 31 (the second trial) drifts its phase lineage and seed 32 the
    # byte rows its amplitude parities are taken from; seed 30 runs clean.
    # The first failure in seed order is reported, once, and nothing is
    # written.
    real_simulate, real_backaction, real_chunks = (
        cli.simulate_hashing, hashing._amplitude_backaction, hashing._byte_chunks)

    def rolled_backaction(*args):
        lineage, true_phases = real_backaction(*args)
        return np.roll(lineage, 1, axis=0), true_phases

    def neighbour_chunks(*args):
        for start, stop, members in real_chunks(*args):
            yield start, stop, np.roll(members, 1, axis=1)

    drifts = {
        31: (hashing, "_amplitude_backaction", rolled_backaction),
        32: (hashing, "_byte_chunks", neighbour_chunks),
    }

    def simulate(n_parties, m, single, seed, safety_bits=None):
        with monkeypatch.context() as patch:
            if seed in broken:
                patch.setattr(*drifts[seed])
            return real_simulate(n_parties, m, single, seed, safety_bits=safety_bits)

    monkeypatch.setattr(cli, "simulate_hashing", simulate)
    force_cpus(monkeypatch, 2)
    assert run_cli(sim_argv("--trials", "3")) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    label = "phase" if 31 in broken else "amplitude"
    assert captured.err == f"internal invariant violated: {label} parity bookkeeping drifted\n"
    assert multiprocessing.active_children() == []
