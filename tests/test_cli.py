import hashlib

import pytest

from catpurify.cli import main


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
]


@pytest.mark.parametrize("argv, expected", STDOUT_DIGESTS)
def test_stdout_bytes_unchanged(capsys, argv, expected):
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


# Grids leaving [2^-N, 1]: the error names the first offending point in
# row-major (point, then method) order, even when it lies past the first
# chunk of grid points or only one of the listed methods rejects it.
OUT_OF_RANGE = [
    ("2", "rec-hash", "0.2:0.5:0.1", "fidelity 0.2 outside [0.25, 1] for N=2"),
    ("2", "block3", "0.2:0.5:0.1", "fidelity 0.2 outside [0.25, 1] for N=2"),
    ("2", "2p-hash", "0.2:0.5:0.1", "fidelity 0.2 outside [0.25, 1] for N=2"),
    ("3", "mp-hash", "0.1:0.5:0.1", "fidelity 0.1 outside [2^-N, 1] for N=3"),
    ("2", "rec-hash", "0.9:1.2:0.1", "fidelity 1.1 outside [0.25, 1] for N=2"),
    ("2", "block3", "0.9:1.2:0.1", "fidelity 1.1 outside [0.25, 1] for N=2"),
    ("2", "2p-hash", "0.9:1.2:0.1", "fidelity 1.1 outside [0.25, 1] for N=2"),
    ("3", "mp-hash", "0.9:1.2:0.1", "fidelity 1.1 outside [2^-N, 1] for N=3"),
    ("2", "mp-hash,2p-hash", "0.24:0.5:0.01", "fidelity 0.24 outside [2^-N, 1] for N=2"),
    ("2", "2p-hash,mp-hash", "0.24:0.5:0.01", "fidelity 0.24 outside [0.25, 1] for N=2"),
    ("2", "block3,rec-hash,2p-hash", "0.5:1.2:0.001",
     "fidelity 1.001 outside [0.25, 1] for N=2"),
    ("2", "rec-hash,mp-hash", "1.0000000000004:1.0000000000004:1",
     "binary entropy argument -2.6660155564665427e-13 outside [0, 1]"),
    # 2p-hash first rejects the second point, mp-hash already the first.
    ("2", "2p-hash,mp-hash", "1.0000000000004:1.00000000001:0.0000000000096",
     "binary entropy argument -2.6660155564665427e-13 outside [0, 1]"),
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
