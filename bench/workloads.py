"""The benchmark's workloads.

Each workload owns its inputs (made from the benchmark seed), one tiny
warm-up call, one fixed job (``run_pass``, the unit that ``wall_s`` times)
and the check of each operation the job performs.  An operation is one
``cli.main`` invocation or one ``block_yield`` call.  Library functions are
always reached through their module (``cli.main``, not a bound name) so
that a traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

from catpurify import cli, ensemble

import checks

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Op:
    """One operation's outcome: ``rc`` is the exit code (0 for a library
    call that returned), ``payload`` the CSV text or the returned value,
    ``error`` the traceback of an exception that escaped it."""

    key: str
    rc: int | None
    payload: object = None
    error: str | None = None


def call_cli(key: str, argv: list[str]) -> Op:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:
        return Op(key, None, error=traceback.format_exc())
    return Op(key, rc, out.getvalue())


def call(key: str, fn, *args) -> Op:
    try:
        return Op(key, 0, fn(*args))
    except Exception:
        return Op(key, None, error=traceback.format_exc())


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class FigureSweep:
    """Bipartite figure (six methods on a 501-point grid) plus mp-hash
    sweeps at N=3, 4 and 8 on a 5001-point grid, through ``cli.main``.
    The seed orders the four invocations and picks the grid rows whose
    block3 value is re-derived by enumeration."""

    name = "figure_sweep"
    BIPARTITE = {
        "methods": ["rec-hash", "block3", "block4", "block5", "block7", "2p-hash"],
        "f": "0.5:1.0:0.001", "f_min": 0.5, "step": 0.001, "n_points": 501,
    }
    MULTIPARTY = {"f": "0.5:1.0:0.0001", "f_min": 0.5, "step": 0.0001, "n_points": 5001}
    BRUTE_ROWS = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        bi, mp = self.BIPARTITE, self.MULTIPARTY
        self.jobs = [("N2", ["yield-curve", "-N", "2", "--methods", ",".join(bi["methods"]), "--f", bi["f"]])]
        for n in (3, 4, 8):
            self.jobs.append((f"N{n}", ["yield-curve", "-N", str(n), "--methods", "mp-hash", "--f", mp["f"]]))
        rng.shuffle(self.jobs)
        self.brute_rows = sorted(rng.sample(range(bi["n_points"]), self.BRUTE_ROWS))
        self.reference = load_reference()["figure_sweep"]

    def warm_up(self) -> None:
        cli_ok(call_cli("warm-up", ["yield-curve", "-N", "2", "--methods",
                                    ",".join(self.BIPARTITE["methods"]), "--f", "0.9:0.9:0.1"]))

    def run_pass(self) -> list[Op]:
        return [call_cli(key, argv) for key, argv in self.jobs]

    def check(self, op: Op) -> None:
        if op.key == "N2":
            checks.check_bipartite_curve(op.payload, self.BIPARTITE, self.reference, self.brute_rows)
        else:
            checks.check_multiparty_curve(op.payload, dict(self.MULTIPARTY, n_parties=int(op.key[1:])))

    def success_rate(self, ops: list[Op]) -> float:
        return 1.0


class MonteCarlo:
    """``simulate-hashing`` through ``cli.main``; trial k uses seed
    base+k with base = 1000 * benchmark seed, so runs on different
    benchmark seeds share no trial."""

    def __init__(self, name: str, seed: int, n_parties: int, m: int, fidelity: float,
                 trials: int, safety_bits: int | None, min_success: float):
        self.name = name
        self.base_seed = 1000 * seed
        self.argv = ["simulate-hashing", "-N", str(n_parties), "-m", str(m), "-f", str(fidelity),
                     "--trials", str(trials), "--seed", str(self.base_seed)]
        if safety_bits is not None:
            self.argv += ["--safety-bits", str(safety_bits)]
        self.spec = {
            "n_parties": n_parties, "m": m, "fidelity": fidelity, "trials": trials,
            "safety_bits": checks.default_safety_bits(m) if safety_bits is None else safety_bits,
            "base_seed": self.base_seed, "min_success": min_success,
        }
        self.warm_argv = ["simulate-hashing", "-N", str(n_parties), "-m", "16", "-f",
                          str(fidelity), "--trials", "1", "--seed", str(self.base_seed)]

    def warm_up(self) -> None:
        cli_ok(call_cli("warm-up", self.warm_argv))

    def run_pass(self) -> list[Op]:
        return [call_cli("simulate", self.argv)]

    def check(self, op: Op) -> None:
        checks.check_hashing_csv(op.payload, self.spec)

    def success_rate(self, ops: list[Op]) -> float:
        summary = ops[0].payload.rstrip("\n").rsplit("\n", 1)[-1]
        return float(summary.split(",")[1])


class BlockMultiparty:
    """``ensemble.block_yield(werner_single(3, 0.9), m)`` for m = 2..8, in
    an order drawn from the seed.  No CLI route exists for N>2 blocks."""

    name = "block_multiparty"
    N_PARTIES, FIDELITY, SIZES = 3, 0.9, range(2, 9)
    BRUTE_MAX_M = 4

    def __init__(self, seed: int):
        self.sizes = list(self.SIZES)
        random.Random(seed).shuffle(self.sizes)
        self.reference = load_reference()["block_multiparty"]
        self._brute: dict[int, float] = {}

    def warm_up(self) -> None:
        ensemble.block_yield(ensemble.werner_single(self.N_PARTIES, self.FIDELITY), 2)

    def run_pass(self) -> list[Op]:
        return [
            call(f"m={m}", ensemble.block_yield,
                 ensemble.werner_single(self.N_PARTIES, self.FIDELITY), m)
            for m in self.sizes
        ]

    def check(self, op: Op) -> None:
        m = int(op.key[2:])
        checks.close(op.payload, self.reference[str(m)], f"block_yield m={m} vs reference")
        if m <= self.BRUTE_MAX_M:
            if m not in self._brute:
                self._brute[m] = checks.brute_block_yield(self.N_PARTIES, self.FIDELITY, m)
            checks.close(op.payload, self._brute[m], f"block_yield m={m} vs enumeration")

    def success_rate(self, ops: list[Op]) -> float:
        return 1.0


def cli_ok(op: Op) -> None:
    if op.error or op.rc != 0:
        raise RuntimeError(f"{op.key} failed with exit code {op.rc}\n{op.error or ''}")


def make(name: str, seed: int, trials: int | None = None):
    """The named workload on ``seed``; ``trials`` overrides a Monte Carlo
    workload's trial count (the self-test uses fewer)."""
    if name == "figure_sweep":
        return FigureSweep(seed)
    if name == "block_multiparty":
        return BlockMultiparty(seed)
    if name == "mc_large":
        return MonteCarlo(name, seed, 3, 2000, 0.9, trials or 10, 20, min_success=0.99)
    if name == "mc_small":
        return MonteCarlo(name, seed, 2, 256, 0.92, trials or 100, None, min_success=0.0)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("figure_sweep", "mc_large", "mc_small", "block_multiparty")
