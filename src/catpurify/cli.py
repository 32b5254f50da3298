"""Command-line front end.

Three subcommands: ``yield-curve`` sweeps fidelities to CSV, ``verify``
runs the state-vector oracle checks, ``simulate-hashing`` runs seeded
Monte Carlo hashing trials, on up to one forked process per usable CPU.
Output is deterministic byte-for-byte for a fixed configuration, however
many CPUs are usable; exit codes are 0 (ok), 2 (usage/config), 3
(capacity), 4 (internal invariant violation).

Every option is declared once, in ``build_parser``.  A ``--config`` file of
``key=value`` lines is read as ``--key=value`` flags placed before the
command line's own, so its values get the same checks as flags and
explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InternalInvariantError
from .ensemble import werner_single
from .hashing import simulate_hashing
from .oracle import (
    ORACLE_QUBIT_LIMIT,
    corrupted_mxor_rule,
    verify_conjugation_rules,
    verify_mxor,
)
from .strategy import DEFAULT_MAX_ROUNDS, MethodSpec, yield_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# Output rows formatted and written at a time, so output memory does not
# grow with the row count.
WRITE_BLOCK_ROWS = 4096

# Pool tasks per worker for ``simulate-hashing``'s trials: trials are
# grouped so that the parent handles a few tasks however many trials there
# are, while a worker left idle at the end waits for at most one task.
TASKS_PER_WORKER = 8

# Values a config file may give a switch such as ``self-test``.
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


_fmt = "{:.12g}".format


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)
_party_count = _int_at_least(2)


def _party_list(text: str) -> tuple[int, ...]:
    parties = tuple(_party_count(tok) for tok in text.split(",") if tok.strip())
    if not parties:
        raise argparse.ArgumentTypeError(f"expected at least one party count, got {text!r}")
    return parties


def _f_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:step, got {text!r}")
    return tuple(float(p) for p in parts)


def _read_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def _config_flags(command: argparse.ArgumentParser, path: str) -> list[str]:
    """The config file at ``path`` as ``--key=value`` flags of ``command``.

    A key must spell a long flag out in full, although argparse accepts a
    prefix of one on the command line; a switch takes a boolean value and
    becomes the bare flag or nothing."""
    flags = []
    for key, value in _read_config(path):
        action = command._option_string_actions.get(f"--{key}")
        if action is None or action.dest in ("config", "help"):
            command.error(f"unknown config key {key!r}")
        if action.nargs != 0:
            flags.append(f"--{key}={value}")
        elif value.lower() not in _BOOLEANS:
            command.error(f"config key {key!r} expects a boolean, got {value!r}")
        elif _BOOLEANS[value.lower()]:
            flags.append(f"--{key}")
    return flags


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + _config_flags(args.parser, args.config) + argv[at:])


def _write_rows(rows: Iterable[Sequence[str]], args: argparse.Namespace) -> None:
    """Write ``rows``, header first, as delimited LF lines,
    ``WRITE_BLOCK_ROWS`` of them per write."""
    delimiter = "," if args.format == "csv" else "\t"
    rows = iter(rows)
    with (
        open(args.out, "w", encoding="utf-8", newline="\n") if args.out
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        while block := list(itertools.islice(rows, WRITE_BLOCK_ROWS)):
            fh.write("".join(delimiter.join(row) + "\n" for row in block))


def cmd_yield_curve(args: argparse.Namespace) -> int:
    methods = [
        MethodSpec.from_id(token.strip(), max_rounds=args.max_rounds)
        for token in args.methods.split(",")
        if token.strip()
    ]
    if not methods:
        raise ValueError("no methods requested")
    curve = yield_curve(args.parties, *args.f_range, methods)

    def rows():
        yield ["fidelity"] + [f"{mid}_{col}" for mid in curve.raw for col in ("raw", "clamped")]
        for start in range(0, curve.grid.size, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            columns = [curve.grid[block]]
            for raw in curve.raw.values():
                # The clamped column floors the raw yield at 0 for display.
                columns += [raw[block], np.maximum(raw[block], 0.0)]
            yield from zip(*(map(_fmt, column.tolist()) for column in columns))

    _write_rows(rows(), args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    for n in args.parties:
        if 2 * n > ORACLE_QUBIT_LIMIT:
            raise CapacityError(
                f"verification at N={n} needs {2 * n} qubits, "
                f"limit is {ORACLE_QUBIT_LIMIT}"
            )
    if args.self_test:
        report = verify_mxor(2, rule=corrupted_mxor_rule)
        print(f"self-test (corrupted rule): {report.n_fail} pair failures detected")
        if report.n_fail == 0:
            raise InternalInvariantError("corrupted rule passed verification")
        return EXIT_OK
    all_ok = True
    conj = verify_conjugation_rules()
    print(conj)
    all_ok &= conj.ok
    for n in args.parties:
        report = verify_mxor(n)
        print(report)
        all_ok &= report.ok
    return EXIT_OK if all_ok else 1


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _trial_workers(trials: int, cpus: int) -> int:
    """Processes for ``trials`` independent trials on ``cpus`` CPUs: one
    per trial, up to one per CPU."""
    return min(trials, cpus)


def _trial(n_parties: int, block_size: int, single, safety_bits: int | None,
           seed: int) -> tuple:
    """One Monte Carlo trial's CSV fields, unformatted: seed, success,
    yield, phase A and phase B rounds, states consumed.  A module-level
    function, so that a pool sends it to its workers by name."""
    success, empirical_yield, run = simulate_hashing(
        n_parties, block_size, single, seed, safety_bits=safety_bits
    )
    return seed, int(success), empirical_yield, run.rounds_a, run.rounds_b, len(run.consumed)


def _map_trials(trial, seeds: range) -> list[tuple]:
    """``trial`` of every seed, in seed order, on up to one forked process
    per usable CPU.  Forked workers start from this process's modules as
    they stand.  With one worker, or where the platform cannot fork, the
    map runs here and imports no multiprocessing.  A trial's exception is
    raised here, the first in seed order, after the running trials finish
    and the pool shuts down."""
    workers = _trial_workers(len(seeds), _usable_cpus())
    if workers == 1 or not hasattr(os, "fork"):
        return list(map(trial, seeds))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        chunk = -(-len(seeds) // (TASKS_PER_WORKER * workers))
        return list(pool.map(trial, seeds, chunksize=chunk))


def cmd_simulate_hashing(args: argparse.Namespace) -> int:
    single = werner_single(args.parties, args.fidelity)
    trials = _map_trials(
        functools.partial(_trial, args.parties, args.block_size, single, args.safety_bits),
        range(args.seed, args.seed + args.trials),
    )
    lines = [["seed", "success", "empirical_yield", "rounds_a", "rounds_b", "consumed"]]
    for seed, success, empirical_yield, rounds_a, rounds_b, consumed in trials:
        lines.append([str(seed), str(success), _fmt(empirical_yield),
                      str(rounds_a), str(rounds_b), str(consumed)])
    successes = sum(trial[1] for trial in trials)
    mean_yield = sum(trial[2] for trial in trials) / len(trials)
    lines.append(
        ["summary", _fmt(successes / args.trials), _fmt(mean_yield), "", "", ""]
    )
    _write_rows(lines, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catpurify",
        description="Cat-state purification protocol simulator and yield calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("yield-curve", help="fidelity sweep to CSV")
    curve.add_argument("-N", "--parties", type=_party_count, default=2)
    curve.add_argument("--methods", default="rec-hash",
                       help="comma list: rec-hash, block<m>, mp-hash, 2p-hash")
    curve.add_argument("--f", dest="f_range", type=_f_range, default="0.5:1.0:0.01",
                       help="fidelity grid as min:max:step")
    curve.add_argument("--max-rounds", type=_non_negative, default=DEFAULT_MAX_ROUNDS)
    curve.add_argument("--workers", type=_positive, default=1,
                       help="accepted for compatibility; evaluation is single-threaded")

    verify = sub.add_parser("verify", help="state-vector oracle checks")
    verify.add_argument("-N", "--parties", type=_party_list, default="2,3",
                        help="comma list of party counts")
    verify.add_argument("--self-test", action="store_true",
                        help="run the corrupted-rule harness sanity check")

    sim = sub.add_parser("simulate-hashing", help="Monte Carlo hashing trials")
    sim.add_argument("-N", "--parties", type=_party_count, default=3)
    sim.add_argument("-m", "--block-size", type=_positive, default=1000)
    sim.add_argument("-f", "--fidelity", type=float, default=0.9)
    sim.add_argument("--trials", type=_positive, default=1)
    sim.add_argument("--seed", type=_non_negative, default=0)
    sim.add_argument("--safety-bits", type=_non_negative, default=None,
                     help="extra hash rounds per phase (default: 2*log2(m) rounded up)")

    for command in (curve, sim):
        command.add_argument("--out", help="output file (default: stdout)")
        command.add_argument("--format", choices=("csv", "tsv"), default="csv")
    for command, func in (
        (curve, cmd_yield_curve),
        (verify, cmd_verify),
        (sim, cmd_simulate_hashing),
    ):
        command.add_argument("--config",
                             help="file of key=value lines, keys being long flag names; flags win")
        command.set_defaults(func=func, parser=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(parser, argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
