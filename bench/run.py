"""catpurify benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")

# Per-layer metric name -> unit.  Times and counts are per pass (one run
# of the workload's fixed job), averaged over the traced passes.
LAYER_UNITS = {}
for _fn in ("gf2.solve", "gf2.add_row", "gf2.pack_indices", "gf2.pack_bits", "gf2.dot_bit",
            "gf2.decode_map", "gf2.row_weight", "gf2.AffineCoset.contains",
            "hashing.simulate_hashing", "hashing.two_party_hashing_yield",
            "hashing.werner_hashing_yield", "ensemble.block_yield", "ensemble.block_step",
            "ensemble.iid_block", "ensemble.apply_mxor", "ensemble.condition_amps_zero",
            "ensemble.marginalize_slot", "ensemble.shannon_entropy", "ensemble.werner_single",
            "strategy.recurrence_round"):
    LAYER_UNITS[f"{_fn}.calls"] = "count"
    LAYER_UNITS[f"{_fn}.s"] = "s"
LAYER_UNITS.update({
    "gf2.solve.rows": "count",
    "gf2.decode_map.intractable_frac": "ratio",
    "gf2.coset_dim.mean": "count",
    "hashing.simulate_hashing.self_s": "s",
    "hashing.rounds": "count",
    "hashing.certified_frac": "ratio",
    "ensemble.iid_block.entries": "count",
    "strategy.yield_curve.s": "s",
    "strategy.yield_curve.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
})


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package() -> None:
    """Put this checkout's ``src`` first on the path; refuse to fall back
    to any other installed copy of the package."""
    if not (SRC / "catpurify" / "__init__.py").is_file():
        fail(f"no catpurify package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import catpurify

    if Path(catpurify.__file__).resolve().parent != (SRC / "catpurify").resolve():
        fail(f"imported catpurify from {catpurify.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time imports, input generation and the warm-up
    call from interpreter start-up of this script."""
    import_package()
    import workloads

    workloads.make(workload, seed).warm_up()
    print(time.perf_counter() - T_START)


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_passes(work, seconds: float, after_pass) -> list[float]:
    """Repeat the workload's fixed job for about ``seconds`` (at least
    once): a pass starts only if it is expected to end closer to the
    deadline than stopping now would.  ``after_pass(ops)`` runs outside
    the timed region.  Return each pass's wall time."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] / 2 < seconds:
        t0 = time.perf_counter()
        ops = work.run_pass()
        times.append(time.perf_counter() - t0)
        after_pass(ops)
    return times


class Tally:
    """Operations attempted and failed, fed one pass at a time so that only
    the first pass's output is kept.  An operation fails on an exception, a
    non-zero exit code, a failed output check, or output that differs from
    the same operation in the first pass (every pass repeats the same
    inputs, and output is deterministic)."""

    def __init__(self, work):
        self.work = work
        self.first_pass = None
        self.attempted = 0
        self.reasons: list[str] = []
        self._verdicts: dict[str, tuple[object, str | None]] = {}

    @property
    def failed(self) -> int:
        return len(self.reasons)

    def add(self, ops) -> None:
        import checks

        if self.first_pass is None:
            self.first_pass = ops
        for op in ops:
            self.attempted += 1
            if op.error or op.rc != 0:
                reason = f"exit code {op.rc}\n{op.error or ''}"
            elif op.key not in self._verdicts:
                try:
                    self.work.check(op)
                    reason = None
                except (checks.CheckFailed, ValueError, IndexError) as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                self._verdicts[op.key] = (op.payload, reason)
            else:
                first, first_reason = self._verdicts[op.key]
                reason = first_reason if op.payload == first else "output differs between passes"
            if reason is not None:
                self.reasons.append(f"{op.key}: {reason}")


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer saw no work."""
    return num / den if den else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(work, seed: int, seconds: float):
    setup = measure_setup(work.name, seed)
    work.warm_up()
    tally = Tally(work)
    times = run_passes(work, seconds, tally.add)
    rate = work.success_rate(tally.first_pass) if not tally.failed else 0.0
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "success_rate": metric(rate, "ratio"),
    }
    detail = {"setup_s": setup, "wall_s": times, "failed_frac": tally.failed / tally.attempted}
    return tally, metrics, detail


def traced_run(work, seconds: float):
    """Alternate untraced and traced passes for about ``seconds``, so that
    drifts in machine speed hit both alike; per-layer numbers come from the
    traced passes only."""
    from tracing import Tracer

    work.warm_up()
    tally = Tally(work)
    tracer = Tracer()
    totals: defaultdict = defaultdict(float)
    plain_times, traced_times, cpu = [], [], 0.0
    start = time.perf_counter()
    while not traced_times or (
            time.perf_counter() - start + (plain_times[-1] + traced_times[-1]) / 2 < seconds):
        t0 = time.perf_counter()
        ops = work.run_pass()
        plain_times.append(time.perf_counter() - t0)
        tally.add(ops)
        tracer.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            ops = work.run_pass()
            traced_times.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
        finally:
            tracer.uninstall()
        tracer.drain(totals)
        totals["cli.output_bytes"] += sum(len(op.payload) for op in ops if isinstance(op.payload, str))
        tally.add(ops)

    n = len(traced_times)
    counts = tracer.counts
    values = {key: totals[key] / n for key in LAYER_UNITS}
    values["gf2.solve.rows"] = counts["gf2.solve.rows"] / n
    values["gf2.decode_map.intractable_frac"] = ratio(
        counts["gf2.decode_map.intractable"], counts["gf2.decode_map.results"])
    values["gf2.coset_dim.mean"] = ratio(counts["gf2.coset_dim.sum"], counts["gf2.coset_dim.n"])
    values["hashing.rounds"] = counts["hashing.rounds"] / n
    values["hashing.certified_frac"] = ratio(counts["hashing.certified"], counts["hashing.trials"])
    values["ensemble.iid_block.entries"] = counts["ensemble.iid_block.entries"] / n
    values["process.cpu_s"] = cpu / n
    values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    metrics = {key: metric(values[key], unit) for key, unit in LAYER_UNITS.items()}
    detail = {"untraced_wall_s": plain_times, "traced_wall_s": traced_times}
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_package()
    if args.self_test:
        import selftest

        return selftest.main()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = workloads.make(args.workload, args.seed)
    if args.trace:
        tally, metrics, detail = traced_run(work, args.seconds)
    else:
        tally, metrics, detail = untraced_run(work, args.seed, args.seconds)

    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), **detail}
    if hasattr(work, "base_seed"):
        info["mc_base_seed"] = work.base_seed
    print(json.dumps(info))
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
