"""Self-test of the benchmark's output checks (``run.py --self-test``).

Runs each workload's job once on real output, confirms that it evaluates
clean, then feeds the same evaluation deliberately perturbed outputs and
confirms that each one is counted as failed (``failed_frac > 0``).  Exits
0 only if every perturbation is caught.
"""

from __future__ import annotations

import copy
import dataclasses

import run
import workloads
from workloads import Op


def replace_field(text: str, row: int, col: int, fn) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def nudge(delta: float):
    return lambda x: format(float(x) + delta, ".12g")


def nudge_yield(text: str, row: int, raw_col: int, delta: float) -> str:
    """Move one raw yield and keep its clamped column consistent."""
    raw = float(text.split("\n")[row].split(",")[raw_col]) + delta
    text = replace_field(text, row, raw_col, lambda x: format(raw, ".12g"))
    return replace_field(text, row, raw_col + 1, lambda x: format(max(raw, 0.0), ".12g"))


def with_reference(work, edit):
    """A copy of ``work`` whose recorded reference has been edited."""
    other = copy.copy(work)
    other.reference = copy.deepcopy(work.reference)
    edit(other.reference)
    return other


def perturb(ops: list[Op], key: str, fn) -> list[Op]:
    return [dataclasses.replace(op, payload=fn(op.payload)) if op.key == key else op for op in ops]


def cases(name: str, work, ops: list[Op]):
    """(label, workload, perturbed passes) triples for one workload."""
    first = ops[0].key
    yield "non-zero exit", work, [[dataclasses.replace(ops[0], rc=2)] + ops[1:]]
    yield "exception", work, [[dataclasses.replace(ops[0], rc=None, error="Traceback ...")] + ops[1:]]
    yield "later pass differs", work, [
        ops, perturb(ops, first, lambda p: p + 1e-3 if isinstance(p, float) else p + "x")]
    if name == "figure_sweep":
        k = work.brute_rows[0]

        def off_block3(ref):
            ref["block3"][k] += 1e-7

        yield "rec-hash off reference", work, [perturb(ops, "N2", lambda t: nudge_yield(t, 201, 1, 1e-7))]
        yield "block3 off enumeration (reference moved too)", with_reference(work, off_block3), [
            perturb(ops, "N2", lambda t: nudge_yield(t, 1 + k, 3, 1e-7))]
        yield "2p-hash off closed form (reference moved too)", with_reference(
            work, lambda ref: ref["2p-hash"].__setitem__(300, ref["2p-hash"][300] + 1e-7)), [
            perturb(ops, "N2", lambda t: nudge_yield(t, 301, 11, 1e-7))]
        yield "clamped != max(raw, 0)", work, [perturb(ops, "N2", lambda t: replace_field(t, 400, 4, nudge(1e-3)))]
        yield "missing row", work, [perturb(ops, "N2", lambda t: t[: t.rstrip("\n").rfind("\n") + 1])]
        yield "header", work, [perturb(ops, "N2", lambda t: t.replace("block5", "block6", 1))]
        yield "mp-hash off closed form", work, [perturb(ops, "N8", lambda t: nudge_yield(t, 4000, 1, 1e-6))]
        yield "fidelity column", work, [perturb(ops, "N3", lambda t: replace_field(t, 17, 0, nudge(1e-4)))]
    elif name == "block_multiparty":
        yield "m=8 off reference", work, [perturb(ops, "m=8", lambda y: y + 1e-8)]
        yield "m=3 off enumeration (reference moved too)", with_reference(
            work, lambda ref: ref.__setitem__("3", ref["3"] - 1e-8)), [perturb(ops, "m=3", lambda y: y - 1e-8)]
    else:
        def rounds_both(text):
            text = replace_field(text, 1, 3, lambda x: str(int(x) + 1))
            return replace_field(text, 1, 5, lambda x: str(int(x) + 1))

        yield "rounds_a (consumed kept consistent)", work, [perturb(ops, "simulate", rounds_both)]
        yield "seed column", work, [perturb(ops, "simulate", lambda t: replace_field(t, 2, 0, lambda x: str(int(x) + 5)))]
        yield "trial yield", work, [perturb(ops, "simulate", lambda t: replace_field(t, 1, 2, nudge(1e-3)))]
        yield "summary success", work, [perturb(ops, "simulate", lambda t: replace_field(t, -2, 1, nudge(-0.01)))]
        yield "summary mean yield", work, [perturb(ops, "simulate", lambda t: replace_field(t, -2, 2, nudge(0.06)))]

        if name == "mc_large":
            # One failed trial of two: success rate 0.5 < 0.99, with the
            # summary row kept consistent so only the rate check can fire.
            def one_failure(text):
                text = replace_field(text, 1, 1, lambda x: "0")
                return replace_field(text, -2, 1, lambda x: "0.5")

            yield "success rate below 0.99", work, [perturb(ops, "simulate", one_failure)]


def evaluate(work, passes: list[list[Op]]) -> run.Tally:
    tally = run.Tally(work)
    for ops in passes:
        tally.add(ops)
    return tally


def main() -> int:
    all_caught = True
    for name in workloads.WORKLOADS:
        work = workloads.make(name, seed=1, trials=2)
        ops = work.run_pass()
        tally = evaluate(work, [ops])
        clean = tally.failed == 0
        all_caught &= clean
        print(f"{'PASS' if clean else 'FAIL'} {name}: unperturbed output, failed "
              f"{tally.failed}/{tally.attempted}")
        for reason in tally.reasons:
            print(f"    {reason}")
        for label, checked, passes in cases(name, work, ops):
            tally = evaluate(checked, passes)
            caught = tally.failed > 0
            all_caught &= caught
            print(f"{'PASS' if caught else 'FAIL'} {name}: {label}, failed_frac "
                  f"{tally.failed}/{tally.attempted}"
                  + (f" ({tally.reasons[0].splitlines()[0]})" if caught else ""))
    return 0 if all_caught else 1
