"""Output checks for the benchmark workloads.

Every check here reaches its expected value by a route that shares no code
with the timed paths: closed forms written out with ``math``, brute-force
enumeration over ``catpurify.labels.mxor``, or values recorded in
``reference.json`` (written by ``record_reference.py``).  A check raises
``CheckFailed`` with a reason; it never returns a verdict silently.
"""

from __future__ import annotations

import itertools
import math

from catpurify import labels

# CSV numbers carry 12 significant digits; a re-ordered floating-point sum
# moves a yield by ~1e-15.  Anything beyond 1e-10 is a changed result.
TOL = 1e-10


class CheckFailed(Exception):
    """An output differs from what an independent route predicts."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, what: str, tol: float = TOL) -> None:
    expect(
        abs(got - want) <= tol * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r}",
    )


# ---------------------------------------------------------------- closed forms


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def werner_probs(n_parties: int, fidelity: float) -> list[float]:
    """Isotropic mixture in label form: the target label carries the
    fidelity, the other 2^N - 1 labels share the rest equally."""
    rest = (1.0 - fidelity) / ((1 << n_parties) - 1)
    return [fidelity] + [rest] * ((1 << n_parties) - 1)


def werner_bit_marginal(n_parties: int, fidelity: float) -> float:
    """P(bit = 1) for the phase bit or any amplitude bit: 2^(N-1) of the
    2^N - 1 non-target labels carry it."""
    return (1.0 - fidelity) * 2 ** (n_parties - 1) / (2**n_parties - 1)


def werner_hashing(n_parties: int, fidelity: float) -> float:
    return 1.0 - 2.0 * h2(werner_bit_marginal(n_parties, fidelity))


def two_party_hashing(fidelity: float) -> float:
    return 1.0 + sum(p * math.log2(p) for p in werner_probs(2, fidelity) if p > 0)


# ---------------------------------------------------------------- brute force


def brute_block_yield(n_parties: int, fidelity: float, m: int) -> float:
    """Block-step yield by enumerating all (2^N)^m label tuples and applying
    ``labels.mxor`` from each source into the last state, which must then
    show all-zero amplitudes."""
    probs = werner_probs(n_parties, fidelity)
    alphabet = labels.all_labels(n_parties)
    p_pass = 0.0
    passed: dict[tuple[int, ...], float] = {}
    for codes in itertools.product(range(len(alphabet)), repeat=m):
        weight = math.prod(probs[c] for c in codes)
        block = [alphabet[c] for c in codes]
        target = block[-1]
        for k in range(m - 1):
            block[k], target = labels.mxor(block[k], target)
        if any(target.amplitudes):
            continue
        p_pass += weight
        key = tuple(state.encode() for state in block[:-1])
        passed[key] = passed.get(key, 0.0) + weight
    entropy = -sum(w / p_pass * math.log2(w / p_pass) for w in passed.values() if w > 0)
    return p_pass * (m - 1) / m * (1.0 - entropy / (m - 1))


# ---------------------------------------------------------------- yield curves


def parse_yield_csv(
    text: str, method_ids: list[str], f_min: float, step: float, n_points: int
) -> dict[str, list[float]]:
    """Validate the ``yield-curve`` CSV layout and return each method's raw
    column.  Clamped columns must equal max(raw, 0)."""
    expect(text.endswith("\n"), "output does not end with a newline")
    lines = text[:-1].split("\n")
    header = ["fidelity"] + [f"{mid}_{kind}" for mid in method_ids for kind in ("raw", "clamped")]
    expect(lines[0].split(",") == header, f"header {lines[0]!r}")
    expect(len(lines) == n_points + 1, f"{len(lines) - 1} rows, expected {n_points}")
    raw: dict[str, list[float]] = {mid: [] for mid in method_ids}
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        expect(len(fields) == len(header), f"row {k} has {len(fields)} fields")
        values = [float(x) for x in fields]
        close(values[0], f_min + step * k, f"fidelity in row {k}")
        for j, mid in enumerate(method_ids):
            r, c = values[1 + 2 * j], values[2 + 2 * j]
            close(c, max(r, 0.0), f"{mid}_clamped in row {k}")
            raw[mid].append(r)
    return raw


def check_bipartite_curve(text: str, spec: dict, reference: dict, brute_rows: list[int]) -> None:
    """The N=2 figure: every raw value against the recorded reference,
    2p-hash against its closed form, rec-hash never below direct hashing
    (zero rounds is one of its options), and block3 at ``brute_rows``
    against brute-force enumeration."""
    raw = parse_yield_csv(text, spec["methods"], spec["f_min"], spec["step"], spec["n_points"])
    grid = [spec["f_min"] + spec["step"] * k for k in range(spec["n_points"])]
    for mid, column in raw.items():
        for k, (got, want) in enumerate(zip(column, reference[mid])):
            close(got, want, f"{mid} at f={grid[k]:.4f} vs reference")
    for k, f in enumerate(grid):
        close(raw["2p-hash"][k], two_party_hashing(f), f"2p-hash at f={f:.4f}")
        expect(raw["rec-hash"][k] >= raw["2p-hash"][k] - TOL, f"rec-hash below 2p-hash at f={f:.4f}")
    for k in brute_rows:
        close(raw["block3"][k], brute_block_yield(2, grid[k], 3), f"block3 at f={grid[k]:.4f} vs enumeration")


def check_multiparty_curve(text: str, spec: dict) -> None:
    """An mp-hash sweep: every row against the closed form."""
    raw = parse_yield_csv(text, ["mp-hash"], spec["f_min"], spec["step"], spec["n_points"])
    for k, got in enumerate(raw["mp-hash"]):
        f = spec["f_min"] + spec["step"] * k
        close(got, werner_hashing(spec["n_parties"], f), f"mp-hash N={spec['n_parties']} at f={f:.5f}")


# ---------------------------------------------------------------- Monte Carlo

MC_HEADER = ["seed", "success", "empirical_yield", "rounds_a", "rounds_b", "consumed"]


def default_safety_bits(m: int) -> int:
    """The CLI's documented default: 2*log2(m) rounded up."""
    return 0 if m < 2 else math.ceil(2.0 * math.log2(m))


def check_hashing_csv(text: str, spec: dict) -> float:
    """Validate a ``simulate-hashing`` CSV and return the success rate from
    its summary row.

    Round counts must equal ceil(m*H2(x)) + safety_bits for the closed-form
    bit marginal x (the simulator subtracts 1e-9 before the ceiling to
    absorb rounding), each trial's yield must be what its consumed count
    leaves, the summary row must average the trial rows, the mean yield
    must lie within 0.05 of the asymptotic yield less 2*safety/m, and the
    success rate must reach ``min_success``.
    """
    n, m, f = spec["n_parties"], spec["m"], spec["fidelity"]
    safety = spec["safety_bits"]
    rounds = math.ceil(m * h2(werner_bit_marginal(n, f)) - 1e-9) + safety
    expect(text.endswith("\n"), "output does not end with a newline")
    lines = text[:-1].split("\n")
    expect(lines[0].split(",") == MC_HEADER, f"header {lines[0]!r}")
    trials = spec["trials"]
    expect(len(lines) == trials + 2, f"{len(lines) - 2} trial rows, expected {trials}")
    successes, yields = 0, []
    for k, line in enumerate(lines[1:-1]):
        seed, success, y, ra, rb, consumed = line.split(",")
        expect(int(seed) == spec["base_seed"] + k, f"trial {k} has seed {seed}")
        expect(success in ("0", "1"), f"trial {k} success {success!r}")
        expect(int(ra) == rounds and int(rb) == rounds,
               f"trial {k} rounds {ra}/{rb}, expected {rounds}")
        expect(int(consumed) == int(ra) + int(rb), f"trial {k} consumed {consumed}")
        close(float(y), (m - int(consumed)) / m, f"trial {k} yield")
        successes += int(success)
        yields.append(float(y))
    tag, rate, mean_yield, *rest = lines[-1].split(",")
    expect(tag == "summary" and rest == ["", "", ""], f"summary row {lines[-1]!r}")
    close(float(rate), successes / trials, "summary success rate")
    close(float(mean_yield), sum(yields) / trials, "summary mean yield")
    asymptotic = werner_hashing(n, f) - 2.0 * safety / m
    expect(abs(float(mean_yield) - asymptotic) <= 0.05,
           f"mean yield {mean_yield} not within 0.05 of {asymptotic:.6f}")
    expect(float(rate) >= spec["min_success"],
           f"success rate {rate} below {spec['min_success']}")
    return float(rate)
