"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately plain Python over encoded labels and shares
no code with the package's vectorized engines.  The hashing replay steps
``labels.CatLabel`` values through ``labels.mxor``, the rule that ``verify``
certifies against the state vector.
"""

import itertools

import numpy as np

from catpurify.labels import CatLabel, mxor


def brute_force_block_step(probs, n_parties, m):
    """Enumeration oracle for the block step.

    Loops over every m-tuple of encoded labels, applies the classical XOR
    rule textually (phases into sources, amplitudes into the target), keeps
    tuples whose target amplitudes vanish, and accumulates the joint
    distribution of the m-1 source labels with the target's phase ignored.
    """
    amp_mask = (1 << (n_parties - 1)) - 1
    p_pass = 0.0
    passed = {}
    for labels in itertools.product(range(1 << n_parties), repeat=m):
        weight = 1.0
        for code in labels:
            weight *= probs[code]
        if weight == 0.0:
            continue
        target_phase = labels[m - 1] >> (n_parties - 1)
        target_amps = labels[m - 1] & amp_mask
        outcome = []
        for k in range(m - 1):
            phase = (labels[k] >> (n_parties - 1)) ^ target_phase
            target_amps ^= labels[k] & amp_mask
            outcome.append((phase << (n_parties - 1)) | (labels[k] & amp_mask))
        if target_amps != 0:
            continue
        p_pass += weight
        key = tuple(outcome)
        passed[key] = passed.get(key, 0.0) + weight
    return p_pass, {k: v / p_pass for k, v in passed.items()} if p_pass else {}


def flatten_joint(passed, n_parties, n_states):
    """Dict keyed by label tuples -> flat vector in engine index order."""
    size = (1 << n_parties) ** n_states
    out = np.zeros(size)
    for key, value in passed.items():
        idx = 0
        for code in key:
            idx = (idx << n_parties) | code
        out[idx] = value
    return out


def row_by_row_cosets(rows, rhs, n_unknowns, n_sides):
    """Row-by-row Gauss-Jordan reference for the cosets ``gf2.pivot_cosets``
    lays out: those of ``GF2System.solve``, one side per system, and of
    ``hashing._amplitude_cosets``, several sides sharing the rows.

    ``rows`` are Python int bitmasks over the unknowns and ``rhs`` int
    bitmasks over the sides, one per row.  Rows are taken in order; each
    nonzero row pivots on its lowest set bit, which is then cleared from
    every other row.  Returns one entry per side: None when a zero row
    keeps a nonzero right-hand side, otherwise ``(particular, basis,
    free_cols)`` with the particular solution and each basis vector as an
    int bitmask, basis vector k carrying free column ``free_cols[k]``.
    """
    rows, rhs = list(rows), list(rhs)
    pivot_of_row = [-1] * len(rows)
    for i, row in enumerate(rows):
        if not row:
            continue
        col = (row & -row).bit_length() - 1
        for k in range(len(rows)):
            if k != i and rows[k] >> col & 1:
                rows[k] ^= row
                rhs[k] ^= rhs[i]
        pivot_of_row[i] = col
    pivots = [(col, i) for i, col in enumerate(pivot_of_row) if col >= 0]
    pivot_cols = {col for col, _ in pivots}
    free_cols = [c for c in range(n_unknowns) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = 1 << free
        for col, i in pivots:
            if rows[i] >> free & 1:
                vec |= 1 << col
        basis.append(vec)
    cosets = []
    for side in range(n_sides):
        if any(col < 0 and rhs[i] >> side & 1 for i, col in enumerate(pivot_of_row)):
            cosets.append(None)
            continue
        particular = 0
        for col, i in pivots:
            if rhs[i] >> side & 1:
                particular |= 1 << col
        cosets.append((particular, basis, free_cols))
    return cosets


def _label(code, n_parties):
    """The label of an encoded code: the phase bit most significant, then
    the amplitude bits of parties 2..N."""
    return CatLabel(n_parties, code >> (n_parties - 1),
                    tuple(code >> (n_parties - 2 - j) & 1 for j in range(n_parties - 1)))


def _members(row):
    """The states of one packed membership row, ascending."""
    bits = int.from_bytes(np.asarray(row, dtype="<u8").tobytes(), "little")
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def replay_hashing(run):
    """Replay a hashing run's rounds on labels, gate by gate.

    Each round's members meet its target (the run's ``consumed`` entry)
    through ``mxor``: in phase A each member is the source into the target,
    which is then measured in Z and must read the run's amplitude value; in
    phase B the target is the source into each member and its X measurement
    must read the run's phase value.  A mismatch raises ``ValueError``.
    ``mxor`` is tabulated once over every pair of labels, the pairs
    ``verify`` certifies, and each gate looks its outcome up.

    Returns each survivor's true label, ascending, and its belief label, or
    None unless the run decoded both phases: the decoded amplitudes carried
    through phase B's leak into the members, with the decoded survivor
    phase.  The survivor is corrected exactly when the two are equal, the
    belief being the Pauli frame applied."""
    n, m = run.n_parties, run.block_size
    labels = [_label(code, n) for code in range(1 << n)]
    code_of = {label: code for code, label in enumerate(labels)}
    gate = [[tuple(code_of[out] for out in mxor(source, target)) for target in labels]
            for source in labels]
    # Each state is held as its code, the index of its label in ``labels``.
    truth = [int(code) for code in run.initial_codes]
    belief = None
    if run.decoded_amps is not None and run.decoded_survivor_phases is not None:
        belief = [int(code) for code in run.decoded_amps]
    targets = iter(run.consumed)
    for tag, rows, measured in (("A", run.amp_rows, run.amp_measured),
                                ("B", run.phase_rows, run.phase_measured)):
        for r, (row, value) in enumerate(zip(rows, measured.tolist())):
            t = next(targets)
            for j in _members(row):
                if j == t:
                    continue
                if tag == "A":
                    truth[j], truth[t] = gate[truth[j]][truth[t]]
                else:
                    truth[t], truth[j] = gate[truth[t]][truth[j]]
                    if belief is not None:
                        belief[t], belief[j] = gate[belief[t]][belief[j]]
            got = _label(value, n).amplitudes if tag == "A" else value
            read = labels[truth[t]].amplitudes if tag == "A" else labels[truth[t]].phase
            if read != got:
                raise ValueError(f"phase {tag} round {r} measured {got}, its labels read {read}")
    survivors = sorted(set(range(m)) - set(run.consumed))
    true_labels = [labels[truth[s]] for s in survivors]
    if belief is None:
        return true_labels, None
    return true_labels, [
        CatLabel(n, phase, labels[belief[s]].amplitudes)
        for s, phase in zip(survivors, run.decoded_survivor_phases.tolist())
    ]
