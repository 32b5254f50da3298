"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately plain Python over encoded labels and shares
no code with the package's vectorized engines.
"""

import itertools

import numpy as np


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
