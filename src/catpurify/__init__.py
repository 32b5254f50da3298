"""Simulator and yield calculator for cat-state purification protocols."""

from .labels import CatLabel, all_labels, mxor
from .ensemble import (
    DiagonalEnsemble,
    SingleDistribution,
    bit_marginals,
    block_step,
    block_yield,
    iid_block,
    shannon_entropy,
    werner_single,
)
from .hashing import (
    HashingRun,
    binary_entropy,
    multiparty_hashing_yield,
    simulate_hashing,
    two_party_hashing_yield,
    werner_hashing_yield,
    werner_hashing_yield_limit,
)
from .oracle import (
    BlockLayout,
    PauliString,
    build_cat_state,
    multilateral_cnot,
    stabilizer_generators,
    verify_conjugation_rules,
    verify_mxor,
)
from .strategy import (
    MethodSpec,
    YieldCurve,
    best_method,
    block_then_hashing,
    find_knee,
    recurrence_then_hashing,
    yield_curve,
)
from .errors import CapacityError, DimensionError, InternalInvariantError

__version__ = "0.1.0"
