"""Sparse synchronous-circuit synthesis for Kronecker-power transforms.

Exact finite-field (and rational) linear algebra, low-rank-plus-sparse
matrix decompositions, circuit constructions beating the butterfly
baseline, the disjointness transform toolkit, fast union-indexed batch
sums, and matmul-based evaluation with op accounting.
"""

from .fields import RATIONALS, FieldCtx, primitive_root_of_unity
from .sparse import SparseMatrix
from .rigidity import (
    RigidityDecomposition,
    brute_force_rigidity,
    cube_rank1_decomposition,
    dft_matrix,
    h2_rank1_decomposition,
    h4_rank1_decomposition,
    hadamard_matrix,
    normalize_outer1,
    shparlinski_bound,
)
from .circuits import (
    SynchronousCircuit,
    TwoFactorization,
    balance_exponents,
    balanced_exponent,
    butterfly_circuit,
    lift_power,
    symmetrized_depth_d,
    synthesize,
    two_factor_from_rigidity,
    verify_circuit,
)
from .disjoint import (
    RemovalReport,
    dense_removal,
    disjointness_matrix,
    js_factorization,
    rn_rigidity_decomposition,
)
from .vf import (
    TruthTable,
    VfWitness,
    batch_sums,
    build_vf_witness,
    fast_rn_apply,
    inclusion_exclusion_expand,
    kron2_to_vf,
    vf_matrix,
)
from .mmbridge import (
    NaiveBackend,
    StrassenBackend,
    butterflytomm_apply,
    kron_identity_apply,
    mm_cost_report,
)

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "RATIONALS",
    "primitive_root_of_unity",
    "SparseMatrix",
    "RigidityDecomposition",
    "brute_force_rigidity",
    "h2_rank1_decomposition",
    "cube_rank1_decomposition",
    "h4_rank1_decomposition",
    "hadamard_matrix",
    "normalize_outer1",
    "shparlinski_bound",
    "dft_matrix",
    "SynchronousCircuit",
    "TwoFactorization",
    "two_factor_from_rigidity",
    "symmetrized_depth_d",
    "lift_power",
    "synthesize",
    "butterfly_circuit",
    "balance_exponents",
    "balanced_exponent",
    "verify_circuit",
    "RemovalReport",
    "disjointness_matrix",
    "dense_removal",
    "rn_rigidity_decomposition",
    "js_factorization",
    "TruthTable",
    "VfWitness",
    "vf_matrix",
    "fast_rn_apply",
    "build_vf_witness",
    "batch_sums",
    "kron2_to_vf",
    "inclusion_exclusion_expand",
    "NaiveBackend",
    "StrassenBackend",
    "kron_identity_apply",
    "butterflytomm_apply",
    "mm_cost_report",
]
