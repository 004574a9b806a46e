"""Orlicz N-function calculus, symmetric-gradient FEM, and estimate verification."""

from .fem import (
    FemField,
    QuadCache,
    assemble_jacobian,
    assemble_residual,
    korn_ratio,
    korn_ratio_meanfree,
    modular,
    poincare_ratio,
    quad_cache,
    random_zero_boundary_field,
    w12_norm_v,
)
from .meshing import Mesh, build_mesh
from .nfunctions import (
    DeltaPower,
    DomainError,
    IndexPair,
    NFunction,
    PowerLaw,
    SingularityError,
    SumPower,
    Truncated,
    from_text,
    simonenko_gap,
    to_text,
    truncation_dual_gap,
    young_gap,
)
from .regularity import (
    RegularityReport,
    caccioppoli_ratio,
    default_disk_forcing,
    interpolation_step_check,
    regularity_ratio,
)
from .solver import (
    ContinuationError,
    NonConvergenceError,
    SolveConfig,
    SolveTrace,
    StageResult,
    delta_continuation,
    solve,
)
from .tensors import (
    HammerTriple,
    a_map,
    da_map,
    dv_map,
    frobenius,
    hammer_triple,
    v_inv,
    v_map,
)
from .truncation import (
    GridFunction,
    f_truncation_for_solver,
    lipschitz_truncate,
    truncation_modular_bounds,
)

__version__ = "0.1.0"
