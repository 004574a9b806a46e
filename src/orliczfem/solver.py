"""Damped Newton minimisation of int phi_delta(|eps u|) - f.u with zero Dirichlet data.

The energy is strictly convex for quadratic-growth specs, its discrete
gradient is exactly the assembled residual and its Hessian the assembled
Jacobian (same quadrature everywhere), so Newton with Armijo backtracking is
globally convergent and the energy decreases along every accepted step.

``delta_continuation`` solves a warm-started sequence of truncated problems
with trunc_lo decreasing and trunc_hi increasing, recording the W^{1,2} data
of the transformed strain per stage; that sequence approximates the
untruncated degenerate/singular problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import splu

from .fem import (
    FemField,
    assemble_jacobian,
    assemble_residual,
    local_load,
    quad_cache,
    same_mesh,
    strain_and_norm,
    v_strain_mandel,
    w12_norm_v,
)
from .nfunctions import DomainError, NFunction
from .tableio import write_csv

__all__ = [
    "SolveConfig",
    "TraceRow",
    "SolveTrace",
    "StageResult",
    "NonConvergenceError",
    "ContinuationError",
    "energy",
    "solve",
    "delta_continuation",
    "DEFAULT_SCHEDULE",
    "SOLVER_KEYS",
]

#: trunc_lo decreasing, trunc_hi = 1/trunc_lo increasing.  Six decades: the
#: singular exponents need the extra stages before the W^{1,2} data of the
#: transformed strain settles between consecutive stages.
DEFAULT_SCHEDULE = tuple((10.0 ** (-k), 10.0**k) for k in range(1, 7))

#: The ``SolveConfig`` fields a config's ``[solver]`` section may set, with their types.
SOLVER_KEYS = {"newton_tol": float, "max_iters": int, "armijo_c": float}

#: The Armijo line search halves a rejected step, and gives up below MIN_STEP.
BACKTRACK = 0.5
MIN_STEP = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    newton_tol: float = 1e-9
    max_iters: int = 60
    armijo_c: float = 1e-4
    delta_schedule: tuple = DEFAULT_SCHEDULE

    def __post_init__(self):
        if not (self.newton_tol > 0.0):
            raise DomainError("newton_tol must be positive")
        if self.max_iters < 0:
            raise DomainError("max_iters must be non-negative")
        if not (0.0 < self.armijo_c < 1.0):
            raise DomainError("armijo_c must lie in (0, 1)")
        los = [lo for lo, _ in self.delta_schedule]
        his = [hi for _, hi in self.delta_schedule]
        if any(a < b for a, b in zip(los, los[1:])) or any(
            a > b for a, b in zip(his, his[1:])
        ):
            raise DomainError("delta schedule must have lo non-increasing, hi non-decreasing")


class TraceRow(NamedTuple):
    """One Newton iterate's energy and residual norm, and the Armijo step to it (0 at first)."""

    iter: int
    energy: float
    residual: float
    step: float


@dataclass
class SolveTrace:
    """Per-iteration record of one Newton solve."""

    rows: list = dataclass_field(default_factory=list)  # of TraceRow

    def append(self, iteration, energy_value, residual, step):
        row = TraceRow(int(iteration), float(energy_value), float(residual), float(step))
        self.rows.append(row)

    @property
    def iterations(self) -> int:
        return len(self.rows) - 1 if self.rows else 0

    def to_csv(self, path) -> None:
        write_csv(path, TraceRow._fields, self.rows)


class NonConvergenceError(RuntimeError):
    """Newton failed to reach the residual tolerance; carries the trace."""

    def __init__(self, message, trace: SolveTrace):
        super().__init__(message)
        self.trace = trace


class ContinuationError(RuntimeError):
    """A continuation stage failed; carries the completed stages."""

    def __init__(self, message, stages):
        super().__init__(message)
        self.stages = stages


def factorized(matrix):
    """Solve callable of the sparse LU factorisation of an SPD matrix (CSC), in its given order.

    The matrix comes already in a fill-reducing order (the free-dof Jacobian
    of :func:`~orliczfem.fem.assemble_jacobian` is in the minimum-degree order
    its mesh fixes once), so the columns are factored as given.  Diagonal
    pivots keep the factor symmetric in structure, which is valid, and pivots
    stably, because every matrix factored here is symmetric positive definite.
    """
    return splu(matrix, permc_spec="NATURAL", options={"SymmetricMode": True}).solve


def energy(spec: NFunction, field: FemField, load: np.ndarray):
    """J(u) = int phi(|eps u|) - int f . u with the assembly quadrature, and the strain.

    ``load`` is the forcing's :func:`~orliczfem.fem.local_load`, which does
    not change within a solve.  Returns (J(u), (E, |E|)) with E the Mandel
    strain at the quadrature points: the residual and the Jacobian of the same
    field take that pair instead of evaluating the strain again.
    """
    cache = quad_cache(field.mesh)
    strain = strain_and_norm(field)
    stored = float(np.sum(cache.weights * spec.phi(strain[1])))
    return stored - float(np.sum(load * field.coeffs.ravel()[cache.vector_dofs])), strain


def solve(
    spec: NFunction,
    f: FemField,
    cfg: SolveConfig | None = None,
    initial: FemField | None = None,
):
    """Newton-solve the zero-boundary problem on the forcing's mesh; returns (field, trace).

    An ``initial`` guess on another mesh is a :class:`DomainError`.
    The spec must have quadratic growth (truncate degenerate specs first).
    The free-dof Jacobian is then SPD.  Newton works on the free dofs in the
    order of the mesh's :meth:`~orliczfem.fem.QuadCache.free_pattern`, the
    order the Jacobian is assembled and factored in (see :func:`factorized`).
    Each iterate's strain is evaluated once, by the energy of the accepted
    line-search trial, and the load once per solve.
    """
    cfg = cfg or SolveConfig()
    if not spec.has_quadratic_growth():
        raise DomainError(
            f"{spec.describe()} lacks quadratic growth; "
            "truncate it (trunc_lo > 0, trunc_hi < oo) before solving"
        )
    mesh = f.mesh
    cache = quad_cache(mesh)
    free = cache.free_pattern().free_dofs
    load = local_load(f)

    if initial is None:
        initial = FemField.zeros(mesh)
    same_mesh(f, initial, "initial guess")
    u = initial.with_zero_boundary()
    current, strain = energy(spec, u, load)
    trace = SolveTrace()
    step = 0.0
    for it in range(cfg.max_iters + 1):
        residual = assemble_residual(spec, u, load, strain)[free]
        res_norm = float(np.linalg.norm(residual))
        trace.append(it, current, res_norm, step)
        if res_norm <= cfg.newton_tol:
            return u, trace
        if it == cfg.max_iters:
            break

        direction = factorized(assemble_jacobian(spec, u, strain))(-residual)
        slope = float(residual @ direction)
        if not (slope < 0.0) or not np.isfinite(slope):
            raise RuntimeError(
                "internal error: Newton direction is not a descent direction "
                "(indefinite Jacobian should be impossible for quadratic-growth specs)"
            )

        full = np.zeros(cache.n_vector)
        full[free] = direction
        increment = full.reshape(-1, 2)

        step = 1.0
        while True:
            candidate = FemField(mesh, u.coeffs + step * increment, zero_boundary=True)
            trial, trial_strain = energy(spec, candidate, load)
            if trial <= current + cfg.armijo_c * step * slope:
                break
            step *= BACKTRACK
            if step < MIN_STEP:
                raise NonConvergenceError(
                    f"line search stalled at iteration {it} (residual {res_norm:.3e})",
                    trace,
                )
        u, current, strain = candidate, trial, trial_strain

    raise NonConvergenceError(
        f"no convergence within {cfg.max_iters} Newton iterations "
        f"(residual {res_norm:.3e} > tol {cfg.newton_tol:.3e})",
        trace,
    )


@dataclass
class StageResult:
    trunc_lo: float
    trunc_hi: float
    field: FemField
    w12_l2: float
    w12_semi: float
    cauchy_prev: float  # L2 distance of transformed strains to the previous stage
    trace: SolveTrace

    @property
    def w12_total(self) -> float:
        return self.w12_l2 + self.w12_semi


def delta_continuation(
    spec: NFunction,
    f: FemField,
    cfg: SolveConfig | None = None,
    stage_forcing=None,
):
    """Warm-started truncation continuation on f's mesh; returns the list of stage results.

    ``stage_forcing(trunc_lo, trunc_hi) -> FemField`` may supply a per-stage
    forcing (e.g. a Lipschitz-truncated one); by default every stage uses f.
    The first stage starts from zero on f's mesh, so a stage forcing on
    another mesh is a :class:`DomainError`.
    """
    cfg = cfg or SolveConfig()
    if not cfg.delta_schedule:
        raise DomainError("delta schedule is empty")
    cache = quad_cache(f.mesh)
    stages: list[StageResult] = []
    u = FemField.zeros(f.mesh)
    prev_v = None
    for lo, hi in cfg.delta_schedule:
        stage_spec = spec.truncate(lo, hi)
        stage_f = f if stage_forcing is None else stage_forcing(lo, hi)
        try:
            u, trace = solve(stage_spec, stage_f, cfg, initial=u)
        except NonConvergenceError as exc:
            raise ContinuationError(
                f"stage {len(stages)} (trunc_lo={lo}, trunc_hi={hi}) failed: {exc}", stages
            ) from exc
        l2_part, semi_part = w12_norm_v(stage_spec, u)
        v_now = v_strain_mandel(stage_spec, u)
        if prev_v is None:
            cauchy = math.nan
        else:
            diff = v_now - prev_v
            cauchy = float(
                math.sqrt(np.sum(cache.weights * np.sum(diff * diff, axis=-1)))
            )
        prev_v = v_now
        stages.append(StageResult(lo, hi, u.copy(), l2_part, semi_part, cauchy, trace))
    return stages
