"""Damped Newton minimisation of int phi_delta(|eps u|) - f.u with zero Dirichlet data.

The energy is strictly convex for quadratic-growth specs, its discrete
gradient is exactly the assembled residual and its Hessian the assembled
Jacobian (same quadrature everywhere), so Newton with Armijo backtracking is
globally convergent and the energy decreases along every accepted step.

A Newton direction comes from one of three sources, tried in this order:

- an *operator step*: where the radial coefficients (c1, c2) are one constant
  c at every quadrature point (the quadratic part of the truncated spec, as at
  u = 0), the Jacobian is c K for K the Jacobian of phi(t) = t^2/2, and the
  direction is z/c - u with z = K^{-1} F for the load F, once per forcing;
  it is taken when its residual against the assembled Jacobian is within
  1e-10 relative;
- once the solve holds a factor, SciPy's CG on the new Jacobian,
  preconditioned by that float32 factor, to the forcing term eta_k of an
  inexact Newton method (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal.
  19, 1982) chosen as in Eisenstat and Walker (SIAM J. Sci. Comput. 17, 1996,
  choice 2): the direction d is taken when |J d + r| <= eta_k |r|;
- a float32 LU factor of the Jacobian and two float64 refinement sweeps
  (:func:`factorized`); a direction whose residual is still above 1e-10
  relative, or not finite, is solved again with a float64 factor.

So an operator step or a factored direction is the Jacobian's Newton
direction to 1e-10, and a CG direction to eta_k, whose floor lets CG stop
at a linear residual of a hundredth of ``newton_tol`` instead of solving
further than the stopping test can see.  The residual, the energy and the
Armijo test stay in float64.

``delta_continuation`` solves a warm-started sequence of truncated problems
with trunc_lo decreasing and trunc_hi increasing, recording the W^{1,2} data
of the transformed strain per stage; that sequence approximates the
untruncated degenerate/singular problem.  Given a coarser mesh's stage
solutions, it hands :func:`solve` their increment as a second start, taken
where it lowers the stage energy (nested iteration).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from . import radial
from .fem import (
    FemField,
    assemble_jacobian,
    assemble_residual,
    integral,
    local_load,
    memo,
    quad_cache,
    same_mesh,
    strain_and_norm,
    w12_norm_v,
)
from .nfunctions import DomainError, NFunction, PowerLaw
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
    "operator_solution",
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

#: A Newton direction from the float32 factor takes this many float64
#: refinement sweeps, and falls back to a float64 factor when its residual
#: is still above REFINE_TOL relative to the right-hand side.
REFINE_SWEEPS = 2
REFINE_TOL = 1e-10

#: Once a solve holds a float32 factor, each later direction is first sought
#: by CG on the new Jacobian, preconditioned by that factor, to the forcing
#: term eta_k = max(REFINE_TOL, min(ETA_MAX, ETA_GAMMA (r_k/r_{k-1})^2),
#: ETA_FLOOR newton_tol/r_k); CG that has not reached it within CG_MAX_ITERS
#: iterations gives way to a fresh factor.
ETA_MAX = 0.9
ETA_GAMMA = 0.9
ETA_FLOOR = 1e-2
CG_MAX_ITERS = 20

#: The Armijo test also accepts a step whose predicted decrease is below the
#: energy's rounding level, ARMIJO_ROUNDING·|J|, when the trial energy rises
#: by no more than that: energies that close differ in their last bits only.
ARMIJO_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveConfig:
    newton_tol: float = 1e-9
    max_iters: int = 60
    armijo_c: float = 1e-4
    delta_schedule: tuple = DEFAULT_SCHEDULE

    def __post_init__(self):
        if not (0.0 < self.newton_tol < math.inf):
            raise DomainError(f"newton_tol must be positive and finite, got {self.newton_tol}")
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
    """One Newton iterate's energy and residual norm, and the Armijo step to it (0 at first).

    ``factored`` is 1 when the direction of that step came from a fresh
    factor of its own Jacobian, and 0 otherwise: an operator step, CG with an
    earlier factor, and at first.  ``cg_iters`` counts the CG iterations
    spent on that step's direction, an attempt that fell short included, and
    is 0 when no CG ran.
    """

    iter: int
    energy: float
    residual: float
    step: float
    factored: int
    cg_iters: int


@dataclass
class SolveTrace:
    """Per-iteration record of one Newton solve."""

    rows: list = dataclass_field(default_factory=list)  # of TraceRow

    def append(self, iteration, energy_value, residual, step, factored, cg_iters):
        row = TraceRow(
            int(iteration),
            float(energy_value),
            float(residual),
            float(step),
            int(factored),
            int(cg_iters),
        )
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
    """Solve callable of a float32 sparse LU factor of an SPD matrix (CSC), refined in float64.

    The matrix comes already in a fill-reducing order (the free-dof Jacobian
    of :func:`~orliczfem.fem.assemble_jacobian` is in the minimum-degree order
    its mesh fixes once), so the columns are factored as given.  Diagonal
    pivots keep the factor symmetric in structure, which is valid, and pivots
    stably, because every matrix factored here is symmetric positive definite.

    The factor is of ``matrix`` cast to float32.  The callable solves with it
    once, then takes ``REFINE_SWEEPS`` refinement sweeps x += solve32(b - A x),
    each residual in float64 against ``matrix``.  When the final residual
    exceeds ``REFINE_TOL``·|b| or is not finite (the cast overflowed in A or
    b, b underflowed, or A is too ill-conditioned for a float32 factor), or
    the float32 factorisation fails, it solves with a float64 factor of
    ``matrix`` instead, as plain LU would, from then on.

    Called as ``solve(b, other, rtol)`` with another SPD matrix of the same
    order, the callable solves ``other`` x = b by SciPy's CG with float64
    products, one float32 solve per iteration as the preconditioner, and
    returns (x, iterations) once |b - other x| <= ``rtol``·|b|.  It returns
    (None, iterations) when CG gets no such x within ``CG_MAX_ITERS``
    iterations, and (None, 0) once the float64 factor has taken over: a
    float64 factor is not reused.

    :func:`solve` calls it on a Newton Jacobian, and :func:`operator_solution`
    once per forcing on K, whose factor it drops after that one solve.
    """
    from scipy.sparse.linalg import splu

    def factor(a):
        return splu(a, permc_spec="NATURAL", options={"SymmetricMode": True}).solve

    try:
        with np.errstate(all="ignore"):
            solve32 = factor(matrix.astype(np.float32))
    except RuntimeError:  # a pivot the cast made exactly zero or infinite
        solve32 = None

    def precondition(r):
        return solve32(r.astype(np.float32)).astype(np.float64)

    def solve(b, other=None, rtol=REFINE_TOL):
        nonlocal solve32
        if solve32 is not None:
            with np.errstate(all="ignore"):
                if other is not None:
                    return _preconditioned_cg(other, b, precondition, rtol)
                x = precondition(b)
                for _ in range(REFINE_SWEEPS):
                    x += precondition(b - matrix @ x)
                if _solves(matrix, x, b):
                    return x
            solve32 = None  # the float32 factor failed this matrix
        return (None, 0) if other is not None else factor(matrix)(b)

    return solve


def _solves(matrix, x, b, rtol=REFINE_TOL) -> bool:
    """|b - matrix x| <= rtol·|b|; False for a residual that is not finite."""
    return bool(np.linalg.norm(b - matrix @ x) <= rtol * np.linalg.norm(b))


def _preconditioned_cg(matrix, b, precondition, rtol):
    """SciPy's CG solution of matrix x = b to ``rtol``, checked on the true residual.

    Returns (x or None, the iterations CG ran).
    """
    from scipy.sparse.linalg import LinearOperator, cg

    M = LinearOperator(matrix.shape, matvec=precondition, dtype=np.float64)
    iterates = []  # SciPy's callback gets each iteration's x, one preconditioner solve each
    # SciPy tests the residual before each iteration, so one more tests the last update
    x, info = cg(
        matrix, b, rtol=rtol, atol=0.0, maxiter=CG_MAX_ITERS + 1, M=M, callback=iterates.append
    )
    return (x if info == 0 and _solves(matrix, x, b, rtol) else None), len(iterates)


def _forcing_term(res_norm, previous, newton_tol):
    """eta_k of the inexact Newton step at residual ``res_norm`` after ``previous``.

    Eisenstat and Walker's choice 2 (gamma = ``ETA_GAMMA``, alpha = 2), capped
    at ``ETA_MAX``.  It is floored at ``REFINE_TOL``, and at
    ``ETA_FLOOR``·``newton_tol``/r_k, so CG never solves for a linear residual
    below a hundredth of ``newton_tol``.
    """
    contraction = ETA_GAMMA * (res_norm / previous) ** 2
    return max(REFINE_TOL, min(ETA_MAX, contraction), ETA_FLOOR * newton_tol / res_norm)


def _constant(c1, c2):
    """The one value c of (c1, c2) at every point, to REFINE_TOL relative, or None."""
    lo = min(c1.min(), c2.min())
    hi = max(c1.max(), c2.max())
    if lo > 0.0 and hi / lo - 1.0 <= REFINE_TOL:
        return 0.5 * (lo + hi)
    return None


def operator_solution(f: FemField) -> np.ndarray:
    """z = K^{-1} F for the forcing ``f``, computed once and kept (see :func:`~orliczfem.fem.memo`).

    K and F are the Jacobian and minus the residual of phi(t) = t^2/2 at
    u = 0 on f's mesh, over the free dofs in K's order, so z is that energy's
    first Newton direction.  It is computed with one :func:`factorized` call
    whose factor is dropped at once, so no factor of K outlives it.
    """

    def build():
        quadratic, zero = PowerLaw(2.0), FemField.zeros(f.mesh)
        strain = strain_and_norm(zero)
        free = quad_cache(f.mesh).free_pattern().free_dofs
        load = -assemble_residual(quadratic, zero, local_load(f), strain)[free]
        return factorized(assemble_jacobian(quadratic, zero, strain))(load)

    return memo(f, "operator_solution", build)


def energy(spec: NFunction, field: FemField, load: np.ndarray):
    """J(u) = int phi(|eps u|) - int f . u with the assembly quadrature, and the strain.

    ``load`` is the forcing's :func:`~orliczfem.fem.local_load`, which does
    not change within a solve.  Returns (J(u), (E, |E|)) with E the Mandel
    strain at the quadrature points: the residual and the Jacobian of the same
    field take that pair instead of evaluating the strain again.
    """
    strain = strain_and_norm(field)
    work = float(np.sum(load * field.coeffs.ravel()[quad_cache(field.mesh).vector_dofs]))
    return integral(field.mesh, spec.phi(strain[1])) - work, strain


def solve(
    spec: NFunction,
    f: FemField,
    cfg: SolveConfig | None = None,
    initial: FemField | Sequence[FemField] | None = None,
):
    """Newton-solve the zero-boundary problem on the forcing's mesh; returns (field, trace).

    ``initial`` is a start field or a sequence of candidate starts (zero by
    default): each one's energy is evaluated once, and Newton starts from the
    lowest, the first on a tie.  One on another mesh is a :class:`DomainError`.
    The spec must have quadratic growth (truncate degenerate specs first).
    The free-dof Jacobian is then SPD.  Newton works on the free dofs in the
    order of the mesh's :meth:`~orliczfem.fem.QuadCache.free_pattern`, the
    order the Jacobian is assembled and factored in (see :func:`factorized`).
    Each iterate's strain is evaluated once, by the energy of the accepted
    line-search trial, and the load once per solve.

    Every iteration evaluates its radial coefficients (c1, c2) once and
    assembles its Jacobian from them.  When max(c1, c2)/min(c1, c2) - 1 <=
    ``REFINE_TOL`` over all quadrature points, the direction is first the
    operator step z/c - u, with z = K^{-1} F memoised on the forcing (see
    :func:`operator_solution`); it is taken when |J d + r| <= ``REFINE_TOL``
    |r|.  Otherwise, once this solve holds a factor, the direction is sought
    by CG on that Jacobian preconditioned by the factor (see
    :func:`factorized`), and taken when |J d + r| <= eta_k |r| for the
    forcing term eta_k of :func:`_forcing_term`; otherwise, or when CG falls
    short, the last factor is dropped and the Jacobian factored.  An operator
    step leaves the last factor as it was.
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
    starts = [initial] if isinstance(initial, FemField) else initial
    for start in starts:
        same_mesh(f, start, "initial guess")
    # (energy, strain, start) of each; min keeps the first of equal energies
    scored = ((*energy(spec, s, load), s) for s in map(FemField.with_zero_boundary, starts))
    current, strain, u = min(scored, key=lambda s: s[0])
    trace = SolveTrace()
    step, factored, cg_iters = 0.0, 0, 0
    lagged, previous = None, math.inf  # the last factor's solve, the last residual
    for it in range(cfg.max_iters + 1):
        residual = assemble_residual(spec, u, load, strain)[free]
        res_norm = float(np.linalg.norm(residual))
        trace.append(it, current, res_norm, step, factored, cg_iters)
        if res_norm <= cfg.newton_tol:
            return u, trace
        if not math.isfinite(res_norm):
            raise NonConvergenceError(f"non-finite residual at Newton iteration {it}", trace)
        if it == cfg.max_iters:
            break

        coefficients = radial.coefficients(spec, strain[1])
        jacobian = assemble_jacobian(spec, u, strain, coefficients)
        direction, factored, cg_iters = None, 0, 0
        scale = _constant(*coefficients)
        if scale is not None:
            operator_step = operator_solution(f) / scale - u.coeffs.ravel()[free]
            if _solves(jacobian, operator_step, -residual):
                direction = operator_step
        if direction is None and lagged is not None:
            eta = _forcing_term(res_norm, previous, cfg.newton_tol)
            direction, cg_iters = lagged(-residual, jacobian, eta)
        if direction is None:
            lagged = None  # release the last factor before the next is made
            lagged = factorized(jacobian)
            direction = lagged(-residual)
            factored = 1
        previous = res_norm
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
            decrease = cfg.armijo_c * step * slope
            rounding = ARMIJO_ROUNDING * abs(current)
            if trial <= current + decrease or (
                -decrease <= rounding and trial - current <= rounding
            ):
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
    coarse=None,
):
    """Warm-started truncation continuation on f's mesh; returns the list of stage results.

    ``stage_forcing(trunc_lo, trunc_hi) -> FemField`` may supply a per-stage
    forcing (e.g. a Lipschitz-truncated one); by default every stage uses f.
    The first stage starts from zero on f's mesh, so a stage forcing on
    another mesh is a :class:`DomainError`.

    ``coarse``, one zero-boundary field per schedule stage on f's mesh, holds a
    coarser mesh's stage solutions U_k interpolated onto this one (nested
    iteration).  Stage k then hands :func:`solve` the starts (u_{k-1},
    u_{k-1} + U_k - U_{k-1}), stage 0 (0, U_0), so the second is taken only
    when its stage energy is strictly lower.
    A ``coarse`` of another length than the schedule, or a field of it on
    another mesh or without zero boundary values, is a :class:`DomainError`.
    """
    cfg = cfg or SolveConfig()
    if not cfg.delta_schedule:
        raise DomainError("delta schedule is empty")
    if coarse is not None:
        if len(coarse) != len(cfg.delta_schedule):
            raise DomainError(
                f"{len(coarse)} coarse stage fields for {len(cfg.delta_schedule)} schedule stages"
            )
        for field in coarse:
            same_mesh(f, field, "coarse stage field")
            if not field.zero_boundary:
                raise DomainError("coarse stage fields must have zero boundary values")
    stages: list[StageResult] = []
    u = FemField.zeros(f.mesh)
    prev_v = None
    for k, (lo, hi) in enumerate(cfg.delta_schedule):
        stage_spec = spec.truncate(lo, hi)
        stage_f = f if stage_forcing is None else stage_forcing(lo, hi)
        starts = [u]
        if coarse is not None:
            before = coarse[k - 1].coeffs if k else 0.0
            predicted = u.coeffs + (coarse[k].coeffs - before)
            starts.append(FemField(f.mesh, predicted, zero_boundary=True))
        try:
            u, trace = solve(stage_spec, stage_f, cfg, initial=starts)
        except NonConvergenceError as exc:
            raise ContinuationError(
                f"stage {len(stages)} (trunc_lo={lo}, trunc_hi={hi}) failed: {exc}", stages
            ) from exc
        v_now, l2_part, semi_part = w12_norm_v(stage_spec, u)
        if prev_v is None:
            cauchy = math.nan
        else:
            cauchy = math.sqrt(integral(f.mesh, radial.sq_norm(v_now - prev_v)))
        prev_v = v_now
        stages.append(StageResult(lo, hi, u, l2_part, semi_part, cauchy, trace))
    return stages
