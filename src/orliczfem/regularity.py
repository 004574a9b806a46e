"""Experiments measuring the a-priori estimates on solved fields.

* :func:`regularity_ratio`: the W^{1,2} data of the transformed strain of the
  truncation-continuation limit against the conjugate modulars of the forcing
  and its gradient (the global regularity bound).
* :func:`caccioppoli_ratio`: interior-ball means of phi(|eps u|) against the
  zeroth-order means over the doubled ball (rigid motions removed by weighted
  least squares) plus the conjugate modular of the scaled forcing.
* :func:`interpolation_step_check`: the discrete Hoelder step bounding
  int |grad eps u|^r through the transform seminorm and a high power of the
  strain; exact at the quadrature level, so the returned gap ratio is >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .fem import (
    FemField,
    integral,
    modular,
    quad_cache,
    region_measure,
    same_mesh,
    strain_and_norm,
    strain_grad_mandel,
    values_at_qp,
)
from .meshing import Mesh
from .nfunctions import DomainError, NFunction, PowerLaw
from .solver import SolveConfig, StageResult, delta_continuation
from .truncation import f_truncation_for_solver

__all__ = [
    "RegularityReport",
    "default_disk_forcing",
    "conjugate_forcing_modulars",
    "regularity_ratio",
    "caccioppoli_balls",
    "caccioppoli_ratio",
    "rigid_projection",
    "interpolation_step_check",
]


@dataclass
class RegularityReport:
    """The measured sides of the global regularity estimate and their ratio."""

    lhs: float
    rhs: float
    ratio: float

    def __post_init__(self):
        for value in (self.lhs, self.rhs, self.ratio):
            if not math.isfinite(value):
                raise DomainError(f"non-finite regularity report entry {value}")


def default_disk_forcing(mesh: Mesh, amplitude: float = 1.0) -> FemField:
    """Smooth zero-trace forcing (b y, b x) with b = a (1 - x^2 - y^2)^2.

    The swirl makes the solved strain pass through zero in the interior, so
    the truncation continuation is exercised nontrivially.
    """

    def func(x, y):
        b = amplitude * (1.0 - x * x - y * y) ** 2
        return np.stack([b * y, b * x])

    return FemField.from_callable(mesh, func, zero_boundary=True)


def conjugate_forcing_modulars(spec: NFunction, f: FemField):
    """(int phi*(|f|), int phi*(|grad f|)) with the untruncated conjugate."""
    conj = spec.conjugate_spec()
    return modular(conj, f, "value"), modular(conj, f, "grad")


def regularity_ratio(
    spec: NFunction,
    f: FemField,
    cfg: SolveConfig | None = None,
    lattice_n: int = 64,
    coarse=None,
):
    """Run the truncation continuation on f's mesh and measure the global regularity ratio.

    Returns ``(report, stages)``.  The left side is the final-stage W^{1,2}
    data of the transformed strain; the right side is
    int phi*(|f|) + phi*(|grad f|).  Each stage solves against the forcing
    Lipschitz-truncated at level phi'(trunc_hi) of that stage.  ``coarse``,
    a coarser mesh's stage fields interpolated onto f's mesh, goes to
    :func:`~orliczfem.solver.delta_continuation` as its nested-iteration
    predictor.
    """
    if not f.zero_boundary:
        raise DomainError("regularity experiments need a zero-trace forcing")
    stages = delta_continuation(
        spec,
        f,
        cfg,
        stage_forcing=lambda lo, hi: f_truncation_for_solver(f, hi, spec, lattice_n),
        coarse=coarse,
    )
    m_f, m_g = conjugate_forcing_modulars(spec, f)
    rhs = m_f + m_g
    lhs = stages[-1].w12_total
    return RegularityReport(lhs, rhs, lhs / rhs if rhs > 0.0 else 0.0), stages


# ---------------------------------------------------------------------------
# Caccioppoli
# ---------------------------------------------------------------------------


def rigid_projection(field: FemField, region: np.ndarray) -> np.ndarray:
    """Weighted L2 projection of the field onto rigid motions (a - c y, b + c x).

    Returns the coefficients (a, b, c); the projection is taken over the
    quadrature points selected by the boolean (nc, 6q) mask ``region``, taken
    as a 0/1 factor of each integrand (an exact product).
    """
    x, y = np.moveaxis(quad_cache(field.mesh).qpoints, -1, 0)
    mask = np.asarray(region, dtype=float)
    u = values_at_qp(field)
    # basis: (1,0), (0,1), (-y, x)
    g = np.zeros((3, 3))
    rhs = np.zeros(3)
    b3x, b3y = -y, x
    g[0, 0] = g[1, 1] = integral(field.mesh, mask)
    g[0, 2] = g[2, 0] = integral(field.mesh, mask * b3x)
    g[1, 2] = g[2, 1] = integral(field.mesh, mask * b3y)
    g[2, 2] = integral(field.mesh, mask * (b3x * b3x + b3y * b3y))
    rhs[0] = integral(field.mesh, mask * u[..., 0])
    rhs[1] = integral(field.mesh, mask * u[..., 1])
    rhs[2] = integral(field.mesh, mask * (u[..., 0] * b3x + u[..., 1] * b3y))
    return np.linalg.solve(g, rhs)


def caccioppoli_balls(mesh: Mesh, center, radius: float):
    """((mask, measure) of B, (mask, measure) of 2B), masks of quadrature points, for
    B = B(center, radius).  A radius that is not positive and finite, a 2B not inside
    the domain, or a ball without a quadrature point is a :class:`DomainError`."""
    if not (0.0 < radius < math.inf):
        raise DomainError(f"caccioppoli radius must be positive and finite, got {radius}")
    center = np.asarray(center, dtype=float)
    if float(mesh.boundary_distance(center[None, :])[0]) <= 2.0 * radius:
        raise DomainError("caccioppoli ball must satisfy 2B inside the domain")
    x, y = np.moveaxis(quad_cache(mesh).qpoints, -1, 0)
    dist2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    inner, outer = dist2 <= radius * radius, dist2 <= (2.0 * radius) * (2.0 * radius)
    lhs_meas = region_measure(mesh, inner)
    rhs_meas = region_measure(mesh, outer)
    if lhs_meas == 0.0 or rhs_meas == 0.0:
        raise DomainError("caccioppoli ball contains no quadrature points")
    return (inner, lhs_meas), (outer, rhs_meas)


def caccioppoli_ratio(
    spec: NFunction, field: FemField, f: FemField, center, radius: float
) -> float:
    """Interior-ball ratio of the reverse estimate.

    lhs: mean of phi(|eps u|) over B(center, radius).
    rhs: mean of phi(|u - pi| / radius) over 2B at the least-squares rigid
    motion pi, plus the mean of phi*(radius |f|) over 2B.  A forcing on
    another mesh than the field's, or a ball that :func:`caccioppoli_balls`
    rejects, is a :class:`DomainError`.
    """
    same_mesh(field, f, "forcing")
    mesh = field.mesh
    (inner, lhs_meas), (outer, rhs_meas) = caccioppoli_balls(mesh, center, radius)
    lhs = modular(spec, field, "sym_grad", region=inner) / lhs_meas

    a, b, c = rigid_projection(field, outer)
    # the rigid motion is linear, so P2 interpolates it exactly
    rigid = FemField.from_callable(mesh, lambda x, y: np.stack([a - c * y, b + c * x]))
    moved = FemField(mesh, field.coeffs - rigid.coeffs)
    mean_val = modular(spec, moved, "value", scale=1.0 / radius, region=outer) / rhs_meas
    mean_force = modular(spec.conjugate_spec(), f, "value", scale=radius, region=outer) / rhs_meas
    rhs = mean_val + mean_force
    # numerically rigid data: both means are roundoff dust of an exact zero
    if rhs <= 1e-26 and lhs <= 1e-26:
        return 0.0
    if rhs == 0.0:
        raise DomainError("caccioppoli ratio undefined: zero right side, nonzero strain")
    return lhs / rhs


# ---------------------------------------------------------------------------
# Hoelder interpolation step
# ---------------------------------------------------------------------------


def interpolation_step_check(spec: PowerLaw, stage: StageResult) -> float:
    """Discrete gap ratio of the Hoelder step for power laws with p < 2.

    ``stage`` is a continuation stage of ``spec`` with trunc_lo > 0; its field
    is the solution u and its ``w12_semi`` the seminorm int |grad v(eps u)|^2
    of its truncated spec.

    With r = 2q / (q + 2 - p) the finite-sum Hoelder inequality together with
    the pointwise bounds

        phi_delta''(t) >= (p - 1) max(t, trunc_lo)^(p - 2)
        sum_i |dv(eps u)[d_i eps u]|^2 >= phi_delta''(|eps u|) |grad eps u|^2

    gives, exactly at the quadrature level,

        int |grad eps u|^r
            <= (p-1)^(-r/2) (int |grad v(eps u)|^2)^(r/2)
               (int max(|eps u|, trunc_lo)^q)^((2-r)/2).

    Returns bound/lhs (>= 1 up to roundoff; inf when eps u is cellwise
    constant).  In two dimensions every finite power integrates, so q is a
    free protocol constant, fixed at 8.
    """
    if not isinstance(spec, PowerLaw) or not (spec.p < 2.0):
        raise DomainError("interpolation step check applies to power laws with p < 2")
    if stage.trunc_lo <= 0.0:
        raise DomainError("interpolation step check needs a stage with trunc_lo > 0")
    field = stage.field
    p = spec.p
    q = 8.0
    r = 2.0 * q / (q + 2.0 - p)

    grad_eps = radial.norm(strain_grad_mandel(field), 2)  # (nc,), cellwise constant
    if float(grad_eps.max(initial=0.0)) <= 1e-10:  # constant strain up to roundoff
        return math.inf
    lhs = integral(field.mesh, grad_eps[:, None] ** r)

    _, t = strain_and_norm(field)
    power_int = integral(field.mesh, np.maximum(t, stage.trunc_lo) ** q)

    bound = (p - 1.0) ** (-r / 2.0) * stage.w12_semi ** (r / 2.0) * power_int ** ((2.0 - r) / 2.0)
    return bound / lhs
