"""Manufactured solution: the sine bubble u* and its forcing f = -div(a_map(eps u*)).

u* = (a sin(pi x) sin(pi y), 0) vanishes on the boundary of the unit square.
Its displacement, gradient, strain entries and their partial derivatives are
written in closed form; the divergence of the stress sigma = a_map(eps) is then
assembled by the exact chain rule d_j sigma = DA(eps)[d_j eps] (see
:mod:`orliczfem.radial`),

    f_i = - sum_j DA(eps)[d_j eps]_ij,

evaluated with the same (typically truncated) spec the solver uses, so the
discrete solution converges to u* without a modelling gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .fem import FemField, gradient_at_qp, integral, quad_cache, values_at_qp
from .meshing import Mesh, build_mesh
from .nfunctions import DomainError, NFunction
from .solver import SolveConfig, solve

__all__ = [
    "ManufacturedCase",
    "sine_bubble",
    "forcing_field",
    "h1_error",
    "convergence_study",
]

_SQRT2 = math.sqrt(2.0)


def _mandel(e11, e22, e12):
    """(..., 3) Mandel vectors of the symmetric matrices [[e11, e12], [e12, e22]]."""
    return np.stack([e11, e22, _SQRT2 * e12], axis=-1)


def _trig(x, y):
    """sin(pi x), sin(pi y), cos(pi x), cos(pi y)."""
    return np.sin(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * x), np.cos(np.pi * y)


@dataclass(frozen=True)
class ManufacturedCase:
    """The sine bubble u* = (a sin(pi x) sin(pi y), 0) with closed-form strain data.

    Each entry is a product taken left to right: the coefficient, pi, the
    sines, the cosines. ``tests/test_solver.py`` checks them symbolically.
    """

    amplitude: float

    def u(self, x, y):
        """(..., 2) exact displacement."""
        u1 = self.amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([u1, np.zeros_like(u1)], axis=-1)

    def grad_u(self, x, y):
        """(..., 2, 2) exact Jacobian du_e/dx_d."""
        sx, sy, cx, cy = _trig(x, y)
        a = self.amplitude
        du1 = np.stack([a * np.pi * sy * cx, a * np.pi * sx * cy], axis=-1)
        return np.stack([du1, np.zeros_like(du1)], axis=-2)

    def strain(self, x, y):
        """(e11, e22, e12) arrays."""
        sx, sy, cx, cy = _trig(x, y)
        a = self.amplitude
        e11 = a * np.pi * sy * cx
        return [e11, np.zeros_like(e11), (a / 2) * np.pi * sx * cy]

    def strain_derivs(self, x, y):
        """[dx e11, dy e11, dx e22, dy e22, dx e12, dy e12] arrays."""
        sx, sy, cx, cy = _trig(x, y)
        a, pi2 = self.amplitude, np.pi**2
        dx_e11, dy_e11 = -a * pi2 * sx * sy, a * pi2 * cx * cy
        dx_e12, dy_e12 = (a / 2) * pi2 * cx * cy, -(a / 2) * pi2 * sx * sy
        zero = np.zeros_like(dx_e11)
        return [dx_e11, dy_e11, zero, zero, dx_e12, dy_e12]

    def forcing(self, spec: NFunction):
        """f(x, y) -> (..., 2) with f = -div(stress of eps u*) for ``spec``."""

        def f(x, y):
            E = _mandel(*self.strain(x, y))
            dxe11, dye11, dxe22, dye22, dxe12, dye12 = self.strain_derivs(x, y)
            t = radial.norm(E)
            a1, a2 = radial.coefficients(spec, t)
            n = radial.unit(E, t)
            Sx = radial.derivative(a1, a2, n, _mandel(dxe11, dxe22, dxe12))  # d_x sigma
            Sy = radial.derivative(a1, a2, n, _mandel(dye11, dye22, dye12))  # d_y sigma
            f1 = -(Sx[..., 0] + Sy[..., 2] / _SQRT2)
            f2 = -(Sx[..., 2] / _SQRT2 + Sy[..., 1])
            return np.stack([f1, f2], axis=-1)

        return f


def sine_bubble(amplitude: float = 1.0) -> ManufacturedCase:
    """u* = (a sin(pi x) sin(pi y), 0): zero on the unit-square boundary."""
    return ManufacturedCase(amplitude)


def forcing_field(mesh: Mesh, spec: NFunction, case: ManufacturedCase) -> FemField:
    f = case.forcing(spec)
    return FemField.from_callable(mesh, lambda x, y: f(x, y).T)


def h1_error(field: FemField, case: ManufacturedCase) -> float:
    """Full H1 distance between the discrete field and the exact solution."""
    x, y = np.moveaxis(quad_cache(field.mesh).qpoints, -1, 0)
    du = values_at_qp(field) - case.u(x, y)
    dg = gradient_at_qp(field) - case.grad_u(x, y)
    return math.sqrt(integral(field.mesh, radial.sq_norm(du) + radial.sq_norm(dg, 2)))


def convergence_study(
    spec: NFunction,
    case: ManufacturedCase,
    h_values,
    cfg: SolveConfig | None = None,
):
    """Solve at each h on the unit square, on whose boundary u* vanishes;
    returns (errors, rates).  A repeated h, which has no rate, is a
    :class:`DomainError`."""
    if len(set(h_values)) < len(h_values):
        raise DomainError(f"h_values must not repeat a value, got {list(h_values)}")
    errors = []
    for h in h_values:
        mesh = build_mesh("unit_square", h)
        f = forcing_field(mesh, spec, case)
        u, _ = solve(spec, f, cfg)
        errors.append(h1_error(u, case))
    rates = [
        math.log(errors[i] / errors[i + 1]) / math.log(h_values[i] / h_values[i + 1])
        for i in range(len(errors) - 1)
    ]
    return errors, rates
