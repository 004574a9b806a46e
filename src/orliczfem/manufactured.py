"""Manufactured solutions: pick u*, derive f = -div(a_map(eps u*)) symbolically.

The strain entries of u* and their partial derivatives come from sympy; the
divergence of the stress sigma = a_map(eps) is then assembled by the exact
chain rule d_j sigma = DA(eps)[d_j eps] (see :mod:`orliczfem.radial`),

    f_i = - sum_j DA(eps)[d_j eps]_ij,

evaluated with the same (typically truncated) spec the solver uses, so the
discrete solution converges to u* without a modelling gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy

from . import radial
from .fem import FemField, gradient_at_qp, quad_cache, values_at_qp
from .meshing import Mesh, build_mesh
from .nfunctions import NFunction
from .solver import SolveConfig, solve

__all__ = [
    "ManufacturedCase",
    "sine_bubble",
    "forcing_field",
    "exact_field",
    "h1_error",
    "convergence_study",
]

_X, _Y = sympy.symbols("x y", real=True)
_SQRT2 = math.sqrt(2.0)


def _mandel(e11, e22, e12):
    """(..., 3) Mandel vectors of the symmetric matrices [[e11, e12], [e12, e22]]."""
    return np.stack([e11, e22, _SQRT2 * e12], axis=-1)


@dataclass
class ManufacturedCase:
    """Symbolic reference solution with lambdified strain data."""

    name: str
    u_sym: tuple

    def __post_init__(self):
        u1, u2 = self.u_sym
        e11 = sympy.diff(u1, _X)
        e22 = sympy.diff(u2, _Y)
        e12 = (sympy.diff(u1, _Y) + sympy.diff(u2, _X)) / 2
        grads = [sympy.diff(u1, _X), sympy.diff(u1, _Y), sympy.diff(u2, _X), sympy.diff(u2, _Y)]
        strains = [e11, e22, e12]
        d_strains = [sympy.diff(e, v) for e in strains for v in (_X, _Y)]
        lamb = lambda expr: sympy.lambdify((_X, _Y), expr, modules="numpy")
        self._u = [lamb(u1), lamb(u2)]
        self._grad = [lamb(g) for g in grads]
        self._eps = [lamb(e) for e in strains]
        self._deps = [lamb(d) for d in d_strains]  # [dx e11, dy e11, dx e22, ...]

    def _broadcast(self, funcs, x, y):
        return [np.broadcast_to(np.asarray(fn(x, y), dtype=float), np.shape(x)) for fn in funcs]

    def u(self, x, y):
        """(..., 2) exact displacement."""
        return np.stack(self._broadcast(self._u, x, y), axis=-1)

    def grad_u(self, x, y):
        """(..., 2, 2) exact Jacobian du_e/dx_d."""
        g = self._broadcast(self._grad, x, y)
        return np.stack(
            [np.stack([g[0], g[1]], axis=-1), np.stack([g[2], g[3]], axis=-1)], axis=-2
        )

    def strain(self, x, y):
        """(e11, e22, e12) arrays."""
        return self._broadcast(self._eps, x, y)

    def strain_derivs(self, x, y):
        """[dx e11, dy e11, dx e22, dy e22, dx e12, dy e12] arrays."""
        return self._broadcast(self._deps, x, y)

    def forcing(self, spec: NFunction):
        """f(x, y) -> (..., 2) with f = -div(stress of eps u*) for ``spec``."""

        def f(x, y):
            E = _mandel(*self.strain(x, y))
            dxe11, dye11, dxe22, dye22, dxe12, dye12 = self.strain_derivs(x, y)
            t = np.sqrt(np.sum(E * E, axis=-1))
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
    expr = amplitude * sympy.sin(sympy.pi * _X) * sympy.sin(sympy.pi * _Y)
    return ManufacturedCase("sine_bubble", (expr, sympy.Integer(0)))


def exact_field(mesh: Mesh, case: ManufacturedCase) -> FemField:
    return FemField.from_callable(mesh, lambda x, y: case.u(x, y).T)


def forcing_field(mesh: Mesh, spec: NFunction, case: ManufacturedCase) -> FemField:
    f = case.forcing(spec)
    return FemField.from_callable(mesh, lambda x, y: f(x, y).T)


def h1_error(field: FemField, case: ManufacturedCase) -> float:
    """Full H1 distance between the discrete field and the exact solution."""
    cache = quad_cache(field.mesh)
    x, y = cache.qpoints[..., 0], cache.qpoints[..., 1]
    du = values_at_qp(field) - case.u(x, y)
    dg = gradient_at_qp(field) - case.grad_u(x, y)
    sq = np.sum(du * du, axis=-1) + np.sum(dg * dg, axis=(-2, -1))
    return math.sqrt(float(np.sum(cache.weights * sq)))


def convergence_study(
    spec: NFunction,
    case: ManufacturedCase,
    h_values,
    domain: str = "unit_square",
    cfg: SolveConfig | None = None,
):
    """Solve at each h against the manufactured forcing; returns (errors, rates)."""
    errors = []
    for h in h_values:
        mesh = build_mesh(domain, h)
        f = forcing_field(mesh, spec, case)
        u, _ = solve(mesh, spec, f, cfg)
        errors.append(h1_error(u, case))
    rates = [
        math.log(errors[i] / errors[i + 1]) / math.log(h_values[i] / h_values[i + 1])
        for i in range(len(errors) - 1)
    ]
    return errors, rates
