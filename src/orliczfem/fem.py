"""Vector P2 Lagrange elements on triangles: strains, modulars, assembly.

The element is degree-2 on purpose: the strain of a P2 field is piecewise
linear, so its cellwise derivative (and with it the W^{1,2} seminorm of the
transformed strain) is a nontrivial, measurable quantity.

Quadrature is the 6-point degree-4 triangle rule, which integrates the
products of P2 data appearing in the residual and load exactly for quadratic
stress laws and keeps the quadrature error below the discretisation error for
the nonlinear ones.

Strains are carried in Mandel form (off-diagonals scaled by sqrt(2)) so that
euclidean dot products of the packed vectors equal Frobenius contractions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from . import radial
from .meshing import Mesh
from .nfunctions import DomainError, NFunction
from .tensors import SymTensor, mandel_to_sym

__all__ = [
    "QuadCache",
    "LocatedLattice",
    "FemField",
    "quad_cache",
    "sym_grad",
    "modular",
    "region_measure",
    "korn_ratio",
    "korn_ratio_meanfree",
    "poincare_ratio",
    "assemble_residual",
    "assemble_jacobian",
    "v_strain_mandel",
    "w12_norm_v",
    "random_zero_boundary_field",
    "locate_points",
    "evaluate_field",
    "evaluate_located",
    "evaluate_field_gradient",
    "write_field_text",
    "read_field_text",
]

_SQRT2 = math.sqrt(2.0)

# 6-point symmetric triangle rule, exact through degree 4 (weights sum to 1).
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
_QP_BARY = np.array(
    [
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
_QW = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

_GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _p2_values(bary: np.ndarray) -> np.ndarray:
    """P2 shape values at barycentric points: 3 vertex + 3 edge functions."""
    l1, l2, l3 = bary[..., 0], bary[..., 1], bary[..., 2]
    return np.stack(
        [
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            l3 * (2 * l3 - 1),
            4 * l1 * l2,
            4 * l2 * l3,
            4 * l3 * l1,
        ],
        axis=-1,
    )


def _p2_ref_grads(bary: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients, shape (..., 6, 2)."""
    g = np.empty(bary.shape[:-1] + (6, 2))
    lam = bary
    for i in range(3):
        g[..., i, :] = (4 * lam[..., i] - 1)[..., None] * _GRAD_LAMBDA[i]
    pairs = [(0, 1), (1, 2), (2, 0)]
    for k, (a, b) in enumerate(pairs):
        g[..., 3 + k, :] = 4 * (
            lam[..., b][..., None] * _GRAD_LAMBDA[a] + lam[..., a][..., None] * _GRAD_LAMBDA[b]
        )
    return g


def _p2_ref_hessians() -> np.ndarray:
    """Constant reference Hessians, shape (6, 2, 2)."""
    h = np.empty((6, 2, 2))
    for i in range(3):
        h[i] = 4 * np.outer(_GRAD_LAMBDA[i], _GRAD_LAMBDA[i])
    pairs = [(0, 1), (1, 2), (2, 0)]
    for k, (a, b) in enumerate(pairs):
        h[3 + k] = 4 * (
            np.outer(_GRAD_LAMBDA[a], _GRAD_LAMBDA[b])
            + np.outer(_GRAD_LAMBDA[b], _GRAD_LAMBDA[a])
        )
    return h


@dataclass
class QuadCache:
    """Per-mesh tables: quadrature, shape data, and strain-displacement maps."""

    mesh: Mesh
    n_scalar: int = dataclass_field(init=False)
    cell_dofs: np.ndarray = dataclass_field(init=False)  # (nc, 6) scalar dof ids
    dof_coords: np.ndarray = dataclass_field(init=False)  # (n_scalar, 2)
    boundary_scalar: np.ndarray = dataclass_field(init=False)  # (n_scalar,) bool
    weights: np.ndarray = dataclass_field(init=False)  # (nc, 6)
    qpoints: np.ndarray = dataclass_field(init=False)  # (nc, 6, 2)
    shape_values: np.ndarray = dataclass_field(init=False)  # (6, 6)
    grads: np.ndarray = dataclass_field(init=False)  # (nc, 6q, 2d, 6b) d_d of shape b
    strain_B: np.ndarray = dataclass_field(init=False)  # (nc, 6, 3, 12)
    strain_D: np.ndarray = dataclass_field(init=False)  # (nc, 2, 3, 12)
    cell_origin: np.ndarray = dataclass_field(init=False)  # (nc, 2) first vertex
    cell_inv: np.ndarray = dataclass_field(init=False)  # (nc, 2, 2) inverse affine Jacobian
    _lattices: dict = dataclass_field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        mesh = self.mesh
        nv = mesh.n_nodes
        self.n_scalar = nv + mesh.n_edges
        self.cell_dofs = np.hstack([mesh.cells, nv + mesh.cell_edges])
        midpoints = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
        self.dof_coords = np.vstack([mesh.nodes, midpoints])
        self.boundary_scalar = np.concatenate(
            [mesh.boundary_nodes, mesh.boundary_edges]
        )

        p = mesh.nodes[mesh.cells]  # (nc, 3, 2)
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (nc, 2, 2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / det
        inv[:, 0, 1] = -jac[:, 0, 1] / det
        inv[:, 1, 0] = -jac[:, 1, 0] / det
        inv[:, 1, 1] = jac[:, 0, 0] / det
        self.cell_origin = p[:, 0]
        self.cell_inv = inv

        self.weights = np.abs(det)[:, None] * (0.5 * _QW)[None, :]
        ref_xy = _QP_BARY[:, 1:]  # (6, 2) reference coordinates (xi, eta)
        self.qpoints = p[:, None, 0, :] + np.einsum("cde,qe->cqd", jac, ref_xy)

        self.shape_values = _p2_values(_QP_BARY)
        ref_grads = _p2_ref_grads(_QP_BARY)  # (6q, 6b, 2)
        # physical gradient: J^{-T} grad_ref  ->  g_d = inv[e, d] * ref_e
        self.grads = np.einsum("ced,qbe->cqdb", inv, ref_grads)

        nc = mesh.n_cells
        B = np.zeros((nc, 6, 3, 12))
        g = self.grads
        for b in range(6):
            # component 0: eps = sym(e_0 grad^T)
            B[:, :, 0, 2 * b] = g[:, :, 0, b]
            B[:, :, 2, 2 * b] = g[:, :, 1, b] / _SQRT2
            # component 1
            B[:, :, 1, 2 * b + 1] = g[:, :, 1, b]
            B[:, :, 2, 2 * b + 1] = g[:, :, 0, b] / _SQRT2
        self.strain_B = B

        ref_hess = _p2_ref_hessians()  # (6b, 2, 2)
        # physical Hessian: J^{-T} H_ref J^{-1}
        hess = np.einsum("ced,bef,cfg->cbdg", inv, ref_hess, inv)  # (nc, 6b, 2, 2)
        D = np.zeros((nc, 2, 3, 12))
        for b in range(6):
            for i in range(2):
                hb = hess[:, b, :, i]  # column i: d_i grad(N_b), shape (nc, 2)
                D[:, i, 0, 2 * b] = hb[:, 0]
                D[:, i, 2, 2 * b] = hb[:, 1] / _SQRT2
                D[:, i, 1, 2 * b + 1] = hb[:, 1]
                D[:, i, 2, 2 * b + 1] = hb[:, 0] / _SQRT2
        self.strain_D = D

    @property
    def n_vector(self) -> int:
        return 2 * self.n_scalar

    def vector_dofs(self) -> np.ndarray:
        """(nc, 12) interleaved vector dof ids matching the strain tables."""
        scalar = self.cell_dofs
        out = np.empty((scalar.shape[0], 12), dtype=np.int64)
        out[:, 0::2] = 2 * scalar
        out[:, 1::2] = 2 * scalar + 1
        return out

    def boundary_vector(self) -> np.ndarray:
        out = np.zeros(self.n_vector, dtype=bool)
        out[0::2] = self.boundary_scalar
        out[1::2] = self.boundary_scalar
        return out

    def lattice(self, n: int) -> "LocatedLattice":
        """The n x n lattice over the mesh bounding box, located once per mesh.

        The box is the nodes' bounding box padded by 1e-9 of its extent.
        """
        located = self._lattices.get(n)
        if located is None:
            nodes = self.mesh.nodes
            lo, hi = nodes.min(axis=0), nodes.max(axis=0)
            pad = 1e-9 * max(hi - lo)
            xs = np.linspace(lo[0] - pad, hi[0] + pad, n)
            ys = np.linspace(lo[1] - pad, hi[1] + pad, n)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            cells, bary = locate_points(self.mesh, np.column_stack([X.ravel(), Y.ravel()]))
            located = LocatedLattice((xs[0], ys[0]), xs[1] - xs[0], cells, bary)
            self._lattices[n] = located
        return located


@dataclass(frozen=True)
class LocatedLattice:
    """A square lattice (row-major in x) with the mesh cell of each point."""

    origin: tuple  # (x0, y0) of the lower-left lattice point
    spacing: float
    cells: np.ndarray  # (n*n,) cell ids, -1 outside the mesh
    bary: np.ndarray  # (n*n, 3) barycentric coordinates in those cells


def quad_cache(mesh: Mesh) -> QuadCache:
    """The (memoised) quadrature cache of a mesh."""
    cache = getattr(mesh, "_quad_cache", None)
    if cache is None:
        cache = QuadCache(mesh)
        mesh._quad_cache = cache
    return cache


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class FemField:
    """Vector-valued P2 field: one (x, y) coefficient per node and edge midpoint.

    Coefficients of shape (F, n_scalar, 2) hold a stack of F fields on one
    mesh, all with the same ``zero_boundary`` flag.  The kernels,
    :func:`modular` and the three ratios evaluate a stack in one call and
    return a leading F axis; assembly, the transform norm, point evaluation
    and the text format take single fields only.
    """

    def __init__(self, mesh: Mesh, coeffs: np.ndarray, zero_boundary: bool = False):
        cache = quad_cache(mesh)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim not in (2, 3) or coeffs.shape[-2:] != (cache.n_scalar, 2):
            raise DomainError(
                f"field needs coefficient shape ([F,] {cache.n_scalar}, 2), got {coeffs.shape}"
            )
        if zero_boundary and np.any(coeffs[..., cache.boundary_scalar, :] != 0.0):
            raise DomainError("zero_boundary field has nonzero boundary coefficients")
        self.mesh = mesh
        self.coeffs = coeffs
        self.zero_boundary = zero_boundary

    @property
    def count(self) -> int | None:
        """The number F of stacked fields, or None for a single field."""
        return len(self.coeffs) if self.coeffs.ndim == 3 else None

    @classmethod
    def zeros(cls, mesh: Mesh, zero_boundary: bool = True) -> "FemField":
        return cls(mesh, np.zeros((quad_cache(mesh).n_scalar, 2)), zero_boundary)

    @classmethod
    def from_callable(cls, mesh: Mesh, func, zero_boundary: bool = False) -> "FemField":
        """Interpolate ``func(x, y) -> (2,)`` (vectorised over points) at the dofs."""
        cache = quad_cache(mesh)
        vals = np.asarray(func(cache.dof_coords[:, 0], cache.dof_coords[:, 1]), dtype=float)
        if vals.shape == (2, cache.n_scalar):
            vals = vals.T
        if zero_boundary:
            vals = vals.copy()
            vals[cache.boundary_scalar] = 0.0
        return cls(mesh, vals, zero_boundary)

    def with_zero_boundary(self) -> "FemField":
        cache = quad_cache(self.mesh)
        coeffs = self.coeffs.copy()
        coeffs[..., cache.boundary_scalar, :] = 0.0
        return FemField(self.mesh, coeffs, zero_boundary=True)

    def copy(self) -> "FemField":
        return FemField(self.mesh, self.coeffs.copy(), self.zero_boundary)


def random_zero_boundary_field(
    mesh: Mesh, rng: np.random.Generator, count: int | None = None
) -> FemField:
    """Coefficients i.i.d. uniform on [-1, 1], then boundary-zeroed.

    ``count`` draws a stack of that many fields from the same stream as
    ``count`` successive single draws.
    """
    cache = quad_cache(mesh)
    size = (cache.n_scalar, 2) if count is None else (count, cache.n_scalar, 2)
    coeffs = rng.uniform(-1.0, 1.0, size=size)
    coeffs[..., cache.boundary_scalar, :] = 0.0
    return FemField(mesh, coeffs, zero_boundary=True)


def _single(field: FemField, name: str) -> None:
    if field.count is not None:
        raise DomainError(f"{name} takes a single field, got a stack of {field.count}")


def _local_block(field: FemField) -> np.ndarray:
    """(nc, 6b, 2e, F) local coefficients of the F fields (F = 1 for a single field).

    Reshaped to (nc, 12, F), a column interleaves the components as the strain
    tables do: row 2 b + e.
    """
    cache = quad_cache(field.mesh)
    stack = field.coeffs.reshape(-1, cache.n_scalar, 2)
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1)).take(cache.cell_dofs, axis=0)


def _fields_first(field: FemField, values: np.ndarray) -> np.ndarray:
    """A kernel's (nc, ..., F) values as (F, nc, ...), or (nc, ...) for a single field."""
    values = np.moveaxis(values, -1, 0)
    return values[0] if field.count is None else values


def strain_mandel(field: FemField) -> np.ndarray:
    """([F,] nc, 6q, 3) Mandel strains at the quadrature points."""
    cache = quad_cache(field.mesh)
    block = _local_block(field)
    nc = block.shape[0]
    E = cache.strain_B.reshape(nc, 18, 12) @ block.reshape(nc, 12, -1)
    return _fields_first(field, E.reshape(nc, 6, 3, -1))


def strain_grad_mandel(field: FemField) -> np.ndarray:
    """([F,] nc, 2, 3) cellwise-constant Mandel form of (d_1 eps u, d_2 eps u)."""
    cache = quad_cache(field.mesh)
    block = _local_block(field)
    nc = block.shape[0]
    dE = cache.strain_D.reshape(nc, 6, 12) @ block.reshape(nc, 12, -1)
    return _fields_first(field, dE.reshape(nc, 2, 3, -1))


def values_at_qp(field: FemField) -> np.ndarray:
    """([F,] nc, 6q, 2) field values at the quadrature points."""
    cache = quad_cache(field.mesh)
    block = _local_block(field)
    nc = block.shape[0]
    U = cache.shape_values @ block.reshape(nc, 6, -1)
    return _fields_first(field, U.reshape(nc, 6, 2, -1))


def gradient_at_qp(field: FemField) -> np.ndarray:
    """([F,] nc, 6q, 2, 2) Jacobians du_e/dx_d at the quadrature points."""
    cache = quad_cache(field.mesh)
    block = _local_block(field)
    nc = block.shape[0]
    G = cache.grads.reshape(nc, 12, 6) @ block.reshape(nc, 6, -1)  # rows (q, d), columns (e, F)
    return _fields_first(field, G.reshape(nc, 6, 2, 2, -1).swapaxes(2, 3))


def sym_grad(field: FemField, cell: int, quad_pt: int) -> SymTensor:
    """Symmetric gradient at one quadrature point of one cell."""
    _single(field, "sym_grad")
    cache = quad_cache(field.mesh)
    if not (0 <= cell < field.mesh.n_cells and 0 <= quad_pt < 6):
        raise DomainError(f"invalid cell/quadrature indices ({cell}, {quad_pt})")
    m = cache.strain_B[cell, quad_pt] @ _local_block(field)[cell].reshape(12)
    return SymTensor.from_matrix(mandel_to_sym(m))


# ---------------------------------------------------------------------------
# modular integrals and inequality ratios
# ---------------------------------------------------------------------------

_MODULAR_KINDS = ("sym_grad", "grad", "value")


def _vector_norm(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", X, X))


def _matrix_norm(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ed,...ed->...", X, X))


def _magnitudes(field: FemField, kind: str) -> np.ndarray:
    if kind == "sym_grad":
        return _vector_norm(strain_mandel(field))
    if kind == "grad":
        return _matrix_norm(gradient_at_qp(field))
    if kind == "value":
        return _vector_norm(values_at_qp(field))
    raise DomainError(f"modular kind must be one of {_MODULAR_KINDS}, got {kind!r}")


def _region_mask(cache: QuadCache, region) -> np.ndarray:
    if region is None:
        return np.ones(cache.weights.shape, dtype=bool)
    return np.asarray(region(cache.qpoints[..., 0], cache.qpoints[..., 1]), dtype=bool)


def _integral(w: np.ndarray, values: np.ndarray):
    """Quadrature sum over the mesh: a float for one field, an (F,) array for a stack."""
    total = np.sum(w * values, axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


def _check_nonzero(field: FemField, den, message: str) -> None:
    """Raise ``message``, naming the first stack entry, if a denominator is zero."""
    zero = np.flatnonzero(np.atleast_1d(den) == 0.0)
    if zero.size:
        where = "" if field.count is None else f" (stack entry {zero[0]})"
        raise DomainError(message + where)


def modular(spec: NFunction, field: FemField, kind: str, scale: float = 1.0, region=None):
    """Quadrature of phi(scale * |X|) with X in {eps u, grad u, u} over the mesh.

    ``region(x, y) -> bool`` restricts the integral to the quadrature points it
    selects (used for ball-restricted means).  A stack of F fields gives an
    (F,) array.
    """
    cache = quad_cache(field.mesh)
    mags = _magnitudes(field, kind)
    w = cache.weights * _region_mask(cache, region)
    return _integral(w, spec.phi(scale * mags))


def region_measure(mesh: Mesh, region=None) -> float:
    """Quadrature measure of a region (consistent with :func:`modular`)."""
    cache = quad_cache(mesh)
    return float(np.sum(cache.weights * _region_mask(cache, region)))


def korn_ratio(spec: NFunction, field: FemField, require_zero_boundary: bool = True):
    """modular(grad) / modular(sym_grad) for a zero-boundary field, (F,) for a stack.

    ``require_zero_boundary=False`` skips the flag check for diagnostics on
    fields with symmetric Jacobians that are not zero on the boundary.
    """
    if require_zero_boundary and not field.zero_boundary:
        raise DomainError("korn_ratio requires a zero-boundary field")
    den = modular(spec, field, "sym_grad")
    _check_nonzero(field, den, "korn_ratio undefined: the field is (numerically) rigid")
    return modular(spec, field, "grad") / den


def korn_ratio_meanfree(spec: NFunction, field: FemField):
    """Mean-free variant: modulars of grad u - <grad u> and eps u - <eps u>."""
    cache = quad_cache(field.mesh)
    w = cache.weights
    vol = float(w.sum())
    G = gradient_at_qp(field)
    mean_g = np.einsum("cq,...cqed->...ed", w, G) / vol
    E = strain_mandel(field)
    mean_e = np.einsum("cq,...cqi->...i", w, E) / vol
    num_mag = _matrix_norm(G - mean_g[..., None, None, :, :])
    den_mag = _vector_norm(E - mean_e[..., None, None, :])
    den = _integral(w, spec.phi(den_mag))
    _check_nonzero(field, den, "mean-free korn ratio undefined for rigid fields")
    return _integral(w, spec.phi(num_mag)) / den


def poincare_ratio(spec: NFunction, field: FemField, r: float = 1.0):
    """modular(value) / modular(grad scaled by r) for zero-boundary fields."""
    if not field.zero_boundary:
        raise DomainError("poincare_ratio requires a zero-boundary field")
    den = modular(spec, field, "grad", scale=r)
    _check_nonzero(field, den, "poincare_ratio undefined for the zero field")
    return modular(spec, field, "value") / den


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble_residual(spec: NFunction, field: FemField, f: FemField) -> np.ndarray:
    """R_i = int a_map(eps u) : eps psi_i - int f . psi_i, over all vector dofs."""
    _single(field, "assemble_residual")
    _single(f, "assemble_residual")
    cache = quad_cache(field.mesh)
    if f.mesh is not field.mesh:
        raise DomainError("field and forcing live on different meshes")
    E = strain_mandel(field)
    t = np.sqrt(np.sum(E * E, axis=-1))
    A = radial.ratio(spec, t)[..., None] * E
    r_loc = np.einsum("cq,cqi,cqik->ck", cache.weights, A, cache.strain_B)

    F = values_at_qp(f)
    load = np.einsum("cq,cqe,qb->cbe", cache.weights, F, cache.shape_values)
    r_loc -= load.reshape(load.shape[0], 12)

    out = np.zeros(cache.n_vector)
    np.add.at(out, cache.vector_dofs(), r_loc)
    return out


def assemble_jacobian(spec: NFunction, field: FemField) -> sparse.csr_matrix:
    """J_ij = int da_map(eps u)[eps psi_j] : eps psi_i, sparse symmetric."""
    _single(field, "assemble_jacobian")
    cache = quad_cache(field.mesh)
    E = strain_mandel(field)
    t = np.sqrt(np.sum(E * E, axis=-1))
    a1, a2 = radial.coefficients(spec, t)
    # M[j] is the derivative of the stress in the direction of Mandel basis vector j
    M = radial.derivative(a1[..., None], a2[..., None], radial.unit(E, t)[..., None, :], np.eye(3))
    nc = E.shape[0]
    B = cache.strain_B.reshape(nc, 18, 12)  # quadrature points stacked over strain rows
    wMB = ((cache.weights[..., None, None] * M) @ cache.strain_B).reshape(nc, 18, 12)
    j_loc = B.transpose(0, 2, 1) @ wMB
    dofs = cache.vector_dofs()
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    mat = sparse.coo_matrix(
        (j_loc.ravel(), (rows, cols)), shape=(cache.n_vector, cache.n_vector)
    )
    return mat.tocsr()


def v_strain_mandel(spec: NFunction, field: FemField) -> np.ndarray:
    """(nc, q, 3) Mandel form of v_map(eps u) at the quadrature points."""
    E = strain_mandel(field)
    t = np.sqrt(np.sum(E * E, axis=-1))
    return np.sqrt(radial.ratio(spec, t))[..., None] * E


def w12_norm_v(spec: NFunction, field: FemField):
    """(int |v_map(eps u)|^2, int |grad v_map(eps u)|^2) by cellwise chain rule.

    The gradient part evaluates d_i v_map(eps u) = dv_map(eps u)[d_i eps u]
    with the cellwise-constant strain derivative of the P2 field.  At zero
    strain this needs the quadratic-branch limit, so degenerate specs must be
    passed in truncated form (the solver's stage spec).
    """
    _single(field, "w12_norm_v")
    cache = quad_cache(field.mesh)
    E = strain_mandel(field)
    t = np.sqrt(np.sum(E * E, axis=-1))
    b1, b2 = radial.transform_coefficients(spec, t)
    V = b1[..., None] * E  # b1 = sqrt(phi'(t)/t), as in v_strain_mandel
    l2_part = float(np.sum(cache.weights * np.sum(V * V, axis=-1)))

    unit = radial.unit(E, t)[:, :, None, :]  # (nc, q, 1, 3)
    dE = strain_grad_mandel(field)[:, None]  # (nc, 1, 2, 3), cellwise constant
    dV = radial.derivative(b1[..., None], b2[..., None], unit, dE)
    semi_part = float(np.sum(cache.weights * np.sum(dV * dV, axis=(-2, -1))))
    return l2_part, semi_part


# ---------------------------------------------------------------------------
# point location and evaluation
# ---------------------------------------------------------------------------


def locate_points(mesh: Mesh, points: np.ndarray, tol: float = 1e-10):
    """Locate points in cells: returns (cell ids with -1 for outside, barycentric).

    A point within ``tol`` (in barycentric coordinates) of a cell lies within
    that cell's largest centroid-to-vertex distance, grown by 4 tol, of its
    centroid.  A KD-tree over the centroids returns every cell that can
    therefore contain the point; the exact in-cell test runs on those alone,
    and a point none of them contains is outside the mesh.  Of several
    containing cells (a point on an edge) the one with the nearest centroid
    is returned.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cache = quad_cache(mesh)
    corners = mesh.nodes[mesh.cells]
    centroids = corners.mean(axis=1)
    reach = np.sqrt(np.max(np.sum((corners - centroids[:, None]) ** 2, axis=-1), axis=1))
    reach *= 1.0 + 4.0 * tol

    near = cKDTree(centroids).query_ball_point(pts, float(reach.max()))
    counts = np.fromiter(map(len, near), dtype=np.int64, count=len(pts))
    point = np.repeat(np.arange(len(pts)), counts)
    cand = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64, count=counts.sum())
    dist = np.sqrt(np.sum((pts[point] - centroids[cand]) ** 2, axis=1))
    keep = dist <= reach[cand]
    point, cand, dist = point[keep], cand[keep], dist[keep]

    local = (cache.cell_inv[cand] @ (pts[point] - cache.cell_origin[cand])[:, :, None])[..., 0]
    lam = np.column_stack([1.0 - local.sum(axis=1), local])
    ok = np.all(lam >= -tol, axis=1)
    point, cand, dist, lam = point[ok], cand[ok], dist[ok], lam[ok]
    order = np.lexsort((dist, point))  # by point, then nearest centroid first
    first = order[np.unique(point[order], return_index=True)[1]]

    cells = np.full(len(pts), -1, dtype=np.int64)
    bary = np.zeros((len(pts), 3))
    cells[point[first]] = cand[first]
    bary[point[first]] = lam[first]
    return cells, bary


def evaluate_field(field: FemField, points: np.ndarray) -> np.ndarray:
    """Field values at arbitrary points; zero outside the mesh (zero extension)."""
    return evaluate_located(field, *locate_points(field.mesh, points))


def evaluate_located(field: FemField, cells: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Field values at located points (see :func:`locate_points`); zero at cell -1."""
    _single(field, "evaluate_located")
    cache = quad_cache(field.mesh)
    out = np.zeros((len(bary), 2))
    inside = cells >= 0
    if np.any(inside):
        shp = _p2_values(bary[inside])  # (n, 6)
        loc = field.coeffs[cache.cell_dofs[cells[inside]]]  # (n, 6, 2)
        out[inside] = np.einsum("nb,nbe->ne", shp, loc)
    return out


def evaluate_field_gradient(field: FemField, points: np.ndarray) -> np.ndarray:
    """Field Jacobians du_e/dx_d at arbitrary points; zero outside the mesh."""
    _single(field, "evaluate_field_gradient")
    cells, bary = locate_points(field.mesh, points)
    cache = quad_cache(field.mesh)
    out = np.zeros((len(bary), 2, 2))
    inside = cells >= 0
    if np.any(inside):
        ref = _p2_ref_grads(bary[inside])  # (n, 6, 2)
        phys = np.einsum("ned,nbe->nbd", cache.cell_inv[cells[inside]], ref)
        loc = field.coeffs[cache.cell_dofs[cells[inside]]]
        out[inside] = np.einsum("nbd,nbe->ned", phys, loc)
    return out


# ---------------------------------------------------------------------------
# coefficient text format
# ---------------------------------------------------------------------------


def write_field_text(field: FemField, path) -> None:
    """Header "n_coeffs 2 zero_boundary", then one "cx cy" line per scalar dof."""
    _single(field, "write_field_text")
    with open(path, "w") as fh:
        fh.write(f"{len(field.coeffs)} 2 {int(field.zero_boundary)}\n")
        for cx, cy in field.coeffs:
            fh.write(f"{cx:.17g} {cy:.17g}\n")


def read_field_text(mesh: Mesh, path) -> FemField:
    with open(path) as fh:
        tokens = fh.read().split()
    n, dim, flag = int(tokens[0]), int(tokens[1]), int(tokens[2])
    if dim != 2:
        raise DomainError("field files must have 2 components")
    coeffs = np.array(tokens[3 : 3 + 2 * n], dtype=float).reshape(n, 2)
    return FemField(mesh, coeffs, zero_boundary=bool(flag))
