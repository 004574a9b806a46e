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
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from . import radial
from .meshing import LOCAL_EDGES, Mesh, cell_jacobians
from .nfunctions import DomainError, NFunction

__all__ = [
    "QuadCache",
    "FemField",
    "quad_cache",
    "same_mesh",
    "modular",
    "region_measure",
    "korn_ratio",
    "korn_ratio_meanfree",
    "poincare_ratio",
    "strain_and_norm",
    "local_load",
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
    """P2 shape values at barycentric points: 3 vertex + 3 edge functions (LOCAL_EDGES)."""
    lam = [bary[..., i] for i in range(3)]
    return np.stack(
        [li * (2 * li - 1) for li in lam] + [4 * lam[a] * lam[b] for a, b in LOCAL_EDGES],
        axis=-1,
    )


def _p2_ref_grads(bary: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients, shape (..., 6, 2)."""
    g = np.empty(bary.shape[:-1] + (6, 2))
    lam = bary
    for i in range(3):
        g[..., i, :] = (4 * lam[..., i] - 1)[..., None] * _GRAD_LAMBDA[i]
    for k, (a, b) in enumerate(LOCAL_EDGES):
        g[..., 3 + k, :] = 4 * (
            lam[..., b][..., None] * _GRAD_LAMBDA[a] + lam[..., a][..., None] * _GRAD_LAMBDA[b]
        )
    return g


def _p2_ref_hessians() -> np.ndarray:
    """Constant reference Hessians, shape (6, 2, 2)."""
    h = np.empty((6, 2, 2))
    for i in range(3):
        h[i] = 4 * np.outer(_GRAD_LAMBDA[i], _GRAD_LAMBDA[i])
    for k, (a, b) in enumerate(LOCAL_EDGES):
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
    vector_dofs: np.ndarray = dataclass_field(init=False)  # (nc, 12) interleaved vector dof ids
    _free_pattern: "FreePattern | None" = dataclass_field(init=False, default=None, repr=False)

    def __post_init__(self):
        mesh = self.mesh
        nv = mesh.n_nodes
        self.n_scalar = nv + mesh.n_edges
        self.cell_dofs = np.hstack([mesh.cells, nv + mesh.cell_edges])
        # vector dof 2 s + e is component e at scalar dof s, in the strain tables' column order
        self.vector_dofs = np.empty((mesh.n_cells, 12), dtype=np.int64)
        self.vector_dofs[:, 0::2] = 2 * self.cell_dofs
        self.vector_dofs[:, 1::2] = 2 * self.cell_dofs + 1
        midpoints = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
        self.dof_coords = np.vstack([mesh.nodes, midpoints])
        self.boundary_scalar = np.concatenate(
            [mesh.boundary_nodes, mesh.boundary_edges]
        )

        jac, det = cell_jacobians(mesh.nodes, mesh.cells)  # (nc, 2, 2), (nc,)
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / det
        inv[:, 0, 1] = -jac[:, 0, 1] / det
        inv[:, 1, 0] = -jac[:, 1, 0] / det
        inv[:, 1, 1] = jac[:, 0, 0] / det
        self.cell_origin = mesh.nodes[mesh.cells[:, 0]]
        self.cell_inv = inv

        self.weights = np.abs(det)[:, None] * (0.5 * _QW)[None, :]
        ref_xy = _QP_BARY[:, 1:]  # (6, 2) reference coordinates (xi, eta)
        self.qpoints = self.cell_origin[:, None, :] + np.einsum("cde,qe->cqd", jac, ref_xy)

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

    def boundary_vector(self) -> np.ndarray:
        out = np.zeros(self.n_vector, dtype=bool)
        out[0::2] = self.boundary_scalar
        out[1::2] = self.boundary_scalar
        return out

    def free_pattern(self) -> "FreePattern":
        """The free-dof Jacobian's structure and ordering, built once per mesh.

        The memo is built on first use; concurrent first uses build the same
        deterministic pattern, and either copy serves.
        """
        if self._free_pattern is None:
            self._free_pattern = _free_pattern(self)
        return self._free_pattern


@dataclass(frozen=True)
class FreePattern:
    """CSC structure of the free-dof Jacobian in a fill-reducing order fixed per mesh.

    Row and column k belong to vector dof ``free_dofs[k]``: the free
    (non-boundary) vector dofs in the minimum-degree order of A^T + A, which
    depends on the structure alone.  ``slots`` sends each entry of the
    flattened (nc, 12, 12) local matrices to its position in the CSC data;
    couplings to boundary dofs go to the spare position ``nnz``, which
    assembly drops.
    """

    free_dofs: np.ndarray  # (n_free,) vector dof ids
    indices: np.ndarray  # (nnz,) row indices, ascending within each column
    indptr: np.ndarray  # (n_free + 1,)
    slots: np.ndarray  # (nc * 144,) positions in data, nnz for a dropped entry


def _free_csc(cache: QuadCache, free_dofs: np.ndarray):
    """CSC (indices, indptr) of the couplings among ``free_dofs``, row and column k
    belonging to ``free_dofs[k]``, and the slots of the local entries (see FreePattern)."""
    n = len(free_dofs)
    position = np.full(cache.n_vector, -1)
    position[free_dofs] = np.arange(n)
    local = position[cache.vector_dofs]
    rows, cols = np.broadcast_arrays(local[:, :, None], local[:, None, :])
    keep = ((rows >= 0) & (cols >= 0)).ravel()
    keys, kept_slots = np.unique(cols.ravel()[keep] * n + rows.ravel()[keep], return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    slots = np.full(keep.size, len(keys))
    slots[keep] = kept_slots
    return (keys % n).astype(np.int32), indptr, slots


def _minimum_degree_order(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """SuperLU's minimum-degree column order of A^T + A for a symmetric structure.

    The ordering reads the structure only, so SuperLU computes it here on a
    strictly diagonally dominant matrix of that structure: -1 off the
    diagonal and the column count on it, which keeps every pivot diagonal.
    """
    n = len(indptr) - 1
    counts = np.diff(indptr)
    cols = np.repeat(np.arange(n), counts)
    data = np.where(indices == cols, counts[cols].astype(float), -1.0)
    lu = splu(
        sparse.csc_matrix((data, indices, indptr), shape=(n, n)),
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )
    return np.argsort(lu.perm_c)  # SuperLU moves column j to position perm_c[j]


def _free_pattern(cache: QuadCache) -> FreePattern:
    natural = np.flatnonzero(~cache.boundary_vector())
    indices, indptr, _ = _free_csc(cache, natural)
    free_dofs = natural[_minimum_degree_order(indices, indptr)]
    return FreePattern(free_dofs, *_free_csc(cache, free_dofs))


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


def same_mesh(field: FemField, other: FemField, name: str) -> None:
    """Raise :class:`DomainError` unless ``other`` (the ``name``) lives on ``field``'s mesh."""
    if other.mesh is not field.mesh:
        raise DomainError(f"the {name} lives on another mesh than the field it goes with")


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


# ---------------------------------------------------------------------------
# modular integrals and inequality ratios
# ---------------------------------------------------------------------------

_MODULAR_KINDS = ("sym_grad", "grad", "value")


def _vector_norm(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...i,...i->...", X, X))


def _matrix_norm(X: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ed,...ed->...", X, X))


def _magnitudes(field: FemField, kind: str, kernel=None) -> np.ndarray:
    if kind == "sym_grad":
        return _vector_norm(strain_mandel(field) if kernel is None else kernel)
    if kind == "grad":
        return _matrix_norm(gradient_at_qp(field) if kernel is None else kernel)
    if kind == "value":
        return _vector_norm(values_at_qp(field) if kernel is None else kernel)
    raise DomainError(f"modular kind must be one of {_MODULAR_KINDS}, got {kind!r}")


def _region_mask(cache: QuadCache, region) -> np.ndarray:
    if region is None:
        return np.ones(cache.weights.shape, dtype=bool)
    return np.asarray(region(cache.qpoints[..., 0], cache.qpoints[..., 1]), dtype=bool)


def _integral(w: np.ndarray, values: np.ndarray):
    """Quadrature sum over the mesh: a float for one field, an (F,) array for a stack.

    A stack's (F, nc, 6q) values lie field-last in memory, as the kernels leave
    them; one contraction then sums each field in the order, and so to the
    bits, of ``np.sum(w * values, axis=(-2, -1))``, without the product array.
    """
    if values.ndim == 2:
        return float(np.sum(w * values, axis=(-2, -1)))
    return np.einsum("...cq,cq->...", values, w)


def _check_nonzero(field: FemField, den, message: str) -> None:
    """Raise ``message``, naming the first stack entry, if a denominator is zero."""
    zero = np.flatnonzero(np.atleast_1d(den) == 0.0)
    if zero.size:
        where = "" if field.count is None else f" (stack entry {zero[0]})"
        raise DomainError(message + where)


def modular(
    spec: NFunction, field: FemField, kind: str, scale: float = 1.0, region=None, kernel=None
):
    """Quadrature of phi(scale * |X|) with X in {eps u, grad u, u} over the mesh.

    ``region(x, y) -> bool`` restricts the integral to the quadrature points it
    selects (used for ball-restricted means).  A stack of F fields gives an
    (F,) array.  ``kernel``, X at the quadrature points (the field's
    :func:`strain_mandel`, :func:`gradient_at_qp` or :func:`values_at_qp`), is
    evaluated here when not given.
    """
    cache = quad_cache(field.mesh)
    mags = _magnitudes(field, kind, kernel)
    w = cache.weights * _region_mask(cache, region)
    return _integral(w, spec.phi(scale * mags))


def region_measure(mesh: Mesh, region=None) -> float:
    """Quadrature measure of a region (consistent with :func:`modular`)."""
    cache = quad_cache(mesh)
    return float(np.sum(cache.weights * _region_mask(cache, region)))


def korn_ratio(spec: NFunction, field: FemField, strain=None, grad_modular=None):
    """modular(grad) / modular(sym_grad) for a zero-boundary field, (F,) for a stack.

    ``strain``, the field's :func:`strain_mandel`, and the numerator
    ``grad_modular``, ``modular(spec, field, "grad")``, are evaluated here when
    not given; the latter is also :func:`poincare_ratio`'s denominator.
    """
    if not field.zero_boundary:
        raise DomainError("korn_ratio requires a zero-boundary field")
    w = quad_cache(field.mesh).weights
    E = strain_mandel(field) if strain is None else strain
    den = _integral(w, spec.phi(_vector_norm(E)))
    _check_nonzero(field, den, "korn_ratio undefined: the field is (numerically) rigid")
    num = modular(spec, field, "grad") if grad_modular is None else grad_modular
    return num / den


def korn_ratio_meanfree(spec: NFunction, field: FemField, grad=None, strain=None):
    """Mean-free variant: modulars of grad u - <grad u> and eps u - <eps u>.

    ``grad`` and ``strain``, the field's :func:`gradient_at_qp` and
    :func:`strain_mandel`, are evaluated here when not given.
    """
    cache = quad_cache(field.mesh)
    w = cache.weights
    vol = float(w.sum())
    G = gradient_at_qp(field) if grad is None else grad
    mean_g = np.einsum("cq,...cqed->...ed", w, G) / vol
    E = strain_mandel(field) if strain is None else strain
    mean_e = np.einsum("cq,...cqi->...i", w, E) / vol
    num_mag = _matrix_norm(G - mean_g[..., None, None, :, :])
    den_mag = _vector_norm(E - mean_e[..., None, None, :])
    den = _integral(w, spec.phi(den_mag))
    _check_nonzero(field, den, "mean-free korn ratio undefined for rigid fields")
    return _integral(w, spec.phi(num_mag)) / den


def poincare_ratio(spec: NFunction, field: FemField, grad_modular=None):
    """modular(value) / modular(grad) for zero-boundary fields.

    ``grad_modular``, the denominator, is as for :func:`korn_ratio`.
    """
    if not field.zero_boundary:
        raise DomainError("poincare_ratio requires a zero-boundary field")
    den = modular(spec, field, "grad") if grad_modular is None else grad_modular
    _check_nonzero(field, den, "poincare_ratio undefined for the zero field")
    w = quad_cache(field.mesh).weights
    return _integral(w, spec.phi(_vector_norm(values_at_qp(field)))) / den


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def local_load(f: FemField) -> np.ndarray:
    """(nc, 12) load int f . psi over each cell for its 12 local vector basis functions.

    Columns follow the strain tables' order (2 b + e); a solve builds it once
    for its fixed forcing and hands it to :func:`assemble_residual`.
    """
    _single(f, "local_load")
    cache = quad_cache(f.mesh)
    wF = cache.weights[..., None] * values_at_qp(f)  # (nc, 6q, 2e)
    return (cache.shape_values.T @ wF).reshape(len(wF), 12)


def strain_and_norm(field: FemField):
    """(E, |E|): the (nc, 6q, 3) Mandel strain at the quadrature points and its norm."""
    E = strain_mandel(field)
    return E, _vector_norm(E)


def assemble_residual(
    spec: NFunction, field: FemField, f: FemField | np.ndarray, strain=None
) -> np.ndarray:
    """R_i = int a_map(eps u) : eps psi_i - int f . psi_i, over all vector dofs.

    ``f`` is the forcing, or its :func:`local_load`.  ``strain`` is the
    field's (E, |E|) when the caller has already evaluated it (a Newton
    iterate's energy does).
    """
    _single(field, "assemble_residual")
    cache = quad_cache(field.mesh)
    if isinstance(f, FemField):
        same_mesh(field, f, "forcing")
        f = local_load(f)
    elif f.shape != cache.vector_dofs.shape:
        raise DomainError(f"local load needs shape {cache.vector_dofs.shape}, got {f.shape}")
    E, t = strain_and_norm(field) if strain is None else strain
    nc = len(E)
    wA = (cache.weights * radial.ratio(spec, t))[..., None] * E  # weighted stresses
    r_loc = (wA.reshape(nc, 1, 18) @ cache.strain_B.reshape(nc, 18, 12)).reshape(nc, 12) - f
    return np.bincount(cache.vector_dofs.ravel(), weights=r_loc.ravel(), minlength=cache.n_vector)


def assemble_jacobian(spec: NFunction, field: FemField, strain=None) -> sparse.csc_matrix:
    """J_ij = int da_map(eps u)[eps psi_j] : eps psi_i over the free dofs, sparse symmetric.

    At each quadrature point DA = c1 I + (c2 - c1) n n^T (see :mod:`radial`),
    so with the point's strain table B and b = B^T n the local matrix is
    sum_q w (c1 B^T B + (c2 - c1) b b^T): two batched matmuls.  ``strain`` is
    as for :func:`assemble_residual`.

    Row and column k belong to vector dof ``free_dofs[k]`` of the mesh's
    :meth:`QuadCache.free_pattern`, so the matrix comes in its fill-reducing
    order; rows and columns of boundary dofs are not assembled.
    """
    _single(field, "assemble_jacobian")
    cache = quad_cache(field.mesh)
    E, t = strain_and_norm(field) if strain is None else strain
    c1, c2 = radial.coefficients(spec, t)
    nc = len(E)
    w = cache.weights
    B = cache.strain_B  # (nc, 6q, 3, 12)
    b = (radial.unit(E, t)[..., None, :] @ B).reshape(nc, 6, 12)  # (nc, 6q, 12)
    wc1B = ((w * c1)[..., None, None] * B).reshape(nc, 18, 12)
    j_loc = B.reshape(nc, 18, 12).transpose(0, 2, 1) @ wc1B
    j_loc += b.transpose(0, 2, 1) @ ((w * (c2 - c1))[..., None] * b)
    pattern = cache.free_pattern()
    nnz, n = len(pattern.indices), len(pattern.free_dofs)
    data = np.bincount(pattern.slots, weights=j_loc.ravel(), minlength=nnz + 1)
    return sparse.csc_matrix((data[:nnz], pattern.indices, pattern.indptr), shape=(n, n))


def v_strain_mandel(spec: NFunction, field: FemField) -> np.ndarray:
    """(nc, q, 3) Mandel form of v_map(eps u) at the quadrature points."""
    E = strain_mandel(field)
    t = np.sqrt(np.sum(E * E, axis=-1))
    return np.sqrt(radial.ratio(spec, t))[..., None] * E


def w12_norm_v(spec: NFunction, field: FemField):
    """(int |v_map(eps u)|^2, int |grad v_map(eps u)|^2) by cellwise chain rule.

    The gradient part evaluates |d_i v_map(eps u)| = |dv_map(eps u)[d_i eps u]|
    with the cellwise-constant strain derivative of the P2 field, through
    :func:`radial.derivative_sq_norm`.  At zero strain this needs the
    quadratic-branch limit, so degenerate specs must be passed in truncated
    form (the solver's stage spec).
    """
    _single(field, "w12_norm_v")
    cache = quad_cache(field.mesh)
    E, t = strain_and_norm(field)
    b1, b2 = radial.transform_coefficients(spec, t)
    V = b1[..., None] * E  # b1 = sqrt(phi'(t)/t), as in v_strain_mandel
    l2_part = float(np.sum(cache.weights * np.sum(V * V, axis=-1)))

    dE = strain_grad_mandel(field)  # (nc, 2, 3), cellwise constant
    inner = radial.unit(E, t) @ dE.transpose(0, 2, 1)  # (nc, q, 2): n : d_i eps u
    h2 = np.sum(dE * dE, axis=-1)[:, None, :]  # (nc, 1, 2): |d_i eps u|^2
    sq = radial.derivative_sq_norm(b1[..., None], b2[..., None], inner, h2)
    semi_part = float(np.sum(cache.weights * np.sum(sq, axis=-1)))
    return l2_part, semi_part


# ---------------------------------------------------------------------------
# point location and evaluation
# ---------------------------------------------------------------------------


def locate_points(mesh: Mesh, points: np.ndarray):
    """Locate points in cells: returns (cell ids with -1 for outside, barycentric).

    A point within ``tol`` = 1e-10 (in barycentric coordinates) of a cell
    lies within that cell's largest centroid-to-vertex distance, grown by 4
    tol, of its centroid.  A KD-tree over the centroids returns every cell
    that can therefore contain the point; the exact in-cell test runs on
    those alone, and a point none of them contains is outside the mesh.  Of
    several containing cells (a point on an edge) the one with the nearest
    centroid is returned.
    """
    tol = 1e-10
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
    """The field :func:`write_field_text` wrote; a malformed file is a :class:`DomainError`."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:  # too few header tokens, a non-number or a coefficient count off the header's
        n, dim, flag = (int(t) for t in tokens[:3])
        coeffs = np.array(tokens[3:], dtype=float).reshape(n, dim)
    except ValueError:
        raise DomainError("field file is malformed") from None
    if dim != 2:
        raise DomainError("field files must have 2 components")
    return FemField(mesh, coeffs, zero_boundary=bool(flag))
