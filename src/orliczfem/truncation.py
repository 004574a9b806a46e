"""Discrete Lipschitz truncation on uniform lattices.

Given a lattice function v (zero on the lattice boundary) and a level lam,
the truncation T_lam v

* agrees with v outside the *bad set* {M(grad v) > c lam}, where M is the
  discrete Hardy-Littlewood maximal operator over dyadic lattice-ball radii
  and c < 1 is a fixed level constant absorbing the discrete chaining factor;
* is lam-Lipschitz by construction: it is the clipped midpoint of the two
  McShane envelopes min/max_y (v(y) +/- lam |x - y|) over the good set G, an
  infimum/supremum of lam-Lipschitz cones.

The agreement property holds whenever v restricted to the good set is itself
pairwise lam-Lipschitz, which the maximal-function level is chosen to ensure;
the Lipschitz bound holds unconditionally.

The envelopes are exact but search only the good points that can attain
them.  Let d0(x) be the distance from x to the nearest good point and
s = max_G v - min_G v.  Then upper(x) <= max_G v + lam d0(x), while any y in
G with |x - y| > R(x) = d0(x) + s / lam has
v(y) + lam |x - y| > min_G v + lam d0(x) + s >= upper(x), so y is never the
minimiser; the same bound holds for the lower envelope.  This needs nothing
of v, so there is no fallback.  d0 is the lattice's Euclidean distance
transform; the lattice is cut into square tiles of ENVELOPE_TILE points a
side, and each tile takes its candidates from one KD-tree ball about its
centre of radius max_tile R + half the tile diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.signal import fftconvolve
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .fem import FemField, evaluate_located, quad_cache
from .nfunctions import DomainError, NFunction

__all__ = [
    "GridFunction",
    "BAD_SET_LEVEL",
    "gradient_magnitude",
    "maximal_function",
    "bad_set",
    "lipschitz_truncate",
    "discrete_lipschitz",
    "grid_modular",
    "truncation_modular_bounds",
    "f_truncation_for_solver",
]

#: Bad-set level constant c: the dyadic bad set is {M(grad v) > c * lam}.
BAD_SET_LEVEL = 0.25

#: Side, in lattice points, of the tiles that share one envelope candidate search.
ENVELOPE_TILE = 8

#: Relative growth of a tile's search radius, covering rounding in the distances.
_SEARCH_SLACK = 1e-9


@dataclass
class GridFunction:
    """Scalar values on a uniform square lattice over a bounding box."""

    values: np.ndarray  # (n, n)
    origin: tuple  # (x0, y0) of the lower-left lattice point
    spacing: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DomainError("grid functions are 2D lattices")
        if not (self.spacing > 0.0) or not math.isfinite(self.spacing):
            raise DomainError(f"lattice spacing must be positive, got {self.spacing}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid function has non-finite values")

    @classmethod
    def sample(cls, func, bbox, n: int) -> "GridFunction":
        """Sample ``func(x, y)`` on an n x n lattice over bbox = (x0, x1, y0, y1)."""
        x0, x1, y0, y1 = bbox
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return cls(np.asarray(func(X, Y), dtype=float), (x0, y0), xs[1] - xs[0])

    def coords(self):
        n0, n1 = self.values.shape
        xs = self.origin[0] + self.spacing * np.arange(n0)
        ys = self.origin[1] + self.spacing * np.arange(n1)
        return np.meshgrid(xs, ys, indexing="ij")

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros_like(self.values, dtype=bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        return mask

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Bilinear interpolation at (m, 2) points (clamped to the lattice)."""
        pts = np.atleast_2d(points)
        fx = np.clip((pts[:, 0] - self.origin[0]) / self.spacing, 0, self.values.shape[0] - 1)
        fy = np.clip((pts[:, 1] - self.origin[1]) / self.spacing, 0, self.values.shape[1] - 1)
        ix = np.minimum(fx.astype(int), self.values.shape[0] - 2)
        iy = np.minimum(fy.astype(int), self.values.shape[1] - 2)
        tx = fx - ix
        ty = fy - iy
        v = self.values
        return (
            v[ix, iy] * (1 - tx) * (1 - ty)
            + v[ix + 1, iy] * tx * (1 - ty)
            + v[ix, iy + 1] * (1 - tx) * ty
            + v[ix + 1, iy + 1] * tx * ty
        )


def gradient_magnitude(gf: GridFunction) -> np.ndarray:
    gx, gy = np.gradient(gf.values, gf.spacing)
    return np.sqrt(gx * gx + gy * gy)


def maximal_function(mag: np.ndarray, spacing: float) -> np.ndarray:
    """Discrete maximal operator: max of lattice-ball averages over dyadic radii.

    Balls are clipped against the lattice with the function extended by zero,
    matching the zero-trace setting; radius 0 (the point value) is included.
    """
    out = np.asarray(mag, dtype=float).copy()
    n = max(mag.shape)
    radius = 1
    while radius < 2 * n:
        ticks = np.arange(-radius, radius + 1)
        ox, oy = np.meshgrid(ticks, ticks, indexing="ij")
        kernel = (ox * ox + oy * oy <= radius * radius).astype(float)
        avg = fftconvolve(mag, kernel, mode="same") / kernel.sum()
        np.maximum(out, np.maximum(avg, 0.0), out=out)
        radius *= 2
    return out


def bad_set(gf: GridFunction, lam: float, joint_magnitude: np.ndarray | None = None):
    """{M(grad v) > BAD_SET_LEVEL * lam}, with the lattice boundary kept good."""
    mag = gradient_magnitude(gf) if joint_magnitude is None else joint_magnitude
    return _bad_from_maximal(gf, maximal_function(mag, gf.spacing), lam)


def _bad_from_maximal(gf: GridFunction, maximal: np.ndarray, lam: float) -> np.ndarray:
    """The bad set of ``bad_set`` from an already computed maximal function.

    M(grad v) does not depend on the level, so a level sweep computes it once
    and thresholds it here per level.
    """
    if not (lam > 0.0):
        raise DomainError(f"truncation level must be positive, got {lam}")
    bad = maximal > BAD_SET_LEVEL * lam
    bad &= ~gf.boundary_mask()  # the zero extension keeps the rim exact
    return bad


def _mcshane_midpoint(gf: GridFunction, good: np.ndarray, lam: float) -> np.ndarray:
    """Clipped midpoint of the McShane envelopes over ``good`` (pruned, see module docstring)."""
    X, Y = gf.coords()
    good_pts = np.column_stack([X[good], Y[good]])
    good_vals = gf.values[good]
    nearest = distance_transform_edt(~good) * gf.spacing
    reach = nearest + (good_vals.max() - good_vals.min()) / lam
    tree = cKDTree(good_pts)

    upper = np.empty(X.shape)
    lower = np.empty(X.shape)
    n0, n1 = X.shape
    for i in range(0, n0, ENVELOPE_TILE):
        for j in range(0, n1, ENVELOPE_TILE):
            tile = np.s_[i : i + ENVELOPE_TILE, j : j + ENVELOPE_TILE]
            tx, ty = X[tile], Y[tile]
            centre = (0.5 * (tx[0, 0] + tx[-1, -1]), 0.5 * (ty[0, 0] + ty[-1, -1]))
            half_diag = 0.5 * math.hypot(tx[-1, -1] - tx[0, 0], ty[-1, -1] - ty[0, 0])
            radius = (half_diag + reach[tile].max()) * (1.0 + _SEARCH_SLACK)
            near = tree.query_ball_point(centre, radius)
            cone = lam * cdist(np.column_stack([tx.ravel(), ty.ravel()]), good_pts[near])
            vals = good_vals[near]
            upper[tile] = np.min(vals + cone, axis=1).reshape(tx.shape)
            lower[tile] = np.max(vals - cone, axis=1).reshape(tx.shape)
    mid = 0.5 * (upper + lower)
    np.clip(mid, gf.values.min(), gf.values.max(), out=mid)
    return mid


def lipschitz_truncate(
    gf: GridFunction, lam: float, joint_magnitude: np.ndarray | None = None
) -> GridFunction:
    """The lam-Lipschitz truncation of ``gf`` (see module docstring).

    ``joint_magnitude`` optionally replaces |grad v| in the bad set, so the
    components of a vector field can share one bad set.
    """
    return _truncate_outside(gf, bad_set(gf, lam, joint_magnitude), lam)


def _truncate_outside(gf: GridFunction, bad: np.ndarray, lam: float) -> GridFunction:
    """``lipschitz_truncate`` given its bad set (a copy of ``gf`` when it is empty)."""
    rim = np.abs(gf.values[gf.boundary_mask()])
    if rim.size and rim.max() > 1e-12 * max(1.0, float(np.abs(gf.values).max())):
        raise DomainError("lipschitz_truncate expects zero values on the lattice boundary")
    if not bad.any():
        return GridFunction(gf.values.copy(), gf.origin, gf.spacing)
    return GridFunction(_mcshane_midpoint(gf, ~bad, lam), gf.origin, gf.spacing)


def discrete_lipschitz(gf: GridFunction) -> float:
    """Largest slope along lattice edges."""
    dx = np.abs(np.diff(gf.values, axis=0)).max(initial=0.0)
    dy = np.abs(np.diff(gf.values, axis=1)).max(initial=0.0)
    return max(dx, dy) / gf.spacing


def grid_modular(spec: NFunction, gf: GridFunction, of: str = "value", mask=None) -> float:
    """Lattice quadrature of phi(|v|) or phi(|grad v|), optionally mask-restricted."""
    if of == "value":
        mag = np.abs(gf.values)
    elif of == "grad":
        mag = gradient_magnitude(gf)
    else:
        raise DomainError(f"grid modular kind must be 'value' or 'grad', got {of!r}")
    vals = spec.phi(mag)
    if mask is not None:
        vals = vals * mask
    return float(vals.sum() * gf.spacing**2)


def truncation_modular_bounds(spec: NFunction, gf: GridFunction, lam: float):
    """(value ratio, gradient ratio, difference-vs-bad ratio, bad fraction).

    * modular of T_lam v over modular of v,
    * modular of grad T_lam v over modular of grad v,
    * modular of grad(v - T_lam v) over the bad-set-restricted modular of
      grad v (0 when the bad set is empty),
    * lattice fraction of the bad set.
    """
    bad = bad_set(gf, lam)
    trunc = _truncate_outside(gf, bad, lam)
    diff = GridFunction(gf.values - trunc.values, gf.origin, gf.spacing)

    num_v = grid_modular(spec, trunc, "value")
    den_v = grid_modular(spec, gf, "value")
    num_g = grid_modular(spec, trunc, "grad")
    den_g = grid_modular(spec, gf, "grad")
    num_d = grid_modular(spec, diff, "grad")
    den_d = grid_modular(spec, gf, "grad", mask=bad)

    ratio_v = num_v / den_v if den_v > 0.0 else 0.0
    ratio_g = num_g / den_g if den_g > 0.0 else 0.0
    ratio_d = num_d / den_d if den_d > 0.0 else 0.0
    return ratio_v, ratio_g, ratio_d, float(bad.mean())


def f_truncation_for_solver(
    f: FemField, trunc_hi: float, spec: NFunction, lattice_n: int = 64
) -> FemField:
    """Lipschitz-truncate a forcing field at level lam = phi'(trunc_hi).

    The field is sampled on a lattice over the mesh bounding box (zero outside
    the mesh), both components are truncated against a shared bad set computed
    from the joint gradient magnitude, and the result is interpolated back to
    the P2 dofs with the boundary re-zeroed.  When the bad set is empty the
    original field is returned unchanged.  The lattice is located in the mesh
    once and reused by every later call on the same mesh and lattice size.
    """
    if not f.zero_boundary:
        raise DomainError("f_truncation_for_solver expects a zero-trace forcing")
    lam = float(spec.d_phi(np.asarray(trunc_hi)))
    mesh = f.mesh
    lattice = quad_cache(mesh).lattice(lattice_n)
    vals = evaluate_located(f, lattice.cells, lattice.bary)
    comps = [
        GridFunction(vals[:, c].reshape(lattice_n, lattice_n), lattice.origin, lattice.spacing)
        for c in (0, 1)
    ]

    joint = np.sqrt(sum(gradient_magnitude(g) ** 2 for g in comps))
    # inert truncation: with max |grad f| <= lam the nominal-level bad set
    # {M(grad f) > lam} is empty, so the truncated field equals f
    if float(joint.max()) <= lam:
        return f
    bad = bad_set(comps[0], lam, joint_magnitude=joint)
    if not bad.any():
        return f

    truncated = [_mcshane_midpoint(g, ~bad, lam) for g in comps]
    grids = [GridFunction(t, comps[0].origin, comps[0].spacing) for t in truncated]
    cache = quad_cache(mesh)
    coeffs = np.column_stack([g.interp(cache.dof_coords) for g in grids])
    coeffs[cache.boundary_scalar] = 0.0
    return FemField(mesh, coeffs, zero_boundary=True)
