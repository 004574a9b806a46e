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

A truncation takes three calls, and a level sweep
(:func:`truncation_modular_bounds`) makes the first once:

    maximal = maximal_function(gradient_magnitude(gf))
    bad = bad_set(maximal, lam)
    trunc = lipschitz_truncate(gf, bad, lam)

A vector field truncates its components against one bad set, thresholded
from the maximal function of their joint gradient magnitude.  Every lattice
is square, with one spacing, and only this module builds one.

The envelopes are exact but search only the good points that can attain
them.  Let g(x) be the good point nearest to x, at distance d0(x).  Then
upper(x) <= v(g) + lam d0(x), while any y in G with |x - y| > R(x) =
d0(x) + (v(g) - min_G v) / lam has
v(y) + lam |x - y| > min_G v + lam d0(x) + v(g) - min_G v >= upper(x), so y
is never the minimiser; likewise lower(x) >= v(g) - lam d0(x) leaves only
|x - y| <= d0(x) + (max_G v - v(g)) / lam, and the search reach is the larger
of the two radii.  g and d0 come from the lattice's Euclidean distance
transform; g itself lies within the reach, so it is always a candidate.  The
lattice is cut into square tiles of ENVELOPE_TILE points a side, and each
tile takes its candidates from one KD-tree ball about its centre of radius
max_tile R + half the tile diagonal.  When every good value is 0 the two
envelopes at x are a and -a for one computed cone value a, so the midpoint
is exactly 0 and nothing is searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fem import FemField, evaluate_located, locate_points, memo, quad_cache
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
    "TruncationLevel",
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
        """Sample ``func(x, y)`` on an n x n lattice over the square bbox = (x0, x1, y0, y1)."""
        x0, x1, y0, y1 = bbox
        if not math.isclose(x1 - x0, y1 - y0, rel_tol=1e-12):
            raise DomainError(f"a lattice box must be square, got {x1 - x0} x {y1 - y0}")
        (X, Y), origin, spacing = _lattice(bbox, n)
        return cls(np.asarray(func(X, Y), dtype=float), origin, spacing)

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


def _lattice(bbox, n: int):
    """The (X, Y) points, origin and spacing of the n x n lattice over a square bbox."""
    if n < 2:
        raise DomainError(f"a lattice needs at least 2 points a side, got {n}")
    x0, x1, y0, y1 = bbox
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    return np.meshgrid(xs, ys, indexing="ij"), (x0, y0), xs[1] - xs[0]


def gradient_magnitude(gf: GridFunction) -> np.ndarray:
    gx, gy = np.gradient(gf.values, gf.spacing)
    return np.sqrt(gx * gx + gy * gy)


def maximal_function(mag: np.ndarray) -> np.ndarray:
    """Discrete maximal operator: max of lattice-ball averages over dyadic radii.

    The radii are in lattice points, so the lattice spacing does not enter.

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
        avg = _convolve_same(mag, kernel) / kernel.sum()
        np.maximum(out, np.maximum(avg, 0.0), out=out)
        radius *= 2
    return out


def _convolve_same(mag: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """SciPy's ``fftconvolve(mag, kernel, mode="same")``, step for step and so bit for bit.

    The same real transforms at the same padded sizes keep every bad set in
    place.  As there, an axis along which ``mag`` has one point is not
    transformed: the kernel broadcasts along it and the window keeps its
    central line.
    """
    from scipy import fft

    axes = [a for a in range(mag.ndim) if mag.shape[a] != 1]
    full = [
        s + k - 1 if a in axes else max(s, k)
        for a, (s, k) in enumerate(zip(mag.shape, kernel.shape))
    ]
    if axes:
        fshape = [fft.next_fast_len(full[a], True) for a in axes]
        spectrum = fft.rfftn(mag, fshape, axes=axes) * fft.rfftn(kernel, fshape, axes=axes)
        sums = fft.irfftn(spectrum, fshape, axes=axes)
    else:
        sums = mag * kernel
    return sums[tuple(slice((f - s) // 2, (f - s) // 2 + s) for f, s in zip(full, mag.shape))]


def _check_level(lam: float) -> None:
    if not (lam > 0.0):
        raise DomainError(f"truncation level must be positive, got {lam}")


def bad_set(maximal: np.ndarray, lam: float) -> np.ndarray:
    """{M(grad v) > BAD_SET_LEVEL * lam} from ``maximal`` = M(grad v), with the rim kept good.

    M(grad v) does not depend on the level, so a level sweep computes it once
    and thresholds it here per level.  A maximal function that is not finite
    everywhere (the sampled gradient overflowed) is a :class:`DomainError`.
    """
    _check_level(lam)
    if not np.all(np.isfinite(maximal)):
        raise DomainError("the maximal function of the gradient is not finite (it overflowed)")
    bad = maximal > BAD_SET_LEVEL * lam
    # the zero extension keeps the rim exact
    bad[0, :] = bad[-1, :] = bad[:, 0] = bad[:, -1] = False
    return bad


def _mcshane_midpoint(gf: GridFunction, good: np.ndarray, lam: float) -> np.ndarray:
    """Clipped midpoint of the McShane envelopes over ``good`` (pruned, see module docstring)."""
    from scipy.ndimage import distance_transform_edt
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import cdist

    if not good.any():
        raise DomainError("the good set is empty: the bad set covers every lattice point")
    good_vals = gf.values[good]
    lo, hi = good_vals.min(), good_vals.max()
    if lo == hi == 0.0:
        # both envelopes at x come from one computed cone value a: fl(0 + a) + fl(0 - a) = 0
        return np.clip(np.zeros(gf.values.shape), gf.values.min(), gf.values.max())
    X, Y = gf.coords()
    good_pts = np.column_stack([X[good], Y[good]])
    nearest, (gi, gj) = distance_transform_edt(~good, return_indices=True)
    at_nearest = gf.values[gi, gj]  # v(g(x))
    reach = nearest * gf.spacing + np.maximum(at_nearest - lo, hi - at_nearest) / lam
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


def lipschitz_truncate(gf: GridFunction, bad: np.ndarray, lam: float) -> GridFunction:
    """The lam-Lipschitz truncation of ``gf`` off its bad set (see module docstring).

    ``bad`` is a :func:`bad_set`; when it is empty the result is a copy of ``gf``.
    """
    _check_level(lam)
    if bad.shape != gf.values.shape:
        raise DomainError(f"bad set of shape {bad.shape} on a {gf.values.shape} lattice")
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


def grid_modular(spec: NFunction, gf: GridFunction, of: str = "value") -> float:
    """Lattice quadrature of phi(|v|) or phi(|grad v|)."""
    if of == "value":
        mag = np.abs(gf.values)
    elif of == "grad":
        mag = gradient_magnitude(gf)
    else:
        raise DomainError(f"grid modular kind must be 'value' or 'grad', got {of!r}")
    return float(spec.phi(mag).sum() * gf.spacing**2)


class TruncationLevel(NamedTuple):
    """One level of a :func:`truncation_modular_bounds` sweep; a ratio over 0 is 0."""

    level: float
    bad: np.ndarray  # the bad set at this level
    trunc: GridFunction  # T_lam v
    value_ratio: float  # modular of T_lam v over modular of v
    grad_ratio: float  # modular of grad T_lam v over modular of grad v
    diff_modular: float  # modular of grad(v - T_lam v)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def truncation_modular_bounds(spec: NFunction, gf: GridFunction, levels) -> list:
    """Truncate ``gf`` at each of ``levels``: one :class:`TruncationLevel` per level.

    M(grad v) and the modulars of v do not depend on the level, so they are
    computed once for the sweep.
    """
    maximal = maximal_function(gradient_magnitude(gf))
    den_v = grid_modular(spec, gf, "value")
    den_g = grid_modular(spec, gf, "grad")
    records = []
    for lam in levels:
        bad = bad_set(maximal, lam)
        trunc = lipschitz_truncate(gf, bad, lam)
        diff = GridFunction(gf.values - trunc.values, gf.origin, gf.spacing)
        records.append(
            TruncationLevel(
                lam,
                bad,
                trunc,
                _ratio(grid_modular(spec, trunc, "value"), den_v),
                _ratio(grid_modular(spec, trunc, "grad"), den_g),
                grid_modular(spec, diff, "grad"),
            )
        )
    return records


def _forcing_sample(f: FemField, lattice_n: int):
    """(components, joint): ``f``'s two components on the n x n lattice over the square on
    the longer side of its nodes' bounding box (padded by 1e-9 of it), and their joint
    gradient magnitude; built once per field and size (see :func:`~orliczfem.fem.memo`)."""

    def build():
        lo = f.mesh.nodes.min(axis=0)
        side = max(f.mesh.nodes.max(axis=0) - lo)
        pad = 1e-9 * side
        bbox = (lo[0] - pad, lo[0] + side + pad, lo[1] - pad, lo[1] + side + pad)
        (X, Y), origin, spacing = _lattice(bbox, lattice_n)
        vals = evaluate_located(f, *locate_points(f.mesh, np.column_stack([X.ravel(), Y.ravel()])))
        comps = [
            GridFunction(vals[:, c].reshape(lattice_n, lattice_n), origin, spacing)
            for c in (0, 1)
        ]
        return comps, np.sqrt(sum(gradient_magnitude(g) ** 2 for g in comps))

    return memo(f, ("lattice_sample", lattice_n), build)


def f_truncation_for_solver(
    f: FemField, trunc_hi: float, spec: NFunction, lattice_n: int = 64
) -> FemField:
    """Lipschitz-truncate a forcing field at level lam = phi'(trunc_hi).

    The field is sampled on a square n x n lattice over the mesh bounding box
    (zero outside the mesh), both components are truncated against a shared
    bad set computed from the joint gradient magnitude, and the result is
    interpolated back to the P2 dofs with the boundary re-zeroed.  The field
    is sampled once, and the sample's maximal function computed once (at the
    first level that needs it), for every later level: only lam changes
    between the stages of a continuation.

    ``f`` itself is returned when the bad set {M(grad f) > BAD_SET_LEVEL * lam}
    is empty, and also when max |grad f| <= lam, where the bad set need not be.
    A ``trunc_hi`` that is not positive is a :class:`DomainError`.
    """
    if not f.zero_boundary:
        raise DomainError("f_truncation_for_solver expects a zero-trace forcing")
    if not (trunc_hi > 0.0):
        raise DomainError(f"trunc_hi must be positive, got {trunc_hi}")
    lam = float(spec.d_phi(np.asarray(trunc_hi)))
    comps, joint = _forcing_sample(f, lattice_n)
    # inert at the nominal level: M(grad f) <= max |grad f| <= lam, so {M(grad f) > lam}
    # is empty; the bad set, thresholded at BAD_SET_LEVEL * lam, need not be
    if float(joint.max()) <= lam:
        return f
    bad = bad_set(memo(f, ("maximal", lattice_n), lambda: maximal_function(joint)), lam)
    if not bad.any():
        return f

    dof_coords = quad_cache(f.mesh).dof_coords
    grids = [lipschitz_truncate(g, bad, lam) for g in comps]
    return FemField.zeroed(f.mesh, np.column_stack([g.interp(dof_coords) for g in grids]))
