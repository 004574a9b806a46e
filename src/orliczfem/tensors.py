"""Tensor-valued maps induced by an N-function on symmetric matrices.

For a symmetric matrix P with Frobenius norm |P| the two radial maps

    a_map(P) = phi'(|P|)  P / |P|            (the stress)
    v_map(P) = sqrt(phi'(|P|) |P|)  P / |P|  (the quantity whose W^{1,2} norm
                                              encodes regularity)

both vanish at P = 0 by convention.  ``v_map`` is the radial map of the
auxiliary N-function psi with psi'(t) = sqrt(phi'(t) t).  The module also
provides their Gateaux derivatives, the inverse of ``v_map``, and the
three-way comparison quantities of :func:`hammer_triple`.

All functions accept single matrices of shape (n, n), batches (..., n, n),
or :class:`SymTensor` values and vectorise over leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .nfunctions import DomainError, NFunction, invert_increasing

__all__ = [
    "SymTensor",
    "HammerTriple",
    "frobenius",
    "a_map",
    "v_map",
    "v_inv",
    "da_map",
    "dv_map",
    "hammer_triple",
    "sym_to_mandel",
    "mandel_to_sym",
    "random_sym",
]

class SymTensor:
    """Symmetric n x n matrix value (n in {2, 3}) with upper-triangular storage."""

    __slots__ = ("n", "_upper")

    def __init__(self, n: int, upper):
        if n not in (2, 3):
            raise DomainError(f"SymTensor dimension must be 2 or 3, got {n}")
        upper = np.asarray(upper, dtype=float)
        if upper.shape != (n * (n + 1) // 2,):
            raise DomainError(
                f"dimension-{n} SymTensor needs {n * (n + 1) // 2} entries, "
                f"got shape {upper.shape}"
            )
        self.n = n
        self._upper = upper

    @classmethod
    def from_matrix(cls, mat) -> "SymTensor":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {mat.shape}")
        n = mat.shape[0]
        sym = 0.5 * (mat + mat.T)
        iu = np.triu_indices(n)
        return cls(n, sym[iu])

    @classmethod
    def zero(cls, n: int) -> "SymTensor":
        return cls(n, np.zeros(n * (n + 1) // 2))

    @property
    def matrix(self) -> np.ndarray:
        full = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n)
        full[iu] = self._upper
        full.T[iu] = self._upper
        return full

    @property
    def upper(self) -> np.ndarray:
        return self._upper.copy()

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def ddot(self, other: "SymTensor") -> float:
        """Full contraction sum_ij P_ij Q_ij."""
        other = _coerce_same_dim(self, other)
        return float(np.sum(self.matrix * other.matrix))

    def __add__(self, other):
        other = _coerce_same_dim(self, other)
        return SymTensor(self.n, self._upper + other._upper)

    def __sub__(self, other):
        other = _coerce_same_dim(self, other)
        return SymTensor(self.n, self._upper - other._upper)

    def __mul__(self, scalar):
        return SymTensor(self.n, self._upper * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SymTensor(self.n, -self._upper)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __repr__(self):
        return f"SymTensor(n={self.n}, upper={self._upper.tolist()})"


def _coerce_same_dim(ref: SymTensor, other) -> SymTensor:
    if not isinstance(other, SymTensor):
        other = SymTensor.from_matrix(other)
    if other.n != ref.n:
        raise DomainError(f"mixed SymTensor dimensions {ref.n} and {other.n}")
    return other


def _unwrap(P):
    """Return (array view (..., n, n), wrap) where wrap restores the input kind."""
    if isinstance(P, SymTensor):
        return P.matrix, lambda arr: SymTensor.from_matrix(arr)
    arr = np.asarray(P, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DomainError(f"expected (..., n, n) array, got shape {arr.shape}")
    if arr.shape[-1] not in (2, 3):
        raise DomainError(f"tensor dimension must be 2 or 3, got {arr.shape[-1]}")
    return arr, lambda out: out


def frobenius(P):
    """Frobenius norm over the trailing matrix axes."""
    arr, _ = _unwrap(P)
    out = np.sqrt(np.sum(arr * arr, axis=(-2, -1)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


def _radial_apply(spec, P, coeff_of_t):
    arr, wrap = _unwrap(P)
    t = np.sqrt(np.sum(arr * arr, axis=(-2, -1)))
    coeff = np.zeros_like(t)
    pos = t > 0.0
    if np.any(pos):
        coeff[pos] = coeff_of_t(t[pos])
    return wrap(coeff[..., None, None] * arr)


def a_map(spec: NFunction, P):
    """Stress map phi'(|P|) P / |P|, with value 0 at P = 0."""
    return _radial_apply(spec, P, lambda t: spec.d_phi(t) / t)


def v_map(spec: NFunction, P):
    """sqrt(phi'(|P|) |P|) P / |P|, with value 0 at P = 0."""
    return _radial_apply(spec, P, lambda t: np.sqrt(spec.d_phi(t) / t))


def v_inv(spec: NFunction, Q):
    """Inverse of :func:`v_map`: solves sqrt(phi'(t) t) = |Q| radially."""
    arr, wrap = _unwrap(Q)
    s = np.sqrt(np.sum(arr * arr, axis=(-2, -1)))
    tau = invert_increasing(lambda t: np.sqrt(spec.d_phi(t) * t), s)
    scale = np.zeros_like(s)
    pos = s > 0.0
    scale[pos] = tau[pos] / s[pos]
    return wrap(scale[..., None, None] * arr)


def _radial_derivative(coefficients, spec, P, H):
    """:func:`radial.derivative` on matrices, flattened so that n : H is the
    Frobenius contraction; ``coefficients(spec, t)`` gives (c1, c2)."""
    arr, wrap = _unwrap(P)
    h_arr, _ = _unwrap(H)
    if h_arr.shape[-1] != arr.shape[-1]:
        raise DomainError("P and H must have the same tensor dimension")
    arr, h_arr = np.broadcast_arrays(arr, h_arr)
    E = arr.reshape(arr.shape[:-2] + (-1,))
    t = np.sqrt(np.sum(E * E, axis=-1))
    c1, c2 = coefficients(spec, t)
    out = radial.derivative(c1, c2, radial.unit(E, t), h_arr.reshape(E.shape))
    return wrap(out.reshape(arr.shape))


def da_map(spec: NFunction, P, H):
    """Gateaux derivative of :func:`a_map` at P in direction H.

    Tangentially the map acts as phi'(|P|)/|P|, radially as phi''(|P|); both
    collapse to phi''(0) on a quadratic branch, so truncated specs are smooth
    through P = 0 while singular specs raise there.
    """
    return _radial_derivative(radial.coefficients, spec, P, H)


def dv_map(spec: NFunction, P, H):
    """Gateaux derivative of :func:`v_map` at P in direction H."""
    return _radial_derivative(radial.transform_coefficients, spec, P, H)


@dataclass(frozen=True)
class HammerTriple:
    """The three mutually comparable monotonicity quantities.

    lhs = (a_map(P) - a_map(Q)) : (P - Q)
    mid = |v_map(P) - v_map(Q)|^2
    rhs = phi''(|P| + |Q|) |P - Q|^2   (0 by convention when P = Q = 0)

    Their pairwise ratios stay in a fixed interval depending only on the index
    pair of the spec; each member vanishes exactly when P = Q.
    """

    lhs: np.ndarray
    mid: np.ndarray
    rhs: np.ndarray


def hammer_triple(spec: NFunction, P, Q) -> HammerTriple:
    p_arr, _ = _unwrap(P)
    q_arr, _ = _unwrap(Q)
    p_arr, q_arr = np.broadcast_arrays(p_arr, q_arr)
    diff = p_arr - q_arr
    a_diff = np.asarray(a_map(spec, p_arr)) - np.asarray(a_map(spec, q_arr))
    v_diff = np.asarray(v_map(spec, p_arr)) - np.asarray(v_map(spec, q_arr))

    lhs = np.sum(a_diff * diff, axis=(-2, -1))
    mid = np.sum(v_diff * v_diff, axis=(-2, -1))

    t_sum = np.sqrt(np.sum(p_arr * p_arr, axis=(-2, -1))) + np.sqrt(
        np.sum(q_arr * q_arr, axis=(-2, -1))
    )
    diff_sq = np.sum(diff * diff, axis=(-2, -1))
    rhs = np.zeros_like(t_sum)
    pos = t_sum > 0.0
    if np.any(pos):
        rhs[pos] = spec.dd_phi(t_sum[pos]) * diff_sq[pos]

    if lhs.ndim == 0:
        return HammerTriple(float(lhs), float(mid), float(rhs))
    return HammerTriple(lhs, mid, rhs)


# ---------------------------------------------------------------------------
# Mandel vector form (orthonormal basis of symmetric matrices)
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def sym_to_mandel(P):
    """Pack (..., n, n) symmetric matrices into (..., n(n+1)/2) Mandel vectors.

    Off-diagonal components carry a sqrt(2) factor so that the euclidean inner
    product of Mandel vectors equals the Frobenius contraction.
    """
    arr, _ = _unwrap(P)
    n = arr.shape[-1]
    if n == 2:
        return np.stack(
            [arr[..., 0, 0], arr[..., 1, 1], _SQRT2 * arr[..., 0, 1]], axis=-1
        )
    return np.stack(
        [
            arr[..., 0, 0],
            arr[..., 1, 1],
            arr[..., 2, 2],
            _SQRT2 * arr[..., 1, 2],
            _SQRT2 * arr[..., 0, 2],
            _SQRT2 * arr[..., 0, 1],
        ],
        axis=-1,
    )


def mandel_to_sym(m):
    m = np.asarray(m, dtype=float)
    k = m.shape[-1]
    if k == 3:
        out = np.empty(m.shape[:-1] + (2, 2))
        out[..., 0, 0] = m[..., 0]
        out[..., 1, 1] = m[..., 1]
        out[..., 0, 1] = out[..., 1, 0] = m[..., 2] / _SQRT2
        return out
    if k == 6:
        out = np.empty(m.shape[:-1] + (3, 3))
        out[..., 0, 0] = m[..., 0]
        out[..., 1, 1] = m[..., 1]
        out[..., 2, 2] = m[..., 2]
        out[..., 1, 2] = out[..., 2, 1] = m[..., 3] / _SQRT2
        out[..., 0, 2] = out[..., 2, 0] = m[..., 4] / _SQRT2
        out[..., 0, 1] = out[..., 1, 0] = m[..., 5] / _SQRT2
        return out
    raise DomainError(f"Mandel vectors have 3 or 6 components, got {k}")


def random_sym(rng: np.random.Generator, count: int, n: int = 2, scale=(1e-2, 1e2)):
    """Random symmetric matrices with log-uniform magnitudes, for sampling sweeps."""
    raw = rng.uniform(-1.0, 1.0, size=(count, n, n))
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    mags = 10.0 ** rng.uniform(math.log10(scale[0]), math.log10(scale[1]), size=count)
    return sym * mags[:, None, None]
