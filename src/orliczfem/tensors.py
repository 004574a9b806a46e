"""Tensor-valued maps induced by an N-function on symmetric matrices.

For a symmetric matrix P with Frobenius norm |P| the two radial maps

    a_map(P) = phi'(|P|)  P / |P|            (the stress)
    v_map(P) = sqrt(phi'(|P|) |P|)  P / |P|  (the quantity whose W^{1,2} norm
                                              encodes regularity)

both vanish at P = 0 by convention.  ``v_map`` is the radial map of the
auxiliary N-function psi with psi'(t) = sqrt(phi'(t) t).  The module also
provides their Gateaux derivatives, the inverse of ``v_map``, and the
three-way comparison quantities of :func:`hammer_triple`.

All functions accept single matrices of shape (n, n) or batches (..., n, n)
and vectorise over leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .nfunctions import DomainError, NFunction, invert_increasing

__all__ = [
    "HammerTriple",
    "frobenius",
    "a_map",
    "v_map",
    "v_inv",
    "da_map",
    "dv_map",
    "hammer_triple",
    "random_sym",
]


def _matrices(P) -> np.ndarray:
    """P as a float array of shape (..., n, n) with n in {2, 3}."""
    arr = np.asarray(P, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DomainError(f"expected (..., n, n) array, got shape {arr.shape}")
    if arr.shape[-1] not in (2, 3):
        raise DomainError(f"tensor dimension must be 2 or 3, got {arr.shape[-1]}")
    return arr


def frobenius(P):
    """Frobenius norm over the trailing matrix axes."""
    out = radial.norm(_matrices(P), 2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


def _radial_apply(P, coeff_of_t):
    arr = _matrices(P)
    t = radial.norm(arr, 2)
    coeff = np.zeros_like(t)
    pos = t > 0.0
    if np.any(pos):
        coeff[pos] = coeff_of_t(t[pos])
    return coeff[..., None, None] * arr


def a_map(spec: NFunction, P):
    """Stress map phi'(|P|) P / |P|, with value 0 at P = 0."""
    return _radial_apply(P, lambda t: radial.ratio(spec, t))


def v_map(spec: NFunction, P):
    """sqrt(phi'(|P|) |P|) P / |P|, with value 0 at P = 0."""
    return _radial_apply(P, lambda t: np.sqrt(radial.ratio(spec, t)))


def v_inv(spec: NFunction, Q):
    """Inverse of :func:`v_map`: solves sqrt(phi'(t) t) = |Q| radially."""
    arr = _matrices(Q)
    s = radial.norm(arr, 2)
    tau = invert_increasing(lambda t: np.sqrt(spec.d_phi(t) * t), s)
    scale = np.zeros_like(s)
    pos = s > 0.0
    scale[pos] = tau[pos] / s[pos]
    return scale[..., None, None] * arr


def _radial_derivative(coefficients, spec, P, H):
    """:func:`radial.derivative` on matrices, flattened so that n : H is the
    Frobenius contraction; ``coefficients(spec, t)`` gives (c1, c2)."""
    arr = _matrices(P)
    h_arr = _matrices(H)
    if h_arr.shape[-1] != arr.shape[-1]:
        raise DomainError("P and H must have the same tensor dimension")
    arr, h_arr = np.broadcast_arrays(arr, h_arr)
    E = arr.reshape(arr.shape[:-2] + (-1,))
    t = radial.norm(arr, 2)
    c1, c2 = coefficients(spec, t)
    out = radial.derivative(c1, c2, radial.unit(E, t), h_arr.reshape(E.shape))
    return out.reshape(arr.shape)


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
    p_arr = _matrices(P)
    q_arr = _matrices(Q)
    p_arr, q_arr = np.broadcast_arrays(p_arr, q_arr)
    diff = p_arr - q_arr
    a_diff = a_map(spec, p_arr) - a_map(spec, q_arr)
    v_diff = v_map(spec, p_arr) - v_map(spec, q_arr)

    lhs = np.sum(a_diff * diff, axis=(-2, -1))
    mid = radial.sq_norm(v_diff, 2)

    t_sum = radial.norm(p_arr, 2) + radial.norm(q_arr, 2)
    diff_sq = radial.sq_norm(diff, 2)
    rhs = np.zeros_like(t_sum)
    pos = t_sum > 0.0
    if np.any(pos):
        rhs[pos] = spec.dd_phi(t_sum[pos]) * diff_sq[pos]

    if lhs.ndim == 0:
        return HammerTriple(float(lhs), float(mid), float(rhs))
    return HammerTriple(lhs, mid, rhs)


def random_sym(rng: np.random.Generator, count: int, n: int = 2, scale=(1e-2, 1e2)):
    """Random symmetric matrices with log-uniform magnitudes, for sampling sweeps."""
    raw = rng.uniform(-1.0, 1.0, size=(count, n, n))
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    mags = 10.0 ** rng.uniform(math.log10(scale[0]), math.log10(scale[1]), size=count)
    return sym * mags[:, None, None]
