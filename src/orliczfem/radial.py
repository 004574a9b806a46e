"""The radial calculus shared by every map an N-function induces.

The stress A(Q) = phi'(|Q|) Q/|Q| and the transform V(Q) = psi'(|Q|) Q/|Q|,
psi'(t) = sqrt(phi'(t) t), are radial maps.  Their derivatives share one form,

    DA(Q)[H] = c1 H + (c2 - c1) (n : H) n,    n = Q/|Q|,

with (c1, c2) = (phi'(t)/t, phi''(t)) for A and (psi'(t)/t, psi''(t)) for V
at t = |Q|.  At Q = 0 each pair collapses to its t = 0 limit, phi''(0) and
sqrt(phi''(0)); the limit exists exactly when the spec is not singular at 0
(a truncated spec with trunc_lo > 0 always qualifies).

Values are vectors along the last axis (Mandel strains, or flattened
matrices), so that n : H is the euclidean dot product.
"""

from __future__ import annotations

import numpy as np

from .nfunctions import NFunction, SingularityError

__all__ = ["at_zero", "ratio", "coefficients", "transform_coefficients", "unit", "derivative"]


def at_zero(spec: NFunction) -> float:
    """phi''(0), the t = 0 limit of phi'(t)/t and phi''(t)."""
    try:
        return float(spec.dd_phi(np.zeros(1))[0])
    except SingularityError:
        raise SingularityError(
            f"{spec.describe()}: zero strain hit a singular stress derivative; "
            "solve with a truncated spec (trunc_lo > 0)"
        ) from None


def ratio(spec: NFunction, t: np.ndarray) -> np.ndarray:
    """phi'(t)/t, with its limit phi''(0) at t = 0."""
    out = np.empty_like(t)
    pos = t > 0.0
    out[pos] = spec.d_phi(t[pos]) / t[pos]
    if not pos.all():
        out[~pos] = at_zero(spec)
    return out


def coefficients(spec: NFunction, t: np.ndarray):
    """(phi'(t)/t, phi''(t)), the coefficients of DA, both phi''(0) at t = 0."""
    first = np.empty_like(t)
    second = np.empty_like(t)
    pos = t > 0.0
    tp = t[pos]
    first[pos] = spec.d_phi(tp) / tp
    second[pos] = spec.dd_phi(tp)
    if not pos.all():
        first[~pos] = second[~pos] = at_zero(spec)
    return first, second


def transform_coefficients(spec: NFunction, t: np.ndarray):
    """(psi'(t)/t, psi''(t)), the coefficients of DV; sqrt(phi''(0)) at t = 0.

    With r = phi'(t)/t, psi'(t)/t = sqrt(r) and
    psi''(t) = (phi''(t) t + phi'(t)) / (2 sqrt(phi'(t) t)) = (r + phi''(t)) / (2 sqrt(r)),
    which tends to sqrt(phi''(0)); where that limit is 0 so is psi''.
    """
    first, second = coefficients(spec, t)
    b1 = np.sqrt(first)
    b2 = np.divide(first + second, 2.0 * b1, out=np.zeros_like(b1), where=b1 > 0.0)
    return b1, b2


def unit(E: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The direction E/|E| (t = |E|), and 0 where E = 0."""
    return np.divide(E, t[..., None], out=np.zeros_like(E), where=t[..., None] > 0.0)


def derivative(c1, c2, n: np.ndarray, H: np.ndarray) -> np.ndarray:
    """c1 H + (c2 - c1) (n : H) n, the radial-map derivative in direction H."""
    inner = np.einsum("...i,...i->...", n, H)
    return c1[..., None] * H + (c2 - c1)[..., None] * (inner[..., None] * n)
