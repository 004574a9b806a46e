"""Grid sweeps of the scalar N-function inequalities.

Every check returns a *margin*: the minimum over all sample points of
(bound - quantity), normalised where noted.  A nonnegative margin means the
inequality held at every sample; tests treat margins below a small negative
tolerance as violations.
"""

from __future__ import annotations

import math

import numpy as np

from .nfunctions import INDEX_GRID, NFunction, Truncated, conjugate_exponent, simonenko_gap

__all__ = ["inequality_margins", "young_margin", "YOUNG_LAMBDAS"]

#: Damping parameters swept in the Young-inequality check.
YOUNG_LAMBDAS = (1.0, 0.5, 0.1, 0.01)


def _rel_margin(bound, value):
    scale = np.maximum(np.maximum(np.abs(bound), np.abs(value)), 1e-300)
    return float(np.min((bound - value) / scale))


def young_margin(spec: NFunction, lambdas=YOUNG_LAMBDAS) -> float:
    """Smallest absolute Young gap lam^(1-p+) phi(s) + lam phi*(t) - s t.

    Sampled along and around the equality line t = phi'(s) at moderate
    magnitudes, where the gap is smallest and the absolute tolerance of the
    acceptance contract is meaningful.
    """
    s = np.logspace(-6.0, math.log10(5.0), 128)
    d = spec.d_phi(s)
    p_plus = spec.indices().p_plus
    phi_s = spec.phi(s)
    worst = math.inf
    for factor in (0.3, 1.0, 3.0):
        t = factor * d
        conj_t = spec.conjugate(t)
        for lam in lambdas:
            gap = lam ** (1.0 - p_plus) * phi_s + lam * conj_t - s * t
            worst = min(worst, float(gap.min()))
    return worst


def inequality_margins(spec: NFunction, grid=None) -> dict[str, float]:
    """Worst-case margins of the index-driven scalar inequalities for ``spec``.

    Keys (all relative margins unless noted):

    * ``simonenko_lo`` / ``simonenko_hi``: p- <= phi'(t) t / phi(t) <= p+
    * ``scaling_lo`` / ``scaling_hi``: min/max(l^p+, l^p-) bracket phi(l s)/phi(s)
    * ``delta2_phi``: phi(2t) <= 2^p+ phi(t)
    * ``delta2_conj``: phi*(2t) <= 2^(p-)' phi*(t)
    * ``sandwich_lo`` / ``sandwich_hi``: 2^-(p-)' phi(t) <= phi*(phi'(t)) <= 2^p+ phi(t)
    * ``young``: absolute Young gap (see :func:`young_margin`)

    Truncated specs additionally report:

    * ``trunc_identity``: phi' and phi'' of spec and base agree strictly inside
      (lo, hi) (margin is minus the worst relative mismatch)
    * ``trunc_approx``: |phi(t) - phi_base(t)| <= 2^(p+ - 1) phi_base(lo) on [0, hi]
    * ``quad_growth_lo`` / ``quad_growth_hi``: phi'' stays inside its reported
      quadratic-growth bounds
    """
    t = INDEX_GRID if grid is None else np.asarray(grid, dtype=float)
    idx = spec.indices()
    p_minus, p_plus = idx.p_minus, idx.p_plus
    q_minus = conjugate_exponent(p_minus)

    phi_t = spec.phi(t)
    simonenko_lo, simonenko_hi = simonenko_gap(spec, t)
    margins = {
        "simonenko_lo": float(np.min(simonenko_lo)),
        "simonenko_hi": float(np.min(simonenko_hi)),
        "delta2_phi": _rel_margin(2.0 ** p_plus * phi_t, spec.phi(2.0 * t)),
    }

    # Scaling bracket, sampled over a modest set of scale factors.
    sub = t[:: max(1, t.size // 64)]
    phi_sub = spec.phi(sub)
    lo_margin = math.inf
    hi_margin = math.inf
    for lam in (0.1, 0.5, 2.0, 10.0):
        scaled = spec.phi(lam * sub)
        lo_b = min(lam ** p_plus, lam ** p_minus) * phi_sub
        hi_b = max(lam ** p_plus, lam ** p_minus) * phi_sub
        lo_margin = min(lo_margin, _rel_margin(scaled, lo_b))
        hi_margin = min(hi_margin, _rel_margin(hi_b, scaled))
    margins["scaling_lo"] = lo_margin
    margins["scaling_hi"] = hi_margin

    # Conjugate Delta_2 and the sandwich bound; these exercise the numeric
    # conjugation path, so evaluate on a thinned grid.
    conj_1 = spec.conjugate(sub)
    conj_2 = spec.conjugate(2.0 * sub)
    margins["delta2_conj"] = _rel_margin(2.0 ** q_minus * conj_1, conj_2)

    conj_at_d = spec.conjugate(spec.d_phi(sub))
    margins["sandwich_lo"] = _rel_margin(conj_at_d, 2.0 ** (-q_minus) * phi_sub)
    margins["sandwich_hi"] = _rel_margin(2.0 ** p_plus * phi_sub, conj_at_d)

    margins["young"] = young_margin(spec)

    if isinstance(spec, Truncated):
        margins.update(_truncation_margins(spec, t))
    return margins


def _truncation_margins(spec: Truncated, t: np.ndarray) -> dict[str, float]:
    base = spec.base
    out = {}

    inside = t[(t > spec.lo) & (t < spec.hi)]
    if inside.size:
        d_mis = np.abs(spec.d_phi(inside) - base.d_phi(inside)) / np.abs(base.d_phi(inside))
        dd_mis = np.abs(spec.dd_phi(inside) - base.dd_phi(inside)) / np.abs(base.dd_phi(inside))
        out["trunc_identity"] = -float(max(d_mis.max(), dd_mis.max()))
    else:
        out["trunc_identity"] = 0.0

    if spec.lo > 0.0 and math.isfinite(spec.hi):
        window = t[t <= spec.hi]
        bound = 2.0 ** (base.indices().p_plus - 1.0) * float(base.phi(np.asarray(spec.lo)))
        diff = np.abs(base.phi(window) - spec.phi(window))
        out["trunc_approx"] = _rel_margin(bound, float(diff.max()))

        lo_b, hi_b = spec.quadratic_growth_bounds()
        dd = spec.dd_phi(t)
        out["quad_growth_lo"] = _rel_margin(dd, lo_b)
        out["quad_growth_hi"] = _rel_margin(hi_b, dd)
    return out
