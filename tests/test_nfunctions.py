"""N-function evaluation, indices, conjugation, truncation, and the scalar inequalities."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPEC_ROSTER, spec_id
from orliczfem.inequalities import inequality_margins
from orliczfem.nfunctions import (
    INDEX_GRID,
    DeltaPower,
    DomainError,
    IndexPair,
    PowerLaw,
    SingularityError,
    SumPower,
    Truncated,
    from_text,
    invert_increasing,
    simonenko_gap,
    to_text,
    truncation_dual_gap,
    young_gap,
)

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_power2():
    assert PowerLaw(2).eval(1.0) == (0.5, 1.0, 1.0)


def test_eval_delta_power_against_symbolic_integration():
    # Oracle: integrate (1+s)*s symbolically and differentiate (1+t)*t.
    s, t = sympy.symbols("s t", nonnegative=True)
    phi_sym = sympy.integrate((1 + s) * s, (s, 0, t))
    d_sym = (1 + t) * t
    dd_sym = sympy.diff(d_sym, t)
    at = 1.0
    expected = tuple(float(e.subs(t, at)) for e in (phi_sym, d_sym, dd_sym))
    got = DeltaPower(3, 1).eval(at)
    assert got == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx((5.0 / 6.0, 2.0, 3.0))


def test_eval_truncated_quadratic_branch():
    spec = Truncated(PowerLaw(3), 1.0, math.inf)
    phi, d, dd = spec.eval(0.5)
    assert d == pytest.approx(0.5)  # phi'(1)/1 * t
    assert dd == pytest.approx(1.0)
    assert phi == pytest.approx(0.5 * 0.5**2)


def test_eval_negative_argument_rejected(spec):
    with pytest.raises(DomainError):
        spec.eval(-1.0)


# The closed-form phi of a law does not check its argument (the solver's hot
# path); the conjugate spec's phi does, through the Legendre transform.
NAN_ENTRY_POINTS = {
    "eval": lambda t: PowerLaw(3).eval(t),
    "phi": lambda t: PowerLaw(3).conjugate_spec().phi(t),
    "conjugate": lambda t: PowerLaw(3).conjugate(t),
    "simonenko_gap": lambda t: simonenko_gap(PowerLaw(3), t),
    "young_gap_s": lambda t: young_gap(PowerLaw(3), t, 1.0),
    "young_gap_t": lambda t: young_gap(PowerLaw(3), 1.0, t),
    "truncated_d_phi_inv": lambda t: Truncated(PowerLaw(3), 0.1, 10.0).d_phi_inv(t),
}


@pytest.mark.parametrize("evaluate", NAN_ENTRY_POINTS.values(), ids=NAN_ENTRY_POINTS.keys())
@pytest.mark.parametrize("t", [math.nan, np.array([1.0, math.nan])], ids=["scalar", "array"])
def test_nan_argument_rejected(evaluate, t):
    with pytest.raises(DomainError, match="nonnegative and not NaN"):
        evaluate(t)


@pytest.mark.parametrize("lo, hi", [(0.1, 10.0), (0.0, 10.0), (0.1, math.inf)])
def test_truncated_d_phi_keeps_nan(lo, hi):
    # the closed form checks no argument, but a NaN stays NaN rather than turning into 0
    spec = Truncated(PowerLaw(3), lo, hi)
    assert math.isnan(spec.d_phi(math.nan))
    out = spec.d_phi(np.array([1.0, math.nan, 0.0]))
    assert math.isnan(out[1]) and out[0] == spec.d_phi(1.0) and out[2] == 0.0


def test_branched_phi_of_nan_is_nan():
    # no branch claims a NaN; after a finite call of the same size, a result
    # array left uninitialised there would hold that call's values
    spec = DeltaPower(3.0, 1.0)
    for _ in range(3):
        assert np.isfinite(spec.phi(np.linspace(0.0, 10.0, 4096))).all()
        assert np.isnan(spec.phi(np.full(4096, math.nan))).all()


@pytest.mark.parametrize("base", [PowerLaw(3), PowerLaw(1.5)])
def test_truncated_d_phi_at_zero_without_lower_truncation(base):
    assert Truncated(base, 0.0, 10.0).d_phi(0.0) == 0.0
    assert Truncated(base, 0.0, 10.0).d_phi(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "singular", [PowerLaw(1.5), DeltaPower(1.3, 0.0), SumPower(1.5, 3.0)]
)
def test_eval_singular_second_derivative_at_zero(singular):
    with pytest.raises(SingularityError):
        singular.eval(0.0)
    # phi and phi' themselves are fine at zero
    assert singular.phi(np.asarray(0.0)) == 0.0
    assert singular.d_phi(np.asarray(0.0)) == 0.0


def _raises_singularity(func):
    try:
        func()
    except SingularityError:
        return True
    return False


SINGULARITY_ROSTER = (
    SPEC_ROSTER
    + [spec.conjugate_spec() for spec in SPEC_ROSTER]
    + [Truncated(PowerLaw(1.5), 0.0, 10.0)]
)


@pytest.mark.parametrize("spec", SINGULARITY_ROSTER, ids=spec_id)
def test_second_derivative_at_zero_raises_exactly_when_singular(spec):
    assert _raises_singularity(lambda: spec.dd_phi(np.zeros(3))) == spec.singular_at_zero
    assert _raises_singularity(lambda: spec.eval(0.0)) == spec.singular_at_zero


def test_phi_is_integral_of_d_phi(spec):
    # Quadrature oracle: phi(t) = int_0^t phi', split at truncation kinks.
    from scipy.integrate import quad

    kinks = []
    if isinstance(spec, Truncated):
        kinks = [k for k in (spec.lo, spec.hi) if math.isfinite(k)]
    for t in (0.37, 1.0, 4.2):
        pts = [k for k in kinks if 0.0 < k < t] or None
        val, err = quad(
            lambda x: float(spec.d_phi(np.asarray(x))), 0.0, t, limit=200, points=pts
        )
        assert float(spec.phi(np.asarray(t))) == pytest.approx(val, rel=1e-8, abs=1e-12)


def test_delta_power_small_argument_stability():
    # The series branch must keep the Simonenko ratio accurate near t=0.
    dp = DeltaPower(3, 1)
    t = np.logspace(-8, -4, 32)
    ratio = dp.d_phi(t) * t / dp.phi(t)
    assert np.all(ratio >= 2.0 - 1e-12)
    # exact expansion: ratio = 2 (1 + t) / (1 + 2 t / 3) = 2 + 2 t / 3 + O(t^2)
    assert ratio == pytest.approx(2.0 + 2.0 * t / 3.0, abs=1e-8)


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 3.0, 4.0])
def test_indices_power(p):
    idx = PowerLaw(p).indices()
    assert idx == IndexPair(p, p)
    grid = PowerLaw(p).indices_grid()
    assert grid.p_minus == pytest.approx(p, abs=1e-12)
    assert grid.p_plus == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 3.0, 4.0])
def test_indices_delta_power(p):
    idx = DeltaPower(p, 1.0).indices()
    assert (idx.p_minus, idx.p_plus) == (min(p, 2.0), max(p, 2.0))


def test_indices_truncated_power():
    assert Truncated(PowerLaw(3), 0.1, 10).indices() == IndexPair(2.0, 3.0)


@pytest.mark.parametrize(
    "grid",
    [[-2.0, -1.0], [0.0, 1.0], [1.0, math.nan], [], np.array([1.0, -1e-300])],
    ids=["negative", "zero", "nan", "empty", "tiny_negative"],
)
def test_indices_grid_rejects_an_entry_that_is_not_positive(grid):
    # a negative grid read IndexPair(3.0, 3.0), and a 0 or NaN one failed later
    # in IndexPair's own check, naming neither the grid nor its entry
    with pytest.raises(DomainError, match="index grid"):
        PowerLaw(3).indices_grid(grid)


def test_indices_grid_takes_a_positive_grid():
    assert PowerLaw(3).indices_grid([0.5, 2.0]) == pytest.approx(IndexPair(3.0, 3.0))
    assert PowerLaw(3).indices_grid(INDEX_GRID) == PowerLaw(3).indices_grid()


def test_indices_grid_consistent_with_closed_form(spec):
    closed = spec.indices()
    grid = spec.indices_grid()
    # The grid estimate can only lie inside the closed-form (possibly
    # conservative) bracket, and should approach it closely.
    assert grid.p_minus >= closed.p_minus - 1e-10
    assert grid.p_plus <= closed.p_plus + 1e-10
    assert grid.p_minus - closed.p_minus <= 5e-3
    assert closed.p_plus - grid.p_plus <= 5e-3


def test_invalid_exponents_rejected():
    with pytest.raises(DomainError):
        PowerLaw(1.0)
    with pytest.raises(DomainError):
        DeltaPower(0.5, 1.0)
    with pytest.raises(DomainError):
        DeltaPower(2.0, -1.0)
    with pytest.raises(DomainError):
        Truncated(PowerLaw(2), 2.0, 1.0)
    with pytest.raises(DomainError):
        IndexPair(2.0, 1.5)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_delta_power_rejects_a_non_finite_shift(delta):
    with pytest.raises(DomainError, match="delta"):
        DeltaPower(3.0, delta)
    with pytest.raises(DomainError, match="delta"):
        from_text(f"variant=delta_power, p=3.0, delta={delta}")


@pytest.mark.parametrize(
    "lo, hi",
    [(-1.0, math.inf), (0.0, -math.inf), (math.inf, math.inf), (0.0, 0.0)],
)
def test_truncation_bounds_are_checked_once(lo, hi):
    # only (0, oo) means untruncated; every other pair is checked by Truncated
    with pytest.raises(DomainError, match="trunc_lo"):
        PowerLaw(3.0).truncate(lo, hi)
    with pytest.raises(DomainError, match="trunc_lo"):
        Truncated(PowerLaw(3.0), lo, hi)
    with pytest.raises(DomainError, match="trunc_lo"):
        from_text(f"variant=power, p=3.0, trunc_lo={lo}, trunc_hi={hi}")


def test_truncate_to_zero_and_infinity_is_the_spec_itself():
    spec = PowerLaw(3.0)
    assert spec.truncate(0.0, math.inf) is spec
    assert from_text("variant=power, p=3.0, trunc_lo=0.0") == spec


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_power2_self_conjugate():
    spec = PowerLaw(2)
    s = np.linspace(0.0, 5.0, 21)
    assert spec.conjugate(s) == pytest.approx(0.5 * s * s, rel=1e-11, abs=1e-14)


def test_conjugate_power3_against_grid_sup():
    # Independent oracle: numeric supremum of s*t - phi(t) over a dense grid.
    spec = PowerLaw(3)
    t = np.linspace(0.0, 10.0, 2_000_001)
    for s in (0.3, 1.0, 2.5):
        sup = float(np.max(s * t - spec.phi(t)))
        assert spec.conjugate(s) == pytest.approx(sup, rel=1e-9)
    assert spec.conjugate(1.0) == pytest.approx(2.0 / 3.0, rel=1e-11)


def test_conjugate_at_zero(spec):
    assert spec.conjugate(0.0) == 0.0


def test_conjugate_young_equality(spec):
    # phi(t) + phi*(phi'(t)) = t phi'(t) for every t
    t = np.logspace(-2, 1, 7)
    d = spec.d_phi(t)
    lhs = spec.phi(t) + spec.conjugate(d)
    assert lhs == pytest.approx(t * d, rel=1e-10)


def test_conjugate_spec_indices(spec):
    conj = spec.conjugate_spec()
    expected = spec.indices().conjugate()
    assert conj.indices().p_minus == pytest.approx(expected.p_minus)
    assert conj.indices().p_plus == pytest.approx(expected.p_plus)
    grid = conj.indices_grid(np.logspace(-3, 3, 256))
    assert grid.p_minus >= expected.p_minus - 5e-3
    assert grid.p_plus <= expected.p_plus + 5e-3


def test_d_phi_inv_roundtrip(spec):
    t = np.logspace(-4, 3, 40)
    back = spec.d_phi_inv(spec.d_phi(t))
    assert back == pytest.approx(t, rel=1e-10)


@pytest.mark.parametrize(
    "base, lo, hi",
    [
        (PowerLaw(1.3), 1e-3, 1e3),
        (PowerLaw(4.0), 1e-3, 1e3),
        (PowerLaw(1.3), 0.0, 10.0),
        (PowerLaw(4.0), 0.1, math.inf),
        (PowerLaw(2.5), 0.5, 0.5),
        # DeltaPower has no closed-form inverse: only the middle branch bisects.
        # Its phi (an exp of a log) rounds by ~1e-14 relative on its own beyond
        # t ~ 1e9; a two-sided truncation keeps the conjugate below that.
        (DeltaPower(1.5, 0.3), 1e-3, 1e3),
    ],
    ids=["p1.3", "p4", "hi_only", "lo_only", "lo_eq_hi", "delta_power"],
)
def test_truncated_d_phi_inv_matches_the_bisection_it_replaces(base, lo, hi):
    spec = Truncated(base, lo, hi)
    at_levels = [float(spec.d_phi(np.asarray(c))) for c in (lo, hi) if 0.0 < c < math.inf]
    s = np.concatenate([[0.0], np.logspace(-12.0, 12.0, 481), at_levels])
    bisected = invert_increasing(spec.d_phi, s)
    closed = spec.d_phi_inv(s)
    assert closed[0] == 0.0
    assert np.max(np.abs(closed - bisected)[1:] / bisected[1:]) <= 1e-12
    # the conjugate is stationary in the inverse, so it agrees more closely still
    reference = s * bisected - spec.phi(bisected)
    assert spec.conjugate(s)[0] == 0.0
    assert np.max(np.abs(spec.conjugate(s) - reference)[1:] / reference[1:]) <= 1e-14
    assert spec.d_phi_inv(float(s[100])) == closed[100]


# ---------------------------------------------------------------------------
# truncation duality
# ---------------------------------------------------------------------------


def test_truncation_dual_gap_power2_exact():
    s = np.linspace(0.0, 3.0, 64)
    gap = truncation_dual_gap(PowerLaw(2), 1.0, 1.0, s)
    assert np.max(gap) <= 1e-12


@pytest.mark.parametrize(
    "base, lo, hi",
    [
        (PowerLaw(3), 0.5, 2.0),
        (DeltaPower(1.5, 0.1), 0.2, 5.0),
        (PowerLaw(1.3), 0.1, 10.0),
        (SumPower(1.5, 3.0), 0.5, 4.0),
    ],
)
def test_truncation_dual_gap_small(base, lo, hi):
    s = np.linspace(0.0, float(base.d_phi(np.asarray(hi))), 64)
    gap = truncation_dual_gap(base, lo, hi, s)
    assert np.max(gap) <= 1e-8


def test_truncation_dual_gap_rejects_unbounded():
    with pytest.raises(DomainError):
        truncation_dual_gap(PowerLaw(2), 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# scalar inequality gaps
# ---------------------------------------------------------------------------


def test_young_gap_examples():
    assert young_gap(PowerLaw(2), 0.0, 0.0) == 0.0
    assert young_gap(PowerLaw(2), 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert young_gap(PowerLaw(3), 2.0, 5.0, 0.3) >= 0.0


@given(
    s=st.floats(min_value=0.0, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=5.0),
    lam=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_young_gap_nonnegative_property(s, t, lam):
    for spec in (PowerLaw(1.5), PowerLaw(3), DeltaPower(3, 1)):
        assert young_gap(spec, s, t, lam) >= -1e-12


def test_simonenko_gap_power_exact():
    for p in (1.5, 2.0, 3.0):
        lo, hi = simonenko_gap(PowerLaw(p), 0.7)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)


def test_simonenko_gap_examples():
    lo, hi = simonenko_gap(DeltaPower(3, 1), 1.0)
    assert lo >= 0.0 and hi >= 0.0
    lo, hi = simonenko_gap(Truncated(PowerLaw(1.5), 1.0, 2.0), 0.5)
    # quadratic branch: ratio is exactly 2, the upper index
    assert hi == pytest.approx(0.0, abs=1e-12)
    assert lo == pytest.approx(0.5, abs=1e-12)


def test_inequality_margins_no_violations(spec):
    margins = inequality_margins(spec)
    for name, margin in margins.items():
        tol = 1e-12 if name == "young" else REL_TOL
        assert margin >= -tol, f"{name} violated with margin {margin}"


@given(st.floats(min_value=1e-5, max_value=100.0), st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=150, deadline=None)
def test_scaling_property(s, lam):
    for spec in (PowerLaw(1.3), DeltaPower(3, 1), SumPower(1.5, 3)):
        idx = spec.indices()
        phi_s = float(spec.phi(np.asarray(s)))
        val = float(spec.phi(np.asarray(lam * s)))
        lo = min(lam**idx.p_plus, lam**idx.p_minus) * phi_s
        hi = max(lam**idx.p_plus, lam**idx.p_minus) * phi_s
        assert lo * (1 - 1e-10) <= val <= hi * (1 + 1e-10)


def test_joint_continuity_of_truncated_derivative():
    # phi'_(lo,hi)(t) varies continuously under small perturbations
    base = PowerLaw(3)
    rng = np.random.default_rng(42)
    for _ in range(50):
        lo = float(rng.uniform(0.05, 0.9))
        hi = float(rng.uniform(1.1, 50.0))
        t = float(rng.uniform(0.0, 60.0))
        eps = 1e-7
        ref = float(Truncated(base, lo, hi).d_phi(np.asarray(t)))
        pert = float(
            Truncated(base, lo + eps, hi + eps).d_phi(np.asarray(min(t + eps, 60.0)))
        )
        assert abs(pert - ref) <= 1e-4 * (1.0 + abs(ref))


def test_quadratic_growth_flags():
    assert PowerLaw(2).has_quadratic_growth()
    assert not PowerLaw(3).has_quadratic_growth()
    tr = Truncated(PowerLaw(3), 0.1, 10.0)
    assert tr.has_quadratic_growth()
    lo, hi = tr.quadratic_growth_bounds()
    dd = tr.dd_phi(INDEX_GRID)
    assert lo <= dd.min() * (1 + 1e-12)
    assert dd.max() <= hi * (1 + 1e-12)
    assert not Truncated(PowerLaw(3), 0.1, math.inf).has_quadratic_growth()


@pytest.mark.parametrize(
    "spec, bounds",
    [
        (PowerLaw(2), (1.0, 1.0)),
        (DeltaPower(2, 0.3), (1.0, 1.0)),
        (DeltaPower(2, 0.1), (1.0, 1.0)),
        (SumPower(2, 2), (4.0, 4.0)),
        (Truncated(PowerLaw(2), 0.5, math.inf), (1.0, 1.0)),
    ],
    ids=["power", "delta_power", "delta_power_0.1", "sum", "truncated_lo"],
)
def test_quadratic_growth_bounds_of_index_two_specs(spec, bounds):
    assert spec.has_quadratic_growth()
    assert spec.quadratic_growth_bounds() == bounds


@pytest.mark.parametrize("spec", [PowerLaw(3), DeltaPower(3, 1), SumPower(2, 3)], ids=spec_id)
def test_no_quadratic_growth_off_index_two(spec):
    assert not spec.has_quadratic_growth()
    assert spec.quadratic_growth_bounds() is None


def test_one_sided_truncations_match_base_on_their_side():
    base = PowerLaw(3)
    up = Truncated(base, 0.0, 2.0)
    down = Truncated(base, 0.5, math.inf)
    t_small = np.linspace(0.0, 1.9, 20)
    t_large = np.linspace(0.6, 50.0, 20)
    assert up.phi(t_small) == pytest.approx(base.phi(t_small), rel=1e-13)
    assert down.d_phi(t_large) == pytest.approx(base.d_phi(t_large), rel=1e-13)


@pytest.mark.parametrize(
    "base, lo, hi",
    [
        (PowerLaw(1.5), 0.1, 10.0),
        (PowerLaw(3.0), 0.5, math.inf),
        (DeltaPower(1.5, 0.3), 0.0, 2.0),
    ],
    ids=["two_sided", "lo_only", "hi_only"],
)
def test_truncated_evaluators_are_their_branch_formulas_at_the_edges(base, lo, hi):
    # the documented formulas, bit for bit: phi'/t is frozen to k_lo on [0, lo]
    # and to k_hi on [hi, oo); at t = hi, phi takes the middle branch, phi'' the top one
    spec = Truncated(base, lo, hi)

    def on_base(func, t):  # a branch sees the base on an array
        return float(func(np.array([t]))[0])

    def phi_mid(t):
        if lo == 0.0:
            return on_base(base.phi, t)
        return on_base(base.phi, t) - float(base.phi(np.asarray(lo))) + 0.5 * lo * base.d_phi(lo)

    k_lo = base.d_phi(lo) / lo if lo > 0.0 else None
    k_hi = base.d_phi(hi) / hi if math.isfinite(hi) else None
    ts = [t for t in (0.0, lo, hi) if t < math.inf]
    phi, d_phi, dd_phi = [], [], []
    for t in ts:
        c = min(max(t, lo), hi)
        d_phi.append(on_base(base.d_phi, c) / c * t if c > 0.0 else 0.0)
        if lo > 0.0 and t <= lo:
            phi.append(0.5 * k_lo * t * t)
            dd_phi.append(k_lo)
        else:
            phi.append(phi_mid(t))
            dd_phi.append(k_hi if t == hi else on_base(base.dd_phi, t))
    t = np.array(ts)
    assert spec.phi(t).tolist() == [float(v) for v in phi]
    assert spec.d_phi(t).tolist() == [float(v) for v in d_phi]
    assert spec.dd_phi(t).tolist() == [float(v) for v in dd_phi]

    # s = phi'(lo) and phi'(hi) take the frozen inverses s / k; phi'(0) = 0 the base's
    s, inverse = [], []
    if lo > 0.0:
        s.append(lo * k_lo)
        inverse.append(lo * k_lo / k_lo)
    else:
        s.append(0.0)
        inverse.append(on_base(base.d_phi_inv, 0.0))
    if k_hi is not None:
        s.append(hi * k_hi)
        inverse.append(hi * k_hi / k_hi)
    assert spec.d_phi_inv(np.array(s)).tolist() == [float(v) for v in inverse]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_text_roundtrip(spec):
    if isinstance(spec, Truncated) and math.isinf(spec.hi):
        pass  # inf round-trips via float('inf')
    text = to_text(spec)
    back = from_text(text)
    assert back == spec


def test_text_inline_commas():
    spec = from_text("variant=delta_power, p=3.0, delta=1.0, trunc_lo=0.1, trunc_hi=10.0")
    assert spec == Truncated(DeltaPower(3.0, 1.0), 0.1, 10.0)


def test_text_unknown_key_names_the_key():
    with pytest.raises(DomainError, match="wibble"):
        from_text("variant=power\np=2.0\nwibble=1\n")


def test_text_missing_and_malformed():
    with pytest.raises(DomainError):
        from_text("p=2.0")
    with pytest.raises(DomainError):
        from_text("variant=power\np=two")
    with pytest.raises(DomainError):
        from_text("variant=frobnicate\np=2.0")
    with pytest.raises(DomainError):
        from_text("variant=power\np=2.0\nq=3.0")
