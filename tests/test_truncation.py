"""Lattice Lipschitz truncation: maximal operator, envelopes, forcing wrapper."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from orliczfem import truncation
from orliczfem.fem import FemField
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw
from orliczfem.truncation import (
    GridFunction,
    _bad_from_maximal,
    _mcshane_midpoint,
    _truncate_outside,
    bad_set,
    discrete_lipschitz,
    f_truncation_for_solver,
    gradient_magnitude,
    grid_modular,
    lipschitz_truncate,
    maximal_function,
    truncation_modular_bounds,
)

BBOX = (0.0, 1.0, 0.0, 1.0)


def _spike(X, Y):
    return np.maximum(0.0, 1.0 - 10.0 * np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2))


def _smooth(X, Y):
    return np.sin(np.pi * X) * np.sin(np.pi * Y)


# ---------------------------------------------------------------------------
# grid functions and the maximal operator
# ---------------------------------------------------------------------------


def test_grid_function_validation():
    with pytest.raises(DomainError):
        GridFunction(np.zeros(5), (0, 0), 0.1)
    with pytest.raises(DomainError):
        GridFunction(np.zeros((4, 4)), (0, 0), 0.0)
    with pytest.raises(DomainError):
        GridFunction(np.full((4, 4), np.nan), (0, 0), 0.1)


def test_grid_interp_bilinear():
    gf = GridFunction.sample(lambda X, Y: 2 * X + 3 * Y, BBOX, 17)
    pts = np.random.default_rng(0).uniform(0, 1, (50, 2))
    assert gf.interp(pts) == pytest.approx(2 * pts[:, 0] + 3 * pts[:, 1], abs=1e-12)


def test_maximal_function_dominates_pointwise_and_constants():
    mag = np.full((32, 32), 3.0)
    M = maximal_function(mag, 1.0 / 31)
    assert np.all(M >= 3.0 - 1e-12)  # point radius included
    assert M[16, 16] == pytest.approx(3.0, rel=1e-12)  # averages cannot exceed the max
    single = np.zeros((33, 33))
    single[16, 16] = 1.0
    M1 = maximal_function(single, 1.0 / 32)
    assert M1[16, 16] == pytest.approx(1.0)
    assert np.all(M1 >= 0.0)


def test_bad_set_from_reused_maximal_function():
    for func in (_spike, _smooth):
        v = GridFunction.sample(func, BBOX, 40)
        maximal = maximal_function(gradient_magnitude(v), v.spacing)
        for lam in (0.5, 2.0, 8.0, 64.0):
            assert np.array_equal(_bad_from_maximal(v, maximal, lam), bad_set(v, lam))
    with pytest.raises(DomainError):
        _bad_from_maximal(v, maximal, -1.0)


# ---------------------------------------------------------------------------
# McShane envelopes: the pruned search against all pairs
# ---------------------------------------------------------------------------


def _all_pairs_midpoint(gf, good, lam):
    """Oracle: both envelopes from every (lattice point, good point) distance."""
    X, Y = gf.coords()
    d = cdist(np.column_stack([X.ravel(), Y.ravel()]), np.column_stack([X[good], Y[good]]))
    vals = gf.values[good][None, :]
    upper = np.min(vals + lam * d, axis=1)
    lower = np.max(vals - lam * d, axis=1)
    mid = np.clip(0.5 * (upper + lower), gf.values.min(), gf.values.max())
    return mid.reshape(gf.values.shape)


def _good_set(kind, n, rng):
    good = np.ones((n, n), dtype=bool)
    if kind == "rim":
        good[1:-1, 1:-1] = False
    elif kind == "one_bad":
        good[n // 3, n // 2] = False
    elif kind == "random":
        good = rng.uniform(size=(n, n)) < 0.3
        good[0, :] = good[-1, :] = good[:, 0] = good[:, -1] = True
    return good


@pytest.mark.parametrize("n", [37, 16, 9])
@pytest.mark.parametrize("kind", ["rim", "one_bad", "random"])
@pytest.mark.parametrize("lam", [1e-3, 1e-1, 1.0, 10.0, 1e3])
def test_pruned_envelope_equals_all_pairs(n, kind, lam):
    rng = np.random.default_rng([n, len(kind), int(np.log10(lam)) + 3])
    values = rng.normal(size=(n, n))  # far from lam-Lipschitz for the small levels
    gf = GridFunction(values, (-0.3, 0.2), 1.0 / (n - 1))
    good = _good_set(kind, n, rng)
    assert np.array_equal(_mcshane_midpoint(gf, good, lam), _all_pairs_midpoint(gf, good, lam))


@pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
def test_pruned_envelope_reaches_a_distant_optimum(lam):
    # a plateau at max v and one good point at min v: inside the plateau the
    # upper envelope is the far point's cone up to |x - y| = s / lam, so the
    # search radius must reach the full d0 + s / lam
    n = 37
    values = np.ones((n, n))
    values[-1, -1] = -1.0
    gf = GridFunction(values, (0.0, 0.0), 1.0 / (n - 1))
    good = np.zeros((n, n), dtype=bool)
    good[: n // 2] = True
    good[-1, -1] = True
    assert np.array_equal(_mcshane_midpoint(gf, good, lam), _all_pairs_midpoint(gf, good, lam))


def test_pruned_envelope_equals_all_pairs_on_smooth_truncations():
    for func in (_spike, _smooth):
        v = GridFunction.sample(func, BBOX, 45)
        for lam in (0.5, 2.0, 8.0, 64.0):
            good = ~bad_set(v, lam)
            assert np.array_equal(_mcshane_midpoint(v, good, lam), _all_pairs_midpoint(v, good, lam))


def test_envelope_search_is_pruned(monkeypatch):
    distances = []

    def counting_cdist(a, b):
        distances.append(len(a) * len(b))
        return cdist(a, b)

    monkeypatch.setattr(truncation, "cdist", counting_cdist)
    v = GridFunction.sample(_spike, BBOX, 64)
    good = ~bad_set(v, 8.0)
    lipschitz_truncate(v, 8.0)
    assert 0 < sum(distances) < 0.1 * v.values.size * np.count_nonzero(good)


def test_envelope_differs_from_non_lipschitz_v_on_good_set():
    # v jumps by 1 between neighbouring good points, far steeper than lam:
    # the envelope must not copy v there, and the containment check sees it
    n = 24
    values = np.zeros((n, n))
    values[1:-1, 1:-1] = np.indices((n - 2, n - 2)).sum(axis=0) % 2
    gf = GridFunction(values, (0.0, 0.0), 1.0 / (n - 1))
    bad = np.zeros((n, n), dtype=bool)
    bad[n // 2, n // 2] = True
    lam = 1.0
    trunc = _truncate_outside(gf, bad, lam)
    assert discrete_lipschitz(trunc) <= lam * (1.0 + 1e-12)
    disagree = np.abs(gf.values - trunc.values) > 1e-12
    assert np.any(disagree & ~bad)  # lipschitz_bad_set_containment would fail
    assert np.array_equal(trunc.values, _all_pairs_midpoint(gf, ~bad, lam))


# ---------------------------------------------------------------------------
# truncation properties
# ---------------------------------------------------------------------------


def test_spike_truncated_to_level():
    v = GridFunction.sample(_spike, BBOX, 64)
    assert discrete_lipschitz(v) > 9.0
    T = lipschitz_truncate(v, 1.0)
    assert discrete_lipschitz(T) <= 1.0 + 1e-12


def test_smooth_function_with_generous_level_unchanged():
    v = GridFunction.sample(_smooth, BBOX, 64)
    T = lipschitz_truncate(v, 1000.0)
    assert np.array_equal(T.values, v.values)
    ratios = truncation_modular_bounds(PowerLaw(2), v, 1000.0)
    assert ratios[0] == 1.0 and ratios[1] == 1.0
    assert ratios[2] == 0.0 and ratios[3] == 0.0


def test_disagreement_confined_to_bad_set():
    for func in (_spike, _smooth):
        v = GridFunction.sample(func, BBOX, 48)
        for lam in (0.5, 2.0, 8.0):
            T = lipschitz_truncate(v, lam)
            bad = bad_set(v, lam)
            scale = max(1.0, float(np.abs(v.values).max()))
            disagree = np.abs(v.values - T.values) > 1e-12 * scale
            assert not np.any(disagree & ~bad)


def test_recovery_in_the_limit():
    v = GridFunction.sample(_spike, BBOX, 48)
    spec = PowerLaw(1.5)
    T = lipschitz_truncate(v, 1e4)
    diff = GridFunction(v.values - T.values, v.origin, v.spacing)
    assert grid_modular(spec, diff, "grad") == 0.0


def test_truncate_requires_zero_rim():
    gf = GridFunction(np.ones((8, 8)), (0.0, 0.0), 0.1)
    with pytest.raises(DomainError):
        lipschitz_truncate(gf, 1.0)
    with pytest.raises(DomainError):
        bad_set(gf, 0.0)


def test_modular_bounds_oscillatory():
    v = GridFunction.sample(
        lambda X, Y: 16 * np.sin(4 * np.pi * X) * np.sin(4 * np.pi * Y) * X * (1 - X) * Y * (1 - Y),
        BBOX,
        64,
    )
    lam = float(np.median(gradient_magnitude(v)))
    rv, rg, rd, frac = truncation_modular_bounds(PowerLaw(3), v, lam)
    assert 0.0 <= rv <= 10.0
    assert 0.0 <= rg <= 10.0
    assert 0.0 <= rd <= 10.0
    assert 0.0 < frac < 1.0


# ---------------------------------------------------------------------------
# forcing wrapper
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def disk():
    return build_mesh("unit_disk", 1.0 / 8.0)


def test_smooth_forcing_below_level_returned_unchanged(disk):
    def gentle(x, y):
        b = (1.0 - x * x - y * y) ** 2
        return np.stack([b, -0.5 * b])

    f = FemField.from_callable(disk, gentle, zero_boundary=True)
    spec = PowerLaw(3)
    out = f_truncation_for_solver(f, 10.0, spec)  # level phi'(10) = 100 >> |grad f|
    assert out is f


def test_rough_forcing_truncated_to_level(disk):
    def rough(x, y):
        b = (1.0 - x * x - y * y) ** 2
        return np.stack([b * np.sin(6 * np.pi * x), b * np.cos(5 * np.pi * y)])

    f = FemField.from_callable(disk, rough, zero_boundary=True)
    spec = PowerLaw(1.3)
    lam = float(spec.d_phi(np.asarray(2.0)))  # well below max |grad f|
    out = f_truncation_for_solver(f, 2.0, spec, lattice_n=64)
    assert out is not f
    assert out.zero_boundary
    # at lattice resolution each component obeys the level
    lo = disk.nodes.min(axis=0)
    hi = disk.nodes.max(axis=0)
    from orliczfem.fem import evaluate_field

    xs = np.linspace(lo[0], hi[0], 64)
    ys = np.linspace(lo[1], hi[1], 64)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = evaluate_field(out, np.column_stack([X.ravel(), Y.ravel()]))
    for c in (0, 1):
        comp = GridFunction(vals[:, c].reshape(64, 64), (lo[0], lo[1]), xs[1] - xs[0])
        # interpolation back to P2 and resampling smears by one lattice cell
        assert discrete_lipschitz(comp) <= lam * 1.6


def test_forcing_levels_recover_original(disk):
    def rough(x, y):
        b = (1.0 - x * x - y * y) ** 2
        return np.stack([b * np.sin(6 * np.pi * x), b * np.cos(5 * np.pi * y)])

    f = FemField.from_callable(disk, rough, zero_boundary=True)
    spec = PowerLaw(1.3)
    hi_levels = [2.0, 10.0, 1e3, 1e6]
    gaps = []
    for hi in hi_levels:
        out = f_truncation_for_solver(f, hi, spec)
        d = out.coeffs - f.coeffs
        gaps.append(float(np.abs(d).max()))
    assert gaps[-1] == 0.0
    assert gaps[0] >= gaps[-1]


def test_forcing_requires_zero_trace(disk):
    f = FemField.from_callable(disk, lambda x, y: np.stack([x, y]))
    with pytest.raises(DomainError):
        f_truncation_for_solver(f, 1.0, PowerLaw(2))
