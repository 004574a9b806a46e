"""Lattice Lipschitz truncation: maximal operator, envelopes, forcing wrapper."""

import numpy as np
import pytest
from scipy.signal import fftconvolve
from scipy.spatial.distance import cdist

from orliczfem import truncation
from orliczfem.fem import FemField, quad_cache
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw
from orliczfem.regularity import default_disk_forcing
from orliczfem.suites import run_suite
from orliczfem.truncation import (
    BAD_SET_LEVEL,
    GridFunction,
    _convolve_same,
    _mcshane_midpoint,
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


def _bad(gf, lam):
    return bad_set(maximal_function(gradient_magnitude(gf)), lam)


def _truncate(gf, lam):
    return lipschitz_truncate(gf, _bad(gf, lam), lam)


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


def test_sample_rejects_a_non_square_box():
    # one spacing serves both axes, so a lattice box must be square
    with pytest.raises(DomainError, match="square"):
        GridFunction.sample(_spike, (0.0, 1.0, 0.0, 2.0), 8)


def test_grid_interp_bilinear():
    gf = GridFunction.sample(lambda X, Y: 2 * X + 3 * Y, BBOX, 17)
    pts = np.random.default_rng(0).uniform(0, 1, (50, 2))
    assert gf.interp(pts) == pytest.approx(2 * pts[:, 0] + 3 * pts[:, 1], abs=1e-12)


def test_maximal_function_dominates_pointwise_and_constants():
    mag = np.full((32, 32), 3.0)
    M = maximal_function(mag)
    assert np.all(M >= 3.0 - 1e-12)  # point radius included
    assert M[16, 16] == pytest.approx(3.0, rel=1e-12)  # averages cannot exceed the max
    single = np.zeros((33, 33))
    single[16, 16] = 1.0
    M1 = maximal_function(single)
    assert M1[16, 16] == pytest.approx(1.0)
    assert np.all(M1 >= 0.0)


def _disc(radius):
    ticks = np.arange(-radius, radius + 1)
    ox, oy = np.meshgrid(ticks, ticks, indexing="ij")
    return (ox * ox + oy * oy <= radius * radius).astype(float)


def _lattice(kind, shape, rng):
    if kind == "random":
        return rng.uniform(0.0, 3.0, shape)
    if kind == "zero":
        return np.zeros(shape)
    if kind == "spike":
        mag = np.zeros(shape)
        mag[shape[0] // 3, shape[1] // 2] = 1.0
        return mag
    return gradient_magnitude(GridFunction.sample(_spike, BBOX, shape[0]))  # "cone"


MAXIMAL_CASES = [
    ("random", (64, 64)),
    ("random", (50, 70)),
    ("random", (7, 9)),
    ("random", (1, 9)),
    ("random", (9, 1)),
    ("random", (1, 40)),
    ("random", (1, 1)),
    ("zero", (16, 16)),
    ("zero", (1, 5)),
    ("spike", (33, 20)),
    ("cone", (96, 96)),
]


@pytest.mark.parametrize("kind,shape", MAXIMAL_CASES)
def test_maximal_function_is_the_fftconvolve_maximal_function(monkeypatch, kind, shape):
    mag = _lattice(kind, shape, np.random.default_rng(3))
    for radius in (1, 2, 3, 4, 8, 16, 32, 64, 128):  # past the lattice side too
        if radius < 2 * max(shape):
            kernel = _disc(radius)
            expected = fftconvolve(mag, kernel, mode="same")
            assert np.array_equal(_convolve_same(mag, kernel), expected)
    M = maximal_function(mag)
    monkeypatch.setattr(truncation, "_convolve_same", lambda m, k: fftconvolve(m, k, mode="same"))
    assert np.array_equal(M, maximal_function(mag))


def _brute_force_maximal(mag):
    """max over the point value and the zero-extended disc averages of radius 1, 2, 4, ... < 2n."""
    I, J = np.meshgrid(*(np.arange(s) for s in mag.shape), indexing="ij")
    pts = np.column_stack([I.ravel(), J.ravel()])
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    out = mag.ravel().copy()
    radius = 1
    while radius < 2 * max(mag.shape):
        inside = d2 <= radius * radius
        out = np.maximum(out, inside @ mag.ravel() / _disc(radius).sum())
        radius *= 2
    return out.reshape(mag.shape)


@pytest.mark.parametrize("shape", [(12, 12), (5, 12), (12, 3), (1, 7), (6, 1), (2, 2), (1, 1)])
@pytest.mark.parametrize("kind", ["random", "zero", "spike"])
def test_maximal_function_matches_brute_force_disc_averages(shape, kind):
    mag = _lattice(kind, shape, np.random.default_rng(5))
    brute = _brute_force_maximal(mag)
    np.testing.assert_allclose(maximal_function(mag), brute, rtol=1e-12, atol=0.0)


def test_bad_set_from_reused_maximal_function():
    for func in (_spike, _smooth):
        v = GridFunction.sample(func, BBOX, 40)
        maximal = maximal_function(gradient_magnitude(v))
        for lam in (0.5, 2.0, 8.0, 64.0):
            bad = bad_set(maximal, lam)
            assert not np.any(bad & v.boundary_mask())  # the rim stays good
            interior = ~v.boundary_mask()
            assert np.array_equal(bad[interior], maximal[interior] > BAD_SET_LEVEL * lam)
    with pytest.raises(DomainError):
        bad_set(maximal, -1.0)


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
            good = ~_bad(v, lam)
            assert np.array_equal(_mcshane_midpoint(v, good, lam), _all_pairs_midpoint(v, good, lam))


@pytest.fixture
def distances(monkeypatch):
    """Sizes of the envelope search's ``cdist`` calls, in call order."""
    sizes = []

    def counting_cdist(a, b):
        sizes.append(len(a) * len(b))
        return cdist(a, b)

    # the envelope search imports cdist when called, so patch it where it is looked up
    monkeypatch.setattr("scipy.spatial.distance.cdist", counting_cdist)
    return sizes


def test_envelope_search_is_pruned(distances):
    # the good values span [0, 1]; the bad set is four patches at the mid-sides
    v = GridFunction.sample(_smooth, BBOX, 64)
    bad = _bad(v, 12.0)
    assert bad.any() and np.ptp(v.values[~bad]) > 0.9
    lipschitz_truncate(v, bad, 12.0)
    assert 0 < sum(distances) < 0.1 * v.values.size * np.count_nonzero(~bad)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_zero_rim_alone_is_decided_without_a_search(distances, lam):
    n = 37
    values = np.zeros((n, n))
    values[1:-1, 1:-1] = np.random.default_rng(5).normal(size=(n - 2, n - 2))
    gf = GridFunction(values, (0.1, -0.4), 1.0 / (n - 1))
    good = gf.boundary_mask()
    got = _mcshane_midpoint(gf, good, lam)
    assert distances == []
    assert np.array_equal(got, _all_pairs_midpoint(gf, good, lam))


@pytest.mark.parametrize("kind", ["rim", "one_bad", "random"])
@pytest.mark.parametrize("c", [-3.7, 2e-16, 1.0 / 3.0, 7e5])
@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0, 1e3])
def test_constant_good_set_equals_all_pairs(kind, c, lam):
    # the reach is d0(x) alone, so only the nearest good points are searched;
    # their cone values must round as the oracle's do
    n = 23
    rng = np.random.default_rng([len(kind), int(np.log10(lam)) + 3])
    good = _good_set(kind, n, rng)
    values = rng.normal(size=(n, n))
    values[good] = c
    gf = GridFunction(values, (-0.3, 0.2), 1.0 / (n - 1))
    assert np.array_equal(_mcshane_midpoint(gf, good, lam), _all_pairs_midpoint(gf, good, lam))


def test_suite_envelopes_equal_all_pairs(monkeypatch):
    # every envelope truncation_suite takes, on the inputs it really makes: good
    # sets that are the zero rim alone, rims at rounding level, and mixed sets
    pruned = truncation._mcshane_midpoint
    kinds = set()

    def checked(gf, good, lam):
        got = pruned(gf, good, lam)
        assert np.array_equal(got, _all_pairs_midpoint(gf, good, lam))
        top = np.abs(gf.values[good]).max()
        rim_only = np.array_equal(good, gf.boundary_mask())
        kinds.add("mixed" if not rim_only else "zero rim" if top == 0.0 else "rounding rim")
        return got

    monkeypatch.setattr(truncation, "_mcshane_midpoint", checked)
    assert run_suite("truncation_suite", {"truncation": {"lattice_n": 32}}, seed=1).passed
    assert kinds == {"zero rim", "rounding rim", "mixed"}


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
    trunc = lipschitz_truncate(gf, bad, lam)
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
    T = _truncate(v, 1.0)
    assert discrete_lipschitz(T) <= 1.0 + 1e-12


def test_smooth_function_with_generous_level_unchanged():
    v = GridFunction.sample(_smooth, BBOX, 64)
    T = _truncate(v, 1000.0)
    assert np.array_equal(T.values, v.values)
    (rec,) = truncation_modular_bounds(PowerLaw(2), v, [1000.0])
    assert (rec.value_ratio, rec.grad_ratio) == (1.0, 1.0)
    assert rec.diff_modular == 0.0
    assert not rec.bad.any()


def test_disagreement_confined_to_bad_set():
    for func in (_spike, _smooth):
        v = GridFunction.sample(func, BBOX, 48)
        for lam in (0.5, 2.0, 8.0):
            bad = _bad(v, lam)
            T = lipschitz_truncate(v, bad, lam)
            scale = max(1.0, float(np.abs(v.values).max()))
            disagree = np.abs(v.values - T.values) > 1e-12 * scale
            assert not np.any(disagree & ~bad)


def test_recovery_in_the_limit():
    v = GridFunction.sample(_spike, BBOX, 48)
    spec = PowerLaw(1.5)
    T = _truncate(v, 1e4)
    diff = GridFunction(v.values - T.values, v.origin, v.spacing)
    assert grid_modular(spec, diff, "grad") == 0.0


def test_truncate_requires_zero_rim():
    gf = GridFunction(np.ones((8, 8)), (0.0, 0.0), 0.1)
    maximal = maximal_function(gradient_magnitude(gf))
    with pytest.raises(DomainError):
        lipschitz_truncate(gf, bad_set(maximal, 1.0), 1.0)
    with pytest.raises(DomainError):
        bad_set(maximal, 0.0)


def test_truncate_rejects_an_empty_good_set():
    gf = GridFunction(np.zeros((8, 8)), (0.0, 0.0), 1.0 / 7)
    with pytest.raises(DomainError, match="good set is empty"):
        lipschitz_truncate(gf, np.ones((8, 8), dtype=bool), 1.0)


def test_truncate_rejects_a_bad_level_or_bad_set():
    v = GridFunction.sample(_spike, BBOX, 16)
    bad = _bad(v, 1.0)
    assert bad.any()
    with pytest.raises(DomainError, match="level"):
        lipschitz_truncate(v, bad, 0.0)
    with pytest.raises(DomainError, match="shape"):
        lipschitz_truncate(v, bad[1:], 1.0)


def test_lattice_needs_two_points_a_side(disk):
    with pytest.raises(DomainError, match="at least 2 points"):
        GridFunction.sample(_spike, BBOX, 1)
    f = FemField.from_callable(disk, lambda x, y: np.stack([1 - x * x - y * y] * 2), True)
    with pytest.raises(DomainError, match="at least 2 points"):
        f_truncation_for_solver(f, 2.0, PowerLaw(3), lattice_n=1)


def test_modular_bounds_oscillatory():
    v = GridFunction.sample(
        lambda X, Y: 16 * np.sin(4 * np.pi * X) * np.sin(4 * np.pi * Y) * X * (1 - X) * Y * (1 - Y),
        BBOX,
        64,
    )
    spec = PowerLaw(3)
    median = float(np.median(gradient_magnitude(v)))
    levels = [0.5 * median, median, 4.0 * median, 1e4]
    records = truncation_modular_bounds(spec, v, levels)
    assert [rec.level for rec in records] == levels
    for rec, lam in zip(records, levels):
        bad = _bad(v, lam)
        T = lipschitz_truncate(v, bad, lam)
        diff = GridFunction(v.values - T.values, v.origin, v.spacing)
        diff_mod = grid_modular(spec, diff, "grad")
        assert np.array_equal(rec.bad, bad)
        assert np.array_equal(rec.trunc.values, T.values)
        assert rec.value_ratio == grid_modular(spec, T, "value") / grid_modular(spec, v, "value")
        assert rec.grad_ratio == grid_modular(spec, T, "grad") / grid_modular(spec, v, "grad")
        assert rec.diff_modular == diff_mod
    middle = records[1]
    assert 0.0 < middle.bad.mean() < 1.0
    assert 0.0 <= middle.value_ratio <= 10.0 and 0.0 <= middle.grad_ratio <= 10.0
    assert middle.diff_modular > 0.0
    assert records[-1].diff_modular == 0.0 and not records[-1].bad.any()


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


@pytest.mark.parametrize("domain", ["half_disk", "unit_disk_polygonal(3)"])
def test_forcing_lattice_is_square_on_a_non_square_mesh(domain):
    # the bounding boxes of these meshes are not square; sampling the forcing
    # on the lattice and interpolating back must still recover it inside
    mesh = build_mesh(domain, 1.0 / 8.0)
    f = FemField.from_callable(
        mesh, lambda x, y: np.stack([np.sin(2 * x + 1) * np.cos(3 * y), x * y + y])
    )
    cache = quad_cache(mesh)
    inner = mesh.boundary_distance(cache.dof_coords) >= 0.15
    comps = truncation._forcing_sample(f, 64)[0]
    assert comps[0].values.shape == (64, 64)
    back = np.column_stack([g.interp(cache.dof_coords[inner]) for g in comps])
    err = np.abs(back - f.coeffs[inner]).max() / np.abs(f.coeffs[inner]).max()
    assert err <= 5e-2


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_bad_set_of_a_non_finite_maximal_function_raises(value):
    maximal = np.zeros((8, 8))
    maximal[3, 4] = value
    with pytest.raises(DomainError, match="maximal function .* not finite"):
        bad_set(maximal, 1.0)


def test_forcing_whose_gradient_overflows_raises():
    # the lattice gradient overflows to inf and the maximal function to NaN: a
    # bad set thresholded from it would be empty, as for an inert forcing
    f = default_disk_forcing(build_mesh("unit_disk", 0.5), 1e300)
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
        f_truncation_for_solver(f, 10.0, PowerLaw(1.3), 32)


def test_forcing_requires_zero_trace(disk):
    f = FemField.from_callable(disk, lambda x, y: np.stack([x, y]))
    with pytest.raises(DomainError):
        f_truncation_for_solver(f, 1.0, PowerLaw(2))


@pytest.mark.parametrize("trunc_hi", [-2.0, 0.0, np.nan])
def test_forcing_rejects_a_trunc_hi_that_is_not_positive(trunc_hi):
    # trunc_hi = -2 truncated at phi'(-2) = 4, as trunc_hi = 2 does
    f = default_disk_forcing(build_mesh("unit_disk", 0.25), 30.0)
    with pytest.raises(DomainError, match="trunc_hi"):
        f_truncation_for_solver(f, trunc_hi, PowerLaw(3), 32)


def test_forcing_sampled_once_for_the_lifetime_of_its_field(disk, monkeypatch):
    def rough(x, y):
        b = (1.0 - x * x - y * y) ** 2
        return np.stack([b * np.sin(6 * np.pi * x), b * np.cos(5 * np.pi * y)])

    sampled = []
    evaluate_located = truncation.evaluate_located

    def counted(field, cells, bary):
        sampled.append(field)
        return evaluate_located(field, cells, bary)

    maximal = []
    maximal_function = truncation.maximal_function

    def counted_maximal(mag):
        maximal.append(mag)
        return maximal_function(mag)

    monkeypatch.setattr(truncation, "evaluate_located", counted)
    monkeypatch.setattr(truncation, "maximal_function", counted_maximal)
    spec = PowerLaw(1.3)
    f = FemField.from_callable(disk, rough, zero_boundary=True)
    levels = [f_truncation_for_solver(f, hi, spec, lattice_n=32) for hi in (2.0, 10.0, 2.0)]
    assert all(level is not f for level in levels)
    assert len(sampled) == 1 and len(maximal) == 1  # and so is its maximal function
    assert np.array_equal(levels[0].coeffs, levels[2].coeffs)

    with pytest.raises(ValueError, match="read-only"):
        f.coeffs *= 0.5  # so the sample cannot go stale
    # a forcing with other coefficients is another field, sampled on its own
    halved = FemField(disk, 0.5 * f.coeffs, zero_boundary=True)
    f_truncation_for_solver(halved, 2.0, spec, lattice_n=32)
    assert sampled == [f, halved] and len(maximal) == 2
