"""Newton solver, line search, manufactured convergence, and the continuation."""

import math

import numpy as np
import pytest
import sympy
from scipy.sparse import linalg as splinalg
from scipy.sparse.linalg import splu

from orliczfem import fem, solver
from orliczfem.fem import (
    FemField,
    assemble_jacobian,
    assemble_residual,
    gradient_at_qp,
    local_load,
    quad_cache,
    random_zero_boundary_field,
    strain_mandel,
    values_at_qp,
)
from orliczfem.manufactured import (
    convergence_study,
    exact_field,
    forcing_field,
    h1_error,
    sine_bubble,
)
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw, Truncated
from orliczfem.regularity import default_disk_forcing
from orliczfem.solver import (
    ContinuationError,
    NonConvergenceError,
    SolveConfig,
    TraceRow,
    delta_continuation,
    energy,
    solve,
)


@pytest.fixture(scope="module")
def disk():
    return build_mesh("unit_disk", 1.0 / 6.0)


@pytest.fixture(scope="module")
def swirl(disk):
    def func(x, y):
        b = (1.0 - x * x - y * y) ** 2
        return np.stack([b * y, b * x])

    return FemField.from_callable(disk, func, zero_boundary=True)


def test_zero_forcing_zero_solution(disk):
    u, trace = solve(Truncated(PowerLaw(3), 0.01, 100.0), FemField.zeros(disk))
    assert trace.iterations == 0
    assert np.all(u.coeffs == 0.0)
    assert u.zero_boundary


def test_quadratic_growth_required(disk):
    with pytest.raises(DomainError, match="quadratic growth"):
        solve(PowerLaw(3), FemField.zeros(disk))


def test_config_validation():
    with pytest.raises(DomainError):
        SolveConfig(newton_tol=0.0)
    with pytest.raises(DomainError):
        SolveConfig(armijo_c=1.5)
    with pytest.raises(DomainError):
        SolveConfig(delta_schedule=((1e-2, 1e2), (1e-1, 1e1)))
    with pytest.raises(DomainError, match="max_iters"):
        SolveConfig(max_iters=-1)


def test_energy_monotone_along_trace(disk, swirl):
    _, trace = solve(Truncated(PowerLaw(3), 0.01, 100.0), swirl)
    energies = [row.energy for row in trace.rows]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    assert energies[-1] <= 0.0  # J(u) <= J(0) = 0


def test_galerkin_orthogonality_at_solution(disk, swirl):
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    cfg = SolveConfig(newton_tol=1e-10)
    u, _ = solve(spec, swirl, cfg)
    residual = assemble_residual(spec, u, swirl)
    free = ~quad_cache(disk).boundary_vector()
    assert np.abs(residual[free]).max() <= cfg.newton_tol


def test_uniqueness_from_different_initial_guesses(disk, swirl):
    spec = Truncated(PowerLaw(2), 1e-4, 1e4)
    cfg = SolveConfig(newton_tol=1e-10)
    u1, _ = solve(spec, swirl, cfg)
    rng = np.random.default_rng(17)
    u2, _ = solve(spec, swirl, cfg, initial=random_zero_boundary_field(disk, rng))
    diff = FemField(disk, u1.coeffs - u2.coeffs, zero_boundary=True)
    g = gradient_at_qp(diff)
    v = values_at_qp(diff)
    cache = quad_cache(disk)
    h1 = math.sqrt(
        float(np.sum(cache.weights * (np.sum(g * g, axis=(-2, -1)) + np.sum(v * v, axis=-1))))
    )
    assert h1 <= 10.0 * cfg.newton_tol


def test_nonconvergence_carries_trace(disk, swirl):
    cfg = SolveConfig(newton_tol=1e-14, max_iters=1)
    with pytest.raises(NonConvergenceError) as err:
        solve(Truncated(PowerLaw(3), 0.01, 100.0), swirl, cfg)
    assert len(err.value.trace.rows) >= 1


def test_trace_csv(disk, swirl, tmp_path):
    _, trace = solve(Truncated(PowerLaw(3), 0.01, 100.0), swirl)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,energy,residual,step"
    assert len(lines) == len(trace.rows) + 1
    assert all(isinstance(row, TraceRow) for row in trace.rows)
    first, last = trace.rows[0], trace.rows[-1]
    assert (first.iter, first.step) == (0, 0.0)
    assert last.iter == trace.iterations and last.residual <= SolveConfig().newton_tol
    assert last[3] == last.step  # the rows still index as tuples


# ---------------------------------------------------------------------------
# one mesh per solve: the forcing's
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hexagon_forcing():
    # the same numbers of cells and nodes as the unit disk at h = 1/4, so every
    # coefficient array fits either mesh
    hexagon = build_mesh("unit_disk_polygonal(6)", 0.25)
    assert hexagon.n_cells == build_mesh("unit_disk", 0.25).n_cells
    return default_disk_forcing(hexagon)


def test_solve_rejects_an_initial_guess_on_another_mesh(hexagon_forcing):
    disk = build_mesh("unit_disk", 0.25)
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    with pytest.raises(DomainError, match="initial guess lives on another mesh"):
        solve(spec, hexagon_forcing, initial=FemField.zeros(disk))


def test_continuation_rejects_a_stage_forcing_on_another_mesh(hexagon_forcing):
    swirl = default_disk_forcing(build_mesh("unit_disk", 0.25))
    cfg = SolveConfig(delta_schedule=((1e-1, 1e1),))
    with pytest.raises(DomainError, match="another mesh"):
        delta_continuation(PowerLaw(3), swirl, cfg, stage_forcing=lambda lo, hi: hexagon_forcing)


# ---------------------------------------------------------------------------
# the residual is the energy gradient, the Jacobian its derivative and SPD
# ---------------------------------------------------------------------------

FD_STEP = 1e-6


def _level_in_gap(t, q):
    """A level near the q-quantile of t, halfway across the widest nearby gap.

    Keeping every strain magnitude well away from the truncation kinks keeps
    the central differences below on one branch of phi'' at each point.
    """
    ts = np.sort(t.ravel())
    k = int(q * len(ts))
    window = ts[k - 5 : k + 6]
    j = int(np.argmax(np.diff(window)))
    return 0.5 * (window[j] + window[j + 1])


def _gate_case(disk, p, kind):
    """(truncated spec, field, direction): strains of the random field straddle both levels."""
    rng = np.random.default_rng(11)
    rough = random_zero_boundary_field(disk, rng)
    E = strain_mandel(rough)
    t = np.sqrt(np.sum(E * E, axis=-1))
    lo, hi = _level_in_gap(t, 0.25), _level_in_gap(t, 0.75)
    assert np.any(t < lo) and np.any((t > lo) & (t < hi)) and np.any(t > hi)
    assert np.min(np.abs(t - lo)) > 1e3 * FD_STEP * lo
    assert np.min(np.abs(t - hi)) > 1e3 * FD_STEP * hi
    u = rough if kind == "straddle" else FemField.zeros(disk)
    direction = random_zero_boundary_field(disk, rng)
    return PowerLaw(p).truncate(lo, hi), u, direction


def _shifted(u, direction, s):
    return FemField(u.mesh, u.coeffs + s * direction.coeffs, zero_boundary=True)


@pytest.mark.parametrize("kind", ["straddle", "zero"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_residual_is_energy_gradient(disk, swirl, p, kind):
    spec, u, v = _gate_case(disk, p, kind)
    residual = assemble_residual(spec, u, swirl)
    exact = float(residual @ v.coeffs.ravel())
    load = local_load(swirl)
    fd = (
        energy(spec, _shifted(u, v, FD_STEP), load)[0]
        - energy(spec, _shifted(u, v, -FD_STEP), load)[0]
    ) / (2.0 * FD_STEP)
    assert fd == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("kind", ["straddle", "zero"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_jacobian_is_residual_derivative_and_spd(disk, swirl, p, kind):
    spec, u, v = _gate_case(disk, p, kind)
    free_dofs = quad_cache(disk).free_pattern().free_dofs
    jac = assemble_jacobian(spec, u)
    exact = jac @ v.coeffs.ravel()[free_dofs]
    fd = (
        assemble_residual(spec, _shifted(u, v, FD_STEP), swirl)
        - assemble_residual(spec, _shifted(u, v, -FD_STEP), swirl)
    )[free_dofs] / (2.0 * FD_STEP)
    assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)

    jac_ff = jac.toarray()
    assert np.abs(jac_ff - jac_ff.T).max() <= 1e-13 * np.abs(jac_ff).max()
    assert np.linalg.eigvalsh(jac_ff).min() > 0.0


def test_newton_iterate_evaluates_its_strain_once(disk, swirl, monkeypatch):
    # the strain is evaluated by each energy evaluation (the initial one and
    # each line-search trial) and by nothing else; the residual and Jacobian
    # built from the accepted trial's strain and the per-solve load are the
    # from-scratch ones
    spec = Truncated(PowerLaw(3.0), 1e-2, 1e2)
    calls = {"strain": 0, "energy": 0}
    assembled = {"residual": [], "jacobian": []}

    def counted(name, func):
        def wrapped(*args):
            calls[name] += 1
            return func(*args)

        return wrapped

    def recorded(name, func):
        def wrapped(*args):
            assembled[name].append((args[1], func(*args)))
            return assembled[name][-1][1]

        return wrapped

    monkeypatch.setattr(fem, "strain_mandel", counted("strain", fem.strain_mandel))
    monkeypatch.setattr(solver, "energy", counted("energy", solver.energy))
    monkeypatch.setattr(solver, "assemble_residual", recorded("residual", assemble_residual))
    monkeypatch.setattr(solver, "assemble_jacobian", recorded("jacobian", assemble_jacobian))
    _, trace = solve(spec, swirl)

    trials = sum(round(-math.log2(row.step)) + 1 for row in trace.rows[1:])
    assert trace.iterations >= 3 and trials > trace.iterations  # some step backtracked
    assert calls == {"strain": 1 + trials, "energy": 1 + trials}
    assert len(assembled["residual"]) == len(trace.rows)
    assert len(assembled["jacobian"]) == trace.iterations
    for u, residual in assembled["residual"]:
        fresh = assemble_residual(spec, u, swirl)
        assert np.linalg.norm(residual - fresh) <= 1e-14 * np.linalg.norm(fresh)
    for u, jac in assembled["jacobian"]:
        fresh = assemble_jacobian(spec, u)
        assert splinalg.norm(jac - fresh) <= 1e-14 * splinalg.norm(fresh)


@pytest.mark.parametrize("h", [1.0 / 6.0, 1.0 / 16.0], ids=["h1/6", "h1/16"])
def test_factorized_fill_matches_minimum_degree(monkeypatch, h):
    # factorized keeps the order it is given, so the mesh's fixed order must
    # fill the factor as little as SuperLU's own minimum-degree pass on the
    # same block in natural free-dof order; any permutation solves alike
    mesh = build_mesh("unit_disk", h)
    spec = Truncated(PowerLaw(3.0), 1e-3, 1e3)
    jac = assemble_jacobian(spec, random_zero_boundary_field(mesh, np.random.default_rng(3)))
    factors = []

    def splu_kept(matrix, **kwargs):
        factors.append(splu(matrix, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver, "splu", splu_kept)
    solver.factorized(jac)
    natural = np.argsort(quad_cache(mesh).free_pattern().free_dofs)
    reference = splu(
        jac[natural][:, natural].tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )
    (given,) = factors
    assert given.L.nnz + given.U.nnz == reference.L.nnz + reference.U.nnz


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------


def test_manufactured_power2_rate():
    errors, rates = convergence_study(
        Truncated(PowerLaw(2), 1e-4, 1e4), sine_bubble(), [0.25, 0.125]
    )
    assert rates[0] >= 1.9


@pytest.mark.parametrize("amplitude", [1.0, 0.5, 0.3])
def test_manufactured_closed_form_matches_symbolic_derivatives(amplitude):
    # derive u, grad u, the strains and their x/y derivatives of the bubble
    # with sympy and compare them with the hand-written closed form
    x, y = sympy.symbols("x y", real=True)
    u1 = amplitude * sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y)
    u2 = sympy.Integer(0)
    grads = [sympy.diff(u, v) for u in (u1, u2) for v in (x, y)]
    strains = [grads[0], grads[3], (grads[1] + grads[2]) / 2]
    d_strains = [sympy.diff(e, v) for e in strains for v in (x, y)]
    exprs = [u1, u2] + grads + strains + d_strains

    X, Y = np.random.default_rng(3).random((2, 64))
    case = sine_bubble(amplitude)
    closed = (
        list(np.moveaxis(case.u(X, Y), -1, 0))
        + list(case.grad_u(X, Y).reshape(-1, 4).T)
        + case.strain(X, Y)
        + case.strain_derivs(X, Y)
    )
    assert len(closed) == len(exprs) == 15
    for expr, value in zip(exprs, closed):
        reference = np.broadcast_to(sympy.lambdify((x, y), expr, "numpy")(X, Y), X.shape)
        np.testing.assert_allclose(value, reference, rtol=1e-15, atol=1e-15, err_msg=str(expr))


def test_manufactured_forcing_matches_divergence_for_power2():
    # for the quadratic law, f = -div(eps u*) has the closed form of the
    # vector Laplacian of the bubble; check the chain-rule forcing against it
    case = sine_bubble()
    x = np.linspace(0.1, 0.9, 7)
    y = np.linspace(0.1, 0.9, 7)
    X, Y = np.meshgrid(x, y)
    f = case.forcing(PowerLaw(2))(X, Y)
    pi = math.pi
    f1 = pi * pi * (np.sin(pi * X) * np.sin(pi * Y) + 0.5 * np.sin(pi * X) * np.sin(pi * Y))
    f2 = -0.5 * pi * pi * np.cos(pi * X) * np.cos(pi * Y)
    assert f[..., 0] == pytest.approx(f1, rel=1e-12)
    assert f[..., 1] == pytest.approx(f2, rel=1e-12)


def test_manufactured_h1_error_of_exact_interpolant():
    # the interpolant of u* itself has small H1 distance, and the solved field
    # is closer to u* than the coarse-interpolant scale
    mesh = build_mesh("unit_square", 0.125)
    case = sine_bubble()
    spec = Truncated(PowerLaw(2), 1e-4, 1e4)
    interp = exact_field(mesh, case)
    assert h1_error(interp, case) <= 5e-2
    u, _ = solve(spec, forcing_field(mesh, spec, case))
    assert h1_error(u, case) <= 5e-2


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def test_continuation_quadratic_spec_fixed_point(disk, swirl):
    stages = delta_continuation(PowerLaw(2), swirl)
    assert all(s.cauchy_prev == 0.0 for s in stages[1:])
    assert all(s.trace.iterations == 0 for s in stages[1:])
    assert all(s.w12_total == stages[0].w12_total for s in stages)


def test_continuation_cauchy_diagnostic_decreases(disk, swirl):
    stages = delta_continuation(PowerLaw(3), swirl)
    cauchy = [s.cauchy_prev for s in stages[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(cauchy, cauchy[1:]))
    assert cauchy[-1] <= 1e-6


def test_continuation_bounded_transform_data(disk, swirl):
    for p in (1.5, 3.0):
        stages = delta_continuation(PowerLaw(p), swirl)
        totals = [s.w12_total for s in stages]
        assert all(math.isfinite(t) for t in totals)
        assert max(totals) <= 100.0 * min(t for t in totals if t > 0)


def test_continuation_abort_carries_partial_stages(disk, swirl):
    cfg = SolveConfig(
        newton_tol=1e-13,
        max_iters=1,
        delta_schedule=((1e-1, 1e1), (1e-2, 1e2)),
    )
    with pytest.raises(ContinuationError) as err:
        delta_continuation(PowerLaw(3), swirl, cfg)
    assert isinstance(err.value.stages, list)


def test_continuation_empty_schedule_rejected(disk, swirl):
    with pytest.raises(DomainError):
        delta_continuation(PowerLaw(3), swirl, SolveConfig(delta_schedule=()))


def test_continuation_stage_forcing_hook(disk, swirl):
    seen = []

    def hook(lo, hi):
        seen.append((lo, hi))
        return swirl

    cfg = SolveConfig(delta_schedule=((1e-1, 1e1), (1e-2, 1e2)))
    delta_continuation(PowerLaw(3), swirl, cfg, stage_forcing=hook)
    assert seen == [(1e-1, 1e1), (1e-2, 1e2)]
