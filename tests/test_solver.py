"""Newton solver, line search, manufactured convergence, and the continuation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from scipy.sparse import linalg as splinalg
from scipy.sparse.linalg import spilu, splu

from orliczfem import fem, radial, solver
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
    forcing_field,
    h1_error,
    sine_bubble,
)
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw, Truncated
from orliczfem.regularity import default_disk_forcing
from orliczfem.solver import (
    DEFAULT_SCHEDULE,
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


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_newton_tol_must_be_positive_and_finite(tol):
    # at newton_tol = inf every stage would return its start unsolved
    with pytest.raises(DomainError, match="newton_tol must be positive and finite"):
        SolveConfig(newton_tol=tol)


def test_energy_monotone_along_trace(disk, swirl):
    _, trace = solve(Truncated(PowerLaw(3), 0.01, 100.0), swirl)
    energies = [row.energy for row in trace.rows]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    assert energies[-1] <= 0.0  # J(u) <= J(0) = 0


def _energy_rising_by(ulps):
    """``energy`` whose evaluations after the first report the first value plus ``ulps`` ulps."""
    first = []

    def rising(spec, field, load):
        value, strain = energy(spec, field, load)
        if not first:
            first.append(value)
            return value, strain
        return first[0] + ulps * np.spacing(abs(first[0])), strain

    return rising


@pytest.mark.parametrize("ulps", [1, 100])
def test_armijo_accepts_a_rise_at_rounding_level_only(disk, swirl, monkeypatch, ulps):
    # from an iterate at residual 2e-9 the Newton step's predicted decrease
    # (~1e-20) is far below the energy's last bit (~3e-18), so rounding alone
    # decides the sign of the trial's change: one ulp up is accepted, a
    # hundred are not, and the search stalls as before
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    near, trace = solve(spec, swirl, SolveConfig(newton_tol=1e-8))
    assert 1e-9 < trace.rows[-1].residual <= 1e-8
    monkeypatch.setattr(solver, "energy", _energy_rising_by(ulps))
    if ulps == 1:
        _, trace = solve(spec, swirl, initial=near)
        assert [row.step for row in trace.rows] == [0.0, 1.0]
    else:
        with pytest.raises(NonConvergenceError, match="line search stalled at iteration 0"):
            solve(spec, swirl, initial=near)


def test_galerkin_orthogonality_at_solution(disk, swirl):
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    cfg = SolveConfig(newton_tol=1e-10)
    u, _ = solve(spec, swirl, cfg)
    residual = assemble_residual(spec, u, swirl)
    free = ~np.repeat(quad_cache(disk).boundary_scalar, 2)
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


def test_non_finite_residual_is_nonconvergence_naming_the_iteration(disk, swirl):
    huge = FemField(disk, 1e300 * swirl.coeffs, zero_boundary=True)
    with np.errstate(over="ignore"), pytest.raises(NonConvergenceError) as err:
        solve(Truncated(PowerLaw(3), 0.01, 100.0), huge)
    assert "non-finite residual at Newton iteration 0" in str(err.value)
    assert err.value.trace.rows[-1].residual == math.inf


def test_trace_csv(disk, swirl, tmp_path):
    _, trace = solve(Truncated(PowerLaw(3), 0.01, 100.0), swirl)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,energy,residual,step,factored,cg_iters"
    assert len(lines) == len(trace.rows) + 1
    assert all(isinstance(row, TraceRow) for row in trace.rows)
    first, last = trace.rows[0], trace.rows[-1]
    assert (first.iter, first.step, first.factored, first.cg_iters) == (0, 0.0, 0, 0)
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


def test_solve_rejects_a_start_candidate_on_another_mesh(hexagon_forcing):
    disk = build_mesh("unit_disk", 0.25)
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    zero = FemField.zeros(hexagon_forcing.mesh)
    with pytest.raises(DomainError, match="initial guess lives on another mesh"):
        solve(spec, hexagon_forcing, initial=(zero, FemField.zeros(disk)))


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

    # factorized imports splu when called, so patch it where it is looked up
    monkeypatch.setattr("scipy.sparse.linalg.splu", splu_kept)
    solver.factorized(jac)
    natural = np.argsort(quad_cache(mesh).free_pattern().free_dofs)
    reference = splu(
        jac[natural][:, natural].tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )
    (given,) = factors
    assert given.L.nnz + given.U.nnz == reference.L.nnz + reference.U.nnz


@pytest.mark.parametrize("domain", ["unit_disk", "unit_square"])
@pytest.mark.parametrize(
    "h", [0.25, 0.125, 1.0 / 16.0, 0.04], ids=["h1/4", "h1/8", "h1/16", "h1/25"]
)
def test_minimum_degree_order_matches_a_full_factor(monkeypatch, domain, h):
    # the mesh's order comes from an incomplete factor of the structure's
    # stand-in matrix; a full factor of that matrix orders its columns alike
    orders = []

    def spilu_checked(matrix, **kwargs):
        incomplete = spilu(matrix, **kwargs)
        options = {key: kwargs[key] for key in ("permc_spec", "options")}
        orders.append((incomplete.perm_c, splu(matrix, **options).perm_c))
        return incomplete

    monkeypatch.setattr("scipy.sparse.linalg.spilu", spilu_checked)
    quad_cache(build_mesh(domain, h)).free_pattern()
    ((incomplete, full),) = orders
    assert np.array_equal(incomplete, full)


def _solve64(matrix, b):
    """The plain float64 LU solve that ``factorized`` falls back to."""
    return splu(matrix, permc_spec="NATURAL", options={"SymmetricMode": True}).solve(b)


@pytest.fixture(scope="module")
def fine_jacobians():
    # p = 1.3 truncated at (1e-6, 1e6) is the worst-scaled Jacobian the sweep factors
    mesh = build_mesh("unit_disk", 1.0 / 16.0)
    u = random_zero_boundary_field(mesh, np.random.default_rng(5))
    return {p: assemble_jacobian(Truncated(PowerLaw(p), 1e-6, 1e6), u) for p in (1.3, 3.0)}


@pytest.mark.parametrize("p", [1.3, 3.0])
def test_factorized_refines_a_float32_factor_to_the_float64_solve(monkeypatch, fine_jacobians, p):
    jac = fine_jacobians[p]
    b = np.random.default_rng(6).standard_normal(jac.shape[0])
    factored = []

    def splu_recorded(matrix, **kwargs):
        factored.append(matrix.dtype)
        return splu(matrix, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.splu", splu_recorded)
    x = solver.factorized(jac)(b)
    assert factored == [np.float32]  # one single-precision factor, no fallback
    reference = _solve64(jac, b)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


def _hazard(fine_jacobians, name):
    """(matrix, right-hand side) of a case a float32 factor cannot solve to 1e-10."""
    jac = fine_jacobians[3.0]
    b = np.random.default_rng(8).standard_normal(jac.shape[0])
    if name == "matrix_overflow":  # the cast makes the factor exactly singular
        return jac * 1e40, b
    if name == "diagonal_overflow":  # one diagonal entry casts to inf, the factor goes through
        scale = np.ones(jac.shape[0])
        scale[100] = 1e20
        return (sp.diags(scale) @ jac @ sp.diags(scale)).tocsc(), b
    if name == "ill_conditioned":  # SPD with eigenvalues from 1 down to 1e-12
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((60, 60)))
        a = (q * np.logspace(0.0, -12.0, 60)) @ q.T
        assert 1e11 < np.linalg.cond(a) < 1e13
        return sp.csc_matrix(0.5 * (a + a.T)), b[:60]
    return jac, b * {"rhs_overflow": 1e200, "rhs_underflow": 1e-45}[name]


@pytest.mark.parametrize(
    "name",
    ["matrix_overflow", "diagonal_overflow", "rhs_overflow", "rhs_underflow", "ill_conditioned"],
)
def test_factorized_falls_back_to_the_float64_solve(fine_jacobians, name):
    matrix, b = _hazard(fine_jacobians, name)
    with np.errstate(all="raise"):  # the overflowing casts stay silent
        x = solver.factorized(matrix)(b)
    assert np.array_equal(x, _solve64(matrix, b))


def _splu_recording(factored):
    """``splu`` that appends the dtype of each matrix it factors to ``factored``."""

    def recording(matrix, **kwargs):
        factored.append(matrix.dtype)
        return splu(matrix, **kwargs)

    return recording


@pytest.mark.parametrize(
    "name",
    ["matrix_overflow", "diagonal_overflow", "rhs_overflow", "rhs_underflow", "ill_conditioned"],
)
def test_a_float64_factor_is_never_reused(monkeypatch, fine_jacobians, name):
    matrix, b = _hazard(fine_jacobians, name)
    solve_with = solver.factorized(matrix)
    with np.errstate(all="raise"):
        solve_with(b)  # the float64 factor takes over
    factored = []
    monkeypatch.setattr("scipy.sparse.linalg.splu", _splu_recording(factored))
    # a right-hand side CG with the float32 factor would solve (the rhs cases)
    assert solve_with(matrix @ np.ones(matrix.shape[0]), matrix) == (None, 0)
    assert factored == []


@pytest.fixture(scope="module")
def newton_jacobians():
    """Free-dof residuals and Jacobians of a Newton solve on the h = 1/16 disk, its trace,
    and per CG call the iteration, the tolerance and the direction (None when CG fell short)."""
    mesh = build_mesh("unit_disk", 1.0 / 16.0)
    free = quad_cache(mesh).free_pattern().free_dofs
    spec = Truncated(PowerLaw(3.0), 1e-3, 1e3)
    recorded = {"residual": [], "jacobian": [], "operator": []}
    calls, cg = [], solver._preconditioned_cg

    def conjugating(matrix, b, precondition, rtol):
        x, iterations = cg(matrix, b, precondition, rtol)
        calls.append((len(recorded["jacobian"]) - 1, rtol, x))
        return x, iterations

    def recording(name, func):
        def wrapped(*args):
            out = func(*args)
            if args[0] is spec:
                recorded[name].append(out)
            elif name == "jacobian":  # K, assembled by operator_solution for t^2/2
                recorded["operator"].append(out)
            return out

        return wrapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "assemble_residual", recording("residual", assemble_residual))
        patch.setattr(solver, "assemble_jacobian", recording("jacobian", assemble_jacobian))
        patch.setattr(solver, "_preconditioned_cg", conjugating)
        _, trace = solve(spec, default_disk_forcing(mesh, 30.0))
    residuals = [r[free] for r in recorded["residual"]]
    return residuals, recorded["jacobian"], recorded["operator"], trace, calls


@pytest.mark.parametrize(
    "res_norm, previous, eta",
    [
        (1e-4, 1e-1, 9e-7),  # fast: 0.9 (r_k/r_{k-1})^2
        (0.5, 1.0, 0.225),
        (0.5, 0.5, 0.9),  # slow: the cap
        (1.0, 0.5, 0.9),  # a residual that grew
        (2e-9, 1e-6, 5e-3),  # near newton_tol: 1e-2 newton_tol / r_k
        (1.0, 1e6, solver.REFINE_TOL),  # far from it: REFINE_TOL
    ],
)
def test_the_forcing_term(res_norm, previous, eta):
    assert solver._forcing_term(res_norm, previous, 1e-9) == pytest.approx(eta, rel=1e-12)


def test_a_reused_factor_gives_a_newton_direction_to_the_forcing_term(newton_jacobians):
    residuals, jacobians, operators, trace, calls = newton_jacobians
    rows, newton_tol = trace.rows, SolveConfig().newton_tol
    taken = set()
    for k, rtol, x in calls:
        assert rtol == solver._forcing_term(rows[k].residual, rows[k - 1].residual, newton_tol)
        if x is not None:  # accepted on its true residual
            b = -residuals[k]
            assert np.linalg.norm(b - jacobians[k] @ x) <= rtol * np.linalg.norm(b)
            taken.add(k)
    assert len(taken) >= 3
    # the first direction, at u = 0, is an operator step, which takes K once
    # and factors no Jacobian, so it leaves no factor to reuse at the second;
    # every later direction tried CG first, and factored exactly where CG fell short
    assert len(operators) == 1
    assert [k for k, _, _ in calls] == list(range(2, len(jacobians)))
    assert [row.factored for row in rows[1:]] == [
        int(k != 0 and k not in taken) for k in range(len(jacobians))
    ]
    assert all((row.cg_iters > 0) == (k >= 2) for k, row in enumerate(rows[1:]))


def test_a_solve_whose_last_cg_step_stopped_at_the_floor_meets_newton_tol(swirl, monkeypatch):
    # the last direction's CG stopped at eta_k = 1e-2 newton_tol / r_k, far above
    # REFINE_TOL, and the iterate it reached is still within newton_tol
    calls, cg = [], solver._preconditioned_cg

    def conjugating(matrix, b, precondition, rtol):
        calls.append(rtol)
        return cg(matrix, b, precondition, rtol)

    monkeypatch.setattr(solver, "_preconditioned_cg", conjugating)
    cfg = SolveConfig()
    _, trace = solve(Truncated(PowerLaw(3), 0.01, 100.0), swirl, cfg)
    before, last = trace.rows[-2:]
    assert last.factored == 0 and last.cg_iters > 0
    assert calls[-1] == solver.ETA_FLOOR * cfg.newton_tol / before.residual
    assert calls[-1] > 1e6 * solver.REFINE_TOL
    assert last.residual <= cfg.newton_tol


def test_cg_with_an_unrelated_factor_gives_up_within_its_cap(monkeypatch, fine_jacobians):
    b = np.random.default_rng(6).standard_normal(fine_jacobians[1.3].shape[0])
    solve_with = solver.factorized(fine_jacobians[3.0])
    products = []
    cg = solver._preconditioned_cg

    def counted(matrix, rhs, precondition, rtol):
        def product(r):
            products.append(1)
            return precondition(r)

        return cg(matrix, rhs, product, rtol)

    monkeypatch.setattr(solver, "_preconditioned_cg", counted)
    x, iterations = solve_with(b, fine_jacobians[1.3], solver.REFINE_TOL)
    assert x is None
    assert len(products) == iterations == solver.CG_MAX_ITERS + 1  # one per SciPy CG iteration


def test_solve_factors_when_cg_falls_short(disk, swirl, monkeypatch):
    # with no CG iteration allowed, CG always falls short after its one SciPy
    # iteration, so every direction after the operator step at u = 0 (swirl's
    # K^{-1} F is memoised by the first solve) and the first factor comes from a
    # fresh factor; the solve still ends within newton_tol
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    _, reusing = solve(spec, swirl)
    factored = []
    monkeypatch.setattr(solver, "CG_MAX_ITERS", 0)
    monkeypatch.setattr("scipy.sparse.linalg.splu", _splu_recording(factored))
    _, trace = solve(spec, swirl)
    assert 0 in [row.factored for row in reusing.rows[2:]]
    assert [row.factored for row in trace.rows[1:]] == [0] + [1] * (trace.iterations - 1)
    assert [row.cg_iters for row in trace.rows] == [0, 0, 0] + [1] * (trace.iterations - 2)
    assert len(factored) == trace.iterations - 1
    assert trace.rows[-1].residual <= SolveConfig().newton_tol


def _newton_spec(spec) -> bool:
    """Whether a Jacobian of ``spec`` is a Newton iterate's, and not K, which
    operator_solution assembles for PowerLaw(2.0): the continuations here
    solve truncated specs only."""
    return isinstance(spec, Truncated)


def _recording_sources(monkeypatch):
    """Per Newton iteration of the solves that follow, in order, the sources that
    gave or were tried for its direction: "operator" (an operator step was
    tried) and "cg" (CG with an earlier factor succeeded)."""
    sources = []
    assemble, operator, cg = (
        solver.assemble_jacobian,
        solver.operator_solution,
        solver._preconditioned_cg,
    )

    def assembling(spec, *args):
        if _newton_spec(spec):
            sources.append(set())
        return assemble(spec, *args)

    def operating(*args):
        sources[-1].add("operator")
        return operator(*args)

    def conjugating(*args):
        x, iterations = cg(*args)
        if x is not None:
            sources[-1].add("cg")
        return x, iterations

    monkeypatch.setattr(solver, "assemble_jacobian", assembling)
    monkeypatch.setattr(solver, "operator_solution", operating)
    monkeypatch.setattr(solver, "_preconditioned_cg", conjugating)
    return sources


def _oracle_tol(scale):
    """A quarter of the benchmark's reference tolerance at values of size ``scale``."""
    return 0.25 * (1e-6 * scale + 1e-12)


@pytest.mark.parametrize("p", [1.3, 3.0])
def test_continuation_meets_newton_tol_alike_with_and_without_reuse(monkeypatch, p):
    mesh = build_mesh("unit_disk", 0.25)
    f = default_disk_forcing(mesh)
    cfg = SolveConfig()
    sources = _recording_sources(monkeypatch)
    reusing = delta_continuation(PowerLaw(p), f, cfg)
    reusing_sources = sources[:]
    monkeypatch.setattr(solver, "CG_MAX_ITERS", 0)  # CG always falls short
    factoring = delta_continuation(PowerLaw(p), f, cfg)
    factoring_sources = sources[len(reusing_sources) :]
    # the inexact directions take another path to the same stage solutions
    for a, b in zip(reusing, factoring, strict=True):
        assert a.trace.rows[-1].residual <= cfg.newton_tol
        assert b.trace.rows[-1].residual <= cfg.newton_tol
        scale = max(np.abs(a.field.coeffs).max(), np.abs(b.field.coeffs).max())
        assert np.abs(a.field.coeffs - b.field.coeffs).max() <= _oracle_tol(scale)
        pairs = ((a.w12_l2, b.w12_l2), (a.w12_semi, b.w12_semi), (a.cauchy_prev, b.cauchy_prev))
        for x, y in pairs:
            assert math.isnan(x + y) or abs(x - y) <= _oracle_tol(max(abs(x), abs(y)))
    for stages, tried in ((reusing, reusing_sources), (factoring, factoring_sources)):
        rows = [row for stage in stages for row in stage.trace.rows[1:]]
        assert len(rows) == len(tried)
        # a direction that factored nothing is a lagged-CG or an operator step
        assert all(row.factored or tried_k for row, tried_k in zip(rows, tried))
        # no factor is reused across stages: no stage's first direction is CG's
        first = np.cumsum([0] + [stage.trace.iterations for stage in stages[:-1]])
        for k, stage in zip(first, stages):
            assert stage.trace.iterations == 0 or "cg" not in tried[k]
    assert not any("cg" in tried_k for tried_k in factoring_sources)
    assert sum("cg" in tried_k for tried_k in reusing_sources) >= 3
    # stage 0 starts at u = 0, so its first direction is an operator step,
    # which marks no row factored whether or not it computed K^{-1} F
    assert "operator" in reusing_sources[0] and reusing[0].trace.rows[1].factored == 0
    assert "operator" in factoring_sources[0] and factoring[0].trace.rows[1].factored == 0


def _constant_coefficient_case(disk, kind):
    """(spec, u) at which (c1, c2) is one constant at every quadrature point."""
    rng = np.random.default_rng(24)
    if kind == "zero":
        return Truncated(PowerLaw(3), 0.01, 100.0), FemField.zeros(disk)
    rough = random_zero_boundary_field(disk, rng)
    if kind == "power2":
        return PowerLaw(2), rough
    lo = 0.5  # every strain below trunc_lo, in the quadratic part of the truncation
    scaled = 0.5 * lo / fem.strain_and_norm(rough)[1].max()
    return Truncated(PowerLaw(1.5), lo, 10.0), FemField(disk, scaled * rough.coeffs, True)


@pytest.mark.parametrize("kind", ["zero", "power2", "below_trunc_lo"])
def test_an_operator_step_is_the_fresh_newton_direction(disk, swirl, monkeypatch, kind):
    spec, u = _constant_coefficient_case(disk, kind)
    f = FemField(disk, swirl.coeffs, zero_boundary=True)  # no memo yet
    load = local_load(f)
    free = quad_cache(disk).free_pattern().free_dofs
    strain = fem.strain_and_norm(u)
    residual = assemble_residual(spec, u, load, strain)[free]
    jacobian = assemble_jacobian(spec, u, strain)
    scale = solver._constant(*radial.coefficients(spec, strain[1]))
    assert scale is not None
    calls = []
    factorized = solver.factorized
    monkeypatch.setattr(solver, "factorized", lambda m: calls.append(m) or factorized(m))
    z = solver.operator_solution(f)
    assert len(calls) == 1  # K, factored by this first call
    step = z / scale - u.coeffs.ravel()[free]
    fresh = factorized(jacobian)(-residual)
    tol = solver.REFINE_TOL * np.linalg.norm(residual)
    assert np.linalg.norm(jacobian @ step + residual) <= tol
    assert np.linalg.norm(jacobian @ (step - fresh)) <= tol
    # solve takes that step from u: with K^{-1} F memoised it factors nothing
    try:
        _, trace = solve(spec, f, SolveConfig(max_iters=1), initial=u)
    except NonConvergenceError as exc:
        trace = exc.trace
    assert trace.rows[1].factored == 0 and len(calls) == 1


def test_the_operator_solution_is_computed_once_per_forcing(monkeypatch):
    mesh = build_mesh("unit_disk", 0.25)
    f = default_disk_forcing(mesh)
    cfg = SolveConfig(delta_schedule=DEFAULT_SCHEDULE[:3])
    operators, factored = [], []
    assemble, factorized = solver.assemble_jacobian, solver.factorized

    def assembling(spec, *args):
        matrix = assemble(spec, *args)
        if not _newton_spec(spec):
            operators.append(matrix)
        return matrix

    def factoring(matrix):
        factored.append(any(matrix is k for k in operators))
        return factorized(matrix)

    monkeypatch.setattr(solver, "assemble_jacobian", assembling)
    monkeypatch.setattr(solver, "factorized", factoring)
    stages = [s for p in (1.3, 3.0) for s in delta_continuation(PowerLaw(p), f, cfg)]
    assert len(operators) == 1 and sum(factored) == 1  # at p = 1.3, stage 0; p = 3 takes the memo
    # every other factorisation is a Jacobian's, of a row marked factored; both
    # stage 0 first directions are operator steps, and neither row counts K
    assert len(factored) - 1 == sum(row.factored for s in stages for row in s.trace.rows)
    assert (stages[0].trace.rows[1].factored, stages[3].trace.rows[1].factored) == (0, 0)
    with pytest.raises(ValueError, match="read-only"):
        f.coeffs *= 2.0  # so the memo cannot go stale
    # a forcing with other coefficients is another field, with its own K^{-1} F
    z = solver.operator_solution(f)
    doubled = FemField(mesh, 2.0 * f.coeffs, zero_boundary=True)
    before = len(factored)
    stages = delta_continuation(PowerLaw(3.0), doubled, cfg)
    assert sum(factored) == 2 and stages[0].trace.rows[1].factored == 0
    assert len(factored) - before - 1 == sum(row.factored for s in stages for row in s.trace.rows)
    assert solver.operator_solution(f) is z
    assert np.allclose(solver.operator_solution(doubled), 2.0 * z, rtol=1e-9, atol=0.0)
    assert sum(factored) == 2  # both kept: neither call above factored K again


def test_a_failing_operator_check_falls_back_to_a_factor(disk, swirl, monkeypatch):
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    _, honest = solve(spec, FemField(disk, swirl.coeffs, zero_boundary=True))
    assemble, operator, factorized = (
        solver.assemble_jacobian,
        solver.operator_solution,
        solver.factorized,
    )
    operators, tried, calls = [], [], []  # calls: per factorisation, whether of K

    def assembling(spec, *args):
        matrix = assemble(spec, *args)
        if not _newton_spec(spec):
            operators.append(matrix)
        return matrix

    def forged(f):  # K^{-1} F off by 1e-6: no operator step passes its check
        tried.append(f)
        return operator(f) * (1.0 + 1e-6)

    def factoring(matrix):
        calls.append(any(matrix is k for k in operators))
        return factorized(matrix)

    monkeypatch.setattr(solver, "assemble_jacobian", assembling)
    monkeypatch.setattr(solver, "operator_solution", forged)
    monkeypatch.setattr(solver, "factorized", factoring)
    _, trace = solve(spec, FemField(disk, swirl.coeffs, zero_boundary=True))
    assert len(tried) == 1  # tried at u = 0 only
    assert calls.count(True) == 1  # K, inside that one try
    assert trace.rows[1].factored == 1  # the Jacobian the check fell back to
    assert calls.count(False) == sum(row.factored for row in trace.rows)
    # the factored first direction is the operator step's to 1e-10; the factor it
    # leaves sends the later directions through CG, so the path differs after it
    scale = honest.rows[0].residual
    assert trace.rows[1].step == honest.rows[1].step
    assert abs(trace.rows[1].residual - honest.rows[1].residual) <= 1e-12 * scale
    assert trace.rows[-1].residual <= SolveConfig().newton_tol


#: Per (p, h) of a reduced continuation (the unit disk, the default schedule,
#: p = 1.3 then p = 3 on one forcing per h): each stage's Armijo backtracks per
#: Newton iteration, which give its iterations and steps, and the
#: factorisations and CG iterations of the whole continuation.
NEWTON_CENSUS = {
    (1.3, 0.25): (
        [(0,), (1, 0), (1, 0, 0), (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0)],
        6,
        65,
    ),
    (3.0, 0.25): ([(1, 0, 0, 0, 0), (0, 0, 0), (), (), (), ()], 2, 19),
    (1.3, 0.125): (
        [(0,), (1, 0), (1, 0), (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0)],
        6,
        71,
    ),
    (3.0, 0.125): ([(1, 0, 0, 0, 0), (0, 0, 0), (), (), (), ()], 2, 23),
}


def test_newton_census_of_a_reduced_continuation(monkeypatch):
    # a change that moves the Newton path or adds factorisations or CG iterations fails here
    calls = []
    factorized = solver.factorized
    monkeypatch.setattr(solver, "factorized", lambda m: calls.append(m) or factorized(m))
    census = {}
    for h in (0.25, 0.125):
        f = default_disk_forcing(build_mesh("unit_disk", h))
        for p in (1.3, 3.0):
            calls.clear()
            stages = delta_continuation(PowerLaw(p), f)
            backtracks = [
                tuple(round(-math.log2(row.step)) for row in stage.trace.rows[1:])
                for stage in stages
            ]
            cg_iters = sum(row.cg_iters for stage in stages for row in stage.trace.rows)
            census[p, h] = (backtracks, len(calls), cg_iters)
            # p = 1.3 comes first on each forcing, and factors its K as well
            marked = sum(row.factored for s in stages for row in s.trace.rows)
            assert len(calls) == marked + (p == 1.3)
    assert census == NEWTON_CENSUS


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------


def test_manufactured_power2_rate():
    errors, rates = convergence_study(
        Truncated(PowerLaw(2), 1e-4, 1e4), sine_bubble(), [0.25, 0.125]
    )
    assert rates[0] >= 1.9


def test_convergence_study_rejects_a_repeated_h():
    # two equal h have no rate: log(h_i / h_{i+1}) = 0
    with pytest.raises(DomainError, match="repeat"):
        convergence_study(Truncated(PowerLaw(2), 1e-4, 1e4), sine_bubble(), [0.5, 0.5])


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
    interp = FemField.from_callable(mesh, lambda x, y: case.u(x, y).T)
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


THREE_STAGES = SolveConfig(delta_schedule=((1e-1, 1e1), (1e-2, 1e2), (1e-3, 1e3)))


def test_a_coarse_field_that_raises_the_stage_energy_is_never_taken(disk, swirl):
    # large random starts have far higher energies than the plain warm starts
    rng = np.random.default_rng(3)
    rough = [
        FemField(disk, 1e3 * random_zero_boundary_field(disk, rng).coeffs, zero_boundary=True)
        for _ in THREE_STAGES.delta_schedule
    ]
    plain = delta_continuation(PowerLaw(3), swirl, THREE_STAGES)
    guarded = delta_continuation(PowerLaw(3), swirl, THREE_STAGES, coarse=rough)
    for a, b in zip(plain, guarded):
        assert np.array_equal(a.field.coeffs, b.field.coeffs)
        assert a.trace.rows == b.trace.rows
        assert (a.w12_l2, a.w12_semi) == (b.w12_l2, b.w12_semi)
        assert a.cauchy_prev == b.cauchy_prev or math.isnan(a.cauchy_prev + b.cauchy_prev)


def test_coarse_stage_solutions_leave_no_newton_step(disk, swirl):
    # the stage solutions themselves, as a perfect coarser mesh would give them:
    # each stage starts at its solution, within newton_tol, and takes no step
    plain = delta_continuation(PowerLaw(3), swirl, THREE_STAGES)
    nested = delta_continuation(
        PowerLaw(3), swirl, THREE_STAGES, coarse=[s.field for s in plain]
    )
    assert sum(s.trace.iterations for s in plain) > 0
    assert all(s.trace.iterations == 0 for s in nested)


def _counting(monkeypatch):
    """The fields solver.energy is evaluated at, and the forcings solver.local_load
    builds a load for, in the solves that follow."""
    energies, loads = [], []
    measure, build = solver.energy, solver.local_load

    def energy_of(spec, u, load):
        energies.append(u)
        return measure(spec, u, load)

    monkeypatch.setattr(solver, "energy", energy_of)
    monkeypatch.setattr(solver, "local_load", lambda f: loads.append(f) or build(f))
    return energies, loads


def test_solve_starts_from_the_first_candidate_of_lowest_energy(disk, swirl, monkeypatch):
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    zero = FemField.zeros(disk)
    low, _ = solve(spec, swirl)  # the minimiser: its energy is below zero's 0
    twin = FemField(disk, np.zeros_like(zero.coeffs), zero_boundary=True)  # zero's energy
    rng = np.random.default_rng(5)
    rough = FemField(disk, 1e3 * random_zero_boundary_field(disk, rng).coeffs, True)
    energies, loads = _counting(monkeypatch)
    unsolved = SolveConfig(newton_tol=1e300)  # a solve returns the start it picked
    for candidates, chosen in (
        ((zero, low), low),
        ((low, zero), low),
        ((zero, twin), zero),
        ((twin, zero), twin),
        ((rough, zero, low), low),
        (zero, zero),
    ):
        energies.clear()
        loads.clear()
        u, trace = solve(spec, swirl, unsolved, initial=candidates)
        assert u is chosen and trace.iterations == 0
        # each candidate's energy once, and not copied: it has zero boundary values
        listed = candidates if isinstance(candidates, tuple) else (candidates,)
        assert len(energies) == len(listed)
        assert all(a is b for a, b in zip(energies, listed))
        assert loads == [swirl]


def test_a_nested_continuation_evaluates_each_stage_start_once(monkeypatch):
    # a 3-stage continuation on the h = 1/8 disk with the h = 1/4 disk's stage
    # fields: each guarded stage evaluates its two starts' energies and its
    # load once, then one energy per Armijo trial
    coarse_f = default_disk_forcing(build_mesh("unit_disk", 0.25))
    f = default_disk_forcing(build_mesh("unit_disk", 0.125))
    cells, bary = fem.locate_points(coarse_f.mesh, quad_cache(f.mesh).dof_coords)
    coarse = [
        FemField.zeroed(f.mesh, fem.evaluate_located(s.field, cells, bary))
        for s in delta_continuation(PowerLaw(3), coarse_f, THREE_STAGES)
    ]
    solver.operator_solution(f)  # so that its load is not counted below
    energies, loads = _counting(monkeypatch)
    stages = delta_continuation(PowerLaw(3), f, THREE_STAGES, coarse=coarse)
    trials = [
        sum(round(-math.log2(row.step)) + 1 for row in stage.trace.rows[1:]) for stage in stages
    ]
    assert sum(trials) > 0
    assert len(energies) == sum(2 + n for n in trials)
    assert loads == [f] * len(stages)


def test_continuation_rejects_coarse_fields_of_another_length_mesh_or_boundary(disk, swirl):
    zero = FemField.zeros(disk)
    with pytest.raises(DomainError, match="2 coarse stage fields for 3 schedule stages"):
        delta_continuation(PowerLaw(3), swirl, THREE_STAGES, coarse=[zero, zero])
    other = FemField.zeros(build_mesh("unit_disk", 1.0 / 6.0))  # the disk's twin, not the disk
    with pytest.raises(DomainError, match="coarse stage field lives on another mesh"):
        delta_continuation(PowerLaw(3), swirl, THREE_STAGES, coarse=[zero, other, zero])
    loose = FemField.zeros(disk, zero_boundary=False)
    with pytest.raises(DomainError, match="coarse stage fields must have zero boundary values"):
        delta_continuation(PowerLaw(3), swirl, THREE_STAGES, coarse=[zero, zero, loose])


def test_continuation_stage_forcing_hook(disk, swirl):
    seen = []

    def hook(lo, hi):
        seen.append((lo, hi))
        return swirl

    cfg = SolveConfig(delta_schedule=((1e-1, 1e1), (1e-2, 1e2)))
    delta_continuation(PowerLaw(3), swirl, cfg, stage_forcing=hook)
    assert seen == [(1e-1, 1e1), (1e-2, 1e2)]
