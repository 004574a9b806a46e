"""P2 elements: quadrature, strains, modulars, assembly, and the transform norm."""

import math
import os

import numpy as np
import pytest

from orliczfem.fem import (
    FemField,
    assemble_jacobian,
    assemble_residual,
    evaluate_field,
    evaluate_field_gradient,
    gradient_at_qp,
    korn_ratio,
    korn_ratio_meanfree,
    locate_points,
    modular,
    poincare_ratio,
    quad_cache,
    random_zero_boundary_field,
    read_field_text,
    region_measure,
    strain_grad_mandel,
    strain_mandel,
    sym_grad,
    values_at_qp,
    w12_norm_v,
    write_field_text,
)
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw, SingularityError, Truncated
from orliczfem.solver import v_strain_mandel

RNG = np.random.default_rng(5150)


@pytest.fixture(scope="module")
def square():
    return build_mesh("unit_square", 0.25)


@pytest.fixture(scope="module")
def disk():
    return build_mesh("unit_disk", 0.25)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_weights_sum_to_cell_areas(square):
    cache = quad_cache(square)
    assert cache.weights.sum(axis=1) == pytest.approx(square.cell_areas(), rel=1e-13)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(5) for b in range(5) if a + b <= 4])
def test_quadrature_exact_through_degree_four(a, b):
    # reference-triangle monomials: int xi^a eta^b = a! b! / (a+b+2)!
    from orliczfem.fem import _QP_BARY, _QW

    xi, eta = _QP_BARY[:, 1], _QP_BARY[:, 2]
    approx = 0.5 * float(np.sum(_QW * xi**a * eta**b))
    exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    assert approx == pytest.approx(exact, rel=1e-14, abs=1e-16)


# ---------------------------------------------------------------------------
# strains
# ---------------------------------------------------------------------------


def test_sym_grad_identity_field(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    st = sym_grad(u, 3, 2)
    assert np.allclose(st.matrix, np.eye(2))


def test_sym_grad_rigid_motion_vanishes(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([0.3 - y, x + 1.0]))
    assert np.abs(strain_mandel(u)).max() <= 1e-13


def test_sym_grad_quadratic_field(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x * x, 0.0 * y]))
    cache = quad_cache(square)
    E = strain_mandel(u)
    assert E[..., 0] == pytest.approx(2.0 * cache.qpoints[..., 0], rel=1e-12)
    assert np.abs(E[..., 1:]).max() <= 1e-12


def test_sym_grad_index_validation(square):
    u = FemField.zeros(square)
    with pytest.raises(DomainError):
        sym_grad(u, square.n_cells, 0)
    with pytest.raises(DomainError):
        sym_grad(u, 0, 6)


# ---------------------------------------------------------------------------
# modulars
# ---------------------------------------------------------------------------


def test_modular_zero_field(square):
    assert modular(PowerLaw(2), FemField.zeros(square), "sym_grad") == 0.0


def test_modular_identity_field_power2(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    # |eps u| = sqrt(2), phi(sqrt 2) = 1, area 1
    assert modular(PowerLaw(2), u, "sym_grad") == pytest.approx(1.0, rel=1e-12)


def test_modular_refinement_stability():
    spec = PowerLaw(3)
    vals = []
    for h in (0.25, 0.125):
        mesh = build_mesh("unit_square", h)
        u = FemField.from_callable(mesh, lambda x, y: np.stack([np.sin(x + y), x * y]))
        vals.append(modular(spec, u, "sym_grad"))
    assert vals[0] == pytest.approx(vals[1], rel=1e-4)


def test_modular_region_restriction(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    left = lambda x, y: x < 0.5
    total = modular(PowerLaw(2), u, "sym_grad")
    part = modular(PowerLaw(2), u, "sym_grad", region=left)
    assert 0.0 < part < total
    assert region_measure(square, left) == pytest.approx(0.5, rel=1e-12)


def test_modular_unknown_kind(square):
    with pytest.raises(DomainError):
        modular(PowerLaw(2), FemField.zeros(square), "curl")


# ---------------------------------------------------------------------------
# Korn / Poincare
# ---------------------------------------------------------------------------


def test_korn_ratio_bubble(square):
    u = FemField.from_callable(
        square,
        lambda x, y: np.stack([x * (1 - x) * y * (1 - y), 0.0 * x]),
        zero_boundary=True,
    )
    ratio = korn_ratio(PowerLaw(2), u)
    assert ratio >= 1.0


def test_korn_ratio_symmetric_jacobian_is_one(square):
    # u = grad(chi) with cubic chi: the Jacobian is symmetric, so eps u = grad u
    u = FemField.from_callable(
        square, lambda x, y: np.stack([2 * x * y + y * y, x * x + 2 * x * y])
    )
    ratio = korn_ratio(PowerLaw(1.5), u, require_zero_boundary=False)
    assert ratio == pytest.approx(1.0, rel=1e-12)


def test_korn_ratio_requires_zero_boundary(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    with pytest.raises(DomainError):
        korn_ratio(PowerLaw(2), u)


def test_korn_ratio_rigid_field_rejected(square):
    with pytest.raises(DomainError):
        korn_ratio(PowerLaw(2), FemField.zeros(square))


def test_korn_ensemble_envelope(square):
    rng = np.random.default_rng(99)
    spec = PowerLaw(1.5)
    ratios = [korn_ratio(spec, random_zero_boundary_field(square, rng)) for _ in range(50)]
    assert all(1.0 <= r <= 4.0 for r in ratios)


def test_korn_meanfree_and_poincare(square):
    rng = np.random.default_rng(123)
    spec = PowerLaw(2)
    for _ in range(10):
        u = random_zero_boundary_field(square, rng)
        assert 1.0 <= korn_ratio_meanfree(spec, u) <= 4.0
        assert poincare_ratio(spec, u, r=1.0) <= 1.0


# ---------------------------------------------------------------------------
# field stacks
# ---------------------------------------------------------------------------


def _entries(stack):
    return [FemField(stack.mesh, coeffs, stack.zero_boundary) for coeffs in stack.coeffs]


@pytest.mark.parametrize("count", [1, 3, 16])
def test_stack_equals_per_entry_calls(disk, count):
    stack = random_zero_boundary_field(disk, np.random.default_rng(count), count=count)
    entries = _entries(stack)
    assert stack.count == count and all(u.count is None for u in entries)

    for kernel in (strain_mandel, strain_grad_mandel, values_at_qp, gradient_at_qp):
        got = kernel(stack)
        want = np.stack([kernel(u) for u in entries])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), kernel.__name__

    spec = PowerLaw(1.5)
    upper = lambda x, y: y > 0.1
    for kind in ("sym_grad", "grad", "value"):
        for region in (None, upper):
            got = modular(spec, stack, kind, scale=0.7, region=region)
            want = [modular(spec, u, kind, scale=0.7, region=region) for u in entries]
            assert got.shape == (count,)
            assert got == pytest.approx(want, rel=1e-13)

    for ratio in (korn_ratio, korn_ratio_meanfree, lambda s, u: poincare_ratio(s, u, r=0.5)):
        got = ratio(spec, stack)
        assert got.shape == (count,)
        assert got == pytest.approx([ratio(spec, u) for u in entries], rel=1e-13)


def test_stacked_draw_is_successive_single_draws(square):
    stack = random_zero_boundary_field(square, np.random.default_rng(11), count=5)
    rng = np.random.default_rng(11)
    singles = [random_zero_boundary_field(square, rng).coeffs for _ in range(5)]
    assert stack.zero_boundary
    assert np.array_equal(stack.coeffs, np.stack(singles))


@pytest.mark.parametrize("ratio", [korn_ratio, korn_ratio_meanfree, poincare_ratio])
def test_rigid_stack_entry_is_named(square, ratio):
    stack = random_zero_boundary_field(square, np.random.default_rng(12), count=4)
    stack.coeffs[2] = 0.0
    with pytest.raises(DomainError, match=r"stack entry 2\b"):
        ratio(PowerLaw(2), stack)


@pytest.mark.parametrize(
    "call",
    [
        lambda u, one: assemble_residual(PowerLaw(2), u, one),
        lambda u, one: assemble_residual(PowerLaw(2), one, u),
        lambda u, one: assemble_jacobian(PowerLaw(2), u),
        lambda u, one: w12_norm_v(PowerLaw(2), u),
        lambda u, one: sym_grad(u, 0, 0),
        lambda u, one: evaluate_field(u, np.zeros((1, 2))),
        lambda u, one: evaluate_field_gradient(u, np.zeros((1, 2))),
        lambda u, one: write_field_text(u, os.devnull),
    ],
    ids=[
        "residual", "residual_forcing", "jacobian", "w12", "sym_grad", "evaluate", "gradient",
        "write",
    ],
)
def test_single_field_functions_reject_stacks(square, call):
    stack = random_zero_boundary_field(square, np.random.default_rng(13), count=3)
    with pytest.raises(DomainError, match="takes a single field, got a stack of 3"):
        call(stack, FemField.zeros(square))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_jacobian_symmetry(disk):
    rng = np.random.default_rng(7)
    u = random_zero_boundary_field(disk, rng)
    J = assemble_jacobian(Truncated(PowerLaw(3), 0.1, 10.0), u)
    asym = np.abs(J - J.T).max()
    assert asym <= 1e-12


def test_jacobian_power2_independent_of_state(disk):
    rng = np.random.default_rng(8)
    u1 = random_zero_boundary_field(disk, rng)
    u2 = random_zero_boundary_field(disk, rng)
    J1 = assemble_jacobian(PowerLaw(2), u1)
    J2 = assemble_jacobian(PowerLaw(2), u2)
    assert np.abs(J1 - J2).max() <= 1e-13


def test_jacobian_coercive_on_free_dofs():
    mesh = build_mesh("unit_square", 0.5)
    cache = quad_cache(mesh)
    rng = np.random.default_rng(21)
    u = random_zero_boundary_field(mesh, rng)
    J = assemble_jacobian(Truncated(PowerLaw(3), 0.1, 10.0), u)
    free = ~cache.boundary_vector()
    dense = J.toarray()[np.ix_(free, free)]
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigs.min() > 0.0


def test_rigid_motion_zero_residual(disk):
    rig = FemField.from_callable(disk, lambda x, y: np.stack([1.0 - 0.5 * y, 0.5 * x + 2.0]))
    R = assemble_residual(Truncated(PowerLaw(3), 0.1, 10.0), rig, FemField.zeros(disk))
    assert np.abs(R).max() <= 1e-12


def test_residual_requires_quadratic_branch_at_zero_strain(square):
    u = FemField.zeros(square)
    with pytest.raises(SingularityError, match="trunc"):
        assemble_residual(PowerLaw(1.5), u, FemField.zeros(square))


def test_stress_strain_contraction_equals_transform_norm(disk):
    # a_map(eps u) : eps u == |v_map(eps u)|^2 pointwise at quadrature points
    rng = np.random.default_rng(31)
    u = random_zero_boundary_field(disk, rng)
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    E = strain_mandel(u)
    t = np.sqrt(np.sum(E * E, axis=-1))
    A = np.where(t > 0, spec.d_phi(t) / np.where(t > 0, t, 1.0), 0.0)[..., None] * E
    V = v_strain_mandel(spec, u)
    assert np.sum(A * E, axis=-1) == pytest.approx(np.sum(V * V, axis=-1), rel=1e-12)


# ---------------------------------------------------------------------------
# transform norm
# ---------------------------------------------------------------------------


def test_w12_norm_zero_field(square):
    assert w12_norm_v(PowerLaw(2), FemField.zeros(square)) == (0.0, 0.0)


def test_w12_norm_identity_strain(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    l2, semi = w12_norm_v(PowerLaw(2), u)
    assert l2 == pytest.approx(2.0, rel=1e-12)  # |Id|^2 * |Omega|
    assert semi == pytest.approx(0.0, abs=1e-22)


def test_w12_seminorm_vanishes_for_linear_fields(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([0.2 * x + 0.7 * y, 0.4 * x]))
    for spec in (PowerLaw(2), Truncated(PowerLaw(3), 0.1, 10.0)):
        _, semi = w12_norm_v(spec, u)
        assert semi <= 1e-20


def test_w12_singular_spec_at_zero_strain_raises(square):
    with pytest.raises(SingularityError):
        w12_norm_v(PowerLaw(1.5), FemField.zeros(square))


# ---------------------------------------------------------------------------
# evaluation and IO
# ---------------------------------------------------------------------------


def test_locate_and_evaluate(disk):
    u = FemField.from_callable(disk, lambda x, y: np.stack([x * y, x - y]))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.6, 0.6, size=(300, 2))
    cells, bary = locate_points(disk, pts)
    assert np.all(cells >= 0)
    assert np.all(bary >= -1e-10)
    vals = evaluate_field(u, pts)
    assert vals[:, 0] == pytest.approx(pts[:, 0] * pts[:, 1], abs=1e-12)
    grads = evaluate_field_gradient(u, pts)
    assert grads[:, 1, 0] == pytest.approx(np.ones(len(pts)), abs=1e-11)


def _brute_force_barycentrics(mesh, pts):
    """(n_points, n_cells, 3) barycentrics of every point in every cell."""
    p = mesh.nodes[mesh.cells]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    rel = pts[:, None, :] - p[None, :, 0]
    l1 = (rel[..., 0] * e2[:, 1] - rel[..., 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * rel[..., 1] - e1[:, 1] * rel[..., 0]) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


def test_locate_points_matches_brute_force_scan():
    mesh = build_mesh("unit_disk", 1.0 / 16.0)
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    xs = np.linspace(lo[0], hi[0], 64)
    ys = np.linspace(lo[1], hi[1], 64)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    midpoints = mesh.nodes[mesh.edges].mean(axis=1)
    pts = np.vstack([np.column_stack([X.ravel(), Y.ravel()]), mesh.nodes, midpoints])

    cells, bary = locate_points(mesh, pts)
    tol = 1e-10
    contained = np.concatenate(
        [
            np.all(_brute_force_barycentrics(mesh, chunk) >= -tol, axis=-1)
            for chunk in np.array_split(pts, 16)
        ]
    )  # (n_points, n_cells)
    outside = ~contained.any(axis=1)
    assert 900 <= outside.sum() <= 1100  # the lattice corners outside the disk
    assert np.array_equal(cells == -1, outside)
    inside = ~outside
    # on a shared edge or vertex any containing cell is a correct answer
    assert np.all(contained[inside, cells[inside]])
    corners = mesh.nodes[mesh.cells[cells[inside]]]  # (n, 3, 2)
    rebuilt = np.einsum("nk,nkd->nd", bary[inside], corners)
    assert np.abs(rebuilt - pts[inside]).max() <= 1e-12
    assert np.all(bary[outside] == 0.0)


def test_evaluate_outside_is_zero_extension(disk):
    u = FemField.from_callable(disk, lambda x, y: np.stack([1.0 + 0 * x, 0 * y]))
    far = np.array([[2.0, 2.0], [-3.0, 0.0]])
    assert np.all(evaluate_field(u, far) == 0.0)


def test_field_text_roundtrip(square, tmp_path):
    rng = np.random.default_rng(4)
    u = random_zero_boundary_field(square, rng)
    path = tmp_path / "field.txt"
    write_field_text(u, path)
    back = read_field_text(square, path)
    assert back.zero_boundary
    assert np.array_equal(back.coeffs, u.coeffs)


def test_field_shape_validation(square):
    cache = quad_cache(square)
    for shape in ((3, 2), (cache.n_scalar, 3), (2, 2, cache.n_scalar, 2)):
        with pytest.raises(DomainError):
            FemField(square, np.zeros(shape))
    for bad in (np.ones((cache.n_scalar, 2)), np.ones((4, cache.n_scalar, 2))):
        with pytest.raises(DomainError):
            FemField(square, bad, zero_boundary=True)
