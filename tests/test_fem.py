"""P2 elements: quadrature, strains, modulars, assembly, and the transform norm."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as splinalg

from orliczfem import radial
from orliczfem.fem import (
    FemField,
    _p2_values,
    assemble_jacobian,
    assemble_residual,
    evaluate_field,
    evaluate_field_gradient,
    gradient_at_qp,
    integral,
    korn_ratio,
    korn_ratio_meanfree,
    locate_points,
    memo,
    modular,
    poincare_ratio,
    quad_cache,
    random_zero_boundary_field,
    region_measure,
    strain_grad_mandel,
    strain_mandel,
    values_at_qp,
    w12_norm_v,
)
from orliczfem.meshing import LOCAL_EDGES, build_mesh, cell_jacobians
from orliczfem.nfunctions import DomainError, PowerLaw, SingularityError, Truncated
from orliczfem.tensors import a_map, v_map

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
    areas = 0.5 * np.abs(cell_jacobians(square.nodes, square.cells)[1])
    assert cache.weights.sum(axis=1) == pytest.approx(areas, rel=1e-13)


def test_edge_functions_follow_the_local_edge_order(square, disk):
    # cell_dofs puts edge cell_edges[:, k] at local dof 3 + k: both must use LOCAL_EDGES
    for k, (a, b) in enumerate(LOCAL_EDGES):
        midpoint = np.zeros(3)
        midpoint[[a, b]] = 0.5
        assert np.array_equal(_p2_values(midpoint), np.eye(6)[3 + k])
        for mesh in (square, disk):
            ends = mesh.edges[mesh.cell_edges[:, k]]
            assert np.array_equal(ends, np.sort(mesh.cells[:, [a, b]], axis=1))


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
    assert np.allclose(strain_mandel(u)[3, 2], [1.0, 1.0, 0.0])


def test_sym_grad_rigid_motion_vanishes(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([0.3 - y, x + 1.0]))
    assert np.abs(strain_mandel(u)).max() <= 1e-13


def test_sym_grad_quadratic_field(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x * x, 0.0 * y]))
    cache = quad_cache(square)
    E = strain_mandel(u)
    assert E[..., 0] == pytest.approx(2.0 * cache.qpoints[..., 0], rel=1e-12)
    assert np.abs(E[..., 1:]).max() <= 1e-12


KERNEL_CASES = [
    (domain, count) for domain in ("unit_disk", "unit_square", "half_disk") for count in (None, 3)
]


def _random_p2(domain, count):
    """A field (count None) or a stack of standard-normal P2 coefficients, boundary included."""
    mesh = build_mesh(domain, 0.25)
    size = (quad_cache(mesh).n_scalar, 2)
    if count is not None:
        size = (count,) + size
    return FemField(mesh, np.random.default_rng(27).standard_normal(size))


def _as_stack(values, u):
    return values if u.count is not None else values[None]


def _close_relative(got, want, rel=1e-12):
    return got.shape == want.shape and np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("domain,count", KERNEL_CASES)
def test_strain_is_the_mandel_symmetric_part_of_the_gradient(domain, count):
    u = _random_p2(domain, count)
    G = gradient_at_qp(u)  # G[..., e, d] = du_e/dx_d
    mandel = np.stack(
        [G[..., 0, 0], G[..., 1, 1], (G[..., 0, 1] + G[..., 1, 0]) / math.sqrt(2.0)], axis=-1
    )
    assert _close_relative(strain_mandel(u), mandel)


@pytest.mark.parametrize("domain,count", KERNEL_CASES)
def test_strain_gradient_is_the_gradient_of_the_fitted_strain(domain, count):
    # the strain of a P2 field is linear on each cell, so the least-squares
    # plane through its six quadrature values is exact, and its slope is dE
    u = _random_p2(domain, count)
    qp = quad_cache(u.mesh).qpoints
    local = qp - qp.mean(axis=1, keepdims=True)
    design = np.concatenate([np.ones(qp.shape[:2] + (1,)), local], axis=-1)  # (nc, 6q, 3)
    fit = np.linalg.pinv(design)  # (nc, 3, 6q)
    slopes = np.stack([(fit @ E)[:, 1:] for E in _as_stack(strain_mandel(u), u)])
    assert _close_relative(_as_stack(strain_grad_mandel(u), u), slopes)


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
    left = quad_cache(square).qpoints[..., 0] < 0.5
    total = modular(PowerLaw(2), u, "sym_grad")
    part = modular(PowerLaw(2), u, "sym_grad", region=left)
    assert 0.0 < part < total
    assert region_measure(square, left) == pytest.approx(0.5, rel=1e-12)


def test_region_and_its_complement_partition_the_integral(disk):
    u = random_zero_boundary_field(disk, np.random.default_rng(21))
    spec = PowerLaw(3)
    upper = quad_cache(disk).qpoints[..., 1] > 0.1
    assert region_measure(disk, upper) + region_measure(disk, ~upper) == pytest.approx(
        region_measure(disk), rel=1e-14
    )
    for kind in ("sym_grad", "grad", "value"):
        split = modular(spec, u, kind, region=upper) + modular(spec, u, kind, region=~upper)
        assert split == pytest.approx(modular(spec, u, kind), rel=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda mesh, u, region: integral(mesh, values_at_qp(u)[..., 0], region),
        lambda mesh, u, region: modular(PowerLaw(2), u, "value", region=region),
        lambda mesh, u, region: region_measure(mesh, region),
    ],
    ids=["integral", "modular", "region_measure"],
)
def test_callable_region_is_a_type_error(square, call):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    with pytest.raises(TypeError):
        call(square, u, lambda x, y: x < 0.5)


def test_modular_unknown_kind(square):
    with pytest.raises(DomainError):
        modular(PowerLaw(2), FemField.zeros(square), "curl")


@pytest.mark.parametrize("scale", [-1.0, 0.0, math.inf, math.nan])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_modular_rejects_a_scale_that_is_not_positive_and_finite(square, p, scale):
    # phi of a negative argument is negative (p = 3) or NaN (p = 1.5), not an error
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    with pytest.raises(DomainError, match="modular scale must be positive and finite"):
        modular(PowerLaw(p), u, "value", scale=scale)


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
    spec = PowerLaw(1.5)
    ratio = modular(spec, u, "grad") / modular(spec, u, "sym_grad")
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
        assert poincare_ratio(spec, u) <= 1.0


@pytest.mark.parametrize("count", [None, 5])
def test_ratios_given_their_kernels_equal_their_own(square, count):
    u = random_zero_boundary_field(square, np.random.default_rng(31), count=count)
    G, E = gradient_at_qp(u), strain_mandel(u)
    for spec in (PowerLaw(1.3), PowerLaw(3)):
        assert np.array_equal(korn_ratio(spec, u, strain=E), korn_ratio(spec, u))
        assert np.array_equal(
            korn_ratio_meanfree(spec, u, grad=G, strain=E), korn_ratio_meanfree(spec, u)
        )
        # the shared int phi(|grad u|): Korn numerator, Poincare denominator
        grad_mod = modular(spec, u, "grad", kernel=G)
        assert np.array_equal(grad_mod, modular(spec, u, "grad"))
        assert np.array_equal(
            korn_ratio(spec, u, strain=E, grad_modular=grad_mod), korn_ratio(spec, u)
        )
        assert np.array_equal(
            poincare_ratio(spec, u, grad_modular=grad_mod), poincare_ratio(spec, u)
        )


# ---------------------------------------------------------------------------
# field stacks
# ---------------------------------------------------------------------------


def _entries(stack):
    return [FemField(stack.mesh, coeffs, stack.zero_boundary) for coeffs in stack.coeffs]


@pytest.mark.parametrize("h,count", [(0.25, 5), (1 / 16, 16)])
def test_stack_quadrature_sum_is_the_elementwise_sum(h, count):
    # integral contracts a stack in place of np.sum(w * values); on the
    # kernels' field-last layout the two must agree to the bit
    mesh = build_mesh("unit_square", h)
    stack = random_zero_boundary_field(mesh, np.random.default_rng(41), count=count)
    w = quad_cache(mesh).weights
    spec = PowerLaw(1.5)
    for values in (
        spec.phi(radial.norm(gradient_at_qp(stack), 2)),
        spec.phi(radial.norm(strain_mandel(stack))),
        spec.phi(radial.norm(values_at_qp(stack))),
    ):
        assert np.array_equal(integral(mesh, values), np.sum(w * values, axis=(-2, -1)))


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
    upper = quad_cache(disk).qpoints[..., 1] > 0.1
    for kind in ("sym_grad", "grad", "value"):
        for region in (None, upper):
            got = modular(spec, stack, kind, scale=0.7, region=region)
            want = [modular(spec, u, kind, scale=0.7, region=region) for u in entries]
            assert got.shape == (count,)
            assert got == pytest.approx(want, rel=1e-13)

    for ratio in (korn_ratio, korn_ratio_meanfree, poincare_ratio):
        got = ratio(spec, stack)
        assert got.shape == (count,)
        assert got == pytest.approx([ratio(spec, u) for u in entries], rel=1e-13)


@pytest.mark.parametrize("count", [None, 4])
def test_ratios_are_quotients_of_modulars(disk, count):
    # each ratio is its quotient of modular calls, to the bit
    u = random_zero_boundary_field(disk, np.random.default_rng(17), count=count)
    spec = PowerLaw(1.5)
    w = quad_cache(disk).weights
    G, E = gradient_at_qp(u), strain_mandel(u)
    G0 = G - np.einsum("cq,...cqed->...ed", w, G)[..., None, None, :, :] / w.sum()
    E0 = E - np.einsum("cq,...cqi->...i", w, E)[..., None, None, :] / w.sum()
    grad, sym_grad = modular(spec, u, "grad"), modular(spec, u, "sym_grad")
    assert np.array_equal(korn_ratio(spec, u), grad / sym_grad)
    assert np.array_equal(poincare_ratio(spec, u), modular(spec, u, "value") / grad)
    assert np.array_equal(
        korn_ratio_meanfree(spec, u),
        modular(spec, u, "grad", kernel=G0) / modular(spec, u, "sym_grad", kernel=E0),
    )


def test_full_region_changes_no_bit(disk):
    u = random_zero_boundary_field(disk, np.random.default_rng(18))
    spec = PowerLaw(3)
    everywhere = np.ones(quad_cache(disk).weights.shape, dtype=bool)
    for kind in ("sym_grad", "grad", "value"):
        assert modular(spec, u, kind, region=everywhere) == modular(spec, u, kind)
    assert region_measure(disk, everywhere) == region_measure(disk)


def test_stacked_draw_is_successive_single_draws(square):
    stack = random_zero_boundary_field(square, np.random.default_rng(11), count=5)
    rng = np.random.default_rng(11)
    singles = [random_zero_boundary_field(square, rng).coeffs for _ in range(5)]
    assert stack.zero_boundary
    assert np.array_equal(stack.coeffs, np.stack(singles))


@pytest.mark.parametrize("ratio", [korn_ratio, korn_ratio_meanfree, poincare_ratio])
def test_rigid_stack_entry_is_named(square, ratio):
    coeffs = random_zero_boundary_field(square, np.random.default_rng(12), count=4).coeffs.copy()
    coeffs[2] = 0.0
    stack = FemField(square, coeffs, zero_boundary=True)
    with pytest.raises(DomainError, match=r"stack entry 2\b"):
        ratio(PowerLaw(2), stack)


@pytest.mark.parametrize(
    "call",
    [
        lambda u, one: assemble_residual(PowerLaw(2), u, one),
        lambda u, one: assemble_residual(PowerLaw(2), one, u),
        lambda u, one: assemble_jacobian(PowerLaw(2), u),
        lambda u, one: w12_norm_v(PowerLaw(2), u),
        lambda u, one: evaluate_field(u, np.zeros((1, 2))),
        lambda u, one: evaluate_field_gradient(u, np.zeros((1, 2))),
    ],
    ids=["residual", "residual_forcing", "jacobian", "w12", "evaluate", "gradient"],
)
def test_single_field_functions_reject_stacks(square, call):
    stack = random_zero_boundary_field(square, np.random.default_rng(13), count=3)
    with pytest.raises(DomainError, match="takes a single field, got a stack of 3"):
        call(stack, FemField.zeros(square))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _jacobian_by_tangent(spec, field):
    """The Jacobian built through the (nc, 6, 3, 3) tangent: radial.derivative
    along the Mandel basis, then B^T (w M) B per cell (the reference)."""
    cache = quad_cache(field.mesh)
    E = strain_mandel(field)
    t = np.sqrt(np.sum(E * E, axis=-1))
    a1, a2 = radial.coefficients(spec, t)
    M = radial.derivative(a1[..., None], a2[..., None], radial.unit(E, t)[..., None, :], np.eye(3))
    nc = len(E)
    wMB = ((cache.weights[..., None, None] * M) @ cache.strain_B).reshape(nc, 18, 12)
    j_loc = cache.strain_B.reshape(nc, 18, 12).transpose(0, 2, 1) @ wMB
    pattern = cache.free_pattern()
    nnz, n = len(pattern.indices), len(pattern.free_dofs)
    data = np.bincount(pattern.slots, weights=j_loc.ravel(), minlength=nnz + 1)
    return sparse.csc_matrix((data[:nnz], pattern.indices, pattern.indptr), shape=(n, n))


def _straddling_case(mesh, p):
    """(truncated spec, field): the field is zero on the left half, so the cells
    there have zero strain (the t = 0 limit), and the levels put strains below
    lo and above hi."""
    coeffs = random_zero_boundary_field(mesh, np.random.default_rng(17)).coeffs.copy()
    coeffs[quad_cache(mesh).dof_coords[:, 0] < 0.0] = 0.0
    u = FemField(mesh, coeffs, zero_boundary=True)
    E = strain_mandel(u)
    t = np.sqrt(np.sum(E * E, axis=-1))
    lo, hi = np.quantile(t[t > 0.0], [0.25, 0.75])
    assert np.any(t == 0.0) and np.any((t > 0.0) & (t < lo)) and np.any(t > hi)
    return Truncated(PowerLaw(p), lo, hi), u


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_jacobian_matches_the_tangent_build(disk, p):
    spec, u = _straddling_case(disk, p)
    reference = _jacobian_by_tangent(spec, u)
    J = assemble_jacobian(spec, u)
    assert splinalg.norm(J - reference) <= 1e-13 * splinalg.norm(reference)


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
    rng = np.random.default_rng(21)
    u = random_zero_boundary_field(mesh, rng)
    J = assemble_jacobian(Truncated(PowerLaw(3), 0.1, 10.0), u)
    dense = J.toarray()
    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigs.min() > 0.0


def test_free_dofs_are_each_interior_vector_dof_once(disk):
    cache = quad_cache(disk)
    free_dofs = cache.free_pattern().free_dofs
    interior = np.flatnonzero(~np.repeat(cache.boundary_scalar, 2))  # vector dof 2 s + e
    assert np.array_equal(np.sort(free_dofs), interior)


def test_jacobian_columns_are_residual_differences():
    # PowerLaw(2) makes the residual linear, so column k is R(e_k) - R(0) on the free dofs
    mesh = build_mesh("unit_square", 0.5)
    spec = PowerLaw(2)
    zero = FemField.zeros(mesh)
    cache = quad_cache(mesh)
    free_dofs = cache.free_pattern().free_dofs
    J = assemble_jacobian(spec, zero).toarray()
    base = assemble_residual(spec, zero, zero)
    for k, dof in enumerate(free_dofs):
        unit = np.zeros(cache.n_vector)
        unit[dof] = 1.0
        e_k = FemField(mesh, unit.reshape(-1, 2), zero_boundary=True)
        diff = (assemble_residual(spec, e_k, zero) - base)[free_dofs]
        # entries that cancel to rounding compare against the column's scale
        np.testing.assert_allclose(J[:, k], diff, rtol=1e-12, atol=1e-12 * np.abs(diff).max())


def test_rigid_motion_zero_residual(disk):
    rig = FemField.from_callable(disk, lambda x, y: np.stack([1.0 - 0.5 * y, 0.5 * x + 2.0]))
    R = assemble_residual(Truncated(PowerLaw(3), 0.1, 10.0), rig, FemField.zeros(disk))
    assert np.abs(R).max() <= 1e-12


def test_residual_requires_quadratic_branch_at_zero_strain(square):
    u = FemField.zeros(square)
    with pytest.raises(SingularityError, match="trunc"):
        assemble_residual(PowerLaw(1.5), u, FemField.zeros(square))


def _mandel_matrices(E):
    """(..., 3) Mandel vectors as (..., 2, 2) symmetric matrices."""
    off = E[..., 2] / math.sqrt(2.0)
    return np.stack([np.stack([E[..., 0], off], -1), np.stack([off, E[..., 1]], -1)], -2)


def test_w12_transformed_strain_is_v_map_of_the_strain(disk):
    # w12_norm_v's V is v_map(eps u) at the quadrature points, in Mandel form,
    # and a_map(eps u) : eps u == |V|^2 pointwise
    rng = np.random.default_rng(31)
    u = random_zero_boundary_field(disk, rng)
    spec = Truncated(PowerLaw(3), 0.01, 100.0)
    eps = _mandel_matrices(strain_mandel(u))
    V = w12_norm_v(spec, u)[0]
    assert V.shape == strain_mandel(u).shape
    np.testing.assert_allclose(_mandel_matrices(V), v_map(spec, eps), rtol=1e-13, atol=0.0)
    contraction = np.sum(a_map(spec, eps) * eps, axis=(-2, -1))
    assert contraction == pytest.approx(np.sum(V * V, axis=-1), rel=1e-12)


# ---------------------------------------------------------------------------
# transform norm
# ---------------------------------------------------------------------------


def test_w12_norm_zero_field(square):
    V, l2, semi = w12_norm_v(PowerLaw(2), FemField.zeros(square))
    assert not V.any() and (l2, semi) == (0.0, 0.0)


def test_w12_norm_identity_strain(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([x, y]))
    _, l2, semi = w12_norm_v(PowerLaw(2), u)
    assert l2 == pytest.approx(2.0, rel=1e-12)  # |Id|^2 * |Omega|
    assert semi == pytest.approx(0.0, abs=1e-22)


def test_w12_seminorm_vanishes_for_linear_fields(square):
    u = FemField.from_callable(square, lambda x, y: np.stack([0.2 * x + 0.7 * y, 0.4 * x]))
    for spec in (PowerLaw(2), Truncated(PowerLaw(3), 0.1, 10.0)):
        semi = w12_norm_v(spec, u)[2]
        assert semi <= 1e-20


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_w12_seminorm_matches_the_derivative_build(disk, p):
    # reference: build d_i v_map(eps u) with radial.derivative and square it
    spec, u = _straddling_case(disk, p)
    E = strain_mandel(u)
    t = np.sqrt(np.sum(E * E, axis=-1))
    b1, b2 = radial.transform_coefficients(spec, t)
    unit = radial.unit(E, t)[:, :, None, :]
    dV = radial.derivative(b1[..., None], b2[..., None], unit, strain_grad_mandel(u)[:, None])
    reference = float(np.sum(quad_cache(disk).weights * np.sum(dV * dV, axis=(-2, -1))))
    semi = w12_norm_v(spec, u)[2]
    assert semi == pytest.approx(reference, rel=1e-13)


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


def test_field_shape_validation(square):
    cache = quad_cache(square)
    for shape in ((3, 2), (cache.n_scalar, 3), (2, 2, cache.n_scalar, 2)):
        with pytest.raises(DomainError):
            FemField(square, np.zeros(shape))
        with pytest.raises(DomainError, match="coefficient shape"):
            FemField.zeroed(square, np.ones(shape))
    for func in (lambda x, y: x, lambda x, y: np.stack([x, y, x])):
        with pytest.raises(DomainError, match="coefficient shape"):
            FemField.from_callable(square, func, zero_boundary=True)
    for bad in (np.ones((cache.n_scalar, 2)), np.ones((4, cache.n_scalar, 2))):
        with pytest.raises(DomainError):
            FemField(square, bad, zero_boundary=True)


def _swirl(x, y):
    return np.stack([-y, x])


@pytest.mark.parametrize(
    "build",
    [
        lambda m: FemField(m, np.ones((quad_cache(m).n_scalar, 2))),
        lambda m: FemField(m, np.ones((3, quad_cache(m).n_scalar, 2))),
        FemField.zeros,
        lambda m: FemField.from_callable(m, _swirl),
        lambda m: FemField.from_callable(m, _swirl, zero_boundary=True),
        lambda m: random_zero_boundary_field(m, np.random.default_rng(3)),
        lambda m: random_zero_boundary_field(m, np.random.default_rng(3), count=2),
        lambda m: FemField.from_callable(m, _swirl).with_zero_boundary(),
    ],
    ids=[
        "constructor", "constructor_stack", "zeros", "from_callable",
        "from_callable_zero_boundary", "random", "random_stack", "with_zero_boundary",
    ],
)
def test_writing_into_a_fields_coefficients_raises(square, build):
    # what is memoised on a field (a forcing's lattice sample and K^{-1} F)
    # stays valid because its coefficients cannot change
    u = build(square)
    with pytest.raises(ValueError, match="read-only"):
        u.coeffs[..., 0, :] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        u.coeffs *= 2.0


def test_with_zero_boundary_returns_a_zero_boundary_field_itself(square):
    u = FemField.from_callable(square, _swirl, zero_boundary=True)
    assert u.with_zero_boundary() is u


def test_with_zero_boundary_zeroes_a_copy_of_a_field_with_boundary_values(square):
    boundary = quad_cache(square).boundary_scalar
    u = FemField.from_callable(square, _swirl)
    assert np.any(u.coeffs[boundary] != 0.0)
    before = u.coeffs.copy()
    zeroed = u.with_zero_boundary()
    assert zeroed is not u and zeroed.zero_boundary and not u.zero_boundary
    assert not np.shares_memory(zeroed.coeffs, u.coeffs)
    assert np.array_equal(u.coeffs, before)
    assert np.all(zeroed.coeffs[boundary] == 0.0)
    interior = np.ones(len(before), dtype=bool)
    interior[boundary] = False
    assert np.array_equal(zeroed.coeffs[interior], before[interior])


def test_a_field_keeps_the_array_it_is_given(square):
    coeffs = np.ones((quad_cache(square).n_scalar, 2))
    u = FemField(square, coeffs)
    assert u.coeffs is coeffs and not coeffs.flags.writeable


def test_zeroed_zeroes_the_boundary_rows_of_the_array_it_keeps(square):
    boundary = quad_cache(square).boundary_scalar
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, (2, len(boundary), 2))
    before = coeffs.copy()
    u = FemField.zeroed(square, coeffs)
    assert u.coeffs is coeffs and u.zero_boundary and not coeffs.flags.writeable
    assert np.all(coeffs[:, boundary] == 0.0)
    assert np.array_equal(coeffs[:, ~boundary], before[:, ~boundary])


class _Owner:
    """An object to keep memos on."""


def test_memo_builds_once_per_owner_and_key():
    built = []

    def build(tag):
        return lambda: built.append(tag) or [tag]

    first, other = _Owner(), _Owner()
    kept = memo(first, "key", build("first"))
    assert memo(first, "key", build("again")) is kept and kept == ["first"]
    assert memo(first, ("key", 2), build("second key")) == ["second key"]
    assert memo(other, "key", build("other owner")) == ["other owner"]
    assert built == ["first", "second key", "other owner"]


def test_memo_gives_concurrent_first_uses_the_one_value_kept():
    # both threads miss and build; every caller gets the value stored first
    owner, both_building = _Owner(), threading.Barrier(2)

    def build():
        both_building.wait(timeout=10)
        return object()

    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(lambda _: memo(owner, "key", build), range(2)))
    assert got[0] is got[1] is memo(owner, "key", build)
