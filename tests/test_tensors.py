"""Stress/transform maps, their derivatives, and the three-way equivalence."""

import math

import numpy as np
import pytest

from orliczfem.fem import FemField, assemble_residual, w12_norm_v
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw, SingularityError, Truncated
from orliczfem.tensors import (
    HammerTriple,
    SymTensor,
    a_map,
    da_map,
    dv_map,
    frobenius,
    hammer_triple,
    mandel_to_sym,
    random_sym,
    sym_to_mandel,
    v_inv,
    v_map,
)

RNG = np.random.default_rng(20240811)


def _sample_pairs(spec, count, scale=(1e-2, 1e2)):
    P = random_sym(RNG, count, n=2, scale=scale)
    Q = random_sym(RNG, count, n=2, scale=scale)
    return P, Q


# ---------------------------------------------------------------------------
# a_map / v_map / v_inv
# ---------------------------------------------------------------------------


def test_a_map_power2_is_identity():
    P = random_sym(RNG, 16)
    assert np.allclose(a_map(PowerLaw(2), P), P)


def test_a_map_power3_scaled_identity():
    P = 2.0 * np.eye(2)
    t = 2.0 * math.sqrt(2.0)
    expected = t * P  # |P|^(p-2) P with p=3
    assert np.allclose(a_map(PowerLaw(3), P), expected, rtol=1e-14)


def test_a_map_zero_convention(spec):
    out = a_map(spec, np.zeros((2, 2)))
    assert np.all(out == 0.0)
    assert v_map(spec, SymTensor.zero(2)).norm() == 0.0


def test_v_map_power2_identity_and_power4_unit_sphere():
    P = random_sym(RNG, 8)
    assert np.allclose(v_map(PowerLaw(2), P), P)
    U = random_sym(RNG, 8)
    U /= frobenius(U)[:, None, None]
    assert np.allclose(v_map(PowerLaw(4), U), U, rtol=1e-13)


def test_v_inv_roundtrip(spec):
    P = random_sym(RNG, 64)
    back = v_inv(spec, v_map(spec, P))
    err = frobenius(back - P) / frobenius(P)
    assert np.max(err) <= 1e-10


def test_a_dot_p_equals_v_norm_squared(spec):
    # a_map(P) : P = |v_map(P)|^2, exactly, and both comparable to phi(|P|)
    P = random_sym(RNG, 256)
    t = frobenius(P)
    lhs = np.sum(np.asarray(a_map(spec, P)) * P, axis=(-2, -1))
    mid = frobenius(v_map(spec, P)) ** 2
    assert lhs == pytest.approx(mid, rel=1e-12)
    ratio = lhs / spec.phi(t)
    idx = spec.indices()
    assert np.all(ratio >= idx.p_minus - 1e-9)
    assert np.all(ratio <= idx.p_plus + 1e-9)


# ---------------------------------------------------------------------------
# hammer triple
# ---------------------------------------------------------------------------


def test_hammer_vanishes_only_at_equal_arguments(spec):
    P = random_sym(RNG, 32)
    trip = hammer_triple(spec, P, P)
    assert np.allclose(trip.lhs, 0.0) and np.allclose(trip.mid, 0.0)
    assert np.allclose(trip.rhs, 0.0)
    zero = hammer_triple(spec, np.zeros((2, 2)), np.zeros((2, 2)))
    assert zero == HammerTriple(0.0, 0.0, 0.0)


def test_hammer_power2_all_equal():
    P, Q = _sample_pairs(PowerLaw(2), 10_000)
    trip = hammer_triple(PowerLaw(2), P, Q)
    diff_sq = frobenius(P - Q) ** 2
    assert np.allclose(trip.lhs, diff_sq, rtol=1e-12)
    assert np.allclose(trip.mid, diff_sq, rtol=1e-12)
    assert np.allclose(trip.rhs, diff_sq, rtol=1e-12)


def test_hammer_power3_example():
    trip = hammer_triple(PowerLaw(3), np.eye(2), np.zeros((2, 2)))
    vals = [trip.lhs, trip.mid, trip.rhs]
    assert all(v > 0 for v in vals)
    for a in vals:
        for b in vals:
            assert a / b <= 10.0


def test_hammer_envelope_over_random_pairs(spec):
    P, Q = _sample_pairs(spec, 10_000)
    trip = hammer_triple(spec, P, Q)
    r1 = trip.lhs / trip.mid
    r2 = trip.mid / trip.rhs
    for r in (r1, r2):
        assert np.all(r >= 1.0 / 100.0)
        assert np.all(r <= 100.0)


def test_hammer_monotonicity(spec):
    P, Q = _sample_pairs(spec, 10_000)
    trip = hammer_triple(spec, P, Q)
    assert np.all(trip.lhs >= 0.0)
    # vanishing lhs forces P = Q (here: never, since the pairs are random)
    assert np.all(trip.lhs > 0.0)


def test_hammer_frame_indifference(spec):
    P, Q = _sample_pairs(spec, 64, scale=(0.5, 2.0))
    theta = RNG.uniform(0.0, 2.0 * math.pi)
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rot = lambda X: np.einsum("ji,...jk,kl->...il", R, X, R)
    trip = hammer_triple(spec, P, Q)
    trip_r = hammer_triple(spec, rot(P), rot(Q))
    assert trip_r.lhs == pytest.approx(trip.lhs, rel=1e-10)
    assert trip_r.mid == pytest.approx(trip.mid, rel=1e-10)
    assert trip_r.rhs == pytest.approx(trip.rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _fd_samples(spec, count):
    """(P, H) samples away from truncation kinks, where the derivative exists."""
    P = random_sym(RNG, count, scale=(1e-1, 1e1))
    H = random_sym(RNG, count, scale=(1.0, 1.0))
    if isinstance(spec, Truncated):
        t = frobenius(P)
        for kink in (spec.lo, spec.hi):
            if math.isfinite(kink) and kink > 0.0:
                bad = np.abs(t - kink) < 1e-3
                P[bad] *= 1.01  # nudge off the kink
    return P, H


@pytest.mark.parametrize("which", ["a", "v"])
def test_derivatives_match_central_differences(spec, which):
    P, H = _fd_samples(spec, 1000)
    h = 1e-5
    fmap, dmap = (a_map, da_map) if which == "a" else (v_map, dv_map)
    fd = (np.asarray(fmap(spec, P + h * H)) - np.asarray(fmap(spec, P - h * H))) / (2 * h)
    exact = np.asarray(dmap(spec, P, H))
    rel = frobenius(fd - exact) / frobenius(exact)
    assert np.max(rel) <= 1e-6


def test_da_power2_is_identity_map():
    P = random_sym(RNG, 8)
    H = random_sym(RNG, 8)
    assert np.allclose(da_map(PowerLaw(2), P, H), H)


def test_da_quadratic_branch_of_truncated():
    spec = Truncated(PowerLaw(3), 0.5, 10.0)
    slope = float(spec.base.d_phi(np.asarray(0.5))) / 0.5
    P = 0.1 * np.eye(2)  # |P| < trunc_lo
    H = random_sym(RNG, 4)
    assert np.allclose(da_map(spec, P, H), slope * H, rtol=1e-13)
    # including exactly at zero
    assert np.allclose(da_map(spec, np.zeros((2, 2)), H), slope * H, rtol=1e-13)


def _zero_strain_residual(spec):
    u = FemField.zeros(build_mesh("unit_square", 0.5))
    return assemble_residual(spec, u, u)


@pytest.mark.parametrize(
    "at_zero",
    [
        lambda spec: da_map(spec, np.zeros((2, 2)), np.eye(2)),
        lambda spec: dv_map(spec, np.zeros((2, 2)), np.eye(2)),
        _zero_strain_residual,
        lambda spec: w12_norm_v(spec, FemField.zeros(build_mesh("unit_square", 0.5))),
    ],
    ids=["da_map", "dv_map", "assemble_residual", "w12_norm_v"],
)
def test_da_singular_at_zero_for_singular_spec(at_zero):
    # every path to the t = 0 limit raises the same advice
    with pytest.raises(SingularityError, match="trunc"):
        at_zero(PowerLaw(1.5))


def test_da_is_spd_with_pinched_eigenvalues(spec):
    basis = [mandel_to_sym(e) for e in np.eye(3)]
    idx = spec.indices()
    for _ in range(20):
        P = random_sym(RNG, 1, scale=(1e-1, 1e1))[0]
        t = frobenius(P)
        M = np.column_stack([sym_to_mandel(da_map(spec, P, b)) for b in basis])
        eig = np.linalg.eigvalsh(0.5 * (M + M.T))
        dd = float(spec.dd_phi(np.asarray(t)))
        lo = dd / max(1.0, idx.p_plus - 1.0)
        hi = dd * max(1.0, 1.0 / (idx.p_minus - 1.0))
        assert np.all(eig > 0.0)
        assert np.all(eig >= lo * (1 - 1e-9))
        assert np.all(eig <= hi * (1 + 1e-9))


def test_dv_self_consistency(spec):
    # |dv(P,H)|^2 is comparable to da(P,H) : H with a spectral-ratio constant
    P, H = _fd_samples(spec, 512)
    lhs = frobenius(dv_map(spec, P, H)) ** 2
    rhs = np.sum(np.asarray(da_map(spec, P, H)) * H, axis=(-2, -1))
    ratio = lhs / rhs
    assert np.all(ratio >= 0.5)
    assert np.all(ratio <= 2.0)


@pytest.mark.parametrize("deriv", [da_map, dv_map])
def test_derivative_of_one_matrix_matches_batch(spec, deriv):
    P, H = _fd_samples(spec, 4)
    if not spec.singular_at_zero:
        P[0] = 0.0  # the t = 0 limit on a lone matrix
    batch = np.asarray(deriv(spec, P, H))
    for k in range(4):
        assert np.allclose(deriv(spec, P[k], H[k]), batch[k], rtol=1e-14, atol=0.0)


def test_truncated_maps_converge_to_base():
    base = PowerLaw(3)
    P = random_sym(RNG, 32, scale=(1e-2, 1e2))
    ref = np.asarray(a_map(base, P))
    prev = math.inf
    for k in (1, 2, 4, 8):
        spec = Truncated(base, 10.0 ** (-k), 10.0 ** k)
        err = np.max(frobenius(np.asarray(a_map(spec, P)) - ref))
        assert err <= prev + 1e-30
        prev = err
    assert prev <= 1e-10


# ---------------------------------------------------------------------------
# SymTensor plumbing
# ---------------------------------------------------------------------------


def test_sym_tensor_packing_roundtrip():
    mat = np.array([[1.0, 2.0], [2.0, 5.0]])
    st = SymTensor.from_matrix(mat)
    assert np.allclose(st.matrix, mat)
    assert st.norm() == pytest.approx(np.linalg.norm(mat))
    assert st.ddot(st) == pytest.approx(np.sum(mat * mat))


def test_sym_tensor_maps_preserve_type():
    st = SymTensor.from_matrix(np.array([[1.0, 0.5], [0.5, 2.0]]))
    out = a_map(PowerLaw(3), st)
    assert isinstance(out, SymTensor)
    assert out.n == 2


def test_sym_tensor_mixed_dimension_rejected():
    a = SymTensor.zero(2)
    b = SymTensor.zero(3)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a.ddot(b)


def test_sym_tensor_dimension_validation():
    with pytest.raises(DomainError):
        SymTensor(4, np.zeros(10))
    with pytest.raises(DomainError):
        SymTensor(2, np.zeros(4))


def test_mandel_roundtrip_preserves_inner_products():
    for n in (2, 3):
        P = random_sym(RNG, 16, n=n)
        Q = random_sym(RNG, 16, n=n)
        mp, mq = sym_to_mandel(P), sym_to_mandel(Q)
        assert np.allclose(mandel_to_sym(mp), P)
        assert np.allclose(np.sum(mp * mq, axis=-1), np.sum(P * Q, axis=(-2, -1)))
