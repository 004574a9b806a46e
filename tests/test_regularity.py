"""Regularity-lab experiments on solved fields."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from orliczfem import nfunctions
from orliczfem.fem import FemField, modular, w12_norm_v
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DeltaPower, DomainError, PowerLaw, Truncated
from orliczfem.regularity import (
    RegularityReport,
    caccioppoli_ratio,
    conjugate_forcing_modulars,
    default_disk_forcing,
    interpolation_step_check,
    regularity_ratio,
    rigid_projection,
)
from orliczfem.solver import SolveConfig, SolveTrace, StageResult, delta_continuation


@pytest.fixture(scope="module")
def disk():
    return build_mesh("unit_disk", 1.0 / 6.0)


@pytest.fixture(scope="module")
def swirl(disk):
    return default_disk_forcing(disk)


@pytest.fixture(scope="module")
def solved(disk, swirl):
    return delta_continuation(PowerLaw(3), swirl)[-1]


def test_regularity_ratio_zero_forcing(disk):
    report, stages = regularity_ratio(PowerLaw(2), FemField.zeros(disk))
    assert report.ratio == 0.0
    assert report.lhs == 0.0
    assert all(s.trace.iterations == 0 for s in stages)


def test_regularity_ratio_finite_and_stable(disk, swirl):
    report, stages = regularity_ratio(PowerLaw(2), swirl)
    assert math.isfinite(report.ratio) and report.ratio > 0.0
    assert len(stages) == len(SolveConfig().delta_schedule)
    assert report.lhs == stages[-1].w12_total
    # quadratic law: the truncation is inert, every stage identical
    assert len({s.w12_total for s in stages}) == 1


@pytest.mark.parametrize("p", [1.3, 4.0])
def test_sweep_stage_and_energy_row_never_bisect(disk, swirl, monkeypatch, p):
    # the sweep's per-stage path: a Lipschitz-truncated stage forcing, the
    # Newton stage solve, the transform norm, the untruncated conjugate
    # modulars and the energy row's truncated conjugate; every inverse of
    # phi' on it is closed-form (PowerLaw and the Truncated branches)
    def no_bisection(func, s):
        raise AssertionError("bisection on the regularity sweep's path")

    monkeypatch.setattr(nfunctions, "invert_increasing", no_bisection)
    spec = PowerLaw(p)
    cfg = SolveConfig(delta_schedule=((1e-3, 1e3),))
    report, stages = regularity_ratio(spec, swirl, cfg, lattice_n=16)
    stage_spec = spec.truncate(stages[0].trunc_lo, stages[0].trunc_hi)
    rhs_energy = modular(stage_spec.conjugate_spec(), swirl, "value")
    assert math.isfinite(report.ratio) and rhs_energy > 0.0
    with pytest.raises(AssertionError, match="bisection"):
        DeltaPower(1.5, 0.3).d_phi_inv(1.0)  # the patch is live


def test_regularity_requires_zero_trace(disk):
    f = FemField.from_callable(disk, lambda x, y: np.stack([x, y]))
    with pytest.raises(DomainError):
        regularity_ratio(PowerLaw(2), f)


def test_report_rejects_non_finite():
    with pytest.raises(DomainError):
        RegularityReport(math.nan, 1.0, 1.0)


def test_conjugate_forcing_modulars_positive(disk, swirl):
    m_f, m_g = conjugate_forcing_modulars(PowerLaw(3), swirl)
    assert m_f > 0.0 and m_g > 0.0


# ---------------------------------------------------------------------------
# Caccioppoli
# ---------------------------------------------------------------------------


def test_rigid_projection_recovers_rigid_motion(disk):
    u = FemField.from_callable(disk, lambda x, y: np.stack([1.5 - 0.7 * y, -0.25 + 0.7 * x]))
    a, b, c = rigid_projection(u, lambda x, y: np.ones_like(x, dtype=bool))
    assert (a, b, c) == pytest.approx((1.5, -0.25, 0.7), rel=1e-12)


def test_caccioppoli_rigid_field_zero(disk):
    u = FemField.from_callable(disk, lambda x, y: np.stack([0.2 - 0.3 * y, 0.3 * x]))
    ratio = caccioppoli_ratio(PowerLaw(2), u, FemField.zeros(disk), (0.0, 0.0), 0.2)
    assert ratio == 0.0


def test_caccioppoli_rejects_a_forcing_on_another_mesh(solved):
    # the same mesh built twice: equal arrays, but not the field's mesh
    twin = default_disk_forcing(build_mesh("unit_disk", 1.0 / 6.0))
    with pytest.raises(DomainError, match="forcing lives on another mesh"):
        caccioppoli_ratio(PowerLaw(3), solved.field, twin, (0.0, 0.0), 0.2)


def test_caccioppoli_interior_check(disk, solved, swirl):
    field = solved.field
    with pytest.raises(DomainError):
        caccioppoli_ratio(PowerLaw(3), field, swirl, (0.8, 0.0), 0.2)


def test_caccioppoli_bounded_over_balls_and_radii(disk, solved, swirl):
    field = solved.field
    ratios = []
    for center in ((0.0, 0.0), (0.25, 0.1)):
        for radius in (0.1, 0.2, 0.3):
            if math.hypot(*center) + 2 * radius < 0.98:
                ratios.append(caccioppoli_ratio(PowerLaw(3), field, swirl, center, radius))
    assert all(0.0 < r <= 10.0 for r in ratios)
    assert max(ratios) <= 10.0 * np.median(ratios)


def test_caccioppoli_shrinking_radius_no_blowup(disk, solved, swirl):
    field = solved.field
    ratios = [
        caccioppoli_ratio(PowerLaw(3), field, swirl, (0.0, 0.0), r)
        for r in (0.3, 0.25, 0.2, 0.17)
    ]
    assert max(ratios) <= 5.0 * min(ratios)


# ---------------------------------------------------------------------------
# interpolation step
# ---------------------------------------------------------------------------


def test_interpolation_step_trivial_for_constant_strain(disk):
    u = FemField.from_callable(disk, lambda x, y: np.stack([x, -y]))
    stage_spec = Truncated(PowerLaw(1.5), 1e-4, 1e4)
    stage = StageResult(1e-4, 1e4, u, *w12_norm_v(stage_spec, u), math.nan, SolveTrace())
    ratio = interpolation_step_check(PowerLaw(1.5), stage)
    assert ratio == math.inf


def test_interpolation_step_solved_field(disk, swirl):
    spec = PowerLaw(1.5)
    stages = delta_continuation(spec, swirl)
    ratio = interpolation_step_check(spec, stages[-1])
    assert ratio >= 1.0 - 1e-10
    assert ratio <= 50.0


def test_interpolation_step_spec_validation(disk, solved):
    with pytest.raises(DomainError):
        interpolation_step_check(PowerLaw(3), solved)
    with pytest.raises(DomainError):
        interpolation_step_check(PowerLaw(1.5), dataclasses.replace(solved, trunc_lo=0.0))


def test_threads_sharing_a_mesh_and_forcing_match_serial_runs():
    # regularity_sweep shares one mesh and forcing per h between threads, whose
    # first uses build the lazy memos (Jacobian pattern, located lattice,
    # forcing sample) concurrently; no interleaving may change a result
    cfg = SolveConfig(delta_schedule=((0.1, 10.0), (0.01, 100.0)))
    exponents = (1.5, 3.0) * 4

    def run(f, p):
        _, stages = regularity_ratio(PowerLaw(p), f, cfg, lattice_n=16)
        return [s.trace.rows for s in stages], stages[-1].field.coeffs

    serial = default_disk_forcing(build_mesh("unit_disk", 0.25))
    want = [run(serial, p) for p in exponents]
    shared = default_disk_forcing(build_mesh("unit_disk", 0.25))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, shared, p) for p in exponents]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (want_rows, want_coeffs), (got_rows, got_coeffs) in zip(want, got):
        assert got_rows == want_rows
        assert np.array_equal(got_coeffs, want_coeffs)
