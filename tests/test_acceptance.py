"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The expensive suites (the regularity sweep above all) run once per session via
module-scoped fixtures; every criterion asserts the suite contracts at the
tolerances pinned in ``orliczfem.suites``.
"""

import filecmp

import numpy as np
import pytest

from orliczfem.cli import main as cli_main
from orliczfem.nfunctions import DeltaPower, PowerLaw, SumPower, truncation_dual_gap
from orliczfem.solver import SolveConfig
from orliczfem.suites import run_suite

SEED = 20240811


def _report(number, title, checks):
    ok = all(c.passed for c in checks)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({title})")
    for c in checks:
        print(f"         - {c.name}: {c.detail}")
    assert ok, f"criterion {number} ({title}): " + "; ".join(
        f"{c.name}: {c.detail}" for c in checks if not c.passed
    )


@pytest.fixture(scope="module")
def indices_result():
    return run_suite("indices_suite", {}, SEED, jobs=1)


@pytest.fixture(scope="module")
def hammer_result():
    return run_suite("hammer_suite", {}, SEED, jobs=1)


@pytest.fixture(scope="module")
def manufactured_result():
    return run_suite("manufactured", {}, SEED, jobs=1)


@pytest.fixture(scope="module")
def sweep_result():
    return run_suite("regularity_sweep", {}, SEED, jobs=1)


@pytest.fixture(scope="module")
def truncation_result():
    return run_suite("truncation_suite", {}, SEED, jobs=1)


def _contracts(result, *names):
    found = [c for c in result.contracts if any(c.name.startswith(n) for n in names)]
    assert found, f"no contracts matching {names}"
    return found


def test_criterion_01_index_exactness(indices_result):
    # indices(Power(p)) = (p, p) and indices(DeltaPower(p, 1)) = (p^2, pv2) to 1e-6
    for p in (1.3, 1.5, 2.0, 3.0, 4.0):
        idx = PowerLaw(p).indices()
        assert abs(idx.p_minus - p) <= 1e-6 and abs(idx.p_plus - p) <= 1e-6
        idx = DeltaPower(p, 1.0).indices()
        assert abs(idx.p_minus - min(p, 2.0)) <= 1e-6
        assert abs(idx.p_plus - max(p, 2.0)) <= 1e-6
    _report(1, "index exactness", _contracts(indices_result, "index_exactness"))


def test_criterion_02_scalar_inequalities(indices_result):
    _report(
        2,
        "scalar inequality suite, zero violations",
        _contracts(indices_result, "scalar_inequalities_zero_violations", "grid_reconciliation"),
    )


def test_criterion_03_truncation_duality(truncation_result):
    # independently recomputed at the stated sample counts
    combos = [
        (PowerLaw(2.0), 1.0, 1.0),
        (PowerLaw(3.0), 0.5, 2.0),
        (PowerLaw(1.3), 0.1, 10.0),
        (DeltaPower(1.5, 0.1), 0.2, 5.0),
        (DeltaPower(3.0, 1.0), 0.05, 20.0),
        (SumPower(1.5, 3.0), 0.5, 4.0),
    ]
    worst = 0.0
    for spec, lo, hi in combos:
        s = np.linspace(0.0, float(spec.d_phi(np.asarray(hi))), 256)
        worst = max(worst, float(np.max(truncation_dual_gap(spec, lo, hi, s))))
    assert worst <= 1e-8
    _report(3, "truncation duality <= 1e-8", _contracts(truncation_result, "truncation_duality"))


def test_criterion_04_hammer_envelope(hammer_result):
    _report(
        4,
        "equivalence envelope C <= 100, exact at p = 2",
        _contracts(hammer_result, "hammer_envelope", "hammer_p2_exact"),
    )


def test_criterion_05_derivative_correctness(hammer_result):
    _report(5, "derivatives vs central differences", _contracts(hammer_result, "derivative_fd"))


def test_criterion_06_manufactured_convergence(manufactured_result):
    _report(6, "manufactured convergence rates", _contracts(manufactured_result, "rate_"))


def test_criterion_07_energy_estimate(sweep_result):
    _report(7, "energy-estimate envelope over the sweep", _contracts(sweep_result, "energy_envelope"))


def test_criterion_08_global_regularity(sweep_result):
    _report(
        8,
        "global regularity ratio stable in h and in the truncation stages",
        _contracts(sweep_result, "regularity_h_stability", "regularity_stage_stability"),
    )


def test_criterion_09_caccioppoli(sweep_result):
    _report(9, "interior Caccioppoli envelope", _contracts(sweep_result, "caccioppoli_envelope"))


def test_criterion_10_lipschitz_truncation(truncation_result):
    _report(
        10,
        "Lipschitz truncation: level, containment, recovery",
        _contracts(
            truncation_result,
            "lipschitz_level_exact",
            "lipschitz_bad_set_containment",
            "lipschitz_recovery",
        ),
    )


def test_no_sweep_solve_reaches_max_iters(sweep_result):
    # a nested-iteration start that misled Newton would show as a long solve
    iterations = [trace.iterations for trace in sweep_result.traces.values()]
    assert len(iterations) == 90 and max(iterations) < SolveConfig().max_iters


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[experiment]\nkind = regularity_sweep\nseed = 11\n\n"
        "[sweep]\np_values = 1.5 2.0 3.0\n\n[mesh]\nh = 0.25 0.125\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(out_b)]) == 0
    same_csv = filecmp.cmp(
        out_a / "regularity_sweep.csv", out_b / "regularity_sweep.csv", shallow=False
    )
    same_json = filecmp.cmp(out_a / "summary.json", out_b / "summary.json", shallow=False)
    ok = same_csv and same_json
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 11 (byte-identical reruns)")
    assert ok
