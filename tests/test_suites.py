"""Suite runners: row schemas, contract structure, option handling."""

import pytest

from orliczfem.cli import _SCHEMAS
from orliczfem.nfunctions import DomainError
from orliczfem.solver import SOLVER_KEYS
from orliczfem.suites import (
    DEFAULT_SPEC_ROSTER,
    TruncationRow,
    run_indices_suite,
    run_korn_suite,
    run_manufactured,
    run_regularity_sweep,
    run_suite,
    run_truncation_suite,
)


def test_indices_suite_default_roster_rows():
    result = run_indices_suite({}, seed=1, jobs=1)
    assert len(result.rows) == len(DEFAULT_SPEC_ROSTER)
    assert result.passed
    assert len(result.rows[0]) == len(result.header)


def test_indices_suite_single_spec():
    result = run_indices_suite({"spec": {"variant": "power", "p": "3.0"}}, seed=1, jobs=1)
    assert len(result.rows) == 1
    assert "p=3" in result.rows[0][0]


def test_korn_suite_small_run_parallel_matches_serial():
    opts = {
        "korn": {"ensemble": 5},
        "mesh": {"domain": "unit_square", "h": [0.5, 0.25]},
        "sweep": {"p_values": [1.5, 2.0]},
    }
    serial = run_korn_suite(opts, seed=2, jobs=1)
    parallel = run_korn_suite(opts, seed=2, jobs=4)
    assert serial.rows == parallel.rows
    assert serial.passed


def test_manufactured_rows_per_case():
    result = run_manufactured({"manufactured": {"h": [0.25, 0.125]}}, seed=1, jobs=2)
    cases = {row[0] for row in result.rows}
    assert cases == {"power2", "power3", "power1.5", "delta_power3"}
    assert result.passed


def test_regularity_sweep_reduced_schema():
    opts = {
        "sweep": {"p_values": [2.0]},
        "mesh": {"h": [1.0 / 3.0, 1.0 / 6.0]},
        "schedule": {"delta_lo": [1e-1, 1e-2], "delta_hi": [1e1, 1e2]},
    }
    result = run_regularity_sweep(opts, seed=1, jobs=1)
    assert result.passed
    kinds = {row[0] for row in result.rows}
    assert {"energy", "regularity", "caccioppoli"} <= kinds
    assert result.traces  # per-solve traces recorded
    # required table columns are present
    for col in ("h", "p", "delta_lo", "delta_hi", "ratio"):
        assert col in result.header


def test_regularity_sweep_schedule_validation():
    with pytest.raises(DomainError):
        run_regularity_sweep({"schedule": {"delta_lo": [0.1]}}, seed=1, jobs=1)


def test_truncation_suite_structure():
    result = run_truncation_suite({"truncation": {"lattice_n": 48}}, seed=1, jobs=1)
    kinds = {row.experiment for row in result.rows}
    assert kinds == {"dual_gap", "lipschitz", "kdelta"}
    assert result.header == list(TruncationRow._fields)
    assert all(isinstance(row, TruncationRow) for row in result.rows)
    assert result.passed


@pytest.mark.parametrize("kind", ["manufactured", "regularity_sweep"])
def test_unknown_solver_key_rejected(kind):
    # a typo under [solver] must not silently run with the default setting
    options = {"solver": {"newton_tol": 1e-9, "max_iter": 5}}
    with pytest.raises(DomainError, match="'max_iter'"):
        run_suite(kind, options, seed=1)


def test_cli_and_suites_share_one_solver_schema():
    for kind in ("manufactured", "regularity_sweep"):
        assert _SCHEMAS[kind]["solver"] is SOLVER_KEYS


def test_run_suite_unknown_kind():
    with pytest.raises(DomainError):
        run_suite("nonexistent", {}, seed=1)
