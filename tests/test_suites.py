"""Suite runners: row schemas, contract structure, option handling."""

from collections import Counter

import numpy as np
import pytest

from orliczfem import fem, suites
from orliczfem.fem import (
    korn_ratio,
    korn_ratio_meanfree,
    poincare_ratio,
    random_zero_boundary_field,
)
from orliczfem.meshing import build_mesh
from orliczfem.nfunctions import DomainError, PowerLaw
from orliczfem.solver import SOLVER_KEYS, SolveConfig
from orliczfem.suites import (
    DEFAULT_SPEC_ROSTER,
    KORN_BLOCK,
    SUITES,
    HammerRow,
    IndexRow,
    ManufacturedRow,
    TruncationRow,
    run_suite,
)


def test_indices_suite_default_roster_rows():
    result = run_suite("indices_suite", {}, seed=1, jobs=1)
    assert len(result.rows) == len(DEFAULT_SPEC_ROSTER)
    assert result.passed
    assert all(isinstance(row, IndexRow) for row in result.rows)


def test_indices_suite_single_spec():
    result = run_suite("indices_suite", {"spec": {"variant": "power", "p": "3.0"}}, seed=1, jobs=1)
    assert len(result.rows) == 1
    assert "p=3" in result.rows[0][0]


def test_korn_suite_small_run_parallel_matches_serial():
    opts = {
        "korn": {"ensemble": 5},
        "mesh": {"domain": "unit_square", "h": [0.5, 0.25]},
        "sweep": {"p_values": [1.5, 2.0]},
    }
    serial = run_suite("korn_suite", opts, seed=2, jobs=1)
    parallel = run_suite("korn_suite", opts, seed=2, jobs=4)
    assert serial.rows == parallel.rows
    assert serial.passed


def test_korn_suite_blocks_match_per_field_ratios():
    ensemble = 21
    assert ensemble % KORN_BLOCK  # the last block is partial
    opts = {
        "korn": {"ensemble": ensemble},
        "mesh": {"domain": "unit_square", "h": [0.5, 0.25]},
        "sweep": {"p_values": [1.5, 3.0]},
    }
    rows = run_suite("korn_suite", opts, seed=3).rows
    cases = [(p, h) for p in (1.5, 3.0) for h in (0.5, 0.25)]
    assert [(row.p, row.h) for row in rows] == cases
    for index, ((p, h), row) in enumerate(zip(cases, rows)):
        rng = np.random.default_rng([3, index])
        mesh = build_mesh("unit_square", h)
        fields = [random_zero_boundary_field(mesh, rng) for _ in range(ensemble)]
        spec = PowerLaw(p)
        want = [
            max(korn_ratio(spec, u) for u in fields),
            max(korn_ratio_meanfree(spec, u) for u in fields),
            max(poincare_ratio(spec, u) for u in fields),
        ]
        assert row[2:] == pytest.approx(want, rel=1e-12)


def test_korn_suite_evaluates_each_kernel_once_per_block(monkeypatch):
    calls = Counter()

    def counted(name, kernel):
        def kernel_call(field):
            calls[name] += 1
            return kernel(field)

        return kernel_call

    for name in ("gradient_at_qp", "strain_mandel"):
        wrapped = counted(name, getattr(fem, name))
        for module in (fem, suites):
            monkeypatch.setattr(module, name, wrapped)
    opts = {
        "korn": {"ensemble": KORN_BLOCK + 5},
        "mesh": {"domain": "unit_square", "h": [0.5, 0.25]},
        "sweep": {"p_values": [1.5, 3.0]},
    }
    run_suite("korn_suite", opts, seed=3)
    blocks = 4 * 2  # (p, h) cases x blocks per case
    assert calls == {"gradient_at_qp": blocks, "strain_mandel": blocks}


def test_manufactured_rows_per_case():
    result = run_suite("manufactured", {"manufactured": {"h": [0.25, 0.125]}}, seed=1, jobs=2)
    cases = {row[0] for row in result.rows}
    assert cases == {"power2", "power3", "power1.5", "delta_power3"}
    assert result.passed


def test_regularity_sweep_reduced_schema():
    opts = {
        "sweep": {"p_values": [2.0]},
        "mesh": {"h": [1.0 / 3.0, 1.0 / 6.0]},
        "schedule": {"delta_lo": [1e-1, 1e-2], "delta_hi": [1e1, 1e2]},
    }
    result = run_suite("regularity_sweep", opts, seed=1, jobs=1)
    assert result.passed
    kinds = {row[0] for row in result.rows}
    assert {"energy", "regularity", "caccioppoli"} <= kinds
    assert result.traces  # per-solve traces recorded
    # required table columns are present
    for col in ("h", "p", "delta_lo", "delta_hi", "ratio"):
        assert col in SUITES["regularity_sweep"].row._fields


def test_regularity_sweep_schedule_validation():
    with pytest.raises(DomainError):
        run_suite("regularity_sweep", {"schedule": {"delta_lo": [0.1]}}, seed=1, jobs=1)


def test_truncation_suite_structure():
    result = run_suite("truncation_suite", {"truncation": {"lattice_n": 48}}, seed=1, jobs=1)
    kinds = {row.experiment for row in result.rows}
    assert kinds == {"dual_gap", "lipschitz", "kdelta"}
    assert SUITES["truncation_suite"].row is TruncationRow
    assert all(isinstance(row, TruncationRow) for row in result.rows)
    assert result.passed


@pytest.mark.parametrize("kind", ["manufactured", "regularity_sweep"])
def test_unknown_solver_key_rejected(kind):
    # a typo under [solver] must not silently run with the default setting
    options = {"solver": {"newton_tol": 1e-9, "max_iter": 5}}
    with pytest.raises(DomainError, match="'max_iter'"):
        run_suite(kind, options, seed=1)


def test_cli_and_suites_share_one_solver_schema():
    # the CLI types [solver] by the suite table, which is SOLVER_KEYS with
    # SolveConfig's defaults, the same for every solver suite
    solver = SUITES["manufactured"].config["solver"]
    assert SUITES["regularity_sweep"].config["solver"] is solver
    assert {key: k.type for key, k in solver.items()} == SOLVER_KEYS
    defaults = SolveConfig()
    assert {key: k.default for key, k in solver.items()} == {
        key: getattr(defaults, key) for key in SOLVER_KEYS
    }


@pytest.mark.parametrize("kind", sorted(SUITES))
def test_unknown_section_or_key_rejected(kind):
    # a typo must not silently run with the default setting, in any section
    with pytest.raises(DomainError, match=r"section \[hamer\]"):
        run_suite(kind, {"hamer": {"pairs": 10}}, seed=1)
    for section in SUITES[kind].config:
        with pytest.raises(DomainError, match=rf"'ensembel' in section \[{section}\]"):
            run_suite(kind, {section: {"ensembel": 1}}, seed=1)


@pytest.mark.parametrize(
    "kind,section,key,value",
    [
        ("korn_suite", "korn", "ensemble", "5"),
        ("korn_suite", "korn", "ensemble", 2.5),
        ("korn_suite", "korn", "ensemble", True),
        ("regularity_sweep", "forcing", "amplitude", "1.0"),
        ("regularity_sweep", "mesh", "h", [0.25, "0.125"]),
        ("regularity_sweep", "mesh", "h", 0.25),
        ("korn_suite", "mesh", "domain", 1),
    ],
)
def test_value_of_the_wrong_type_rejected(kind, section, key, value):
    # the library takes the values the CLI parses from text, and no others
    with pytest.raises(DomainError, match=rf"'{key}' in section \[{section}\] must be"):
        run_suite(kind, {section: {key: value}}, seed=1)


def test_values_of_the_key_types_accepted():
    given = {"korn": {"ensemble": np.int64(3)}, "mesh": {"h": [1, 0.5]}}
    options = SUITES["korn_suite"].options(given)
    assert options["korn"] == {"ensemble": 3}
    assert options["mesh"]["h"] == [1, 0.5]
    forcing = SUITES["regularity_sweep"].options({"forcing": {"amplitude": 2}})["forcing"]
    assert forcing == {"amplitude": 2}


def test_rows_are_named_records():
    assert SUITES["hammer_suite"].row is HammerRow
    assert SUITES["manufactured"].row is ManufacturedRow
    result = run_suite("hammer_suite", {"hammer": {"pairs": 20, "fd_samples": 20}}, seed=1)
    assert all(isinstance(row, HammerRow) for row in result.rows)


def test_run_suite_unknown_kind():
    with pytest.raises(DomainError):
        run_suite("nonexistent", {}, seed=1)
