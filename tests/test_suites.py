"""Suite runners: row schemas, contract structure, option handling."""

import dataclasses
import math
import re
from collections import Counter
from itertools import groupby

import numpy as np
import pytest

from orliczfem import fem, solver, suites
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


@pytest.mark.parametrize(
    "ratio,column",
    [("korn_ratio", "korn_max"), ("korn_ratio_meanfree", "korn_meanfree_max"),
     ("poincare_ratio", "poincare_max")],
)
def test_a_nan_ratio_in_a_later_korn_block_reaches_its_row(monkeypatch, ratio, column):
    # Python's max drops a NaN that is not its first argument, so the NaN
    # comes in the second block
    real = getattr(suites, ratio)
    blocks = []

    def nan_in_the_second_block(*args, **kwargs):
        values = real(*args, **kwargs)
        blocks.append(values)
        return np.full_like(values, math.nan) if len(blocks) == 2 else values

    monkeypatch.setattr(suites, ratio, nan_in_the_second_block)
    opts = {
        "korn": {"ensemble": KORN_BLOCK + 5},
        "mesh": {"domain": "unit_square", "h": [0.5, 0.25]},
        "sweep": {"p_values": [2.0]},
    }
    result = run_suite("korn_suite", opts, seed=3)
    assert math.isnan(getattr(result.rows[0], column)) and not result.passed


def test_a_nan_hammer_ratio_reaches_both_envelope_columns(monkeypatch):
    real = suites.hammer_triple

    def nan_rhs(spec, P, Q):
        trip = real(spec, P, Q)
        rhs = trip.rhs.copy()
        rhs[1] = math.nan  # r2 = mid / rhs, folded after r1
        return dataclasses.replace(trip, rhs=rhs)

    monkeypatch.setattr(suites, "hammer_triple", nan_rhs)
    result = run_suite("hammer_suite", {"spec": {"variant": "power", "p": "3.0"}}, seed=1)
    (row,) = result.rows
    assert math.isnan(row.ratio_min) and math.isnan(row.ratio_max)
    assert [c.passed for c in result.contracts if c.name == "hammer_envelope"] == [False]


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


def _counted_solves(monkeypatch) -> list:
    """The solves the continuation's stages start, recorded as they start."""
    solves, solve = [], solver.solve
    monkeypatch.setattr(solver, "solve", lambda *a, **k: solves.append(a) or solve(*a, **k))
    return solves


REDUCED_SWEEP = {"sweep": {"p_values": [1.5, 3.0]}, "mesh": {"h": [0.25, 0.125], "lattice_n": 16}}


@pytest.mark.parametrize(
    "schedule, key",
    [
        ({"delta_lo": [1e-1, 0.0], "delta_hi": [1e1, 1e2]}, "delta_lo"),
        ({"delta_lo": [1e-1, 1e-2], "delta_hi": [1e1, math.inf]}, "delta_hi"),
        ({"delta_lo": [2.0, 2.0], "delta_hi": [1.0, 1.0]}, "delta_lo"),
    ],
    ids=["zero_lo", "infinite_hi", "lo_above_hi"],
)
def test_a_schedule_pair_outside_its_range_is_rejected_before_any_solve(
    monkeypatch, schedule, key
):
    solves = _counted_solves(monkeypatch)
    with pytest.raises(DomainError, match=rf"key '{key}' in section \[schedule\]"):
        run_suite("regularity_sweep", REDUCED_SWEEP | {"schedule": schedule}, seed=1, jobs=1)
    assert solves == []


@pytest.mark.parametrize(
    "domain",
    [
        "unit_square",
        "half_disk",
        "unit_disk_polygonal(3)",
        "unit_disk_polygonal(4)",
        "unit_disk_polygonal(8)",  # holds the balls, and ran before the sweep took unit_disk only
    ],
)
def test_a_domain_without_room_for_the_caccioppoli_balls_is_rejected_before_any_solve(
    monkeypatch, domain
):
    solves = _counted_solves(monkeypatch)
    opts = REDUCED_SWEEP | {"mesh": REDUCED_SWEEP["mesh"] | {"domain": domain}}
    message = rf"key 'domain' in section \[mesh\] must be 'unit_disk'.*got '{re.escape(domain)}'"
    with pytest.raises(DomainError, match=message):
        run_suite("regularity_sweep", opts, seed=1, jobs=1)
    assert solves == []


def test_the_reduced_sweep_cauchy_cells_match_a_tighter_solve():
    # every stage ends within newton_tol, and its cauchy cell (the distance of
    # two consecutive stage fields) stays within a quarter of the benchmark's
    # reference tolerance, 1e-6 relative + 1e-12, of a newton_tol = 1e-13 run
    loose = run_suite("regularity_sweep", REDUCED_SWEEP, seed=1, jobs=1)
    tight = REDUCED_SWEEP | {"solver": {"newton_tol": 1e-13}}
    cells = [
        (a.cauchy, b.cauchy)
        for a, b in zip(loose.rows, run_suite("regularity_sweep", tight, seed=1, jobs=1).rows)
        if a.cauchy is not None and not math.isnan(a.cauchy)
    ]
    assert len(cells) == 40
    for a, b in cells:
        assert abs(a - b) <= 0.25 * (1e-6 * max(abs(a), abs(b)) + 1e-12)


@pytest.mark.parametrize("amplitude", [0.0, float("nan"), float("inf"), -float("inf")])
def test_zero_or_non_finite_amplitude_rejected_naming_the_key(amplitude):
    with pytest.raises(DomainError, match=r"key 'amplitude' in section \[forcing\] must be finite"):
        run_suite("regularity_sweep", {"forcing": {"amplitude": amplitude}}, seed=1, jobs=1)


def test_the_sweep_interpolant_is_exact_for_quadratics_and_zero_outside():
    # P2 reproduces a global quadratic; at h = 1/8 the 72 dofs outside the
    # h = 1/4 polygon all lie on the boundary, which the interpolant re-zeroes
    coarse, fine = build_mesh("unit_disk", 0.25), build_mesh("unit_disk", 0.125)

    def quadratic(x, y):
        return np.stack([x * x + x * y - 0.3, y * y - 2.0 * x * y + 0.1 * x])

    points = fem.quad_cache(fine).dof_coords
    cells, bary = fem.locate_points(coarse, points)
    field = fem.FemField.from_callable(coarse, quadratic)
    got = fem.FemField.zeroed(fine, fem.evaluate_located(field, cells, bary))
    boundary = fem.quad_cache(fine).boundary_scalar
    inside = (cells >= 0) & ~boundary
    want = quadratic(*points.T).T
    assert np.abs(got.coeffs[inside] - want[inside]).max() <= 1e-12
    assert np.count_nonzero(cells < 0) == 72
    assert got.zero_boundary and np.all(got.coeffs[(cells < 0) | boundary] == 0.0)


def test_the_order_of_h_changes_no_sweep_value():
    # each p solves its meshes coarse to fine whatever the order of [mesh] h,
    # and lists its rows in the config's order
    rows = {}
    for h in ([0.125, 0.25], [0.25, 0.125]):
        opts = {
            "sweep": {"p_values": [1.5, 3.0]},
            "mesh": {"h": h, "lattice_n": 16},
            "schedule": {"delta_lo": [1e-1, 1e-2, 1e-3], "delta_hi": [1e1, 1e2, 1e3]},
        }
        result = run_suite("regularity_sweep", opts, seed=1, jobs=1)
        cases = [case for case, _ in groupby((row.p, row.h) for row in result.rows)]
        assert cases == [(p, value) for p in (1.5, 3.0) for value in h]
        rows[tuple(h)] = Counter(map(repr, result.rows))  # repr: a NaN equals itself
    assert rows[0.125, 0.25] == rows[0.25, 0.125]


def test_negative_amplitude_runs():
    opts = {
        "sweep": {"p_values": [2.0]},
        "mesh": {"h": [0.5, 0.25], "lattice_n": 16},
        "schedule": {"delta_lo": [1e-1, 1e-2], "delta_hi": [1e1, 1e2]},
        "forcing": {"amplitude": -1.0},
    }
    rows = run_suite("regularity_sweep", opts, seed=1, jobs=1).rows
    assert all(np.isfinite(row.ratio) for row in rows if row.experiment == "energy")


def test_truncation_suite_structure():
    result = run_suite("truncation_suite", {"truncation": {"lattice_n": 48}}, seed=1, jobs=1)
    kinds = {row.experiment for row in result.rows}
    assert kinds == {"dual_gap", "lipschitz", "kdelta"}
    assert SUITES["truncation_suite"].row is TruncationRow
    assert all(isinstance(row, TruncationRow) for row in result.rows)
    assert result.passed


def test_a_nan_modular_ratio_fails_the_modular_envelope(monkeypatch):
    # Python's max would keep a NaN only as its first argument
    real = suites.truncation_modular_bounds

    def with_a_nan(spec, gf, levels):
        records = real(spec, gf, levels)
        records[2] = records[2]._replace(grad_ratio=math.nan)
        return records

    monkeypatch.setattr(suites, "truncation_modular_bounds", with_a_nan)
    result = run_suite("truncation_suite", {"truncation": {"lattice_n": 16}}, seed=1, jobs=1)
    (check,) = [c for c in result.contracts if c.name == "truncation_modular_envelope"]
    assert not check.passed and "(worst nan)" in check.detail


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
