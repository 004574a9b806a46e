"""Suite contracts as one function of the rows and the options, with no solve.

Every stored output (each ``perfbench/reference`` directory and each golden
snapshot in ``tests/golden``) is read back from its CSV, and its contracts are
derived again and compared with the stored verdicts; each contract family is
shown to fail on a stored row set with one cell changed; and Korn's refinement
stability reads its maxima coarse to fine, whatever the order of ``[mesh] h``.

``truncation_modular_envelope`` is the one contract that the rows do not
determine: it reads the worst value/gradient modular ratio, which is not a
``TruncationRow`` column.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from orliczfem.cli import parse_config
from orliczfem.suites import KORN_STABILITY, MODULAR_ENVELOPE, SUITES, KornRow
from orliczfem.tableio import write_json
from test_golden import GOLDEN as GOLDEN_DIR, SUITES as GOLDEN_OPTIONS

GOLDEN = Path(GOLDEN_DIR)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCES = sorted((PERFBENCH / "reference").glob("*/seed*"))
NOT_FROM_ROWS = "truncation_modular_envelope"

_CELL = {"str": str, "float": float, "int": int}


def read_rows(row_type, path):
    """The rows of a suite CSV as ``row_type`` records; an empty cell is None.

    Each column's type is the first of its field's annotation, a forward
    reference such as ``float | None``.
    """
    annotations = row_type.__annotations__.values()
    kinds = [_CELL[ann.__forward_arg__.split(" | ")[0]] for ann in annotations]
    with open(path, newline="") as fh:
        lines = csv.reader(fh)
        assert next(lines) == list(row_type._fields)
        return [
            row_type(*(kind(cell) if cell else None for kind, cell in zip(kinds, line)))
            for line in lines
        ]


def _stored(source):
    """(suite, rows, options) of a golden suite or of a reference directory."""
    if source in GOLDEN_OPTIONS:
        suite = SUITES[source]
        return suite, read_rows(suite.row, GOLDEN / f"{source}.csv"), suite.options(
            GOLDEN_OPTIONS[source]
        )
    kind, _, _, _, given = parse_config(str(PERFBENCH / "configs" / f"{source.parent.name}.ini"))
    suite = SUITES[kind]
    return suite, read_rows(suite.row, source / f"{kind}.csv"), suite.options(given)


def _verdicts(checks, name=None):
    """[name, passed] of each check the rows determine, or the verdicts of contract ``name``."""
    if name is not None:
        return [c.passed for c in checks if c.name == name]
    return [[c.name, c.passed] for c in checks if c.name != NOT_FROM_ROWS]


def test_every_reference_directory_is_covered():
    parts = {d.parent.name for d in REFERENCES}
    assert len(REFERENCES) == 20 and parts == {"korn", "lattice", "sweep"}


@pytest.mark.parametrize("directory", REFERENCES, ids=lambda d: f"{d.parent.name}/{d.name}")
def test_contracts_rederived_from_a_reference_directory(directory):
    suite, rows, options = _stored(directory)
    checks, _ = suite.contracts(rows, options)
    stored = json.loads((directory / "contracts.json").read_text())
    assert _verdicts(checks) == [c for c in stored if c[0] != NOT_FROM_ROWS]


@pytest.mark.parametrize("kind", GOLDEN_OPTIONS)
def test_contracts_and_envelopes_rederived_from_the_golden_snapshot(kind, tmp_path):
    suite, rows, options = _stored(kind)
    checks, summary = suite.contracts(rows, options)
    write_json(tmp_path / "envelopes.json", summary)
    stored = json.loads((GOLDEN / f"{kind}.json").read_text())
    assert _verdicts(checks) == stored["contracts"]
    assert json.loads((tmp_path / "envelopes.json").read_text()) == stored["envelopes"]


LATTICE = PERFBENCH / "reference" / "lattice" / "seed1"
KORN = PERFBENCH / "reference" / "korn" / "seed1"
LAST_STAGE = 1e-6  # delta_lo of the default schedule's last stage

#: (contract, stored rows, the cells that pick the changed row, its column, the new value)
FLIPS = [
    ("index_exactness", "indices_suite", {"spec": "variant=power, p=1.3"}, "p_minus",
     lambda r: r.p_minus + 2e-6),
    ("grid_reconciliation", "indices_suite", {"spec": "variant=power, p=1.3"}, "grid_p_minus",
     lambda r: r.p_minus - 0.01),
    ("scalar_inequalities_zero_violations", "indices_suite",
     {"spec": "variant=power, p=3.0, trunc_lo=0.1, trunc_hi=10.0"}, "quad_growth_lo",
     lambda r: -1e-6),
    ("hammer_envelope", "hammer_suite", {"spec": "variant=power, p=1.3"}, "ratio_max",
     lambda r: 101.0),
    ("hammer_p2_exact", "hammer_suite", {"spec": "variant=power, p=2.0"}, "ratio_max",
     lambda r: 1.0 + 1e-11),
    ("derivative_fd_match", "hammer_suite", {"spec": "variant=power, p=1.3"}, "fd_err_stress",
     lambda r: 2e-6),
    ("korn_envelope", KORN, {"p": 1.3, "h": 0.125}, "korn_max", lambda r: 4.01),
    ("poincare_envelope", KORN, {"p": 1.3, "h": 0.125}, "poincare_max", lambda r: 1.01),
    ("korn_refinement_stability", KORN, {"p": 1.3, "h": 0.0625}, "korn_max",
     lambda r: 1.5 * r.korn_max),
    ("rate_power2", "manufactured", {"case": "power2"}, "ls_rate", lambda r: 1.8),
    ("energy_envelope", "regularity_sweep", {"experiment": "energy"}, "ratio",
     lambda r: 1e3 * r.ratio),
    ("regularity_h_stability_p1.3", "regularity_sweep",
     {"experiment": "regularity", "p": 1.3, "h": 0.25, "delta_lo": LAST_STAGE}, "ratio",
     lambda r: r.ratio / 2),
    ("regularity_stage_stability_p1.3", "regularity_sweep",
     {"experiment": "regularity", "p": 1.3, "h": 0.125, "delta_lo": LAST_STAGE}, "ratio",
     lambda r: 1.5 * r.ratio),
    ("caccioppoli_envelope_p1.3", "regularity_sweep", {"experiment": "caccioppoli", "p": 1.3},
     "ratio", lambda r: 100.0 * r.ratio),
    ("interpolation_gap", "regularity_sweep", {"experiment": "interp_step"}, "ratio",
     lambda r: 0.5),
    ("truncation_duality", LATTICE, {"experiment": "dual_gap"}, "value", lambda r: 1e-7),
    ("lipschitz_level_exact", LATTICE, {"experiment": "lipschitz", "label": "sine"}, "value",
     lambda r: 1.01 * r.level),
    ("lipschitz_bad_set_containment", LATTICE, {"experiment": "lipschitz", "label": "sine"},
     "contained", lambda r: 0),
    ("lipschitz_recovery", LATTICE, {"experiment": "lipschitz", "label": "sine", "level": 8.0},
     "diff_modular", lambda r: 100.0),
    ("truncated_forcing_bound", LATTICE, {"experiment": "kdelta"}, "value", lambda r: 51.0),
]


@pytest.mark.parametrize("contract,source,cells,column,value", FLIPS, ids=[f[0] for f in FLIPS])
def test_one_changed_cell_flips_its_contract(contract, source, cells, column, value):
    suite, rows, options = _stored(source)
    i = next(i for i, r in enumerate(rows) if all(getattr(r, k) == v for k, v in cells.items()))
    assert _verdicts(suite.contracts(rows, options)[0], contract) == [True]
    rows[i] = rows[i]._replace(**{column: value(rows[i])})
    assert _verdicts(suite.contracts(rows, options)[0], contract) == [False]


#: (contract, stored rows, the cells that pick the row whose ``column`` becomes NaN).  A NaN
#: loses every comparison, and Python's max and min keep it only as their first argument,
#: so each picked cell is one that a fold meets after a finite value.
NAN_FLIPS = [
    ("index_exactness", "indices_suite", {"spec": "variant=power, p=1.3"}, "p_plus"),
    ("scalar_inequalities_zero_violations", "indices_suite",
     {"spec": "variant=power, p=3.0, trunc_lo=0.1, trunc_hi=10.0"}, "quad_growth_lo"),
    ("truncation_duality", LATTICE, {"experiment": "dual_gap", "label": "variant=power, p=3.0"},
     "value"),
    ("lipschitz_recovery", LATTICE, {"experiment": "lipschitz", "label": "sine", "level": 4.0},
     "diff_modular"),
    ("truncated_forcing_bound", LATTICE, {"experiment": "kdelta", "label": "variant=power, p=1.5"},
     "value"),
]


@pytest.mark.parametrize("contract,source,cells,column", NAN_FLIPS, ids=[f[0] for f in NAN_FLIPS])
def test_a_nan_cell_flips_its_contract(contract, source, cells, column):
    suite, rows, options = _stored(source)
    i = next(i for i, r in enumerate(rows) if all(getattr(r, k) == v for k, v in cells.items()))
    assert _verdicts(suite.contracts(rows, options)[0], contract) == [True]
    rows[i] = rows[i]._replace(**{column: math.nan})
    assert _verdicts(suite.contracts(rows, options)[0], contract) == [False]


def test_the_modular_envelope_flips_on_its_measured_worst_ratio():
    suite, rows, options = _stored(LATTICE)
    for worst, held in ((MODULAR_ENVELOPE, True), (1.01 * MODULAR_ENVELOPE, False)):
        options["truncation"]["modular_ratio_worst"] = worst
        assert _verdicts(suite.contracts(rows, options)[0], NOT_FROM_ROWS) == [held]


@pytest.mark.parametrize(
    "coarse,fine,held",
    [(1.5, 2.0, False), (2.0, 1.5, True), (1.5, math.nan, False), (math.nan, 1.5, False)],
)
def test_korn_refinement_stability_compares_coarse_to_fine_in_any_h_order(coarse, fine, held):
    # 1.5 -> 2.0 moves 33 % and 2.0 -> 1.5 moves 25 %, either side of the 30 % bound
    assert KORN_STABILITY == 0.3
    suite = SUITES["korn_suite"]
    rows = [KornRow(2.0, 0.25, coarse, 1.0, 0.1), KornRow(2.0, 0.125, fine, 1.0, 0.1)]
    for h in ([0.25, 0.125], [0.125, 0.25]):
        options = suite.options({"mesh": {"h": h}, "sweep": {"p_values": [2.0]}})
        for given in (rows, rows[::-1]):
            checks, _ = suite.contracts(given, options)
            assert _verdicts(checks, "korn_refinement_stability") == [held]
