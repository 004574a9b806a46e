"""Suite outputs against the golden snapshot in ``tests/golden/``.

For each suite below the snapshot holds the default-config CSV
(``<suite>.csv``) and the contracts, as (name, passed) pairs, and envelopes of
``summary.json`` (``<suite>.json``), all at seed 20240811.  Cells compare at
rtol 1e-6 and atol 1e-12, the tolerance of ``perfbench/reference``: reordering
floating-point work legitimately moves the low bits.

Regenerate, only when a change is meant to alter these outputs, with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import math
import os
import sys
import tempfile

import pytest

from orliczfem.cli import write_outputs
from orliczfem.suites import run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = 20240811
SUITES = ("hammer_suite", "indices_suite", "manufactured")
RTOL = 1e-6
ATOL = 1e-12


def _run(suite, out_dir):
    """(CSV rows, {"contracts", "envelopes"}) of one default-config run."""
    write_outputs(run_suite(suite, {}, SEED), SEED, out_dir)
    with open(os.path.join(out_dir, f"{suite}.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    contracts = [[c["name"], c["passed"]] for c in summary["contracts"]]
    return rows, {"contracts": contracts, "envelopes": summary["envelopes"]}


def _close(a, b) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return False  # equal specials already matched
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def _mismatches(got, want, where):
    """Paths at which two JSON-like values differ beyond the tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if _close(got, want) else [f"{where}: {got!r} vs {want!r}"]


@pytest.mark.parametrize("suite", SUITES)
def test_suite_matches_golden_snapshot(suite, tmp_path):
    rows, summary = _run(suite, str(tmp_path))
    with open(os.path.join(GOLDEN, f"{suite}.csv"), newline="") as fh:
        want_rows = list(csv.reader(fh))
    with open(os.path.join(GOLDEN, f"{suite}.json")) as fh:
        want_summary = json.load(fh)
    assert rows[0] == want_rows[0]
    problems = _mismatches(rows, want_rows, f"{suite}.csv") + _mismatches(
        summary, want_summary, "summary"
    )
    assert problems == []


def main(suites) -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for suite in suites:
        with tempfile.TemporaryDirectory() as out_dir:
            _, summary = _run(suite, out_dir)
            with open(os.path.join(out_dir, f"{suite}.csv")) as src:
                csv_text = src.read()
        with open(os.path.join(GOLDEN, f"{suite}.csv"), "w") as fh:
            fh.write(csv_text)
        with open(os.path.join(GOLDEN, f"{suite}.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{suite}: stored in {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:] or SUITES)
