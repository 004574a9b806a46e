"""Suite outputs against the golden snapshot in ``tests/golden/``.

For each suite below the snapshot holds the CSV (``<suite>.csv``) and the
contracts, as (name, passed) pairs, and envelopes of ``summary.json``
(``<suite>.json``) of one run at seed 20240811.  Each suite runs at its
default config except ``regularity_sweep``, which runs at a reduced one (two
exponents, two meshes, a 16² lattice) to stay well under a second.  Cells
compare at rtol 1e-6 and atol 1e-12, the tolerance of ``perfbench/reference``:
reordering floating-point work legitimately moves the low bits.

Measure how far a change moves these outputs, writing nothing, with

    PYTHONPATH=src python tests/test_golden.py --diff [suite ...]

which prints, per suite, how many CSV cells differ from the snapshot's text
and the largest relative and absolute change among them.  Regenerate, only when a change
is meant to alter these outputs, with

    PYTHONPATH=src python tests/test_golden.py [suite ...]

Check that a change moves no output at all, bit for bit, by writing a
snapshot of each checkout and comparing the two:

    PYTHONPATH=src python tests/test_golden.py --snapshot DIR

runs, with the package of the checkout that holds this file, every suite's
template (``orliczfem list-suites NAME``) at ``--jobs`` 1 and 2, each
``perfbench/configs/*.ini`` at seeds 1-8 and 1009 (reading the configs only),
and demos 01-06, and writes their outputs (CSVs, ``summary.json``, Newton
traces) and console text under ``DIR``, which must lie outside the checkout.
With this file copied into a checkout of the parent commit,
``diff -r PARENT_DIR DIR`` is then empty exactly when no output moved.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest

from orliczfem.cli import write_outputs
from orliczfem.suites import run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = 20240811
SUITES = {
    "hammer_suite": {},
    "indices_suite": {},
    "manufactured": {},
    "regularity_sweep": {
        "sweep": {"p_values": [1.3, 3.0]},
        "mesh": {"h": [0.25, 0.125], "lattice_n": 16},
    },
}
RTOL = 1e-6
ATOL = 1e-12


def _run(suite, out_dir):
    """(CSV rows, {"contracts", "envelopes"}) of one run at the suite's config."""
    write_outputs(run_suite(suite, SUITES[suite], SEED), SEED, out_dir)
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


def _change(a, b):
    """(relative, absolute) change between two numeric cells; inf for any other pair."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    return abs(x - y) / max(abs(x), abs(y)), abs(x - y)


def diff(suite) -> str:
    """How many CSV cells of a fresh run differ from the snapshot, and by how much at most."""
    with tempfile.TemporaryDirectory() as out_dir:
        rows, _ = _run(suite, out_dir)
    with open(os.path.join(GOLDEN, f"{suite}.csv"), newline="") as fh:
        want_rows = list(csv.reader(fh))
    if [len(r) for r in rows] != [len(r) for r in want_rows]:
        return f"{suite}: the rows or columns differ from the snapshot's"
    changes = [
        _change(a, b) for got, want in zip(rows, want_rows) for a, b in zip(got, want) if a != b
    ]
    relative = max((r for r, _ in changes), default=0.0)
    absolute = max((a for _, a in changes), default=0.0)
    return (
        f"{suite}: {len(changes)} of {sum(len(r) for r in rows[1:])} cells changed, "
        f"largest change {relative:.3g} relative, {absolute:.3g} absolute"
    )


def _stamps():
    return {name: os.stat(os.path.join(GOLDEN, name)).st_mtime_ns for name in os.listdir(GOLDEN)}


def test_diff_reports_changed_cells_and_writes_nothing():
    stored = _stamps()
    line = diff("indices_suite")
    pattern = r"indices_suite: \d+ of 198 cells changed, largest change \S+ relative, \S+ absolute"
    assert re.fullmatch(pattern, line)
    assert _stamps() == stored


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNAPSHOT_SEEDS = (*range(1, 9), 1009)


def snapshot(target) -> None:
    """Write the outputs of this checkout's templates, benchmark configs and demos under
    ``target`` (see the module docstring)."""
    target = os.path.abspath(target)
    if os.path.commonpath([target, ROOT]) == ROOT:
        raise SystemExit(f"snapshot directory {target} lies inside the checkout {ROOT}")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def run(args, out_dir, console="console.txt"):
        """Run ``python args`` in ``out_dir`` and write its exit code, stdout and stderr there."""
        os.makedirs(out_dir, exist_ok=True)
        done = subprocess.run(
            [sys.executable, *args], cwd=out_dir, env=env, capture_output=True, text=True
        )
        with open(os.path.join(out_dir, console), "w") as fh:
            fh.write(f"exit {done.returncode}\n{done.stdout}--- stderr\n{done.stderr}")
        return done.stdout

    cli = ["-m", "orliczfem.cli"]
    templates = os.path.join(target, "templates")
    for line in run([*cli, "list-suites"], templates).splitlines():
        suite = line.split(":")[0]
        config = os.path.join(templates, f"{suite}.ini")
        with open(config, "w") as fh:
            fh.write(run([*cli, "list-suites", suite], templates, f"{suite}.txt"))
        for jobs in (1, 2):
            out = os.path.join(templates, suite, f"jobs{jobs}")
            run([*cli, "run", config, "--jobs", str(jobs), "--out", out], out)
    configs = os.path.join(ROOT, "perfbench", "configs")
    for name in sorted(os.listdir(configs)):
        part = os.path.splitext(name)[0]
        for seed in SNAPSHOT_SEEDS:
            out = os.path.join(target, "perfbench", part, f"seed{seed}")
            config = os.path.join(configs, name)
            run([*cli, "run", config, "--jobs", "1", "--seed", str(seed), "--out", out], out)
    demos = os.path.join(ROOT, "demos")
    for name in sorted(os.listdir(demos)):
        if re.fullmatch(r"0[1-6]_\w+\.py", name):
            run([os.path.join(demos, name)], os.path.join(target, "demos"), f"{name}.txt")
    print(f"snapshot written to {target}")


def test_snapshot_writes_nothing_inside_the_checkout():
    inside = os.path.join(ROOT, "snapshot-here")
    with pytest.raises(SystemExit, match="inside the checkout"):
        snapshot(inside)
    assert not os.path.exists(inside)


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
    args = sys.argv[1:]
    if args[:1] == ["--diff"]:
        for suite in args[1:] or SUITES:
            print(diff(suite))
    elif args[:1] == ["--snapshot"] and len(args) == 2:
        snapshot(args[1])
    else:
        main(args or SUITES)
