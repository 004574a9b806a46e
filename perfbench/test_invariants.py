"""Invariants of the benchmark's tracing.

    python3 -m pytest perfbench -q            # every part, about four minutes
    python3 -m pytest perfbench -q -k korn    # one part

Run from the root of a checkout.  For each part (suite) of the workloads, one
untraced and two traced runs must give:

* deterministic counts that repeat exactly between the two traced runs;
* suite CSVs and Newton traces byte-identical to the untraced run's;
* outputs within tolerance of the stored reference;
* nonzero counts at the layers the part is meant to exercise, so that a
  wrapper that no longer catches its calls shows up here.
"""

import filecmp
import os
import shutil
import time

import pytest

from run import SUITES, WORKLOADS, compare_to_reference, run_op
from tracer import DETERMINISTIC_COUNTS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXERCISED = {
    "sweep": (
        "meshing.meshes",
        "fem.quad_caches",
        "fem.residual_calls",
        "fem.jacobian_calls",
        "fem.points_located",
        "solver.newton_iters",
        "solver.energy_calls",
        "solver.factorizations",
        "solver.jac_nnz",
        "regularity.w12_calls",
        "regularity.caccioppoli_calls",
        "truncation.forcing_calls",
        "truncation.forcing_inert",
        "nfunctions.eval_points",
    ),
    "lattice": (
        "fem.points_located",
        "truncation.forcing_calls",
        "truncation.maximal_calls",
        "truncation.envelope_pairs",
        "truncation.bad_points",
        "nfunctions.eval_points",
    ),
    "korn": (
        "meshing.cells",
        "fem.quad_caches",
        "fem.kernel_calls",
        "fem.ratio_calls",
        "nfunctions.eval_points",
    ),
}


@pytest.fixture
def work_dir():
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs
    )


@pytest.mark.parametrize("part", sorted(SUITES))
def test_traced_runs_repeat(part, work_dir):
    seed = next(w["pool"][0] for w in WORKLOADS.values() if part in w["parts"])
    suite = SUITES[part]
    dirs = [os.path.join(work_dir, name) for name in ("plain", "traced1", "traced2")]
    records = []
    for out_dir in dirs:
        record, errors = run_op(ROOT, part, seed, out_dir, trace="traced" in out_dir)
        assert record is not None, errors
        records.append(record)
    _, first, second = records

    for name in DETERMINISTIC_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    for name in EXERCISED[part]:
        assert first["layers"][name] > 0, name

    assert compare_to_reference(part, seed, dirs[0]) == []
    for traced in dirs[1:]:
        assert filecmp.cmp(
            os.path.join(dirs[0], f"{suite}.csv"), os.path.join(traced, f"{suite}.csv"), shallow=False
        )
        if os.path.isdir(os.path.join(dirs[0], "trace")):
            assert _same_tree(os.path.join(dirs[0], "trace"), os.path.join(traced, "trace"))


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    spans = {span_id: (parent, name, end - start) for span_id, parent, name, start, end in tracer.spans}
    outer_id = next(i for i, (_, name, _) in spans.items() if name == "outer")
    children = [d for parent, name, d in spans.values() if parent == outer_id]
    assert len(children) == 2 and spans[outer_id][0] == -1
    total = spans[outer_id][2]
    assert tracer.self_s["outer"] == pytest.approx(total - sum(children))
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(total)
    assert 0.005 < tracer.self_s["outer"] < total - 0.03
