"""End-to-end benchmark of ``orliczfem run`` on two workloads.

    python3 perfbench/run.py --workload {sweep,lattice_korn} --seed N
        --seconds S --trace {0,1} [--holdout]

Run from the root of a checkout; the package is taken from ``src/`` through
``PYTHONPATH``, as the tier-1 tests do.  An operation runs, for each part of
its workload in turn,

    orliczfem run perfbench/configs/<part>.ini --jobs 1 --seed <suite seed>

in a fresh interpreter (``perfbench/child.py``), checks its exit code, and
compares its suite CSV and contract list with the reference stored under
``perfbench/reference/<part>``.  Operations repeat for about ``--seconds``
(at least one).  Set-up is sampled at least ``SETUP_SAMPLES`` times, with
set-up-only processes where the operations are too few.

``--trace 0`` reports ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb``
(medians over the run; an operation's wall and CPU seconds and the peak RSS of
its processes are summed over its parts).  ``--trace 1`` alternates untraced
and traced operations and reports per-layer self seconds and counts, summed
over the parts, the share of the traced ``wall_s`` the layers cover, and the
tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))

#: suite each part runs, from ``configs/<part>.ini``
SUITES = {"sweep": "regularity_sweep", "lattice": "truncation_suite", "korn": "korn_suite"}

#: parts of each workload's operation, and its suite seed pool.  ``--seed N``
#: runs every part with ``pool[N % len(pool)]``; the first entry is the default
#: seed.  ``--holdout`` runs HOLDOUT_SEED, which no change is tuned on, for
#: checking a claim after it is made.  ``lattice`` and ``korn`` share one
#: workload, and so one run, so that a run of a given length averages over
#: more of the host's speed changes than two shorter runs would (see README).
WORKLOADS = {
    "sweep": {"parts": ("sweep",), "pool": (1,)},  # the suite ignores its seed
    "lattice_korn": {"parts": ("lattice", "korn"), "pool": (1, 2, 3, 4, 5, 6, 7, 8)},
}
HOLDOUT_SEED = 1009

#: A reference cell matches when |a - b| <= RTOL * max(|a|, |b|) + ATOL.
#: Reordering the factorisation legitimately moves the low bits of solved
#: fields, and the Newton tolerance (1e-9 on the residual) bounds how far.
RTOL = 1e-6
ATOL = 1e-12

SETUP_SAMPLES = 3
#: every process of a run, set-up probes included, ends this long after the
#: run starts, so that the run exits within 180 s even if a child hangs
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def suite_seed(workload: str, seed: int, holdout: bool) -> int:
    pool = WORKLOADS[workload]["pool"]
    return HOLDOUT_SEED if holdout else pool[seed % len(pool)]


def reference_dir(part: str, seed: int) -> str:
    return os.path.join(HERE, "reference", part, f"seed{seed}")


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


def run_op(root, part, seed, out_dir, trace=False, setup_only=False, timeout=DEADLINE_S):
    """Run one part's command in a fresh process; returns (record or None, stderr).

    The process is killed, and waited for, if it outlives ``timeout`` seconds.
    """
    os.makedirs(out_dir, exist_ok=True)
    record_path = os.path.join(out_dir, "record.json")
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    options = ["--record", record_path]
    if trace:
        options += ["--trace", os.path.join(out_dir, "spans.csv")]
    if setup_only:
        options.append("--setup-only")
    config = os.path.join(HERE, "configs", f"{part}.ini")
    command = ["run", config, "--jobs", "1", "--seed", str(seed), "--out", out_dir]
    child = [sys.executable, os.path.join(HERE, "child.py")]
    started = time.time()
    proc = subprocess.run(
        child + ["--started-at", repr(started)] + options + command,
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not os.path.exists(record_path):
        return None, proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
    with open(record_path) as fh:
        return json.load(fh), []


def load_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _cells_match(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return False  # equal specials already matched as strings
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def compare_to_reference(part, seed, out_dir):
    """List of mismatches between a part's outputs and the stored reference."""
    suite = SUITES[part]
    ref = reference_dir(part, seed)
    problems = []
    got = load_csv(os.path.join(out_dir, f"{suite}.csv"))
    want = load_csv(os.path.join(ref, f"{suite}.csv"))
    if got[:1] != want[:1] or len(got) != len(want):
        return [f"{suite}.csv: header or row count differs ({len(got)} vs {len(want)} lines)"]
    for i, (row_got, row_want) in enumerate(zip(got, want)):
        if len(row_got) != len(row_want):
            problems.append(f"{suite}.csv line {i + 1}: {len(row_got)} vs {len(row_want)} cells")
            continue
        for j, (a, b) in enumerate(zip(row_got, row_want)):
            if not _cells_match(a, b):
                problems.append(f"{suite}.csv line {i + 1} column {want[0][j]}: {a} vs {b}")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        contracts = [[c["name"], c["passed"]] for c in json.load(fh)["contracts"]]
    with open(os.path.join(ref, "contracts.json")) as fh:
        if contracts != json.load(fh):
            problems.append("summary.json: contract list differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# environment record (read only)
# ---------------------------------------------------------------------------


def _git_commit(root):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root):
    """sha256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "orliczfem")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(root):
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def describe(name, values, unit):
    q1, median, q3 = quartiles(values)
    return f"{name:<30} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def _add_layers(layers):
    """Per-layer metrics of an operation: the sums over its parts."""
    return {name: sum(part[name] for part in layers) for name in layers[0]}


class Run:
    """The operations of one benchmark run and their checked outcomes."""

    def __init__(self, root, workload, seed, work_dir):
        self.root, self.seed, self.work_dir = root, seed, work_dir
        self.parts = WORKLOADS[workload]["parts"]
        self.deadline = time.monotonic() + DEADLINE_S
        self.records = []  # records of the operations that passed every check
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.openblas = None

    def op(self, trace=False):
        """One operation: every part in turn; it fails if any part fails."""
        self.attempted += 1
        parts = {}
        for part in self.parts:
            record, errors = self._part(part, trace)
            if errors:
                self.failed += 1
                print(f"operation {self.attempted} FAILED in {part}: " + "; ".join(errors[:5]))
                return
            parts[part] = record
        records = list(parts.values())
        self.records.append(
            {
                "traced": trace,
                "wall_s": sum(r["wall_s"] for r in records),
                "cpu_s": sum(r["cpu_s"] for r in records),
                "peak_rss_mb": sum(r["peak_rss_mb"] for r in records),
                "parts": parts,
                "layers": _add_layers([r["layers"] for r in records]) if trace else None,
            }
        )
        self.setups.extend(r["setup_s"] for r in records)
        self.openblas = records[-1]["openblas_threads"]

    def _part(self, part, trace):
        """(record, errors) of one part of the current operation, checked."""
        out_dir = os.path.join(self.work_dir, f"op{self.attempted}", part)
        try:
            record, errors = run_op(self.root, part, self.seed, out_dir, trace, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            return None, [f"timed out {DEADLINE_S:g} s after the run started"]
        if record is None:
            return None, errors
        try:
            return record, compare_to_reference(part, self.seed, out_dir)
        except OSError as exc:
            return None, [f"cannot read outputs: {exc}"]

    def until(self, seconds, minimum, trace_every=0):
        """At least ``minimum`` operations, then more for about ``seconds``.

        Another operation starts if one more of the median duration so far is
        expected to end closer to ``seconds`` than stopping now, so that a run
        measures ``seconds`` on average instead of leaving up to one operation
        of it unused.
        """
        start = time.perf_counter()
        durations = []
        while self.attempted < minimum or (
            time.perf_counter() - start + statistics.median(durations) / 2 <= seconds
        ):
            began = time.perf_counter()
            self.op(trace=trace_every > 0 and self.attempted % trace_every == trace_every - 1)
            durations.append(time.perf_counter() - began)

    def remaining(self):
        return max(0.0, self.deadline - time.monotonic())

    def sample_setup(self):
        """Set-up-only processes until SETUP_SAMPLES set-up times are known."""
        probe = 0
        while len(self.setups) < SETUP_SAMPLES:
            probe += 1
            out_dir = os.path.join(self.work_dir, f"setup{probe}")
            part = self.parts[probe % len(self.parts)]
            record, errors = run_op(
                self.root, part, self.seed, out_dir, setup_only=True, timeout=self.remaining()
            )
            if record is None:
                raise RuntimeError("set-up-only process failed: " + "; ".join(errors))
            self.setups.append(record["setup_s"])

    def samples(self, name, traced=False):
        return [r[name] for r in self.records if r["traced"] == traced]


def end_to_end_metrics(run):
    """Medians of the end-to-end metrics, with a line per metric."""
    metrics = {}
    for name, unit in END_TO_END:
        values = run.setups if name == "setup_s" else run.samples(name)
        print(describe(name, values, unit))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    if len(run.parts) > 1:
        for part in run.parts:
            for name, unit in (("wall_s", "s"), ("peak_rss_mb", "MB")):
                values = [r["parts"][part][name] for r in run.records]
                print(describe(f"  of which {part} {name}", values, unit))
    return metrics


def layer_metrics(run):
    """Medians of the per-layer metrics over the traced operations."""
    traced = [r["layers"] for r in run.records if r["traced"]]
    walls = run.samples("wall_s", traced=True)
    untraced = run.samples("wall_s")
    values = {name: [layers[name] for layers in traced] for name in traced[0]}
    values["truncation.bad_fraction"] = [
        layers["truncation.bad_points"] / layers["truncation.lattice_points"]
        if layers["truncation.lattice_points"]
        else 0.0
        for layers in traced
    ]
    covered = [
        sum(layers[name] for name in tracing.TIMED_LAYERS if name != "suites.self_s") / wall
        for layers, wall in zip(traced, walls)
    ]
    values["trace.coverage"] = covered
    values["trace.wall_s"] = walls
    values["trace.overhead_s"] = [statistics.median(walls) - statistics.median(untraced)]

    print(describe("untraced wall_s", untraced, "s"))
    print(describe("traced wall_s", walls, "s"))
    print(describe("tracing overhead (medians)", values["trace.overhead_s"], "s"))
    print(describe("layer coverage of traced wall_s", covered, ""))
    metrics = {}
    for name in sorted(values):
        unit = layer_unit(name)
        print(describe(name, values[name], unit))
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name in ("truncation.bad_fraction", "trace.coverage"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true", help=f"run suite seed {HOLDOUT_SEED}")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orliczfem", "cli.py")):
        print("error: run from the root of an orliczfem checkout (no src/orliczfem)", file=sys.stderr)
        return 2
    seed = suite_seed(args.workload, args.seed, args.holdout)
    for part in WORKLOADS[args.workload]["parts"]:
        if not os.path.isdir(reference_dir(part, seed)):
            print(f"error: no reference outputs for {part} seed {seed}", file=sys.stderr)
            return 2

    # SIGTERM unwinds like an exception: subprocess.run kills and waits for
    # the running child, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(root)
    work_dir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    run = Run(root, args.workload, seed, work_dir)
    metrics = {}
    try:
        if args.trace:
            # untraced and traced operations alternate, so the overhead is
            # measured under the same load
            run.until(args.seconds, minimum=2, trace_every=2)
        else:
            run.until(args.seconds, minimum=1)
        env["openblas_threads"] = run.openblas
        suites = " then ".join(SUITES[part] for part in run.parts)
        print(f"workload {args.workload}: {suites}, "
              f"suite seed {seed}, {run.attempted} operations, {run.failed} failed")
        print("environment " + json.dumps(env, sort_keys=True))
        measured = run.samples("wall_s") and (not args.trace or run.samples("wall_s", traced=True))
        if measured and args.trace:
            metrics = layer_metrics(run)
        elif measured:
            run.sample_setup()
            metrics = end_to_end_metrics(run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        parent = os.path.dirname(work_dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    # without a single passing operation there is nothing to measure
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
