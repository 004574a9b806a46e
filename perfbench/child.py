"""One timed ``orliczfem run`` in a fresh interpreter.

    python3 perfbench/child.py --started-at T --record R.json [--trace SPANS.csv]
        [--setup-only] run CONFIG --jobs 1 --seed S --out DIR

Everything after the benchmark's own options is handed to ``orliczfem.cli.main``,
the entry point of the ``orliczfem`` command.  ``T`` is the wall-clock time at
which the parent started this process.  The record holds:

* ``setup_s``: from T until the suite starts, i.e. interpreter start, the
  ``orliczfem`` import and the config parse;
* ``wall_s`` and ``cpu_s``: wall and process CPU seconds from the start of the
  suite until its outputs are written;
* ``peak_rss_mb``: the process's ``ru_maxrss``;
* ``layers``: per-layer self seconds and counts (with ``--trace`` only).

``--setup-only`` stops at the start of the suite, so that set-up can be sampled
without running it.  The exit code is the command's own.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    pass


def _openblas_threads():
    """Thread count of each bundled OpenBLAS, read through its own getter."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads",
            ):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[f"{package.__name__}:{os.path.basename(path)}"] = getter()
                    break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this CSV and record layers")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    from orliczfem import cli

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = {}
    run_suite, write_outputs = cli.run_suite, cli.write_outputs

    def timed_run_suite(*a, **k):
        marks["start"], marks["cpu_start"] = time.time(), time.process_time()
        if args.setup_only:
            raise _SetupDone
        return run_suite(*a, **k)

    def timed_write_outputs(*a, **k):
        out = write_outputs(*a, **k)
        marks["end"], marks["cpu_end"] = time.time(), time.process_time()
        return out

    cli.run_suite, cli.write_outputs = timed_run_suite, timed_write_outputs
    try:
        code = cli.main(args.command)
    except _SetupDone:
        code = 0

    record = {"exit_code": code}
    if "start" in marks:
        record["setup_s"] = marks["start"] - args.started_at
    if "end" in marks:
        record["wall_s"] = marks["end"] - marks["start"]
        record["cpu_s"] = marks["cpu_end"] - marks["cpu_start"]
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["openblas_threads"] = _openblas_threads()
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace)
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
