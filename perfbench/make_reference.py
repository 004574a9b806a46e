"""Store the reference outputs that every benchmark operation is checked against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout.  For each part of each workload and each
suite seed of the workload's pool, plus the hold-out seed, this runs the part
once and keeps its suite CSV and the (name, passed) list of its contracts under
``perfbench/reference/<part>/seed<S>/``.  Regenerate only when a change is
meant to alter the suite outputs beyond the benchmark's tolerance.
"""

import itertools
import json
import os
import shutil
import sys

from run import HOLDOUT_SEED, SUITES, WORKLOADS, reference_dir, run_op


def main(argv):
    root = os.getcwd()
    work_dir = os.path.join(root, ".perfbench_work", "reference")
    try:
        for workload in argv or sorted(WORKLOADS):
            seeds = WORKLOADS[workload]["pool"] + (HOLDOUT_SEED,)
            for part, seed in itertools.product(WORKLOADS[workload]["parts"], seeds):
                suite = SUITES[part]
                out_dir = os.path.join(work_dir, f"{part}-{seed}")
                record, errors = run_op(root, part, seed, out_dir)
                if record is None:
                    raise SystemExit(f"{part} seed {seed} failed: {errors}")
                ref = reference_dir(part, seed)
                os.makedirs(ref, exist_ok=True)
                shutil.copyfile(os.path.join(out_dir, f"{suite}.csv"), os.path.join(ref, f"{suite}.csv"))
                with open(os.path.join(out_dir, "summary.json")) as fh:
                    contracts = [[c["name"], c["passed"]] for c in json.load(fh)["contracts"]]
                with open(os.path.join(ref, "contracts.json"), "w") as fh:
                    fh.write("[\n" + ",\n".join(json.dumps(c) for c in contracts) + "\n]\n")
                print(f"{part} seed {seed}: {record['wall_s']:.2f} s, stored in {ref}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
