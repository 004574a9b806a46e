"""Every workload in one command: end-to-end metrics, or per-layer ones with --trace.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Run from the root of a checkout.  Each workload runs as ``run.py`` would run
it, and prints its metric lines (unit, median, quartiles, sample count) and
its JSON result line.  The exit code is the worst of the workloads'.
"""

import argparse
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    codes = []
    for workload in run.WORKLOADS:
        print(f"== {workload}", flush=True)
        codes.append(
            run.main(
                [
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(int(args.trace)),
                ]
            )
        )
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
