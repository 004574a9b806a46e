"""Configuration-driven experiment runner.

Usage:

    orliczfem run CONFIG [--jobs N] [--out DIR] [--seed S]
    orliczfem list-suites [NAME]

Configs are INI-style key=value sections (see ``list-suites NAME`` for a
template of each suite).  Exit codes: 0 when every contract held, 1 when one
was violated (the failures go to stderr), 2 for config parse/validation errors
or an output path that is not a directory, 3 when a Newton solve or truncation
continuation failed (the failing stage, iteration and residual go to stderr).
"""

from __future__ import annotations

import argparse
import configparser
import importlib
import os
import sys

from .nfunctions import DomainError
from .solver import ContinuationError, NonConvergenceError
from .suites import SUITES, run_suite
from .tableio import write_csv, write_json

__all__ = ["main", "parse_config", "ConfigError"]


class ConfigError(ValueError):
    """Malformed configuration; message carries location when known."""


_EXPERIMENT_KEYS = {"kind": str, "seed": int, "jobs": int, "out": str}


def _convert(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"key '{key}' in section [{section}] has invalid value {raw!r}"
        ) from None


def parse_config(path: str):
    """Parse a config file; returns (kind, seed, jobs, out, options).

    Each key the suite takes is typed by the suite's config table
    (``SUITES[kind].config``); any other section or key is passed on as text
    for :func:`run_suite` to reject, so the CLI and the library accept the
    same options.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        where = f" (line {line})" if line else ""
        raise ConfigError(f"config parse error{where}: {exc.message.splitlines()[0]}") from None

    if "experiment" not in parser:
        raise ConfigError("config is missing the [experiment] section")
    exp = dict(parser["experiment"])
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"key '{key}' in section [experiment] is not recognised")
    kind = exp.get("kind")
    if kind is None:
        raise ConfigError("[experiment] must set 'kind'")
    if kind not in SUITES:
        raise ConfigError(f"unknown suite kind {kind!r}; valid: {', '.join(sorted(SUITES))}")
    if "seed" not in exp:
        raise ConfigError("[experiment] must set 'seed' (runs are seeded, deterministic)")
    seed = _convert("experiment", "seed", exp["seed"], int)
    jobs = _convert("experiment", "jobs", exp["jobs"], int) if "jobs" in exp else 1
    out = exp.get("out")

    config = SUITES[kind].config
    options: dict = {}
    for section in parser.sections():
        if section == "experiment":
            continue
        keys = config.get(section, {})
        options[section] = {
            key: _convert(section, key, raw, keys[key].type) if key in keys else raw
            for key, raw in parser[section].items()
        }
    return kind, seed, jobs, out, options


def write_outputs(result, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, f"{result.suite}.csv"), SUITES[result.suite].row._fields, result.rows
    )
    write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "suite": result.suite,
            "seed": seed,
            "passed": result.passed,
            "contracts": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in result.contracts
            ],
            "envelopes": result.summary,
        },
    )
    if result.traces:
        trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        for name, trace in sorted(result.traces.items()):
            trace.to_csv(os.path.join(trace_dir, f"{name}.csv"))


def _solve_failure(exc) -> str:
    """The failed solve's last Newton iteration and residual, then its message.

    A continuation failure names its stage in the message and carries the
    failed solve, with its trace, as its cause.
    """
    newton = exc.__cause__ if isinstance(exc, ContinuationError) else exc
    last = newton.trace.rows[-1]
    return f"Newton iteration {last.iter}, residual {last.residual:.3e}; {exc}"


def _cmd_run(args) -> int:
    try:
        kind, seed, jobs, out, options = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        seed = args.seed
    if args.jobs is not None:
        jobs = args.jobs
    out_dir = args.out or out or "."
    existing = os.path.abspath(out_dir)
    while not os.path.lexists(existing):  # the outputs go into its deepest existing part
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        print(f"error: output directory {out_dir}: {existing} is not a directory", file=sys.stderr)
        return 2
    for module in SUITES[kind].imports:
        importlib.import_module(module)

    try:
        result = run_suite(kind, options, seed, jobs)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContinuationError, NonConvergenceError) as exc:
        print(f"error: run failed: {_solve_failure(exc)}", file=sys.stderr)
        return 3

    write_outputs(result, seed, out_dir)
    for check in result.contracts:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    failed = [c for c in result.contracts if not c.passed]
    if failed:
        print(
            f"{len(failed)} contract(s) violated: " + ", ".join(c.name for c in failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_list(args) -> int:
    if args.name is not None:
        if args.name not in SUITES:
            print(f"error: unknown suite {args.name!r}", file=sys.stderr)
            return 2
        print(SUITES[args.name].template)
        return 0
    for name in sorted(SUITES):
        print(f"{name}: {SUITES[name].description}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="orliczfem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a suite from a config file")
    run_parser.add_argument("config", help="path to the INI config")
    run_parser.add_argument("--jobs", type=int, default=None, help="worker pool size")
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")

    list_parser = sub.add_parser("list-suites", help="list suites or show one template")
    list_parser.add_argument("name", nargs="?", help="suite name to show a config template for")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_list(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
