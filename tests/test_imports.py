"""Imports: what loading the CLI costs and which names cross module boundaries.

Loading the CLI and listing the suites load no SciPy, and no run loads sympy
(a test-only reference); ``orliczfem run`` imports a suite's modules
(``SuiteSpec.imports``) before the suite starts, so the suite imports nothing
more, and each of those modules is one its run imports; the Korn, index and
hammer suites never load SciPy; the library imports only the standard library
and its declared dependencies; no library module takes a private name from
another, and none but ``fem`` reads the boundary rows or keeps state on
another object; every name a module lists in ``__all__`` exists and is reached
from outside the tests; and the benchmark tracer, which rebinds library
functions by module and name, still finds them all.
"""

import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "sympy")


def _probe(source, *args):
    """The JSON that ``source`` prints last, run in a fresh interpreter with ``args``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", source, *map(str, args)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


PROBE = f"""
import json, sys
import numpy as np
import orliczfem.cli
at_import = [m for m in {HEAVY!r} if m in sys.modules]
from orliczfem.manufactured import sine_bubble
from orliczfem.nfunctions import PowerLaw
case = sine_bubble(0.5)
x, y = np.array([0.5, 0.25]), np.array([0.5, 0.5])
forcing = case.forcing(PowerLaw(3))(0.25, 0.5)
print(json.dumps({{
    "at_import": at_import,
    "sympy_after_case": "sympy" in sys.modules,
    "u": case.u(x, y).tolist(),
    "strain": [e.tolist() for e in case.strain(x, y)],
    "forcing": forcing.tolist(),
}}))
"""


def test_cli_import_leaves_heavy_modules_unloaded_and_a_manufactured_case_needs_no_sympy():
    probe = _probe(PROBE)
    assert probe["at_import"] == []
    assert not probe["sympy_after_case"]
    assert all(math.isfinite(f) for f in probe["forcing"])
    # u* = (0.5 sin(pi x) sin(pi y), 0); e11 = du1/dx, e22 = 0, e12 = du1/dy / 2
    r = 0.5 ** 0.5
    assert probe["u"] == [[0.5, 0.0], [pytest.approx(0.5 * r), 0.0]]
    e11, e22, e12 = probe["strain"]
    assert e11 == pytest.approx([0.0, 0.5 * math.pi * r], abs=1e-15)
    assert e22 == [0.0, 0.0]
    assert e12 == pytest.approx([0.0, 0.0], abs=1e-15)


# A small config of each suite that still takes every path that imports: the
# sweep's amplitude gives its forcing truncations a bad set, so they reach the
# maximal function and the envelopes.
REDUCED = {
    "indices_suite": {},
    "hammer_suite": {"hammer": {"pairs": "50", "fd_samples": "20"}},
    "korn_suite": {"korn": {"ensemble": "4"}},
    "truncation_suite": {"truncation": {"lattice_n": "16"}},
    "manufactured": {"manufactured": {"h": "0.5 0.25"}},
    "regularity_sweep": {
        "sweep": {"p_values": "2.0"},
        "mesh": {"h": "0.5 0.25", "lattice_n": "8"},
        "forcing": {"amplitude": "20"},
    },
}

NO_SCIPY = ("indices_suite", "hammer_suite", "korn_suite")

SETUP_PROBE = """
import contextlib, io, json, sys
from orliczfem import cli
kind, config, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["list-suites"])
    cli.main(["list-suites", kind])
at_list = "scipy" in sys.modules
run_suite, added = cli.run_suite, []
def recorded(*args, **kwargs):
    before = set(sys.modules)
    result = run_suite(*args, **kwargs)
    added.extend(sorted(set(sys.modules) - before))
    return result
cli.run_suite = recorded
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", config, "--jobs", "2", "--out", out])
print(json.dumps({
    "at_list": at_list, "code": code, "added": added, "scipy": "scipy" in sys.modules,
}))
"""

BARE_PROBE = """
import json, sys
from orliczfem.cli import parse_config
from orliczfem.suites import SUITES, run_suite
kind, seed, jobs, out, options = parse_config(sys.argv[1])
run_suite(kind, options, seed)
print(json.dumps([module for module in SUITES[kind].imports if module not in sys.modules]))
"""


def _reduced_config(tmp_path, kind):
    lines = ["[experiment]", f"kind = {kind}", "seed = 1"]
    for section, keys in REDUCED[kind].items():
        lines += [f"[{section}]", *(f"{key} = {value}" for key, value in keys.items())]
    path = tmp_path / f"{kind}.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("kind", sorted(REDUCED))
def test_run_imports_its_suites_modules_before_the_suite_starts(tmp_path, kind):
    probe = _probe(SETUP_PROBE, kind, _reduced_config(tmp_path, kind), tmp_path / "out")
    assert not probe["at_list"]  # nor, before it, at import
    assert probe["code"] in (0, 1)  # a reduced config may violate a contract
    assert probe["added"] == []
    assert probe["scipy"] == (kind not in NO_SCIPY)


@pytest.mark.parametrize("kind", sorted(REDUCED))
def test_every_setup_import_is_one_the_run_makes(tmp_path, kind):
    assert _probe(BARE_PROBE, _reduced_config(tmp_path, kind)) == []


ROOT = SRC.parent

TRACER_PROBE = f"""
import json, math, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import numpy as np
import tracer
spans = tracer.Tracer()
from orliczfem import fem, meshing, nfunctions, solver, truncation
spec = nfunctions.Truncated(nfunctions.PowerLaw(1.5), 0.1, 10.0)
conjugate = spec.conjugate_spec()
tracer.install(spans)
t = np.linspace(0.0, 20.0, 7)
for evaluate in (spec.phi, spec.d_phi, spec.dd_phi, spec.d_phi_inv, spec.conjugate, conjugate.phi):
    evaluate(t)
spec_points = spans.counts["nfunctions.eval_points"]
mesh = meshing.build_mesh("unit_disk", 0.25)
rough = lambda x, y: (1 - x * x - y * y) ** 2 * np.stack([np.sin(6 * x), np.cos(5 * y)])
f = fem.FemField.from_callable(mesh, rough, zero_boundary=True)
for hi in (1.0, 2.0):
    truncation.f_truncation_for_solver(f, hi, nfunctions.PowerLaw(1.3), lattice_n=16)
_, trace = solver.solve(nfunctions.Truncated(nfunctions.PowerLaw(3.0), 0.1, 10.0), f)
factored = sum(row.factored for row in trace.rows)
trials = sum(round(-math.log2(row.step)) + 1 for row in trace.rows[1:])
counts = dict(spans.counts, spec_points=spec_points, newton_iters=trace.iterations)
print(json.dumps(dict(counts, factored=factored, trials=trials)))
"""


def test_benchmark_tracer_installs_on_the_library():
    # the tracer rebinds functions by module and name: a rename must fail here,
    # and the forcing lattice's point location must stay visible to it
    counts = _probe(TRACER_PROBE)
    assert counts["truncation.forcing_calls"] == 2
    assert counts["fem.locate_calls"] == 1
    # six outermost evaluations of 7 points each; the base and inverse calls
    # nested inside Truncated and conjugate evaluators count nothing
    assert counts["spec_points"] == 42
    # one factorisation per trace row marked factored, and the probe forcing's
    # K for the operator step at u = 0: the refinement sweeps, the CG on a
    # later Jacobian and any float64 fallback stay inside the solve callable
    # `factorized` returns
    assert counts["newton_iters"] >= 2
    assert counts["solver.factorizations"] == counts["factored"] + 1
    assert 1 <= counts["factored"] < counts["newton_iters"]  # the probe reuses a factor
    assert counts["solver.newton_iters"] == counts["newton_iters"]
    # one energy for the one start candidate, then one per Armijo trial
    assert counts["solver.energy_calls"] == 1 + counts["trials"]


def _library_imports(path):
    """(module imported from, name) of each ``from ... import`` of an orliczfem module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "orliczfem"
        ):
            for alias in node.names:
                yield node.module, alias.name


def _imported_top_level_modules(path):
    """Top-level name of every absolute import in ``path``, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib_and_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    allowed = {"orliczfem"} | {re.split(r"[<>=!~\[; ]", dep, maxsplit=1)[0] for dep in declared}
    undeclared = sorted(
        f"{path.name}: {module}"
        for path in sorted((SRC / "orliczfem").glob("*.py"))
        for module in _imported_top_level_modules(path)
        if module not in sys.stdlib_module_names and module not in allowed
    )
    assert undeclared == []


def test_only_fem_reads_the_quadrature_weights():
    # every mesh integral is fem.integral, so the weights stay behind fem
    readers = sorted(
        path.name
        for path in sorted((SRC / "orliczfem").glob("*.py"))
        if path.name != "fem.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "weights"
    )
    assert readers == []


def _outside_fem():
    """(file name, AST node) of every node of the library's modules but ``fem``."""
    for path in sorted((SRC / "orliczfem").glob("*.py")):
        if path.name != "fem.py":
            yield from ((path.name, node) for node in ast.walk(ast.parse(path.read_text())))


def test_only_fem_reads_the_boundary_rows():
    # every zero-boundary field is FemField.zeroed's, so the boundary rows stay behind fem
    readers = [
        name
        for name, node in _outside_fem()
        if isinstance(node, ast.Attribute) and node.attr == "boundary_scalar"
    ]
    assert readers == []


def _assigned(node):
    """The targets an assignment node binds, tuples unpacked."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        todo = []
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Starred):
            todo.append(target.value)
        else:
            yield target


def test_only_fem_keeps_state_on_other_objects():
    # every per-object cache is fem.memo's: no other module calls vars or
    # setattr, or assigns an attribute of anything but self
    writers = [
        f"{name}:{node.lineno}"
        for name, node in _outside_fem()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("vars", "setattr")
        or any(
            isinstance(target, ast.Attribute)
            and not (isinstance(target.value, ast.Name) and target.value.id == "self")
            for target in _assigned(node)
        )
    ]
    assert writers == []


def test_no_module_imports_another_modules_private_names():
    private = [
        f"{path.name}: {module}.{name}"
        for path in sorted((SRC / "orliczfem").glob("*.py"))
        for module, name in _library_imports(path)
        if name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((SRC / "orliczfem").glob("*.py")) if "__all__" in p.read_text()],
    ids=lambda p: p.stem,
)
def test_every_exported_name_is_defined(path):
    # a stale __all__ entry fails only on a star-import, so look each one up
    module = importlib.import_module(f"orliczfem.{path.stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _referenced_names(path):
    """Each name a ``Name``, ``Attribute`` or ``from ... import`` node of ``path`` refers to."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_exported_name_is_reached_outside_the_tests():
    # a public name that only tests refer to is code no run reaches: delete it
    users = [p for p in (SRC / "orliczfem").glob("*.py") if p.name != "__init__.py"]
    users += (ROOT / "demos").glob("*.py")
    users += (p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    referenced = {name for path in users for name in _referenced_names(path)}
    unreached = {
        (path.stem, name)
        for path in (SRC / "orliczfem").glob("*.py")
        if "__all__" in path.read_text()
        for name in importlib.import_module(f"orliczfem.{path.stem}").__all__
        if name not in referenced
    }
    assert sorted(unreached) == []
