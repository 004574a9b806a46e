"""Layer spans and counts for a traced run, recorded from outside the library.

``install(tracer)`` replaces the public functions of each orliczfem layer with
wrappers that open a span around the call.  A function is replaced under every
name that refers to it in any loaded ``orliczfem`` module, because the modules
import each other's functions into their own namespaces (``solver`` calls its
own ``assemble_jacobian`` and ``factorized``, ``suites`` its own
``build_mesh``), so patching the defining module alone would miss those calls.
Methods are replaced on their class.

Spans nest: ``Truncated.phi`` calls its base and ``lipschitz_truncate`` calls
``bad_set``.  A span's self time is its duration minus the durations of its
direct children, so self times add up to the traced interval without double
counting.  Spans are kept in memory and written out once the run is over.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Span names, grouped by the layer metric their self time is added to.
LAYER_OF_SPAN = {
    "meshing.build": "meshing.build_s",
    "fem.quad_cache": "fem.quad_cache_s",
    "fem.kernel": "fem.kernel_s",
    "fem.modular": "fem.modular_s",
    "fem.field": "fem.field_s",
    "fem.ratio": "fem.ratio_s",
    "fem.residual": "fem.residual_s",
    "fem.jacobian": "fem.jacobian_s",
    "fem.locate": "fem.locate_s",
    "solver.solve": "solver.self_s",
    "solver.continuation": "solver.self_s",
    "solver.energy": "solver.line_search_s",
    "solver.factorize": "solver.factorize_s",
    "solver.backsolve": "solver.backsolve_s",
    "regularity.w12": "regularity.w12_s",
    "regularity.caccioppoli": "regularity.caccioppoli_s",
    "regularity.other": "regularity.self_s",
    "truncation.forcing": "truncation.forcing_s",
    "truncation.maximal": "truncation.maximal_s",
    "truncation.envelope": "truncation.envelope_s",
    "truncation.lattice": "truncation.lattice_s",
    "nfunctions.eval": "nfunctions.eval_s",
    "suites.run": "suites.self_s",
    "tableio.write": "tableio.write_s",
}

TIMED_LAYERS = tuple(sorted(set(LAYER_OF_SPAN.values())))

# Inclusive seconds of the boundaries whose children do most of their work:
# the line search spends its time in fem kernels and N-function evaluations,
# and the forcing truncation in point location.
INCLUSIVE_OF_SPAN = {
    "solver.solve": "solver.solve_total_s",
    "solver.energy": "solver.line_search_total_s",
    "fem.ratio": "fem.ratio_total_s",
    "truncation.forcing": "truncation.forcing_total_s",
}

# Counts recorded at the same boundaries as the spans.
COUNTS = (
    "meshing.meshes",
    "meshing.cells",
    "fem.quad_caches",
    "fem.kernel_calls",
    "fem.modular_calls",
    "fem.ratio_calls",
    "fem.residual_calls",
    "fem.jacobian_calls",
    "fem.locate_calls",
    "fem.points_located",
    "solver.solves",
    "solver.newton_iters",
    "solver.energy_calls",
    "solver.backtracks",
    "solver.factorizations",
    "solver.free_dofs",
    "solver.jac_nnz",
    "regularity.w12_calls",
    "regularity.caccioppoli_calls",
    "truncation.forcing_calls",
    "truncation.forcing_inert",
    "truncation.maximal_calls",
    "truncation.envelope_calls",
    "truncation.envelope_pairs",
    "truncation.bad_points",
    "truncation.lattice_points",
    "nfunctions.eval_points",
)

# Counts that repeat exactly between two runs of the same config and seed.
DETERMINISTIC_COUNTS = (
    "solver.newton_iters",
    "solver.backtracks",
    "solver.jac_nnz",
    "fem.points_located",
    "truncation.envelope_pairs",
    "truncation.forcing_inert",
    "nfunctions.eval_points",
)


class Tracer:
    """Open-span stack, finished spans and per-layer totals of one process."""

    def __init__(self):
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.total_s = defaultdict(float)  # span name -> summed duration
        self.counts = defaultdict(int)
        self._open = []  # [span id, name, start, child time]

    @property
    def current(self):
        """Name of the innermost open span, or None."""
        return self._open[-1][1] if self._open else None

    def enter(self, name):
        # every span entered so far is finished or open, so the id is its entry order
        self._open.append([len(self.spans) + len(self._open), name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        span_id, name, start, child = self._open.pop()
        duration = end - start
        parent = -1
        if self._open:
            self._open[-1][3] += duration
            parent = self._open[-1][0]
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name, func, count=None):
        """``func`` inside a span; ``count(tracer, args, result)`` runs after it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def layer_metrics(self):
        """Per-layer self seconds, inclusive seconds and counts, keyed by metric name."""
        out = dict.fromkeys(TIMED_LAYERS, 0.0)
        for span, seconds in self.self_s.items():
            out[LAYER_OF_SPAN[span]] += seconds
        for span, metric in INCLUSIVE_OF_SPAN.items():
            out[metric] = self.total_s[span]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start", "end"])
            writer.writerows(sorted(self.spans))


# ---------------------------------------------------------------------------
# count hooks
# ---------------------------------------------------------------------------


def _calls(name):
    def count(tracer, args, result):
        tracer.counts[name] += 1

    return count


def _count_mesh(tracer, args, result):
    tracer.counts["meshing.meshes"] += 1
    tracer.counts["meshing.cells"] += result.n_cells


def _count_located(tracer, args, result):
    tracer.counts["fem.locate_calls"] += 1
    tracer.counts["fem.points_located"] += len(result[0])


def _count_solve(tracer, args, result):
    trace = result[1]
    tracer.counts["solver.solves"] += 1
    tracer.counts["solver.newton_iters"] += trace.iterations
    # an accepted Armijo step is 0.5^k after k backtracks; row 0 has step 0
    for row in trace.rows[1:]:
        tracer.counts["solver.backtracks"] += round(-math.log2(row[3]))


def _count_forcing(tracer, args, result):
    tracer.counts["truncation.forcing_calls"] += 1
    tracer.counts["truncation.forcing_inert"] += result is args[0]


def _count_envelope(tracer, args, result):
    gf, good = args[0], args[1]
    tracer.counts["truncation.envelope_calls"] += 1
    tracer.counts["truncation.envelope_pairs"] += gf.values.size * int(np.count_nonzero(good))


def _count_bad_set(tracer, args, result):
    tracer.counts["truncation.bad_points"] += int(np.count_nonzero(result))
    tracer.counts["truncation.lattice_points"] += result.size


def _count_eval(tracer, args, result):
    # only the outermost evaluation counts its points: Truncated.phi calls its base
    if tracer.current != "nfunctions.eval":
        tracer.counts["nfunctions.eval_points"] += np.size(args[1])


def _count_factorization(tracer, args, result):
    matrix = args[0]
    tracer.counts["solver.factorizations"] += 1
    tracer.counts["solver.free_dofs"] += matrix.shape[0]
    tracer.counts["solver.jac_nnz"] += matrix.nnz


def _wrap_factorized(tracer, func):
    """``factorized`` in a span, and the solve callable it returns in another."""
    traced = tracer.wrap("solver.factorize", func, _count_factorization)

    @functools.wraps(func)
    def factorized(matrix):
        return tracer.wrap("solver.backsolve", traced(matrix))

    return factorized


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _library_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "orliczfem" or name.startswith("orliczfem."))
    ]


def _replace_everywhere(modules, func, replacement):
    """Rebind every module-level name that refers to ``func``; returns how many."""
    hits = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(tracer):
    """Wrap every layer boundary of the already-imported orliczfem package."""
    from orliczfem import cli, fem, meshing, nfunctions, regularity, solver, suites, truncation

    modules = _library_modules()

    def replace(func, replacement):
        if _replace_everywhere(modules, func, replacement) == 0:
            raise RuntimeError(f"no module refers to {func.__qualname__}; update the tracer")

    def patch(name, func, count=None):
        replace(func, tracer.wrap(name, func, count))

    patch("meshing.build", meshing.build_mesh, _count_mesh)
    fem.QuadCache.__post_init__ = tracer.wrap(
        "fem.quad_cache", fem.QuadCache.__post_init__, _calls("fem.quad_caches")
    )
    for func in (fem.strain_mandel, fem.strain_grad_mandel, fem.values_at_qp, fem.gradient_at_qp):
        patch("fem.kernel", func, _calls("fem.kernel_calls"))
    for func in (fem.modular, fem.region_measure):
        patch("fem.modular", func, _calls("fem.modular_calls"))
    for func in (fem.evaluate_field, fem.evaluate_field_gradient, fem.random_zero_boundary_field):
        patch("fem.field", func)
    fem.FemField.from_callable = classmethod(
        tracer.wrap("fem.field", fem.FemField.from_callable.__func__)
    )
    for func in (fem.korn_ratio, fem.korn_ratio_meanfree, fem.poincare_ratio):
        patch("fem.ratio", func, _calls("fem.ratio_calls"))
    patch("fem.residual", fem.assemble_residual, _calls("fem.residual_calls"))
    patch("fem.jacobian", fem.assemble_jacobian, _calls("fem.jacobian_calls"))
    patch("fem.locate", fem.locate_points, _count_located)

    patch("solver.solve", solver.solve, _count_solve)
    patch("solver.continuation", solver.delta_continuation)
    patch("solver.energy", solver.energy, _calls("solver.energy_calls"))
    replace(solver.factorized, _wrap_factorized(tracer, solver.factorized))

    patch("regularity.w12", fem.w12_norm_v, _calls("regularity.w12_calls"))
    patch("regularity.caccioppoli", regularity.caccioppoli_ratio, _calls("regularity.caccioppoli_calls"))
    for func in (
        regularity.regularity_ratio,
        regularity.interpolation_step_check,
        regularity.conjugate_forcing_modulars,
        regularity.default_disk_forcing,
        regularity.rigid_projection,
    ):
        patch("regularity.other", func)

    patch("truncation.forcing", truncation.f_truncation_for_solver, _count_forcing)
    patch("truncation.maximal", truncation.maximal_function, _calls("truncation.maximal_calls"))
    patch("truncation.envelope", truncation._mcshane_midpoint, _count_envelope)
    patch("truncation.lattice", truncation.bad_set, _count_bad_set)
    for func in (
        truncation.lipschitz_truncate,
        truncation.discrete_lipschitz,
        truncation.grid_modular,
        truncation.gradient_magnitude,
    ):
        patch("truncation.lattice", func)
    grid = truncation.GridFunction
    grid.sample = classmethod(tracer.wrap("truncation.lattice", grid.sample.__func__))
    grid.interp = tracer.wrap("truncation.lattice", grid.interp)

    for cls in _subclasses(nfunctions.NFunction):
        for method in ("phi", "d_phi", "dd_phi", "conjugate", "d_phi_inv"):
            if method in vars(cls):
                setattr(cls, method, tracer.wrap("nfunctions.eval", vars(cls)[method], _count_eval))

    patch("suites.run", suites.run_suite)
    patch("tableio.write", cli.write_outputs)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
