"""The six experiment suites and their pass/fail contracts.

Each suite's case work turns one family of estimates into rows (written as CSV
by the CLI); one function of those rows and the options alone turns them into
contract checks, so a stored CSV can be checked again without a solve.  The
contracts encode the measurable form of each estimate: exact identities at
machine tolerance, inequality sweeps with zero violations, and empirical
constant envelopes asserted to be bounded and stable under refinement.

Suite -> estimate map:

* ``indices_suite``      index formulas and the scalar inequality sweeps
                         (Simonenko bounds, doubling constants, Young gap,
                         conjugate sandwich, truncation error bound)
* ``hammer_suite``       three-way monotonicity equivalence and the stress /
                         transform derivatives against finite differences
* ``korn_suite``         Korn and Poincare modular inequalities on random
                         zero-boundary ensembles
* ``manufactured``       solver convergence against manufactured solutions
* ``regularity_sweep``   energy estimate, global W^{1,2} regularity ratio of
                         the transformed strain, interior Caccioppoli ratios,
                         and the Hoelder interpolation step
* ``truncation_suite``   truncation-conjugation duality, discrete Lipschitz
                         truncation properties, and the truncated-forcing
                         modular bound
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .fem import (
    FemField,
    evaluate_located,
    gradient_at_qp,
    korn_ratio,
    korn_ratio_meanfree,
    locate_points,
    modular,
    poincare_ratio,
    quad_cache,
    random_zero_boundary_field,
    strain_mandel,
)
from .inequalities import inequality_margins
from .manufactured import convergence_study, sine_bubble
from .meshing import build_mesh
from .nfunctions import (
    DeltaPower,
    DomainError,
    PowerLaw,
    SPEC_KEYS,
    SumPower,
    Truncated,
    from_mapping,
    from_text,
    to_text,
    truncation_dual_gap,
)
from .regularity import (
    caccioppoli_balls,
    caccioppoli_ratio,
    conjugate_forcing_modulars,
    default_disk_forcing,
    interpolation_step_check,
    regularity_ratio,
)
from .solver import DEFAULT_SCHEDULE, SOLVER_KEYS, SolveConfig, operator_solution
from .tensors import a_map, da_map, dv_map, frobenius, hammer_triple, random_sym, v_map
from .truncation import (
    GridFunction,
    discrete_lipschitz,
    f_truncation_for_solver,
    truncation_modular_bounds,
)

__all__ = ["ContractCheck", "SuiteResult", "SUITES", "run_suite", "DEFAULT_SPEC_ROSTER"]


DEFAULT_SPEC_ROSTER = (
    PowerLaw(1.3),
    PowerLaw(1.5),
    PowerLaw(2.0),
    PowerLaw(3.0),
    PowerLaw(4.0),
    DeltaPower(3.0, 1.0),
    DeltaPower(1.5, 0.1),
    SumPower(1.5, 3.0),
    Truncated(PowerLaw(3.0), 0.1, 10.0),
    Truncated(PowerLaw(1.3), 1e-4, 1e4),
    Truncated(DeltaPower(1.5, 0.5), 0.01, 100.0),
)

#: Pinned contract tolerances and envelopes (measured once, frozen here).
MARGIN_TOL = 1e-9
YOUNG_TOL = 1e-12
INDEX_TOL = 1e-6
GRID_INDEX_TOL = 5e-3
HAMMER_ENVELOPE = 100.0
HAMMER_P2_TOL = 1e-12
FD_TOL = 1e-6
KORN_ENVELOPE = 4.0
KORN_STABILITY = 0.3
POINCARE_ENVELOPE = 1.0
RATE_P2 = 1.9
RATE_NONLINEAR = 1.0
ENERGY_SPREAD = 10.0
REG_H_STEP = 0.10
REG_STAGE_STEP = 0.10
CACC_SPREAD = 10.0
CACC_H_STABILITY = 0.5
INTERP_MIN = 1.0 - 1e-10
INTERP_MAX = 50.0
DUAL_TOL = 1e-8
LIP_SLACK = 1e-12
MODULAR_ENVELOPE = 10.0
KDELTA_ENVELOPE = 50.0


@dataclass
class ContractCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteResult:
    suite: str
    rows: list  # of the suite's row type, whose fields are the CSV columns
    contracts: list
    summary: dict = dataclass_field(default_factory=dict)
    traces: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.contracts)


def _parallel(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _rel_step(previous: float, current: float) -> float:
    if previous == 0.0:
        return 0.0 if current == 0.0 else math.inf
    return abs(current - previous) / previous


def _worst(values) -> float:
    """The largest value, and NaN when any is NaN (Python's ``max`` keeps a NaN only first)."""
    return float(np.max(values))


def _positive_finite(ratios) -> tuple[bool, str]:
    """Whether every compared ratio is positive and finite, and a detail note when not.

    A zero or infinite ratio (a solution or forcing that vanished or blew up)
    makes a stability or spread comparison vacuous, so it fails the contract.
    """
    ok = all(0.0 < r < math.inf for r in ratios)
    return ok, "" if ok else "; ratios not all positive and finite"


def _specs(options: dict) -> list:
    """The one spec of the ``[spec]`` section, or the default roster without it."""
    if "spec" in options:
        return [from_mapping(options["spec"])]
    return list(DEFAULT_SPEC_ROSTER)


def _solve_config(options: dict) -> SolveConfig:
    kwargs = dict(options["solver"])
    if "schedule" in options:
        los, his = options["schedule"]["delta_lo"], options["schedule"]["delta_hi"]
        if len(los) != len(his):
            raise DomainError("schedule needs matching delta_lo and delta_hi lists")
        for lo, hi in zip(los, his):  # here, before any solve: Truncated checks a pair at its stage
            if not (0.0 < lo <= hi < math.inf):
                key = "delta_lo" if hi < math.inf else "delta_hi"
                raise DomainError(
                    f"key '{key}' in section [schedule]: each pair needs "
                    f"0 < delta_lo <= delta_hi < inf, got ({lo}, {hi})"
                )
        kwargs["delta_schedule"] = tuple(zip(los, his))
    return SolveConfig(**kwargs)


# ---------------------------------------------------------------------------
# indices suite
# ---------------------------------------------------------------------------

class IndexRow(NamedTuple):
    """Indices of one spec, then its :func:`inequality_margins` (None where not defined)."""

    spec: str
    p_minus: float
    p_plus: float
    grid_p_minus: float
    grid_p_plus: float
    simonenko_lo: float | None = None
    simonenko_hi: float | None = None
    scaling_lo: float | None = None
    scaling_hi: float | None = None
    delta2_phi: float | None = None
    delta2_conj: float | None = None
    sandwich_lo: float | None = None
    sandwich_hi: float | None = None
    young: float | None = None
    trunc_identity: float | None = None
    trunc_approx: float | None = None
    quad_growth_lo: float | None = None
    quad_growth_hi: float | None = None


def run_indices_suite(options: dict, seed: int, jobs: int):
    def work(spec) -> IndexRow:
        idx = spec.indices()
        grid = spec.indices_grid()
        return IndexRow(
            spec.describe(), idx.p_minus, idx.p_plus, grid.p_minus, grid.p_plus,
            **inequality_margins(spec),
        )

    return _parallel(work, _specs(options), jobs), {}


def indices_contracts(rows: list, options: dict):
    details = []
    grid_ok = True
    worst = {}
    for row in rows:
        for name, value in zip(IndexRow._fields[5:], row[5:]):  # the margin columns
            if value is not None:  # the margin is defined for this spec
                worst[name] = float(np.minimum(worst.get(name, math.inf), value))  # keeps NaN
        spec = from_text(row.spec)
        inside = (
            row.grid_p_minus >= row.p_minus - GRID_INDEX_TOL
            and row.grid_p_plus <= row.p_plus + GRID_INDEX_TOL
        )
        close = (
            row.p_minus - row.grid_p_minus <= GRID_INDEX_TOL
            and row.p_plus - row.grid_p_plus <= GRID_INDEX_TOL
        )
        # hull indices of a truncation are conservative: containment only
        grid_ok &= inside and (close or isinstance(spec, Truncated))
        if isinstance(spec, PowerLaw):
            expect = (spec.p, spec.p)
        elif isinstance(spec, DeltaPower) and spec.delta > 0:
            expect = (min(spec.p, 2.0), max(spec.p, 2.0))
        else:
            continue
        err = _worst([abs(row.p_minus - expect[0]), abs(row.p_plus - expect[1])])
        if not err <= INDEX_TOL:
            details.append(f"{row.spec}: index error {err:.3e}")
    violations = {
        name: value
        for name, value in worst.items()
        if not value >= -(YOUNG_TOL if name == "young" else MARGIN_TOL)
    }
    return [
        ContractCheck("index_exactness", not details, "; ".join(details) or "all within 1e-6"),
        ContractCheck(
            "grid_reconciliation",
            grid_ok,
            f"grid estimates within {GRID_INDEX_TOL} of closed forms (inside for truncations)",
        ),
        ContractCheck(
            "scalar_inequalities_zero_violations",
            not violations,
            f"violated: {violations}" if violations else "all inequality margins nonnegative",
        ),
    ], {"worst_margins": worst}


# ---------------------------------------------------------------------------
# hammer suite
# ---------------------------------------------------------------------------


class HammerRow(NamedTuple):
    """Monotonicity-ratio envelope and derivative errors of one spec."""

    spec: str
    ratio_min: float
    ratio_max: float
    fd_err_stress: float
    fd_err_transform: float


def run_hammer_suite(options: dict, seed: int, jobs: int):
    n_pairs = options["hammer"]["pairs"]
    n_fd = options["hammer"]["fd_samples"]

    def work(item) -> HammerRow:
        index, spec = item
        rng = np.random.default_rng([seed, index])
        P = random_sym(rng, n_pairs)
        Q = random_sym(rng, n_pairs)
        trip = hammer_triple(spec, P, Q)
        r1 = trip.lhs / trip.mid
        r2 = trip.mid / trip.rhs

        Pf = random_sym(rng, n_fd, scale=(1e-1, 1e1))
        Hf = random_sym(rng, n_fd, scale=(1.0, 1.0))
        if isinstance(spec, Truncated):
            t = frobenius(Pf)
            for kink in (spec.lo, spec.hi):
                if 0.0 < kink < math.inf:
                    Pf[np.abs(t - kink) < 1e-3] *= 1.01
        h = 1e-5

        def fd_error(value_map, derivative_map):
            fd = (
                np.asarray(value_map(spec, Pf + h * Hf)) - np.asarray(value_map(spec, Pf - h * Hf))
            ) / (2 * h)
            exact = np.asarray(derivative_map(spec, Pf, Hf))
            return float(np.max(frobenius(fd - exact) / frobenius(fd)))

        return HammerRow(
            spec.describe(),
            float(np.minimum(r1.min(), r2.min())),
            _worst([r1.max(), r2.max()]),
            fd_error(a_map, da_map),
            fd_error(v_map, dv_map),
        )

    return _parallel(work, list(enumerate(_specs(options))), jobs), {}


def hammer_contracts(rows: list, options: dict):
    env_ok = all(
        r.ratio_min >= 1.0 / HAMMER_ENVELOPE and r.ratio_max <= HAMMER_ENVELOPE for r in rows
    )
    p2_detail = "no quadratic spec in roster"
    p2_ok = True
    for r in rows:
        spec = from_text(r.spec)
        if isinstance(spec, PowerLaw) and spec.p == 2.0:
            p2_ok = (
                abs(r.ratio_min - 1.0) <= HAMMER_P2_TOL and abs(r.ratio_max - 1.0) <= HAMMER_P2_TOL
            )
            p2_detail = f"envelope [{r.ratio_min:.2e}, {r.ratio_max:.2e}] at p=2"
    fd_ok = all(r.fd_err_stress <= FD_TOL and r.fd_err_transform <= FD_TOL for r in rows)
    return [
        ContractCheck(
            "hammer_envelope", env_ok, f"pairwise ratios within [1/{HAMMER_ENVELOPE:g}, {HAMMER_ENVELOPE:g}]"
        ),
        ContractCheck("hammer_p2_exact", p2_ok, p2_detail),
        ContractCheck("derivative_fd_match", fd_ok, f"relative error <= {FD_TOL:g} at h=1e-5"),
    ], {}


# ---------------------------------------------------------------------------
# korn suite
# ---------------------------------------------------------------------------


class KornRow(NamedTuple):
    """Ensemble maxima of one (p, h) case."""

    p: float
    h: float
    korn_max: float
    korn_meanfree_max: float
    poincare_max: float


#: Fields per stacked evaluation of the Korn ensemble.  A block's gradient and
#: strain at the quadrature points (0.17 MB per field on the h = 1/16 unit
#: square) serve all three ratios, and so does its int phi(|grad u|), the Korn
#: numerator and the Poincare denominator; with the ratios' temporaries the
#: block peaks at about 0.32 MB per field.
KORN_BLOCK = 16


def run_korn_suite(options: dict, seed: int, jobs: int):
    ensemble = options["korn"]["ensemble"]
    domain = options["mesh"]["domain"]
    h_values = options["mesh"]["h"]
    p_values = options["sweep"]["p_values"]

    items = [(i, p, h) for i, (p, h) in enumerate((p, h) for p in p_values for h in h_values)]
    # one mesh per h, shared by every p and thread, as in the regularity sweep
    meshes = {h: build_mesh(domain, h) for h in h_values}

    def work(item) -> KornRow:
        index, p, h = item
        rng = np.random.default_rng([seed, index])
        spec = PowerLaw(p)
        mesh = meshes[h]
        korn_max = meanfree_max = poincare_max = 0.0
        for start in range(0, ensemble, KORN_BLOCK):
            fields = random_zero_boundary_field(mesh, rng, count=min(KORN_BLOCK, ensemble - start))
            G, E = gradient_at_qp(fields), strain_mandel(fields)
            grad_mod = modular(spec, fields, "grad", kernel=G)
            korn = korn_ratio(spec, fields, strain=E, grad_modular=grad_mod)
            meanfree = korn_ratio_meanfree(spec, fields, grad=G, strain=E)
            poincare = poincare_ratio(spec, fields, grad_modular=grad_mod)
            korn_max = _worst([korn_max, korn.max()])
            meanfree_max = _worst([meanfree_max, meanfree.max()])
            poincare_max = _worst([poincare_max, poincare.max()])
        return KornRow(p, h, korn_max, meanfree_max, poincare_max)

    return _parallel(work, items, jobs), {}


def korn_contracts(rows: list, options: dict):
    korn_ok = all(
        r.korn_max <= KORN_ENVELOPE and r.korn_meanfree_max <= KORN_ENVELOPE for r in rows
    )
    poincare_ok = all(r.poincare_max <= POINCARE_ENVELOPE for r in rows)
    details = []
    h_sorted = sorted(options["mesh"]["h"], reverse=True)  # coarse to fine, in any given order
    for p in options["sweep"]["p_values"]:
        maxima = [r.korn_max for h in h_sorted for r in rows if r.p == p and r.h == h]
        positive, note = _positive_finite(maxima)
        for a, b in zip(maxima, maxima[1:]):
            if not positive or _rel_step(a, b) > KORN_STABILITY:
                details.append(f"p={p}: korn max moved {a:.3f} -> {b:.3f}{note}")
    return [
        ContractCheck("korn_envelope", korn_ok, f"ensemble maxima <= {KORN_ENVELOPE}"),
        ContractCheck("poincare_envelope", poincare_ok, f"ensemble maxima <= {POINCARE_ENVELOPE}"),
        ContractCheck(
            "korn_refinement_stability",
            not details,
            "; ".join(details) or f"maxima move <= {KORN_STABILITY:.0%} under refinement",
        ),
    ], {}


# ---------------------------------------------------------------------------
# manufactured suite
# ---------------------------------------------------------------------------

_MANUFACTURED_CASES = (
    ("power2", PowerLaw(2.0), (1e-4, 1e4), RATE_P2),
    ("power3", PowerLaw(3.0), (1e-4, 1e4), RATE_NONLINEAR),
    ("power1.5", PowerLaw(1.5), (1e-2, 1e2), RATE_NONLINEAR),
    ("delta_power3", DeltaPower(3.0, 1.0), (1e-4, 1e4), RATE_NONLINEAR),
)


class ManufacturedRow(NamedTuple):
    """H1 error of one case on one mesh, its rate from the previous mesh, and the LS slope."""

    case: str
    trunc_lo: float
    trunc_hi: float
    h: float
    h1_error: float
    pair_rate: float | None
    ls_rate: float


def run_manufactured(options: dict, seed: int, jobs: int):
    h_values = options["manufactured"]["h"]
    cfg = _solve_config(options)
    case = sine_bubble()

    def work(entry) -> list:
        label, base, (lo, hi), _ = entry
        errors, rates = convergence_study(base.truncate(lo, hi), case, h_values, cfg=cfg)
        slope = float(
            np.polyfit(np.log(np.asarray(h_values)), np.log(np.asarray(errors)), 1)[0]
        )
        return [
            ManufacturedRow(label, lo, hi, h, errors[i], rates[i - 1] if i > 0 else None, slope)
            for i, h in enumerate(h_values)
        ]

    return [row for block in _parallel(work, list(_MANUFACTURED_CASES), jobs) for row in block], {}


def manufactured_contracts(rows: list, options: dict):
    least_rate = {label: rate for label, _, _, rate in _MANUFACTURED_CASES}
    slopes = {}  # each case's LS slope, repeated on every row of the case
    for row in rows:
        slopes.setdefault(row.case, row.ls_rate)
    return [
        ContractCheck(
            f"rate_{label}",
            slope >= least_rate[label],
            f"LS slope {slope:.3f} over {len(options['manufactured']['h'])} refinements "
            f"(need >= {least_rate[label]})",
        )
        for label, slope in slopes.items()
    ], {}


# ---------------------------------------------------------------------------
# regularity sweep
# ---------------------------------------------------------------------------

_CACC_CENTERS = ((0.0, 0.0), (0.25, 0.1), (-0.15, 0.2))
_CACC_RADII = (0.05, 0.1, 0.2, 0.3)


def _caccioppoli_kept(h: float) -> list:
    """The sweep's (center, radius) balls at mesh size ``h``: 2B within 0.98 of the origin,
    and no radius below ``h`` (ball means below mesh resolution are noise)."""
    return [
        (center, radius)
        for center in _CACC_CENTERS
        for radius in _CACC_RADII
        if math.hypot(*center) + 2.0 * radius < 0.98 and radius >= h
    ]


class SweepRow(NamedTuple):
    """One measured ratio lhs/rhs; the columns an experiment does not use are None.

    ``energy`` and ``regularity`` rows are per truncation stage (delta_lo,
    delta_hi), ``caccioppoli`` rows per ball (center, radius) and the
    ``interp_step`` row at the final stage.
    """

    experiment: str
    p: float
    h: float
    delta_lo: float | None = None
    delta_hi: float | None = None
    center_x: float | None = None
    center_y: float | None = None
    radius: float | None = None
    lhs: float | None = None
    rhs: float | None = None
    ratio: float | None = None
    cauchy: float | None = None


def run_regularity_sweep(options: dict, seed: int, jobs: int):
    """The sweep's rows and Newton traces: p-major, then h in the order ``[mesh] h`` lists it.

    Each p is one work item (``jobs`` spreads over p), which solves its meshes
    coarse to fine by nested iteration: every mesh after the coarsest passes
    the next-coarser mesh's stage fields, interpolated at its dof points, to
    :func:`regularity_ratio` as the continuation's predictor.  A p's item
    reads only its own coarser results, so no output depends on ``jobs``.
    """
    domain = options["mesh"]["domain"]
    h_values = options["mesh"]["h"]
    lattice_n = options["mesh"]["lattice_n"]
    p_values = options["sweep"]["p_values"]
    amplitude = options["forcing"]["amplitude"]
    if not (math.isfinite(amplitude) and amplitude != 0.0):  # a zero forcing has no ratio
        raise DomainError(
            f"key 'amplitude' in section [forcing] must be finite and nonzero, got {amplitude}"
        )
    cfg = _solve_config(options)
    # one mesh and forcing per h, shared by every p and thread (their caches: fem.memo)
    forcings = {h: default_disk_forcing(build_mesh(domain, h), amplitude) for h in h_values}
    for h, f in forcings.items():
        for center, radius in _caccioppoli_kept(h):
            try:
                caccioppoli_balls(f.mesh, center, radius)
            except DomainError as exc:
                raise DomainError(
                    f"key 'domain' in section [mesh]: the {domain} mesh at h = {h} does not "
                    f"hold the Caccioppoli ball of center {center} and radius {radius}: {exc}"
                ) from None
    for p in p_values:  # each case's regularity report divides by this right side
        for h, f in forcings.items():
            with np.errstate(all="ignore"):  # an overflow is reported here, naming its key
                rhs = sum(conjugate_forcing_modulars(PowerLaw(p), f))
            if not math.isfinite(rhs):
                raise DomainError(
                    f"key 'amplitude' in section [forcing] is too large: at {amplitude} the "
                    f"forcing's conjugate modulars overflow (p = {p}, h = {h})"
                )
    # every Jacobian pattern before the first K is factored: factoring each K right
    # after its pattern raised the suite's peak RSS by 2.5 MB (102.8 -> 105.4)
    for f in forcings.values():
        quad_cache(f.mesh).free_pattern()
    # K^{-1} F, which every first stage's operator step at u = 0 takes: computed
    # here once per forcing, not by each thread that first reaches it
    for f in forcings.values():
        operator_solution(f)
    # each finer mesh's dof points, located once in the next-coarser mesh
    coarse_to_fine = sorted(h_values, reverse=True)
    located = {
        fine: locate_points(forcings[h].mesh, quad_cache(forcings[fine].mesh).dof_coords)
        for h, fine in zip(coarse_to_fine, coarse_to_fine[1:])
    }

    def case(p, h, coarse):
        spec = PowerLaw(p)
        f = forcings[h]
        report, stages = regularity_ratio(spec, f, cfg, lattice_n, coarse)
        rows = []
        traces = {}
        for k, stage in enumerate(stages):
            stage_spec = spec.truncate(stage.trunc_lo, stage.trunc_hi)
            lhs_energy = modular(stage_spec, stage.field, "sym_grad")
            rhs_energy = modular(stage_spec.conjugate_spec(), f, "value")
            rows.append(
                SweepRow(
                    "energy", p, h, stage.trunc_lo, stage.trunc_hi, lhs=lhs_energy,
                    rhs=rhs_energy, ratio=lhs_energy / rhs_energy, cauchy=stage.cauchy_prev,
                )
            )
            rows.append(
                SweepRow(
                    "regularity", p, h, stage.trunc_lo, stage.trunc_hi, lhs=stage.w12_total,
                    rhs=report.rhs, ratio=stage.w12_total / report.rhs, cauchy=stage.cauchy_prev,
                )
            )
            traces[f"p{p:g}_h{h:g}_stage{k}"] = stage.trace

        final = stages[-1]
        for (cx, cy), radius in _caccioppoli_kept(h):
            ratio = caccioppoli_ratio(spec, final.field, f, (cx, cy), radius)
            rows.append(
                SweepRow("caccioppoli", p, h, center_x=cx, center_y=cy, radius=radius, ratio=ratio)
            )
        if p < 2.0:
            ratio = interpolation_step_check(spec, final)
            rows.append(SweepRow("interp_step", p, h, final.trunc_lo, final.trunc_hi, ratio=ratio))
        return rows, traces, stages

    def work(p):
        blocks, stages = {}, None
        for h in coarse_to_fine:
            mesh = forcings[h].mesh
            coarse = None
            if stages is not None:  # the coarser stage fields at this mesh's dof points
                coarse = [
                    FemField.zeroed(mesh, evaluate_located(s.field, *located[h])) for s in stages
                ]
            rows, traces, stages = case(p, h, coarse)
            blocks[h] = rows, traces
        return [blocks[h] for h in h_values]

    rows, traces = [], {}
    for blocks in _parallel(work, p_values, jobs):
        for row_block, trace_block in blocks:
            rows.extend(row_block)
            traces.update(trace_block)
    return rows, traces


def regularity_contracts(rows: list, options: dict):
    h_values = options["mesh"]["h"]
    p_values = options["sweep"]["p_values"]
    energy_ratios = np.array([r.ratio for r in rows if r.experiment == "energy"])
    spread = float(energy_ratios.max() / np.median(energy_ratios))
    contracts = [
        ContractCheck(
            "energy_envelope",
            spread <= ENERGY_SPREAD,
            f"max/median = {spread:.2f} over {energy_ratios.size} stage ratios "
            f"(need <= {ENERGY_SPREAD:g})",
        )
    ]

    h_sorted = sorted(h_values, reverse=True)
    for p in p_values:
        finals = []
        for h in h_sorted:
            stage_rows = [r for r in rows if r.experiment == "regularity" and r.p == p and r.h == h]
            finals.append(stage_rows[-1].ratio)
            if h == h_sorted[-1]:
                stage_seq = [r.ratio for r in stage_rows]
        monotone = all(b <= a * 1.02 for a, b in zip(finals, finals[1:]))
        last_step = _rel_step(finals[-2], finals[-1])
        positive, note = _positive_finite(finals)
        contracts.append(
            ContractCheck(
                f"regularity_h_stability_p{p:g}",
                positive and (monotone or last_step <= REG_H_STEP),
                f"ratios over h: {[f'{v:.4g}' for v in finals]} (last step {last_step:.1%})"
                + note,
            )
        )
        stage_step = _rel_step(stage_seq[-2], stage_seq[-1])
        positive, note = _positive_finite(stage_seq[-2:])
        contracts.append(
            ContractCheck(
                f"regularity_stage_stability_p{p:g}",
                positive and stage_step <= REG_STAGE_STEP,
                f"last two stage ratios move {stage_step:.2%} (need <= {REG_STAGE_STEP:.0%})"
                + note,
            )
        )

    for p in p_values:
        cacc_rows = [r for r in rows if r.experiment == "caccioppoli" and r.p == p]
        cacc = np.array([r.ratio for r in cacc_rows])
        if cacc.size == 0:  # every ball below mesh resolution
            continue
        cacc_med = float(np.median(cacc))
        positive, note = _positive_finite(cacc)
        ok_env = positive and cacc.max() <= CACC_SPREAD * cacc_med
        per_h_max = [max((r.ratio for r in cacc_rows if r.h == h), default=None) for h in h_sorted]
        per_h_max = [v for v in per_h_max if v is not None]
        ok_stab = (
            len(per_h_max) < 2 or _rel_step(per_h_max[-2], per_h_max[-1]) <= CACC_H_STABILITY
        )
        contracts.append(
            ContractCheck(
                f"caccioppoli_envelope_p{p:g}",
                ok_env and ok_stab,
                f"max/median {cacc.max() / cacc_med:.2f}, per-h maxima "
                f"{[f'{v:.3g}' for v in per_h_max]}" + note,
            )
        )

    interp = [r.ratio for r in rows if r.experiment == "interp_step"]
    if interp:
        vals = np.array(interp)
        ok = bool(np.all(vals >= INTERP_MIN) and np.all(vals <= INTERP_MAX))
        contracts.append(
            ContractCheck(
                "interpolation_gap",
                ok,
                f"gap ratios in [{vals.min():.3f}, {vals.max():.3f}] (need >= 1, <= {INTERP_MAX:g})",
            )
        )

    return contracts, {
        "energy_spread": spread,
        "h_values": list(h_values),
        "p_values": list(p_values),
        "schedule": [list(s) for s in _solve_config(options).delta_schedule],
    }


# ---------------------------------------------------------------------------
# truncation suite
# ---------------------------------------------------------------------------

_DUAL_COMBOS = (
    (PowerLaw(2.0), 1.0, 1.0),
    (PowerLaw(3.0), 0.5, 2.0),
    (PowerLaw(1.3), 0.1, 10.0),
    (DeltaPower(1.5, 0.1), 0.2, 5.0),
    (DeltaPower(3.0, 1.0), 0.05, 20.0),
    (SumPower(1.5, 3.0), 0.5, 4.0),
)


def _test_functions(seed: int):
    rng = np.random.default_rng([seed, 77])
    cx, cy, sharp = rng.uniform(0.2, 0.8, 5), rng.uniform(0.2, 0.8, 5), rng.uniform(2, 30, 5)
    return {
        "sine": lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y),
        "spike": lambda X, Y: np.maximum(
            0.0, 1.0 - 10.0 * np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        ),
        "oscillation": lambda X, Y: 16
        * np.sin(4 * np.pi * X)
        * np.sin(4 * np.pi * Y)
        * X
        * (1 - X)
        * Y
        * (1 - Y),
        "bumps": lambda X, Y: sum(
            np.exp(-s * ((X - a) ** 2 + (Y - b) ** 2)) for a, b, s in zip(cx, cy, sharp)
        )
        * np.sin(np.pi * X)
        * np.sin(np.pi * Y),
        "pyramid": lambda X, Y: 4.0
        * np.minimum(np.minimum(X, 1 - X), np.minimum(Y, 1 - Y)),
    }


_LAMBDA_SWEEP = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)


class TruncationRow(NamedTuple):
    """One truncation measurement; the columns an experiment does not use are None.

    ``dual_gap`` rows are per (spec, trunc_lo, trunc_hi), ``lipschitz`` rows
    per (test function, level) and ``kdelta`` rows per (spec, trunc_lo,
    trunc_hi) of the truncated forcing; ``value`` is the gap, the discrete
    Lipschitz constant and the modular ratio respectively.
    """

    experiment: str
    label: str
    trunc_lo: float | None = None
    trunc_hi: float | None = None
    level: float | None = None
    value: float | None = None
    contained: int | None = None
    diff_modular: float | None = None
    bad_fraction: float | None = None


def run_truncation_suite(options: dict, seed: int, jobs: int):
    lattice_n = options["truncation"]["lattice_n"]
    rows = []

    # conjugation duality of truncations
    for spec, lo, hi in _DUAL_COMBOS:
        s = np.linspace(0.0, float(spec.d_phi(np.asarray(hi))), 256)
        gap = float(np.max(truncation_dual_gap(spec, lo, hi, s)))
        rows.append(TruncationRow("dual_gap", spec.describe(), lo, hi, value=gap))

    # Lipschitz truncation properties on the lattice
    bbox = (0.0, 1.0, 0.0, 1.0)
    spec_mod = PowerLaw(1.5)
    ratio_worst = 0.0
    for name, func in _test_functions(seed).items():
        gf = GridFunction.sample(func, bbox, lattice_n)
        scale = max(1.0, float(np.abs(gf.values).max()))
        for rec in truncation_modular_bounds(spec_mod, gf, _LAMBDA_SWEEP):
            disagree = np.abs(gf.values - rec.trunc.values) > 1e-12 * scale
            ratio_worst = _worst([ratio_worst, rec.value_ratio, rec.grad_ratio])
            rows.append(
                TruncationRow(
                    "lipschitz",
                    name,
                    level=rec.level,
                    value=discrete_lipschitz(rec.trunc),
                    contained=int(not np.any(disagree & ~rec.bad)),
                    diff_modular=rec.diff_modular,
                    bad_fraction=rec.bad.mean(),
                )
            )
    # The one contract input that is not a row: ROADMAP item 2's reference
    # re-store makes the two ratios TruncationRow columns (a CSV header change).
    options["truncation"]["modular_ratio_worst"] = ratio_worst

    # truncated-forcing modular bound
    mesh = build_mesh("unit_disk", 1.0 / 8.0)

    def rough(x, y):
        b = (1.0 - x * x - y * y) ** 2
        return np.stack([b * np.sin(4 * np.pi * x), b * np.cos(3 * np.pi * y)])

    f_rough = FemField.from_callable(mesh, rough, zero_boundary=True)
    for p in (1.3, 1.5, 3.0):
        spec = PowerLaw(p)
        base_mod = modular(spec.conjugate_spec(), f_rough, "grad")
        for lo, hi in ((0.5, 2.0), (0.1, 10.0)):
            fd = f_truncation_for_solver(f_rough, hi, spec, lattice_n)
            lhs = modular(spec.truncate(lo, hi).conjugate_spec(), fd, "grad")
            rhs = float(spec.phi(np.asarray(lo))) + base_mod
            rows.append(TruncationRow("kdelta", spec.describe(), lo, hi, value=lhs / rhs))
    return rows, {}


def truncation_contracts(rows: list, options: dict):
    gaps = [r.value for r in rows if r.experiment == "dual_gap"]
    dual_worst = _worst([0.0, *gaps])
    lipschitz = [r for r in rows if r.experiment == "lipschitz"]
    # recovery: exactly v at the top of the sweep, bounded on the way there
    recovery_ok = True
    for name in dict.fromkeys(r.label for r in lipschitz):
        diff_mods = [r.diff_modular for r in lipschitz if r.label == name]
        recovery_ok &= diff_mods[-1] == 0.0
        recovery_ok &= _worst(diff_mods) <= 2.0 * max(diff_mods[0], 1e-300)
    # absent when the rows are read back from a CSV (see run_truncation_suite)
    ratio_worst = options["truncation"].get("modular_ratio_worst", math.nan)
    kdelta_worst = _worst([0.0, *(r.value for r in rows if r.experiment == "kdelta")])
    return [
        ContractCheck(
            "truncation_duality",
            dual_worst <= DUAL_TOL,
            f"max gap {dual_worst:.2e} over 256 samples x {len(gaps)} combos",
        ),
        ContractCheck(
            "lipschitz_level_exact",
            all(r.value <= r.level * (1.0 + LIP_SLACK) for r in lipschitz),
            "discrete Lipschitz constant <= level",
        ),
        ContractCheck(
            "lipschitz_bad_set_containment",
            all(r.contained for r in lipschitz),
            "replacement confined to the dyadic bad set",
        ),
        ContractCheck(
            "lipschitz_recovery",
            recovery_ok,
            "difference modular bounded in the level and exactly 0 at the top",
        ),
        ContractCheck(
            "truncation_modular_envelope",
            ratio_worst <= MODULAR_ENVELOPE,
            f"value/gradient modular ratios <= {MODULAR_ENVELOPE:g} (worst {ratio_worst:.2f})",
        ),
        ContractCheck(
            "truncated_forcing_bound",
            kdelta_worst <= KDELTA_ENVELOPE,
            f"modular of truncated forcing gradient within {KDELTA_ENVELOPE:g}x of its bound "
            f"(worst {kdelta_worst:.2f})",
        ),
    ], {}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Key(NamedTuple):
    """One config key: the type that parses its text, its default and its minimum.

    The minimum bounds a count's value and a list's length; a list repeats no
    value unless ``repeats`` (a repeated h or p is one case run twice).
    """

    type: object
    default: object = None
    minimum: int | None = None
    repeats: bool = False


def float_list(text: str) -> list:
    """Floats separated by blanks or commas; at least one."""
    values = [float(token) for token in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


def _is_of(kind, value) -> bool:
    """Whether ``value`` is of a key's type: what ``kind`` makes of config text."""
    if isinstance(value, bool):
        return False
    if kind is float_list:
        return isinstance(value, list) and all(_is_of(float, v) for v in value)
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


def _text(value) -> str:
    return " ".join(map(str, value)) if isinstance(value, list) else str(value)


#: ``[spec]`` has no defaults: without it a suite runs the default roster.
_SPEC = {key: Key(kind) for key, kind in SPEC_KEYS.items()}
_SOLVER = {key: Key(kind, getattr(SolveConfig(), key)) for key, kind in SOLVER_KEYS.items()}
# a constant delta_lo with a rising delta_hi is a schedule, so these may repeat
_SCHEDULE = {
    "delta_lo": Key(float_list, [lo for lo, _ in DEFAULT_SCHEDULE], 2, repeats=True),
    "delta_hi": Key(float_list, [hi for _, hi in DEFAULT_SCHEDULE], 2, repeats=True),
}

# The modules a run imports on first use that ``import orliczfem`` does not load:
# numpy's lazy submodules (``default_rng`` loads numpy.random, ``np.unique``
# numpy.ma) and the SciPy modules the library imports inside the functions that
# use them.  A forcing truncation locates its lattice with a KD-tree and, when
# its bad set is not empty, truncates with the maximal function and envelopes.
_TRUNCATION_IMPORTS = ("scipy.fft", "scipy.ndimage", "scipy.spatial", "scipy.spatial.distance")


@dataclass(frozen=True)
class SuiteSpec:
    """A suite: its case work and contracts, its row type (the CSV columns), config and imports.

    ``runner(options, seed, jobs)`` returns the rows and Newton traces, and
    ``contracts(rows, options)`` the checks and ``summary.json`` envelopes from
    those alone (bar one input; see :func:`run_truncation_suite`).  The table
    maps each config section the suite takes to that section's keys.
    ``imports`` names the modules a run of the suite imports on first use;
    ``orliczfem run`` imports them before the suite starts, so that their cost
    is set-up and not the suite's.
    """

    name: str
    runner: object
    contracts: object
    row: type
    config: dict
    description: str
    imports: tuple

    def options(self, given: dict) -> dict:
        """``given`` checked against :attr:`config`, with every default filled in."""
        for section, block in given.items():
            keys = self.config.get(section)
            if keys is None:
                raise DomainError(f"section [{section}] does not apply to suite '{self.name}'")
            for key, value in block.items():
                if key not in keys:
                    raise DomainError(f"key '{key}' in section [{section}] is not recognised")
                kind = keys[key].type
                # [spec] goes to from_mapping, which also parses its values from text
                if not (_is_of(kind, value) or keys is _SPEC and isinstance(value, str)):
                    raise DomainError(
                        f"key '{key}' in section [{section}] must be {kind.__name__}, got {value!r}"
                    )
                minimum, is_list = keys[key].minimum, isinstance(value, list)
                if minimum is not None and (len(value) if is_list else value) < minimum:
                    bound = (
                        f"list at least {minimum} values" if is_list else f"be at least {minimum}"
                    )
                    raise DomainError(f"key '{key}' in section [{section}] must {bound}")
                if is_list and not keys[key].repeats and len(set(value)) < len(value):
                    raise DomainError(f"key '{key}' in section [{section}] must not repeat a value")
        filled = {
            section: {key: k.default for key, k in keys.items() if k.default is not None}
            | given.get(section, {})
            for section, keys in self.config.items()
        }
        return {section: block for section, block in filled.items() if block}

    @property
    def template(self) -> str:
        """A config that sets every key to its default, with ``[spec]`` commented out."""
        blocks = [f"[experiment]\nkind = {self.name}\nseed = 1\n"]
        for section, keys in self.config.items():
            lines = [f"[{section}]"] + [f"{key} = {_text(k.default)}" for key, k in keys.items()]
            if keys is _SPEC:
                example = to_text(DEFAULT_SPEC_ROSTER[0]).splitlines()
                lines = [f"# optional, in place of the default roster; keys: {', '.join(keys)}"]
                lines += [f"# {line}" for line in [f"[{section}]", *example]]
            blocks.append("".join(line + "\n" for line in lines))
        return "\n".join(blocks)


SUITES = {
    suite.name: suite
    for suite in (
        SuiteSpec(
            "indices_suite", run_indices_suite, indices_contracts, IndexRow, {"spec": _SPEC},
            "index formulas and scalar inequality sweeps on log grids",
            (),
        ),
        SuiteSpec(
            "hammer_suite", run_hammer_suite, hammer_contracts, HammerRow,
            {
                "hammer": {"pairs": Key(int, 10_000, 1), "fd_samples": Key(int, 1_000, 1)},
                "spec": _SPEC,
            },
            "monotonicity equivalence triple and derivative checks on random tensors",
            ("numpy.random",),
        ),
        SuiteSpec(
            "korn_suite", run_korn_suite, korn_contracts, KornRow,
            {
                "korn": {"ensemble": Key(int, 100, 1)},
                "mesh": {
                    "domain": Key(str, "unit_square"),
                    "h": Key(float_list, [0.25, 0.125], 2),
                },
                "sweep": {"p_values": Key(float_list, [1.3, 1.5, 2.0, 3.0], 1)},
            },
            "Korn/Poincare modular ratios on random zero-boundary ensembles",
            ("numpy.random", "numpy.ma"),
        ),
        SuiteSpec(
            "manufactured", run_manufactured, manufactured_contracts, ManufacturedRow,
            {"manufactured": {"h": Key(float_list, [0.25, 0.125, 0.0625], 2)}, "solver": _SOLVER},
            "solver convergence rates against manufactured solutions",
            ("numpy.ma", "scipy.sparse.linalg"),
        ),
        SuiteSpec(
            "regularity_sweep", run_regularity_sweep, regularity_contracts, SweepRow,
            {
                "sweep": {"p_values": Key(float_list, [1.3, 1.5, 2.0, 3.0, 4.0], 1)},
                "mesh": {
                    "domain": Key(str, "unit_disk"),
                    "h": Key(float_list, [0.25, 0.125, 0.0625], 2),
                    "lattice_n": Key(int, 64, 2),
                },
                "solver": _SOLVER,
                "schedule": _SCHEDULE,
                "forcing": {"amplitude": Key(float, 1.0)},
            },
            "energy, global regularity, Caccioppoli and interpolation ratios over p x h x stages",
            ("numpy.ma", "scipy.sparse.linalg", *_TRUNCATION_IMPORTS),
        ),
        SuiteSpec(
            "truncation_suite", run_truncation_suite, truncation_contracts, TruncationRow,
            {"truncation": {"lattice_n": Key(int, 64, 2)}},
            "truncation duality, lattice Lipschitz truncation, truncated-forcing bound",
            ("numpy.random", "numpy.ma", *_TRUNCATION_IMPORTS),
        ),
    )
}


def run_suite(kind: str, options: dict, seed: int, jobs: int = 1) -> SuiteResult:
    """Run suite ``kind``; ``options`` maps sections to keys, as in a config file.

    An unknown section or key, a count below its minimum, a list shorter than it or
    repeating a value where its key forbids that raises :class:`DomainError`, as do a
    worker-pool size ``jobs`` below 1 and a negative ``seed``; every key left out takes
    its default.
    """
    if kind not in SUITES:
        raise DomainError(f"unknown suite {kind!r}; valid: {', '.join(sorted(SUITES))}")
    if jobs < 1:
        raise DomainError(f"jobs (the worker-pool size) must be at least 1, got {jobs}")
    if seed < 0:  # numpy seeds its generators with non-negative integers only
        raise DomainError(f"seed must be at least 0, got {seed}")
    suite = SUITES[kind]
    options = suite.options(options)
    rows, traces = suite.runner(options, seed, jobs)
    contracts, summary = suite.contracts(rows, options)
    return SuiteResult(kind, rows, contracts, summary, traces)
