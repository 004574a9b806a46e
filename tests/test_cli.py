"""CLI contract: config parsing, exit codes, outputs, determinism."""

import filecmp
import json
import re
from pathlib import Path

import pytest

from orliczfem import suites
from orliczfem.cli import main, parse_config
from orliczfem.nfunctions import DomainError, from_mapping
from orliczfem.suites import DEFAULT_SPEC_ROSTER, SUITES, ContractCheck, SuiteResult, run_suite

MINIMAL = "[experiment]\nkind = indices_suite\nseed = 1\n\n[spec]\nvariant = power\np = 2.0\n"


def _write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_runs_clean(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    csv_lines = (out / "indices_suite.csv").read_text().splitlines()
    assert len(csv_lines) == 2  # header + one row
    summary = json.loads((out / "summary.json").read_text())
    assert summary["suite"] == "indices_suite"
    assert summary["passed"] is True


def test_malformed_key_exit_2_names_key(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "frobnitz = 3\n")
    assert main(["run", cfg]) == 2
    assert "frobnitz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, named",
    [
        (MINIMAL + "trunc_lo = -1\n", "trunc_lo"),
        (MINIMAL + "trunc_lo = inf\n", "trunc_lo"),
        (MINIMAL + "trunc_hi = 0\n", "trunc_lo"),
        (MINIMAL.replace("= power", "= delta_power") + "delta = nan\n", "delta must be"),
    ],
    ids=["trunc_lo_negative", "trunc_lo_infinite", "trunc_hi_zero", "delta_nan"],
)
def test_spec_out_of_range_exit_2_names_the_key(tmp_path, capsys, text, named):
    cfg = _write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_section_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "\n[warp]\nfactor = 9\n")
    assert main(["run", cfg]) == 2
    assert "warp" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    cfg = _write(tmp_path, "[experiment\nkind = indices_suite\n")
    assert main(["run", cfg]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "[experiment]\nkind = indices_suite\n")
    assert main(["run", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_kind_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "[experiment]\nkind = mystery\nseed = 1\n")
    assert main(["run", cfg]) == 2


def test_contract_violation_exit_1(tmp_path, capsys, monkeypatch):
    import orliczfem.cli as cli

    failing = SuiteResult(
        "indices_suite",
        [],
        [ContractCheck("doomed", False, "synthetic failure")],
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failing)
    cfg = _write(tmp_path, MINIMAL)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "doomed" in err


def test_list_suites_lists_all(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out
    assert len(out.strip().splitlines()) == 6


def test_list_suites_unknown_name(capsys):
    assert main(["list-suites", "nonsense"]) == 2


@pytest.mark.parametrize("name", sorted(SUITES))
def test_templates_roundtrip_through_parser(tmp_path, name):
    cfg = _write(tmp_path, SUITES[name].template, f"{name}.ini")
    kind, seed, jobs, out, options = parse_config(cfg)
    assert kind == name
    assert seed == 1


@pytest.mark.parametrize("name", sorted(SUITES))
def test_template_sets_every_default(tmp_path, name):
    template = SUITES[name].template
    *_, options = parse_config(_write(tmp_path, template, f"{name}.ini"))
    assert options == SUITES[name].options({})
    if "# [spec]" in template:  # the commented-out example is a valid [spec]
        uncommented = re.sub(r"^# (?=\[spec\]|\w+=)", "", template, flags=re.M)
        *_, options = parse_config(_write(tmp_path, uncommented, f"{name}_spec.ini"))
        assert from_mapping(options["spec"]) == DEFAULT_SPEC_ROSTER[0]


def test_sweep_template_is_the_acceptance_config(tmp_path, capsys):
    assert main(["list-suites", "regularity_sweep"]) == 0
    template = _write(tmp_path, capsys.readouterr().out)
    acceptance = Path(__file__).parents[1] / "perfbench" / "configs" / "sweep.ini"
    assert parse_config(template)[4] == parse_config(str(acceptance))[4]


@pytest.mark.parametrize(
    "kind,section,key,value",
    [
        ("hammer_suite", "hammer", "pairs", 0),
        ("hammer_suite", "hammer", "fd_samples", 0),
        ("korn_suite", "korn", "ensemble", 0),
        ("truncation_suite", "truncation", "lattice_n", 1),
        ("regularity_sweep", "mesh", "lattice_n", 1),
    ],
)
def test_count_below_minimum_is_config_error(tmp_path, capsys, kind, section, key, value):
    with pytest.raises(DomainError, match=rf"'{key}' in section \[{section}\] must be at least"):
        run_suite(kind, {section: {key: value}}, seed=1)
    text = f"[experiment]\nkind = {kind}\nseed = 1\n\n[{section}]\n{key} = {value}\n"
    cfg = _write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,section,values",
    [
        ("korn_suite", "mesh", {"h": [0.25]}),
        ("manufactured", "manufactured", {"h": [0.5]}),
        ("regularity_sweep", "mesh", {"h": [0.25]}),
        ("regularity_sweep", "schedule", {"delta_lo": [0.1], "delta_hi": [10.0]}),
    ],
)
def test_single_valued_list_is_config_error(tmp_path, capsys, kind, section, values):
    # one h fits no rate and one stage or mesh has no step to be stable over
    key = next(iter(values))
    message = rf"'{key}' in section \[{section}\] must list at least 2 values"
    with pytest.raises(DomainError, match=message):
        run_suite(kind, {section: values}, seed=1)
    lines = "".join(f"{k} = {v[0]}\n" for k, v in values.items())
    cfg = _write(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n\n[{section}]\n{lines}")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "must list at least 2 values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,section,key,values",
    [
        ("korn_suite", "mesh", "h", [0.5, 0.5]),
        ("korn_suite", "sweep", "p_values", [3.0, 1.5, 3.0]),
        ("manufactured", "manufactured", "h", [0.5, 0.5]),
        ("regularity_sweep", "mesh", "h", [0.5, 0.25, 0.5]),
        ("regularity_sweep", "sweep", "p_values", [3.0, 3.0]),
    ],
)
def test_repeated_list_value_is_config_error(tmp_path, capsys, kind, section, key, values):
    # a repeated h or p is one case run twice: no refinement step, contracts listed twice
    message = rf"'{key}' in section \[{section}\] must not repeat a value"
    with pytest.raises(DomainError, match=message):
        run_suite(kind, {section: {key: values}}, seed=1)
    line = f"{key} = {' '.join(map(str, values))}\n"
    cfg = _write(tmp_path, f"[experiment]\nkind = {kind}\nseed = 1\n\n[{section}]\n{line}")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "must not repeat a value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_schedule_lists_may_repeat():
    # a constant delta_lo with a rising delta_hi is a valid schedule
    schedule = {"delta_lo": [0.1, 0.1], "delta_hi": [10.0, 100.0]}
    options = SUITES["regularity_sweep"].options({"schedule": schedule})
    assert options["schedule"] == schedule


def test_negative_max_iters_exit_2(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "[experiment]\nkind = manufactured\nseed = 1\n\n[manufactured]\nh = 0.5 0.25\n\n"
        "[solver]\nmax_iters = -1\n",
    )
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "max_iters" in capsys.readouterr().err


def test_seed_override_lands_in_summary(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "s"
    assert main(["run", cfg, "--out", str(out), "--seed", "42"]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 42


def test_determinism_byte_identical(tmp_path):
    cfg = _write(
        tmp_path,
        "[experiment]\nkind = hammer_suite\nseed = 5\n\n[hammer]\npairs = 2000\nfd_samples = 200\n",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    assert filecmp.cmp(a / "hammer_suite.csv", b / "hammer_suite.csv", shallow=False)
    assert filecmp.cmp(a / "summary.json", b / "summary.json", shallow=False)


REDUCED_SWEEP = (
    "[experiment]\nkind = regularity_sweep\nseed = 5\n\n[sweep]\np_values = 1.5 3.0\n\n"
    "[mesh]\nh = 0.5 0.25\nlattice_n = 32\n"
)


KORN_SMALL = (
    "[experiment]\nkind = korn_suite\nseed = 5\n\n[korn]\nensemble = 10\n\n"
    "[mesh]\nh = 0.5 0.25\n\n[sweep]\np_values = 1.5 2.0\n"
)


def test_jobs_do_not_change_output(tmp_path):
    # the sweep is a solver suite: Newton traces, and per-mesh state memoised
    # in QuadCache; at h = 0.5 it legitimately misses its p = 3 h-stability
    # contract, so both runs exit 1
    for name, text, jobs, code in (("korn", KORN_SMALL, 4, 0), ("sweep", REDUCED_SWEEP, 2, 1)):
        cfg = _write(tmp_path, text, f"{name}.ini")
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(["run", cfg, "--out", str(a), "--jobs", "1"]) == code
        assert main(["run", cfg, "--out", str(b), "--jobs", str(jobs)]) == code
        for directory in (a, a / "trace"):  # korn_suite writes no traces
            names = sorted(path.name for path in directory.glob("*.csv"))
            _, mismatch, errors = filecmp.cmpfiles(
                directory, b / directory.relative_to(a), names, shallow=False
            )
            assert mismatch == [] and errors == []
        assert filecmp.cmp(a / "summary.json", b / "summary.json", shallow=False)
    assert len(list((tmp_path / "sweep_a" / "trace").glob("*.csv"))) == 24


def test_sweep_builds_one_mesh_per_h(tmp_path, monkeypatch):
    built = []
    build_mesh = suites.build_mesh

    def counted(domain, h):
        built.append(h)
        return build_mesh(domain, h)

    monkeypatch.setattr(suites, "build_mesh", counted)
    cfg = _write(tmp_path, REDUCED_SWEEP)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"]) == 1
    assert sorted(built) == [0.25, 0.5]  # shared by both p values


def test_korn_suite_builds_one_mesh_per_h(tmp_path, monkeypatch):
    built = []
    build_mesh = suites.build_mesh

    def counted(domain, h):
        built.append(h)
        return build_mesh(domain, h)

    monkeypatch.setattr(suites, "build_mesh", counted)
    text = KORN_SMALL.replace("p_values = 1.5 2.0", "p_values = 1.3 1.5 2.0 3.0")
    cfg = _write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"]) == 0
    assert sorted(built) == [0.25, 0.5]  # shared by all four p values


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_flag_below_one_exit_2_names_the_value(tmp_path, capsys, jobs):
    cfg = _write(tmp_path, KORN_SMALL)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs]) == 2
    assert f"got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_key_below_one_exit_2_names_the_value(tmp_path, capsys, jobs):
    cfg = _write(tmp_path, KORN_SMALL.replace("seed = 5\n", f"seed = 5\njobs = {jobs}\n"))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_suite_rejects_jobs_below_one():
    with pytest.raises(DomainError, match="at least 1, got 0"):
        run_suite("indices_suite", {}, seed=1, jobs=0)


@pytest.mark.parametrize(
    "text,where",
    [
        (REDUCED_SWEEP + "\n[solver]\nmax_iters = 1\n", r"stage \d \(trunc_lo="),
        (
            "[experiment]\nkind = manufactured\nseed = 1\n\n[manufactured]\nh = 0.5 0.25\n\n"
            "[solver]\nmax_iters = 1\n",
            "no convergence within 1 Newton iterations",
        ),
    ],
    ids=["continuation", "newton"],
)
def test_run_failure_exit_3_names_stage_iteration_residual(tmp_path, capsys, text, where):
    cfg = _write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"run failed: Newton iteration 1, residual \d\.\d{3}e[-+]\d+", err)
    assert re.search(where, err)


def test_parse_config_types(tmp_path):
    cfg = _write(
        tmp_path,
        "[experiment]\nkind = regularity_sweep\nseed = 7\njobs = 2\n\n"
        "[mesh]\nh = 0.5 0.25\nlattice_n = 32\n\n[schedule]\ndelta_lo = 0.1 0.01\ndelta_hi = 10 100\n",
    )
    kind, seed, jobs, out, options = parse_config(cfg)
    assert jobs == 2
    assert options["mesh"]["h"] == [0.5, 0.25]
    assert options["mesh"]["lattice_n"] == 32
    assert options["schedule"]["delta_lo"] == [0.1, 0.01]


def test_bad_value_type_named(tmp_path, capsys):
    cfg = _write(tmp_path, "[experiment]\nkind = indices_suite\nseed = banana\n")
    assert main(["run", cfg]) == 2
    assert "seed" in capsys.readouterr().err
