"""The fast demos and README's library quick start run to completion.

Demo 01 exercises the bisection-based conjugates, 02 the tensor maps, 03 the
stacked Korn ensembles, 04 the manufactured forcing and 06 the lattice
Lipschitz truncation; the slow 05 (regularity sweep) is left out.
"""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_nfunction_calculus",
        "02_stress_transform_maps",
        "03_korn_poincare_ensemble",
        "04_manufactured_convergence",
        "06_lipschitz_truncation",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
