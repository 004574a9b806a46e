"""The fast demos run to completion.

Demo 01 exercises the bisection-based conjugates, 02 the tensor maps, 03 the
stacked Korn ensembles, 04 the manufactured forcing and 06 the lattice
Lipschitz truncation; the slow 05 (regularity sweep) is left out.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


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
