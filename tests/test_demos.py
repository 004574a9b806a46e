"""The fast demos run to completion.

Demo 01 exercises the bisection-based conjugates, 02 the tensor maps and 04
the manufactured forcing; the slow 03, 05 and 06 are left out.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["01_nfunction_calculus", "02_stress_transform_maps", "04_manufactured_convergence"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
