"""Import cost: the CLI loads neither scipy.signal nor sympy until a run needs them."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.signal", "scipy.stats", "sympy")

PROBE = f"""
import json, sys
import numpy as np
import orliczfem.cli
at_import = [m for m in {HEAVY!r} if m in sys.modules]
from orliczfem.manufactured import sine_bubble
case = sine_bubble(0.5)
x, y = np.array([0.5, 0.25]), np.array([0.5, 0.5])
print(json.dumps({{
    "at_import": at_import,
    "sympy_after_case": "sympy" in sys.modules,
    "u": case.u(x, y).tolist(),
    "strain": [e.tolist() for e in case.strain(x, y)],
}}))
"""


def test_cli_import_leaves_heavy_modules_unloaded_until_a_manufactured_case():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["at_import"] == []
    assert probe["sympy_after_case"]
    # u* = (0.5 sin(pi x) sin(pi y), 0); e11 = du1/dx, e22 = 0, e12 = du1/dy / 2
    r = 0.5 ** 0.5
    assert probe["u"] == [[0.5, 0.0], [pytest.approx(0.5 * r), 0.0]]
    e11, e22, e12 = probe["strain"]
    assert e11 == pytest.approx([0.0, 0.5 * math.pi * r], abs=1e-15)
    assert e22 == [0.0, 0.0]
    assert e12 == pytest.approx([0.0, 0.0], abs=1e-15)
