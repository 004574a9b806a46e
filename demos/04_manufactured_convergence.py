"""Solver verification against manufactured solutions.

Take the sine bubble u* = (sin(pi x) sin(pi y), 0), whose strain and its
derivatives are written in closed form, assemble the forcing
f = -div(stress(eps u*)) by the chain rule, solve, and measure the H1 error
under refinement.  Degree-2 elements give second-order rates for the
quadratic law and at least first order for the nonlinear ones.
Run with:  python demos/04_manufactured_convergence.py
"""

from orliczfem import DeltaPower, PowerLaw
from orliczfem.manufactured import convergence_study, sine_bubble

case = sine_bubble()
h_values = [1 / 4, 1 / 8, 1 / 16]

runs = [
    ("quadratic", PowerLaw(2.0).truncate(1e-4, 1e4)),
    ("cubic", PowerLaw(3.0).truncate(1e-4, 1e4)),
    ("p = 1.5", PowerLaw(1.5).truncate(1e-2, 1e2)),
    ("shifted cubic", DeltaPower(3.0, 1.0).truncate(1e-4, 1e4)),
]

for label, spec in runs:
    errors, rates = convergence_study(spec, case, h_values)
    err_txt = "  ".join(f"{e:.3e}" for e in errors)
    rate_txt = "  ".join(f"{r:.2f}" for r in rates)
    print(f"{label:14s} H1 errors: {err_txt}   rates: {rate_txt}")
