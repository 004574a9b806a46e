"""Korn and Poincare modular inequalities on random zero-boundary fields.

The Korn ratio compares the modular of the full gradient with that of the
symmetric gradient; the constant depends only on the doubling data of the
growth law.  Each ensemble of 100 fields is drawn and evaluated as one stack.
Run with:  python demos/03_korn_poincare_ensemble.py
"""

import numpy as np

from orliczfem import (
    FemField,
    PowerLaw,
    build_mesh,
    korn_ratio,
    korn_ratio_meanfree,
    modular,
    poincare_ratio,
    random_zero_boundary_field,
)

rng = np.random.default_rng(7)
print(f"{'p':>4s} {'h':>6s} {'korn max':>9s} {'mean-free':>9s} {'poincare':>9s}")
for p in (1.3, 1.5, 2.0, 3.0):
    spec = PowerLaw(p)
    for h in (0.25, 0.125):
        mesh = build_mesh("unit_square", h)
        fields = random_zero_boundary_field(mesh, rng, count=100)
        korn = korn_ratio(spec, fields).max()
        meanfree = korn_ratio_meanfree(spec, fields).max()
        poincare = poincare_ratio(spec, fields).max()
        print(f"{p:4.1f} {h:6.3f} {korn:9.3f} {meanfree:9.3f} {poincare:9.4f}")

print("\nA field with symmetric Jacobian saturates the Korn ratio at 1, up to rounding:")
mesh = build_mesh("unit_square", 0.125)
grad_field = FemField.from_callable(
    mesh, lambda x, y: np.stack([2 * x * y + y * y, x * x + 2 * x * y])
)
spec = PowerLaw(1.5)
# not zero on the boundary, so the modulars' quotient rather than korn_ratio
ratio = modular(spec, grad_field, "grad") / modular(spec, grad_field, "sym_grad")
print(f"  ratio = {ratio:.12f}")
