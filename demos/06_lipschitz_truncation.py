"""Discrete Lipschitz truncation on a lattice.

A steep spike is replaced by a level-Lipschitz function that agrees with the
original outside the maximal-function bad set; raising the level recovers the
original exactly.  Run with:  python demos/06_lipschitz_truncation.py
"""

import numpy as np

from orliczfem import GridFunction, PowerLaw, truncation_modular_bounds
from orliczfem.truncation import discrete_lipschitz


def spike(X, Y):
    return np.maximum(0.0, 1.0 - 10.0 * np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2))


v = GridFunction.sample(spike, (0.0, 1.0, 0.0, 1.0), 64)
print("spike: lattice Lipschitz constant =", f"{discrete_lipschitz(v):.2f}")
# one level sweep: the maximal function M(|grad v|) does not depend on the
# level, so the sweep computes it once
records = truncation_modular_bounds(PowerLaw(1.5), v, (0.5, 1.0, 2.0, 8.0, 32.0, 128.0, 1e4))

print(f"\n{'level':>7s} {'Lip(T)':>7s} {'bad %':>6s} {'value ratio':>11s} {'grad ratio':>10s}")
for rec in records:
    print(
        f"{rec.level:7.1f} {discrete_lipschitz(rec.trunc):7.3f} {100 * rec.bad.mean():6.1f} "
        f"{rec.value_ratio:11.3f} {rec.grad_ratio:10.3f}"
    )

# agreement off the bad set is exact
at_two = records[2]
disagree = np.abs(v.values - at_two.trunc.values) > 1e-12
print("\nreplacement confined to the bad set:", not np.any(disagree & ~at_two.bad))
print("top-level truncation returns the function unchanged:",
      np.array_equal(records[-1].trunc.values, v.values))
