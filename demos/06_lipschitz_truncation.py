"""Discrete Lipschitz truncation on a lattice.

A steep spike is replaced by a level-Lipschitz function that agrees with the
original outside the maximal-function bad set; raising the level recovers the
original exactly.  Run with:  python demos/06_lipschitz_truncation.py
"""

import numpy as np

from orliczfem import GridFunction, PowerLaw, lipschitz_truncate, truncation_modular_bounds
from orliczfem.truncation import bad_set, discrete_lipschitz, gradient_magnitude, maximal_function


def spike(X, Y):
    return np.maximum(0.0, 1.0 - 10.0 * np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2))


v = GridFunction.sample(spike, (0.0, 1.0, 0.0, 1.0), 64)
print("spike: lattice Lipschitz constant =", f"{discrete_lipschitz(v):.2f}")
# the maximal function M(|grad v|) does not depend on the level: compute it once
maximal = maximal_function(gradient_magnitude(v))

spec = PowerLaw(1.5)
print(f"\n{'level':>7s} {'Lip(T)':>7s} {'bad %':>6s} {'value ratio':>11s} {'grad ratio':>10s}")
for lam in (0.5, 1.0, 2.0, 8.0, 32.0, 128.0):
    trunc = lipschitz_truncate(v, bad_set(maximal, lam), lam)
    rv, rg, rd, frac = truncation_modular_bounds(spec, v, lam)
    print(
        f"{lam:7.1f} {discrete_lipschitz(trunc):7.3f} {100 * frac:6.1f} "
        f"{rv:11.3f} {rg:10.3f}"
    )

# agreement off the bad set is exact
lam = 2.0
bad = bad_set(maximal, lam)
trunc = lipschitz_truncate(v, bad, lam)
disagree = np.abs(v.values - trunc.values) > 1e-12
print("\nreplacement confined to the bad set:", not np.any(disagree & ~bad))
print("top-level truncation returns the function unchanged:",
      np.array_equal(lipschitz_truncate(v, bad_set(maximal, 1e4), 1e4).values, v.values))
