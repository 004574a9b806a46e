"""The tensor maps: stress, transform, derivatives, and their equivalence.

Run with:  python demos/02_stress_transform_maps.py
"""

import numpy as np

from orliczfem import PowerLaw, a_map, da_map, frobenius, hammer_triple, v_inv, v_map
from orliczfem.tensors import random_sym

rng = np.random.default_rng(2024)
spec = PowerLaw(3.0)

# The stress of a symmetric matrix is radial: phi'(|P|) P / |P|.
P = np.array([[2.0, 0.0], [0.0, 2.0]])
print("stress of 2*Id under the cubic law:\n", a_map(spec, P))

# v_map is invertible; the round trip is accurate to the bisection tolerance.
samples = random_sym(rng, 5, scale=(0.1, 10.0))
back = v_inv(spec, v_map(spec, samples))
print("\nround-trip error of v_inv(v_map(P)):", frobenius(back - samples).max())

# The three-way equivalence: over many random pairs the pairwise ratios of
#   (stress difference) : (argument difference),
#   |transform difference|^2,
#   phi''(|P|+|Q|) |P-Q|^2
# stay inside a fixed interval depending only on the index pair.
P = random_sym(rng, 100_000, scale=(1e-2, 1e2))
Q = random_sym(rng, 100_000, scale=(1e-2, 1e2))
trip = hammer_triple(spec, P, Q)
r1 = trip.lhs / trip.mid
r2 = trip.mid / trip.rhs
print("\nmonotonicity-equivalence ratios over 1e5 random pairs:")
print(f"  lhs/mid in [{r1.min():.4f}, {r1.max():.4f}]")
print(f"  mid/rhs in [{r2.min():.4f}, {r2.max():.4f}]")

# Derivative check: the closed-form directional derivative of the stress
# against central finite differences.
P = random_sym(rng, 1000, scale=(0.1, 10.0))
H = random_sym(rng, 1000, scale=(1.0, 1.0))
h = 1e-5
fd = (a_map(spec, P + h * H) - a_map(spec, P - h * H)) / (2 * h)
exact = da_map(spec, P, H)
print("\nmax relative FD error of the stress derivative:", float(
    np.max(frobenius(fd - exact) / frobenius(exact))
))
