"""The radial calculus: t = 0 limits of the coefficients and psi''."""

import numpy as np
import pytest

from orliczfem import radial
from orliczfem.nfunctions import DeltaPower, PowerLaw, SumPower

TRUNCATED = [
    base.truncate(1e-3, 1e3)
    for base in (PowerLaw(1.5), PowerLaw(3.0), DeltaPower(3.0, 1.0), SumPower(1.5, 3.0))
]


@pytest.mark.parametrize("spec", TRUNCATED, ids=["power1.5", "power3", "delta_power3", "sum1.5_3"])
def test_zero_limit_matches_small_t(spec):
    t = np.array([0.0, 1e-12])
    first, second = radial.coefficients(spec, t)
    b1, b2 = radial.transform_coefficients(spec, t)
    for values in (radial.ratio(spec, t), first, second, b1, b2):
        assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_psi_second_matches_central_difference(spec):
    # exponents -1.95, -1.85, ...: a factor >= 1.12 away from every roster kink
    t = 10.0 ** np.linspace(-1.95, 1.95, 40)
    h = 1e-5 * t

    def psi_prime(s):
        return np.sqrt(spec.d_phi(s) * s)

    fd = (psi_prime(t + h) - psi_prime(t - h)) / (2.0 * h)
    _, b2 = radial.transform_coefficients(spec, t)
    assert b2 == pytest.approx(fd, rel=1e-6)
