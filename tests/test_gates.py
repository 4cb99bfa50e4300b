import math

import numpy as np
import pytest

from spinfcs.errors import UndefinedAnisotropyError
from spinfcs.gates import FSimParams, PhaseConvention, wrap_angle, wrap_angles


def test_wrap_angle_range():
    for x in (-7.0, -math.pi, 0.0, 1.0, math.pi, 2.5 * math.pi, 9.9):
        y = wrap_angle(x)
        assert -math.pi < y <= math.pi
        assert math.isclose(math.sin(y), math.sin(x), abs_tol=1e-12)
        assert math.isclose(math.cos(y), math.cos(x), abs_tol=1e-12)


def test_wrap_angle_negative_pi_maps_to_pi():
    assert wrap_angle(-math.pi) == math.pi


def test_array_wrap_is_the_scalar_wrap_bit_for_bit():
    # odd multiples of pi are the ties of math.remainder, where the quotient
    # parity decides the sign before -pi is mapped to pi
    odd = (2 * np.arange(-40, 41) + 1) * math.pi
    edges = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 1e300, -1e-300]
    x = np.concatenate([
        odd,
        np.nextafter(odd, np.inf),
        np.nextafter(odd, -np.inf),
        edges,
        np.random.default_rng(4).normal(0.0, 30.0, 20000),
    ])
    want = np.array([wrap_angle(float(v)) for v in x])
    got = wrap_angles(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
    block = wrap_angles(x[:20000].reshape(4, -1))
    assert np.array_equal(block.ravel(), want[:20000])
    with pytest.raises(ValueError):
        wrap_angles([0.0, math.nan])


def test_angles_stored_reduced():
    p = FSimParams(2.5 * math.pi, -3.5 * math.pi)
    assert -math.pi < p.theta <= math.pi
    assert -math.pi < p.phi <= math.pi
    assert math.isclose(p.theta, 0.5 * math.pi)
    assert math.isclose(p.phi, 0.5 * math.pi)


def test_nonfinite_angle_rejected():
    with pytest.raises(ValueError):
        FSimParams(math.nan, 0.0)
    with pytest.raises(ValueError):
        FSimParams(0.0, math.inf)


def test_convention_accepts_strings():
    p = FSimParams(0.1, 0.2, "split")
    assert p.convention is PhaseConvention.SPLIT


def test_anisotropy_undefined_at_theta_zero():
    with pytest.raises(UndefinedAnisotropyError):
        FSimParams(0.0, 0.3).anisotropy()
