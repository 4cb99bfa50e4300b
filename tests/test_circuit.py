import numpy as np
import pytest

from spinfcs.circuit import ChainConfig
from spinfcs.gates import FSimParams


class TestChainConfig:
    def test_rejects_odd_or_tiny_chains(self):
        params = FSimParams(0.1, 0.1)
        with pytest.raises(ValueError):
            ChainConfig(5, 1, params)
        with pytest.raises(ValueError):
            ChainConfig(0, 1, params)
        with pytest.raises(ValueError):
            ChainConfig(4, -1, params)

    def test_window_is_the_light_cone_of_the_center_cut(self):
        params = FSimParams(0.1, 0.1)
        assert ChainConfig(6, 0, params).window == (3, 3)  # no cycle, no site
        assert ChainConfig(4, 3, params).window == (0, 4)  # the whole chain
        assert ChainConfig(46, 4, params).window == (19, 27)


class TestAnisotropy:
    def test_heisenberg_point_exact(self):
        assert FSimParams(0.4 * np.pi, 0.8 * np.pi).anisotropy() == 1.0

    def test_easy_plane_value(self):
        delta = FSimParams(0.4 * np.pi, 0.1 * np.pi).anisotropy()
        assert abs(delta - 0.1645) < 0.0005

    def test_easy_axis_value(self):
        delta = FSimParams(0.17 * np.pi, 0.6 * np.pi).anisotropy()
        assert abs(delta - 1.589) < 0.002

    def test_invariant_under_theta_reflection(self):
        # sin(pi - theta) = sin(theta): literal equality of the ratio
        a = FSimParams(0.3 * np.pi, 0.5 * np.pi).anisotropy()
        b = FSimParams(np.pi - 0.3 * np.pi, 0.5 * np.pi).anisotropy()
        assert a == b
