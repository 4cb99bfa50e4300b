import math

import numpy as np
import pytest

from conftest import exact_dists
from spinfcs.circuit import ChainConfig
from spinfcs.ensemble import ImbalanceEnsemble
from spinfcs.errors import UndefinedMomentsError
from spinfcs.gates import FSimParams
from spinfcs.reference import (
    REFERENCE_DISTRIBUTIONS,
    compare_to_references,
    cycle1_moments,
    cycle2_small_mu,
)
from spinfcs.stats import moment_row


def cycle1_small_mu_skew_slope(theta: float) -> float:
    """d(skewness)/d(mu) at mu = 0: sqrt(2)(2 csc(theta) - 3 sin(theta)).

    Changes sign at theta = arcsin(sqrt(2/3)).
    """
    st = math.sin(theta)
    if st == 0.0:
        raise UndefinedMomentsError("undefined at theta=0")
    return math.sqrt(2.0) * (2.0 / st - 3.0 * st)


def cycle1_kurtosis_mu0(theta: float) -> float:
    """Excess kurtosis at mu = 0 after one cycle: 2 csc^2(theta) - 3."""
    st = math.sin(theta)
    if st == 0.0:
        raise UndefinedMomentsError("undefined at theta=0")
    return 2.0 / st**2 - 3.0


class TestCycleOne:
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.2 * np.pi, 0.3 * np.pi, 0.4 * np.pi, 0.45 * np.pi])
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.8, 1.5, math.inf])
    def test_matches_exact_two_site_distribution(self, theta, mu):
        config = ChainConfig(2, 1, FSimParams(theta, 0.8 * np.pi))
        dist = exact_dists(ImbalanceEnsemble(mu, 2), config)[-1]
        exact = moment_row(dist)
        closed = cycle1_moments(theta, mu)
        assert np.max(np.abs(np.array(closed) - np.array(exact))) < 1e-12

    def test_balanced_ensemble_is_symmetric(self):
        mean, _, skew, _ = cycle1_moments(0.35 * np.pi, 0.0)
        assert mean == 0.0
        assert skew == 0.0

    def test_kurtosis_closed_form_at_mu_zero(self):
        theta = 0.4 * np.pi
        assert cycle1_kurtosis_mu0(theta) == pytest.approx(
            -0.7888543819998315, abs=1e-15
        )
        _, _, _, kurt = cycle1_moments(theta, 0.0)
        assert kurt == pytest.approx(cycle1_kurtosis_mu0(theta), abs=1e-13)

    def test_skew_slope_crossover(self):
        theta_star = math.asin(math.sqrt(2.0 / 3.0))
        assert abs(cycle1_small_mu_skew_slope(theta_star)) < 1e-12
        assert cycle1_small_mu_skew_slope(theta_star - 0.1) > 0
        assert cycle1_small_mu_skew_slope(theta_star + 0.1) < 0
        # the full skewness changes sign with the slope at small imbalance
        mu = 1e-4
        assert cycle1_moments(theta_star - 0.1, mu)[2] > 0
        assert cycle1_moments(theta_star + 0.1, mu)[2] < 0

    def test_undefined_at_theta_zero(self):
        with pytest.raises(UndefinedMomentsError):
            cycle1_moments(0.0, 0.5)


class TestCycleTwo:
    def test_balanced_mean_vanishes(self):
        mean, _ = cycle2_small_mu(0.3 * np.pi, 0.7 * np.pi, 0.0)
        assert mean == 0.0

    def test_frozen_chain(self):
        mean, var = cycle2_small_mu(0.0, 0.7 * np.pi, 0.3)
        assert mean == 0.0
        assert var == 0.0

    @pytest.mark.parametrize(
        "theta,phi",
        [(0.4 * np.pi, 0.8 * np.pi), (0.3 * np.pi, 0.5 * np.pi), (0.17 * np.pi, 0.6 * np.pi)],
    )
    def test_variance_exact_at_mu_zero(self, theta, phi):
        config = ChainConfig(4, 2, FSimParams(theta, phi))
        dist = exact_dists(ImbalanceEnsemble(0.0, 4), config)[-1]
        _, var = cycle2_small_mu(theta, phi, 0.0)
        assert abs(moment_row(dist)[1] - var) < 1e-12

    def test_mean_leading_order(self):
        theta, phi, mu = 0.4 * np.pi, 0.8 * np.pi, 0.02
        config = ChainConfig(4, 2, FSimParams(theta, phi))
        dist = exact_dists(ImbalanceEnsemble(mu, 4), config)[-1]
        mean, _ = cycle2_small_mu(theta, phi, mu)
        assert abs(moment_row(dist)[0] - mean) < 2 * mu**3


class TestReferenceTable:
    def test_rows_are_the_frozen_constants(self):
        table = {ref.name: ref for ref in REFERENCE_DISTRIBUTIONS}
        assert table["GOE_TW"].skewness == 0.294
        assert table["GOE_TW"].kurtosis == 0.165
        assert table["BaikRains"].skewness == 0.359
        assert table["BaikRains"].kurtosis == 0.289
        assert table["GUE_TW"].skewness == 0.224
        assert table["GUE_TW"].kurtosis == 0.093
        assert table["NLFH"].skewness == 0.0
        assert table["NLFH"].kurtosis == 0.14
        assert table["CLL"].skewness == 0.0
        assert table["CLL"].kurtosis == (-0.03, 0.03)

    def test_zero_skew_input_rejects_stationary_class(self):
        rows = {r.name: r for r in compare_to_references(0.0, 0.0, 1e-3, 1e-3)}
        assert abs(rows["BaikRains"].z_skewness) > 100

    def test_aggregate_example(self):
        # a kurtosis of -0.05 +/- 0.02 is >5 sigma from 0.093 but within
        # 1 sigma of the [-0.03, 0.03] interval
        rows = {r.name: r for r in compare_to_references(0.0, -0.05, 0.02, 0.02)}
        assert abs(rows["GUE_TW"].z_kurtosis) > 5
        assert abs(rows["CLL"].z_kurtosis) <= 1.0 + 1e-12

    def test_inside_interval_scores_zero(self):
        rows = {r.name: r for r in compare_to_references(0.0, 0.01, 0.02, 0.02)}
        assert rows["CLL"].z_kurtosis == 0.0

    def test_requires_positive_sigmas(self):
        with pytest.raises(ValueError):
            compare_to_references(0.1, 0.1, 0.0, 0.1)
