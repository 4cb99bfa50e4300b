import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from spinfcs import stats
from spinfcs.circuit import ChainConfig
from conftest import exact_dists, mass_at
from spinfcs.ensemble import ImbalanceEnsemble
from spinfcs.errors import DegenerateWeightError
from spinfcs.gates import FSimParams
from spinfcs.stats import (
    MomentReport,
    central_moments,
    collapse_residual,
    collapse_scan,
    fit_dynamical_exponent,
    jackknife_sigma,
    moment_row,
    weighted_cycle_average,
)
from spinfcs.stats import _monotone_pl_residual


def on_grid(probs):
    """(M grid -2t..2t, probs) of the 2t+1 masses `probs`."""
    t = len(probs) // 2
    return 2 * np.arange(-t, t + 1), np.asarray(probs, dtype=float)


POINT_MASS = on_grid([0.0, 0.0, 1.0])  # all at M = 2


def symmetrized(dist):
    """`dist` with the masses of M and -M averaged."""
    values, probs = dist
    return values, 0.5 * (probs + probs[::-1])


class TestCentralMoments:
    def test_point_mass(self):
        alpha = central_moments(POINT_MASS)
        assert alpha[1] == 2.0
        assert alpha[2] == alpha[3] == alpha[4] == 0.0

    def test_cycle_one_variance_formula(self):
        for theta in (0.1 * np.pi, 0.25 * np.pi, 0.4 * np.pi):
            for mu in (0.0, 0.4, 1.2):
                config = ChainConfig(2, 1, FSimParams(theta, 0.8 * np.pi))
                dist = exact_dists(ImbalanceEnsemble(mu, 2), config)[-1]
                alpha = central_moments(dist)
                expected = (
                    2
                    * math.sin(theta) ** 2
                    * (1 + math.cos(2 * theta) * math.tanh(mu) ** 2)
                )
                assert abs(alpha[2] - expected) < 1e-12

    def test_cycle_two_small_mu_mean(self):
        theta, phi = 0.4 * np.pi, 0.8 * np.pi
        config = ChainConfig(4, 2, FSimParams(theta, phi))

        def leading(mu):
            return (
                2
                * mu
                * math.sin(theta) ** 2
                * (math.cos(theta) ** 4 * (3 + math.cos(phi)) + 2 * math.sin(theta) ** 2)
            )

        errors = {}
        for mu in (0.01, 0.02):
            dist = exact_dists(ImbalanceEnsemble(mu, 4), config)[-1]
            errors[mu] = abs(moment_row(dist)[0] - leading(mu))
            assert errors[mu] < 2 * mu**3  # next correction is O(mu^3)
        assert errors[0.02] / errors[0.01] == pytest.approx(8.0, rel=0.2)

    def test_grid_tuple_requires_symmetry(self):
        with pytest.raises(ValueError):
            central_moments((np.array([0.0, 2.0]), np.array([0.5, 0.5])))

    @pytest.mark.parametrize("grid", [[-2, 2], [-3, -1, 1, 3], []])
    def test_a_symmetric_grid_without_zero_is_refused(self, grid):
        probs = np.full(len(grid), 1.0 / max(1, len(grid)))
        with pytest.raises(ValueError, match="hold 0"):
            central_moments((np.array(grid, dtype=float), probs))

    @staticmethod
    def exact_row(grid, probs):
        """[variance, skewness, excess kurtosis] of the float masses `probs`
        by the same sums in rational arithmetic."""
        ps = [Fraction(float(p)) for p in probs]
        ms = [Fraction(int(v)) for v in grid]
        mean = sum(p * v for p, v in zip(ps, ms))
        var, a3, a4 = (
            sum(p * (v - mean) ** k for p, v in zip(ps, ms)) for k in (2, 3, 4)
        )
        return [float(var), float(a3) / float(var) ** 1.5, float(a4 / var**2) - 3.0]

    @pytest.mark.parametrize("case", ["shifted", "near-point"])
    def test_moments_far_from_zero_do_not_cancel(self, case):
        # a mean far from 0 must cost no cancellation: summed as raw powers,
        # the shifted kurtoses lost up to 6e-10 and the near-point variance
        # came out -2.8e-14
        if case == "shifted":  # one histogram at every place on the grid
            grid = 2.0 * np.arange(-24, 25)
            stack = np.zeros((grid.size - 4, grid.size))
            for s in range(grid.size - 4):
                stack[s, s : s + 5] = [0.1, 0.25, 0.35, 0.2, 0.1]
        else:  # mass 1e-15 one step away from a point
            grid = 2.0 * np.arange(-7, 8)
            stack = np.zeros((1, grid.size))
            stack[0, grid == 12] = 1.0 - 1e-15
            stack[0, grid == 14] = 1e-15
        got = moment_row((grid, stack))[:, 1:]
        if case == "near-point":
            assert got[0, 0] == pytest.approx(4e-15 * (1.0 - 1e-15), rel=1e-12)
        want = np.array([self.exact_row(grid, probs) for probs in stack])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestSkewKurt:
    def test_two_point_symmetric(self):
        dist = on_grid([0.5, 0.0, 0.5])
        _, _, s, q = moment_row(dist)
        assert s == 0.0
        assert q == -2.0

    def test_reference_kurtosis_cycle_one(self):
        theta = 0.4 * np.pi
        config = ChainConfig(2, 1, FSimParams(theta, 0.8 * np.pi))
        dist = exact_dists(ImbalanceEnsemble(0.0, 2), config)[-1]
        q = moment_row(dist)[3]
        assert abs(q - (2 / math.sin(theta) ** 2 - 3)) < 1e-12
        assert abs(q - (-0.7888543819998315)) < 1e-12

    def test_four_qubit_two_cycle_imbalanced(self):
        config = ChainConfig(4, 2, FSimParams(0.4 * np.pi, 0.8 * np.pi))
        dist = exact_dists(ImbalanceEnsemble(0.5, 4), config)[-1]
        q = moment_row(dist)[3]
        assert abs(q - (-0.30867052)) < 1e-7


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        dist = on_grid([0.25, 0.5, 0.25])
        assert np.array_equal(symmetrized(dist)[1], dist[1])

    def test_point_mass_splits(self):
        sym = symmetrized(POINT_MASS)
        assert mass_at(sym, 2) == 0.5
        assert mass_at(sym, -2) == 0.5
        assert moment_row(sym)[2] == 0.0

    def test_sampled_data_skewness_exactly_zero(self):
        rng = np.random.default_rng(42)
        samples = 2 * rng.integers(-3, 4, size=5001)
        counts = np.bincount(samples // 2 + 3, minlength=7)
        dist = on_grid(counts / counts.sum())
        assert moment_row(symmetrized(dist))[2] == 0.0

    def test_every_distribution_symmetrizes_to_zero_skew(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = int(rng.integers(1, 6))
            probs = rng.random(2 * t + 1)
            probs /= probs.sum()
            dist = on_grid(probs)
            _, var, skew, _ = moment_row(symmetrized(dist))
            if var > 0:
                assert skew == 0.0


class TestJackknife:
    def test_identical_estimates_give_zero(self):
        result = jackknife_sigma(lambda xs: 1.5, [1, 2, 3, 4])
        assert result.sigma == 0.0

    def test_two_state_closed_form(self):
        # deleting one of two states leaves the other: sigma = |a - b| / 2
        result = jackknife_sigma(lambda xs: float(xs[0]), [3.0, 8.0])
        assert result.sigma == pytest.approx(abs(3.0 - 8.0) / 2)

    def test_gaussian_mean_oracle(self):
        rng = np.random.default_rng(11)
        true_sigma, n_states = 2.0, 40
        sigmas = []
        for _ in range(200):
            xs = list(true_sigma * rng.standard_normal(n_states))
            sigmas.append(jackknife_sigma(lambda s: float(np.mean(s)), xs).sigma)
        expected = true_sigma / math.sqrt(n_states)
        assert abs(np.mean(sigmas) - expected) / expected < 0.1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        xs = list(rng.standard_normal(12))
        stat = lambda s: float(np.var(s))
        a = jackknife_sigma(stat, xs)
        perm = [xs[i] for i in rng.permutation(12)]
        b = jackknife_sigma(stat, perm)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-15)

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            jackknife_sigma(lambda s: 0.0, [1.0])

    def test_bias_estimate_sign(self):
        # variance with 1/N normalization is biased low; jackknife sees it
        rng = np.random.default_rng(9)
        xs = list(rng.standard_normal(30))
        result = jackknife_sigma(lambda s: float(np.mean(np.square(s)) - np.mean(s) ** 2), xs)
        assert result.bias < 0.0

    def test_vector_statistic_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        xs = list(rng.standard_normal((25, 3)))

        def stat(s):
            a = np.array(s)
            return np.array([a[:, 0].mean(), a[:, 1].var(), np.mean(a[:, 2] ** 3)])

        vector = jackknife_sigma(stat, xs)
        assert vector.sigma.shape == vector.bias.shape == (3,)
        for c in range(3):
            scalar = jackknife_sigma(lambda s: float(stat(s)[c]), xs)
            assert isinstance(scalar.sigma, float)
            assert isinstance(scalar.bias, float)
            assert vector.sigma[c] == scalar.sigma
            assert vector.bias[c] == scalar.bias


class TestWeightedAverage:
    def test_equal_sigmas(self):
        avg, sig = weighted_cycle_average([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        assert avg == pytest.approx(2.0)
        assert sig == pytest.approx(0.5 / math.sqrt(3))

    def test_infinite_sigma_drops_out(self):
        avg, sig = weighted_cycle_average([1.0, 100.0], [0.1, math.inf])
        assert avg == pytest.approx(1.0)
        assert sig == pytest.approx(0.1)

    def test_hand_computed_mixture(self):
        values = [0.2, -0.1, 0.05]
        sigmas = [0.02, 0.05, 0.01]
        w = [1 / s**2 for s in sigmas]
        expected = sum(wi * vi for wi, vi in zip(w, values)) / sum(w)
        avg, sig = weighted_cycle_average(values, sigmas)
        assert avg == pytest.approx(expected, rel=1e-12)
        assert sig == pytest.approx(1 / math.sqrt(sum(w)), rel=1e-12)

    def test_zero_sigma_rejected(self):
        with pytest.raises(DegenerateWeightError):
            weighted_cycle_average([1.0, 2.0], [0.0, 1.0])


class TestExponentFit:
    def test_noiseless_superdiffusive_power_law(self):
        t = np.arange(10, 31)
        fit = fit_dynamical_exponent(t, 3.7 * t ** (2 / 3), window=(10, 30))
        assert abs(fit.z - 1.5) < 1e-12
        assert fit.sigma_z < 1e-10

    def test_ballistic_power_law(self):
        t = np.arange(10, 25)
        fit = fit_dynamical_exponent(t, 0.9 * t, window=(10, 24))
        assert abs(fit.z - 1.0) < 1e-12

    def test_scale_invariance(self):
        t = np.arange(5, 20)
        v = 1.7 * t**0.61
        z1 = fit_dynamical_exponent(t, v, window=(5, 19)).z
        z2 = fit_dynamical_exponent(t, 13.0 * v, window=(5, 19)).z
        assert abs(z1 - z2) < 1e-12

    def test_weighted_fit_sigma(self):
        rng = np.random.default_rng(1)
        t = np.arange(8, 40)
        sigma = 0.05 * np.ones_like(t, dtype=float)
        v = 2.0 * t**0.65 + sigma * rng.standard_normal(t.size)
        fit = fit_dynamical_exponent(t, v, sigma, window=(8, 39))
        assert abs(fit.z - 1 / 0.65) < 5 * fit.sigma_z

    def test_window_and_positivity_errors(self):
        with pytest.raises(ValueError):
            fit_dynamical_exponent([1, 2, 3], [1, 2, 3], window=(10, 20))
        with pytest.raises(ValueError):
            fit_dynamical_exponent([10, 11, 12], [1.0, -1.0, 2.0], window=(10, 12))


class TestCollapse:
    @staticmethod
    def synthetic_series(gamma_true):
        t = np.arange(4, 30)
        series = []
        for mu in (0.2, 0.4, 0.6, 0.8, 1.0):
            x = mu * t**gamma_true
            series.append((mu, t, np.tanh(x - 1.0)))
        return series

    @pytest.mark.parametrize("gamma_true", [2 / 3, 1 / 3])
    def test_minimum_at_construction_exponent(self, gamma_true):
        series = self.synthetic_series(gamma_true)
        gammas = np.round(np.arange(0.3, 1.0001, 1 / 30), 6)
        grid, res = collapse_scan(series, gammas, t_min=4)
        assert grid[int(np.argmin(res))] == pytest.approx(gamma_true, abs=1 / 30)

    def test_needs_two_series(self):
        t = np.arange(4, 20)
        with pytest.raises(ValueError):
            collapse_residual([(0.5, t, np.tanh(t / 10))], 0.5, t_min=4)

    def test_cutoff_is_applied(self):
        series = self.synthetic_series(2 / 3)
        # cutting at t_min above the data range leaves nothing
        with pytest.raises(ValueError):
            collapse_residual(series, 0.5, t_min=100)

    def test_linear_collapse_fits_exactly(self):
        # a linear scaling function is inside the piecewise-linear model
        t = np.arange(4, 30)
        series = [(mu, t, 0.3 * mu * t**0.5 - 0.2) for mu in (0.25, 0.5, 1.0)]
        assert collapse_residual(series, 0.5, t_min=4) < 1e-12

    @pytest.mark.parametrize("gamma", [400.0, math.nan, math.inf])
    def test_non_finite_scaling_variable_is_refused(self, gamma):
        # 8^400 overflows; NaN and inf would score a perfect residual of 0
        series = self.synthetic_series(0.5)
        with pytest.raises(ValueError, match=f"gamma {gamma!r} makes"):
            collapse_residual(series, gamma, t_min=4)

    def test_non_finite_value_is_refused_with_its_mu_and_cycle(self):
        # the skewness of a zero variance is NaN, which left the fit's
        # active-set solver with no variable to bind
        series = self.synthetic_series(0.5)
        mu, t, values = series[1]
        series[1] = (mu, t, np.where(t == 6, math.nan, values))
        with pytest.raises(ValueError, match=r"nan of mu 0\.4 at cycle 6 is not"):
            collapse_residual(series, 0.5, t_min=4)
        assert np.isfinite(collapse_residual(series, 0.5, t_min=7))  # cut away

    def test_more_knots_than_points_change_nothing(self):
        t = np.arange(4, 12)
        series = [(mu, t, np.tanh(mu * t**0.5 - 1.0)) for mu in (0.3, 0.7)]
        points = 2 * t.size
        exact = collapse_residual(series, 0.5, t_min=4, n_knots=points)
        assert exact < 1e-12  # one knot per point fits every monotone series
        many = collapse_residual(series, 0.5, t_min=4, n_knots=50 * points)
        assert many == exact

    def test_smooth_collapse_beats_wrong_exponent(self):
        series = self.synthetic_series(0.5)
        at_true = collapse_residual(series, 0.5, t_min=4)
        assert at_true < 1e-2
        assert at_true < 0.2 * collapse_residual(series, 0.9, t_min=4)


def lsq_reference(x, y, n_knots):
    """The normalized SSR of the monotone piecewise-linear fit by SciPy's
    bounded least squares on the uncentred design [1, knot increments]."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    ranks = np.round(np.linspace(0, xs.size - 1, min(n_knots, xs.size))).astype(int)
    knots = np.unique(xs[np.unique(ranks)])
    tss = float(np.sum((ys - ys.mean()) ** 2))
    if knots.size < 2 or tss == 0.0:
        return 0.0
    hats = np.stack([np.interp(xs, knots, unit) for unit in np.eye(knots.size)], axis=1)
    increments = np.cumsum(hats[:, ::-1], axis=1)[:, ::-1][:, 1:]
    design = np.hstack([np.ones((xs.size, 1)), increments])
    lo = np.concatenate([[-np.inf], np.zeros(knots.size - 1)])
    ssr = []
    for sign in (1.0, -1.0):
        fit = lsq_linear(design, sign * ys, bounds=(lo, np.inf))
        ssr.append(float(np.sum((design @ fit.x - sign * ys) ** 2)))
    return min(ssr) / tss


class TestMonotoneFitMatchesReference:
    """The active-set fit against SciPy's lsq_linear: never a higher residual
    (lsq_linear stops early, so it is often slightly lower)."""

    @staticmethod
    def case(kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        n_knots = 2 if kind == "two-knots" else int(rng.integers(2, 14))
        if kind == "ties":
            x = np.round(x * 2) / 2
        y = np.tanh(x) + rng.normal(scale=rng.choice([0.01, 0.3, 3.0]), size=n)
        if kind == "decreasing":
            y = -y
        elif kind == "constant":
            y = np.full(n, 0.7)
        elif kind == "tiny":
            # tss ~ 1e-30 from a tiny y; a tiny spread around a large offset
            # would leave only the rounding of the mean to fit
            y = 1e-15 * y
        return x, y, n_knots

    KINDS = ["increasing", "decreasing", "ties", "two-knots", "constant", "tiny"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_residual_never_above_the_reference(self, kind):
        for seed in range(25):
            x, y, n_knots = self.case(kind, seed)
            got = _monotone_pl_residual(x, y, n_knots)
            assert 0.0 <= got <= 1.0  # x = 0 is the best constant
            assert got <= lsq_reference(x, y, n_knots) * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("scale", [1e-15, 1e15])
    def test_residual_ignores_the_scale_of_y(self, scale):
        for seed in range(10):
            x, y, n_knots = self.case("increasing", seed)
            want = _monotone_pl_residual(x, y, n_knots)
            assert _monotone_pl_residual(x, scale * y, n_knots) == pytest.approx(
                want, rel=1e-9, abs=1e-15
            )

    def test_spread_around_an_offset_fits_as_the_spread_alone(self):
        # y = 0.7 + j ulp has tss ~ 1e-30 and a mean that rounds by up to
        # half a step of j, so a one-pass centring misfits it by percents
        # (lsq_linear's own tss rounds so, and the reference is off here)
        ulp = np.spacing(0.7)
        for seed in range(25):
            x, _, n_knots = self.case("increasing", seed)
            j = np.random.default_rng(seed).integers(-20, 21, size=x.size) * 1.0
            want = _monotone_pl_residual(x, j, n_knots)
            got = _monotone_pl_residual(x, 0.7 + j * ulp, n_knots)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("gamma_true", [2 / 3, 1 / 3, 0.5])
    def test_scan_minimum_does_not_move(self, gamma_true, monkeypatch):
        series = TestCollapse.synthetic_series(gamma_true)
        gammas = np.round(np.arange(0.3, 1.0001, 1 / 30), 6)
        _, got = collapse_scan(series, gammas, t_min=4, n_knots=6)
        monkeypatch.setattr(stats, "_monotone_pl_residual", lsq_reference)
        _, want = collapse_scan(series, gammas, t_min=4, n_knots=6)
        assert np.argmin(got) == np.argmin(want)
        assert np.all(got <= want * (1 + 1e-9) + 1e-12)


class TestMomentReport:
    def test_rows_without_sigmas(self):
        # an exact report, as `spinfcs run` builds it: rows and no sigmas
        config = ChainConfig(4, 2, FSimParams(0.4 * np.pi, 0.8 * np.pi))
        dists = [
            exact_dists(ImbalanceEnsemble(0.5, 4), ChainConfig(4, t, config.params))[-1]
            for t in (1, 2)
        ]
        report = MomentReport(range(1, 3), [moment_row(d) for d in dists])
        assert report.cycles.tolist() == [1, 2]
        assert np.all(report.sigma_mean == 0.0)
        assert report.kurtosis[1] == pytest.approx(-0.30867052, abs=1e-7)
        assert report.rows[1].tolist() == moment_row(dists[1]).tolist()

    def test_zero_variance_row_is_nan_not_an_error(self):
        dist = POINT_MASS
        row = moment_row(dist)
        assert row[:2].tolist() == [2.0, 0.0]
        assert np.isnan(row[2]) and np.isnan(row[3])
        report = MomentReport([1], [row])
        assert np.isnan(report.skewness[0]) and np.isnan(report.kurtosis[0])

    def test_a_stack_of_histograms_gives_each_row_its_scalar_bits(self):
        # the reference is the scalar arithmetic of one histogram in Python
        # floats: a +-M fold for the mean, then pair-folded sums of product
        # chains (x - mean)^k, row by row
        rng = np.random.default_rng(11)
        grid = 2.0 * np.arange(-4, 5)
        stack = rng.random((300, grid.size))
        stack /= stack.sum(axis=1, keepdims=True)
        stack[7] = 0.0
        stack[7, 6] = 1.0  # zero variance: NaN skewness and kurtosis

        def power(x, k):
            out = x
            for _ in range(k - 1):
                out = out * x
            return out

        def scalar_row(row):
            probs = [float(p) for p in row]
            half = grid.size // 2
            ds = [float(v) for v in grid[half + 1 :]][::-1]  # d = max..1
            mean = probs[half] * 0.0
            for i, d in enumerate(ds):
                mean += probs[-1 - i] * d - probs[i] * d
            var, a3, a4 = (
                sum(
                    (
                        probs[-1 - i] * power(d - mean, k)
                        + probs[i] * power(-d - mean, k)
                        for i, d in enumerate(ds)
                    ),
                    probs[half] * power(-mean, k),
                )
                for k in (2, 3, 4)
            )
            if not var > 0.0:
                return [mean, var, math.nan, math.nan]
            return [mean, var, a3 / (var * math.sqrt(var)), a4 / (var * var) - 3.0]

        want = np.array([scalar_row(row) for row in stack])
        got = moment_row((grid, stack))
        assert got.shape == (300, 4)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(moment_row((grid, stack[3])), want[3])
