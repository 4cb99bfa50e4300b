import collections
import concurrent.futures
import functools
import gc
import itertools
import logging
import math
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from conftest import (
    basis_state,
    bfs_depths,
    chi_square_p_value,
    dense_damping,
    dense_fsim,
    dense_gate_on_bond,
    dense_noisy_measured_probabilities,
    dense_right_ones,
    dense_word_probability,
    exact_dists,
    gate_params,
    mass_at,
    sample_initial,
)

from spinfcs.circuit import ChainConfig
from spinfcs.errors import EnumerationCapError, InvariantError
from spinfcs.ensemble import (
    ImbalanceEnsemble,
    distribution_from_tensor,
    transfer_tensor,
    word_right_masses,
)
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.noise import (
    NoiseConfig,
    damp_bits,
    damping_step,
    disorder_and_dephasing,
    disorder_draws,
    postselect,
    readout_flip,
)
from spinfcs import _kernels, ensemble, sampler
from spinfcs.sampler import (
    SampleConfig,
    SampledRun,
    _cdf,
    _philox,
    _prepare,
    _substream,
    _tally,
    _trajectory,
    moment_report,
    relabel_if_overfull,
    run_sampled,
)
from spinfcs.sector import (
    SectorBasis,
    SectorState,
    bits_to_word,
    brickwork_layers,
    sector_basis,
    word_to_bits,
)
from spinfcs.stats import (
    MomentReport,
    jackknife_sigma,
    moment_row,
)


HEIS = FSimParams(0.4 * np.pi, 0.8 * np.pi)


def _measure_indices(cdf, rng, shots):
    """Outcome indices of `shots` shots, one uniform each, from the CDF
    `_cdf` gives: the sampler's draws, one state at a time."""
    return np.searchsorted(cdf, rng.random(shots), side="right")


class TestSampleInitial:
    def test_pure_domain_wall_limit(self):
        ens = ImbalanceEnsemble(math.inf, 8)
        rng = _philox(0, 0, 0)
        for _ in range(5):
            bits = sample_initial(ens, rng)
            assert bits.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_balanced_limit_site_means(self):
        ens = ImbalanceEnsemble(0.0, 10)
        rng = _philox(1, 0, 0)
        draws = np.array([sample_initial(ens, rng) for _ in range(4000)])
        # per-site mean ~ Binomial(4000, 1/2)/4000
        sigma = math.sqrt(0.25 / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 4 * sigma)

    def test_imbalanced_left_half_fraction(self):
        mu = 0.5
        p = math.exp(mu) / (math.exp(mu) + math.exp(-mu))
        ens = ImbalanceEnsemble(mu, 12)
        rng = _philox(2, 0, 0)
        draws = np.array([sample_initial(ens, rng) for _ in range(4000)])
        left = draws[:, :6].mean()
        sigma = math.sqrt(p * (1 - p) / (4000 * 6))
        assert abs(left - p) < 4 * sigma
        right = draws[:, 6:].mean()
        assert abs(right - (1 - p)) < 4 * sigma


class TestPhilox:
    @pytest.mark.parametrize("states", [1, 7, 300])
    def test_a_noiseless_run_builds_two_generators_per_cycle_count(
        self, states, monkeypatch
    ):
        # the initial bits and the tallies of every state, one draw each
        built = []

        def spy(*args):
            built.append(args)
            return _philox(*args)

        monkeypatch.setattr(sampler, "_philox", spy)
        ens = ImbalanceEnsemble(0.5, 8)
        sample = SampleConfig(states, 5, seed=9)
        for t in (0, 1, 3):
            built.clear()
            run_sampled(ens, ChainConfig(8, t, HEIS), sample)
            assert sorted(built) == [
                (9, _substream(t, 0), sampler._INITIAL_BITS_BLOCK),
                (9, _substream(t, 0), sampler._TALLY_BLOCK),
            ]

    @pytest.mark.parametrize("states", [1, 7])
    def test_a_noisy_run_builds_one_generator_per_state(self, states, monkeypatch):
        # the initial bits from the cycle count's generator; every number of
        # state i's shots from one generator on counter block 1 of its key
        built = []

        def spy(*args):
            built.append(args)
            return _philox(*args)

        monkeypatch.setattr(sampler, "_philox", spy)
        ens = ImbalanceEnsemble(0.5, 8)
        sample = SampleConfig(states, 5, seed=9)
        noise = NoiseConfig(t1_cycles=2.0, e0=0.05, e1=0.1, dephasing_sd=0.2)
        for t in (1, 3):
            built.clear()
            run_sampled(
                ens, ChainConfig(8, t, HEIS), sample, noise=noise,
                postselect_mode="causal",
            )
            assert sorted(built) == sorted(
                [(9, _substream(t, 0), sampler._INITIAL_BITS_BLOCK)]
                + [(9, _substream(t, i), 1) for i in range(states)]
            )

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SampleConfig(2, 2, seed=seed)



TOP = 1.0 - 2.0**-53  # the largest double below 1


class TopGenerator:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size=None):
        return TOP if size is None else np.full(size, TOP)

    standard_normal = random


class TestMeasurement:
    # the mass sums to one ulp under 1 and the last outcome has none
    P = np.array([0.3, 0.7 - 2.0**-53, 0.0])

    def test_a_uniform_above_the_mass_lands_on_the_last_outcome_with_mass(self):
        assert np.cumsum(self.P)[1] <= TOP
        assert _measure_indices(_cdf(self.P), TopGenerator(), 4).tolist() == [1] * 4

    def test_each_row_of_a_stack_is_guarded_on_its_own(self):
        stack = np.array([self.P, [0.0, 0.0, TOP], [0.5, 0.0, 0.0]])
        cdf = _cdf(stack)
        assert cdf.tolist() == [[0.3, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        for row, probabilities in zip(cdf, stack):
            assert row.tolist() == _cdf(probabilities).tolist()
            assert np.all(np.diff(row) >= 0)

    def test_noisy_shots_measure_only_outcomes_with_mass(self, monkeypatch):
        # a 4-site window with one excitation: basis words 0001 .. 1000
        basis = sector_basis(4, 1)
        p = np.append(self.P, 0.0)
        block = types.SimpleNamespace(
            basis=basis, probabilities=lambda: np.tile(p[:, None], (1, 2))
        )
        measured = []
        tally = sampler._tally

        def tallying(*args):
            measured.append(args[2])
            return tally(*args)

        monkeypatch.setattr(sampler, "_philox", lambda *args: TopGenerator())
        monkeypatch.setattr(
            sampler, "_trajectory", lambda *args: [(block, np.arange(2))]
        )
        monkeypatch.setattr(sampler, "_tally", tallying)
        bits = np.array([[0, 0, 0, 1]])
        prepared = (bits, bits, np.zeros(1, dtype=bool))
        config, sample = ChainConfig(4, 2, HEIS), SampleConfig(1, 2)
        sampler._noisy_records(prepared, config, sample, NoiseConfig(), "none", 1)
        want = word_to_bits(basis.words[1], 4).tolist()
        assert measured[0].tolist() == [want] * 2


class TestPrepare:
    @pytest.mark.parametrize("mu", [0.0, 0.5, math.inf])
    @pytest.mark.parametrize("relabel", [False, True])
    def test_rows_are_the_draws_of_sample_initial(self, mu, relabel):
        ens = ImbalanceEnsemble(mu, 10)
        sample = SampleConfig(40, 1, seed=77, relabel_enabled=relabel)
        bits, phys, flagged = _prepare(ens, sample, 3)
        rng = _philox(77, _substream(3, 0), sampler._INITIAL_BITS_BLOCK)
        for row in bits:
            assert row.tolist() == sample_initial(ens, rng).tolist()
        if relabel:
            want_phys, want_flags = relabel_if_overfull(bits)
        else:
            want_phys, want_flags = bits, np.zeros(len(bits), dtype=bool)
        assert phys.tolist() == want_phys.tolist()
        assert flagged.tolist() == want_flags.tolist()


class TestRelabel:
    def test_overfull_is_complemented(self):
        bits, flag = relabel_if_overfull([1, 1, 1, 0])
        assert flag
        assert bits.tolist() == [0, 0, 0, 1]

    def test_half_full_untouched(self):
        bits, flag = relabel_if_overfull([0, 0, 1, 1])
        assert not flag
        assert bits.tolist() == [0, 0, 1, 1]

    def test_a_stack_is_relabeled_row_by_row(self):
        stack = np.array([[1, 1, 1, 0], [0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 0, 1]])
        bits, flags = relabel_if_overfull(stack)
        rows = [relabel_if_overfull(row) for row in stack]
        assert bits.tolist() == [row.tolist() for row, _ in rows]
        assert flags.tolist() == [flag for _, flag in rows] == [True, False, True, False]

    def test_sampled_moments_agree_with_exact_under_relabel(self):
        ens = ImbalanceEnsemble(0.0, 4)
        config = ChainConfig(4, 2, HEIS)
        exact = moment_row(exact_dists(ens, config)[-1])
        sample = SampleConfig(600, 300, seed=4, relabel_enabled=True)
        run = run_sampled(ens, config, sample)
        report = moment_report([run])
        for got, want, sig in (
            (report.mean[0], exact[0], report.sigma_mean[0]),
            (report.variance[0], exact[1], report.sigma_variance[0]),
        ):
            assert abs(got - want) < 5 * sig


class TestEstimator:
    @staticmethod
    def fixed_run(counts_rows, cycles=1, n_qubits=4):
        # every shot of a row is kept; an all-zero row still needs 1 shot
        counts = np.asarray(counts_rows, dtype=np.int64)
        kept = counts.sum(axis=1)
        return SampledRun(
            cycles=cycles,
            n_qubits=n_qubits,
            mu=0.0,
            sample=SampleConfig(len(counts), max(1, int(kept.max())), seed=0),
            initial_bits=np.zeros((len(counts), n_qubits), dtype=np.int64),
            counts=counts,
            kept=kept,
        )

    def test_constant_shots_power(self):
        # every shot lands at M = +2 (grid -4,-2,0,2,4): mean 2, no spread
        run = self.fixed_run([[0, 0, 0, 5, 0], [0, 0, 0, 9, 0]])
        report = moment_report([run])
        assert report.mean[0] == 2.0
        assert report.variance[0] == 0.0
        assert report.sigma_mean[0] == 0.0

    def test_per_state_normalization(self):
        # state A: all shots at +2; state B: all at 0.  The outer mean is
        # uniform over states no matter how many shots each one kept.
        run = self.fixed_run([[0, 0, 0, 1000, 0], [0, 0, 10, 0, 0]])
        report = moment_report([run])
        assert report.mean[0] == pytest.approx(1.0)
        assert report.variance[0] == pytest.approx(1.0)

    def test_zero_survivor_state_dropped_with_warning(self, caplog):
        run = self.fixed_run([[0, 0, 0, 4, 0], [0, 0, 0, 0, 0]])
        assert run.dropped_states == [1]
        assert moment_report([run]).mean[0] == 2.0
        # a run in which some state keeps no shot warns as it is made:
        # with one shot per state, readout flips fail the number filter
        ens = ImbalanceEnsemble(0.5, 4)
        noise = NoiseConfig(e0=0.3, e1=0.3)
        with caplog.at_level(logging.WARNING, "spinfcs.sampler"):
            noisy = run_sampled(
                ens, ChainConfig(4, 1, HEIS), SampleConfig(20, 1, seed=5), noise=noise
            )
        assert noisy.dropped_states
        assert any("zero surviving shots" in rec.message for rec in caplog.records)

    def test_per_state_distributions_are_the_row_by_row_division(self):
        # bit for bit counts[i] / kept[i] per surviving state, in state order
        noisy = run_sampled(
            ImbalanceEnsemble(0.5, 4),
            ChainConfig(4, 1, HEIS),
            SampleConfig(30, 3, seed=5),
            noise=NoiseConfig(e0=0.3, e1=0.3),
        )
        assert noisy.dropped_states and len(set(noisy.kept.tolist())) > 2
        for run in (noisy, self.fixed_run([[0, 3, 0, 1, 0], [7, 0, 2, 0, 1]])):
            survivors = [i for i in range(run.kept.size) if run.kept[i] > 0]
            want = np.array([run.counts[i] / run.kept[i] for i in survivors])
            got = run.per_state_distributions()
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="no surviving shots"):
            self.fixed_run([[0, 0, 0, 0, 0]]).per_state_distributions()

    def test_state_order_permutation_invariance(self):
        rows = [[1, 2, 3, 4, 0], [0, 5, 1, 0, 2], [2, 0, 0, 1, 1]]
        run_a = self.fixed_run(rows)
        run_b = self.fixed_run([rows[2], rows[0], rows[1]])
        report_a, report_b = moment_report([run_a]), moment_report([run_b])
        assert report_a.rows.tolist() == report_b.rows.tolist()


class TestAgainstExact:
    def test_noiseless_sampling_matches_exact_within_jackknife(self):
        mu, n, t = 0.5, 6, 3
        ens = ImbalanceEnsemble(mu, n)
        config = ChainConfig(n, t, HEIS)
        exact = moment_row(exact_dists(ens, config)[-1])
        run = run_sampled(ens, config, SampleConfig(400, 500, seed=12))
        report = moment_report([run])
        assert abs(report.mean[0] - exact[0]) < 5 * report.sigma_mean[0]
        assert abs(report.variance[0] - exact[1]) < 5 * report.sigma_variance[0]
        assert abs(report.skewness[0] - exact[2]) < 5 * report.sigma_skewness[0]
        assert abs(report.kurtosis[0] - exact[3]) < 5 * report.sigma_kurtosis[0]

    def test_noiseless_yield_is_unity(self):
        ens = ImbalanceEnsemble(0.4, 6)
        config = ChainConfig(6, 2, HEIS)
        for mode in ("number_only", "causal"):
            run = run_sampled(
                ens, config, SampleConfig(50, 40, seed=3), postselect_mode=mode
            )
            assert run.yield_fraction() == 1.0
            assert run.dropped_states == []


class TestLightConeWindow:
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_window_ensemble_average_equals_the_tensor(self, n, convention, order):
        # every initial word, weighted by the ensemble, through the 2t-site
        # window the sampler evolves: the average is the whole-chain P(M)
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        half = n // 2
        words = word_to_bits(np.arange(2**n), n)
        counts = words[:, :half].sum(axis=1), words[:, half:].sum(axis=1)
        for t in range(1, half):
            config = ChainConfig(n, t, params, order)
            T = transfer_tensor(n, t, params, order)
            lo, hi = config.window
            assert hi - lo == 2 * t < n
            window_right = {}  # P(r ones in the window's right half) per word

            def right_ones(phys):
                key = tuple(phys[lo:hi])
                if key not in window_right:
                    window = basis_state(phys[lo:hi])
                    [(state, _)] = _trajectory(window, lo, config, NoiseConfig(), None)
                    window_right[key] = np.bincount(
                        state.basis.right_ones(),
                        weights=state.probabilities(),
                        minlength=t + 1,
                    )
                return window_right[key]

            for mu in (0.0, 0.5):
                ens = ImbalanceEnsemble(mu, n)
                _, want = distribution_from_tensor(T, t, ens)
                for relabel in (False, True):
                    got = np.zeros(2 * t + 1)
                    for bits, a, b in zip(words, *counts):
                        phys, flagged = (
                            relabel_if_overfull(bits) if relabel else (bits, False)
                        )
                        p_right = right_ones(phys)
                        if flagged:
                            p_right = p_right[::-1]  # complement of t sites
                        before = bits[half:hi].sum()
                        weight = ens.word_probability_by_counts(a, b)
                        got[t - before : 2 * t + 1 - before] += weight * p_right
                    assert np.max(np.abs(got - want)) <= 1e-12

    def test_sampled_moments_on_a_window_smaller_than_the_chain(self):
        n, t = 12, 2
        assert ChainConfig(n, t, HEIS).window == (4, 8)
        ens = ImbalanceEnsemble(0.5, n)
        config = ChainConfig(n, t, HEIS)
        exact = moment_row(exact_dists(ens, config)[-1])
        run = run_sampled(ens, config, SampleConfig(400, 200, seed=12))
        report = moment_report([run])
        got = report.rows[0]
        assert np.all(np.abs(got - exact) < 5 * report.sigmas[0])

    def test_paper_chain_length_runs_on_its_window(self):
        # the whole 46-site chain would be a sector of C(46, 23) ~ 8e12 words
        n, t = 46, 3
        run = run_sampled(
            ImbalanceEnsemble(0.0, n), ChainConfig(n, t, HEIS), SampleConfig(4, 50)
        )
        assert run.yield_fraction() == 1.0
        probs = run.per_state_distributions().mean(axis=0)
        assert abs(probs.sum() - 1.0) < 1e-12


def dense_true_probabilities(word, sites, layers, t, p_decay):
    """diag(rho) of `sites` qubits after t cycles from |word>: each
    half-layer's gates (bond lists, local), then damping of every qubit."""
    u4 = dense_fsim(HEIS.theta, HEIS.phi)
    rho = np.zeros((2**sites, 2**sites), dtype=complex)
    rho[word, word] = 1.0
    for bonds in layers * t:
        for bond in bonds:
            gate = dense_gate_on_bond(sites, bond, u4)
            rho = gate @ rho @ gate.conj().T
        rho = dense_damping(rho, sites, p_decay)
    return np.real(np.diag(rho))


@functools.cache
def causal_keeps(n, t, order):
    """keep[x, y]: the causal filter's verdict on every pair of n-site words."""
    bits = word_to_bits(np.arange(2**n), n)
    return np.array([[postselect(x, y, t, "causal", order) for y in bits] for x in bits])


class TestWindowUnderNoise:
    """The noisy route evolves the 2t-site window and lets the bits outside
    it decay classically.  Against the density matrix of the whole chain,
    both with readout flips, relabeling and the post-selection filter."""

    n = 6
    noise = NoiseConfig(t1_cycles=2.0, e0=0.05, e1=0.1)

    def measured_given(self, t, order, lo, hi):
        """{'chain' and 'window': function of the prepared word giving the
        probability of every measured word}, the window on sites lo..hi-1."""
        n, noise = self.n, self.noise
        first = 0 if order is LayerOrder.EVEN_FIRST else 1
        chain = [[b for b in range(n - 1) if b % 2 == (first + h) % 2] for h in (0, 1)]
        window = [[b - lo for b in bonds if lo <= b < hi - 1] for bonds in chain]
        flip = np.array([[1 - noise.e0, noise.e1], [noise.e0, 1 - noise.e1]])
        readout = functools.reduce(np.kron, [flip] * n)  # [measured, true]
        bits = word_to_bits(np.arange(2**n), n)
        outside = np.r_[0:lo, hi:n]
        survive = math.exp(-t / noise.t1_cycles)
        p_half = noise.half_layer_decay

        @functools.cache
        def chain_model(phys):
            return readout @ dense_true_probabilities(phys, n, chain, t, p_half)

        @functools.cache
        def window_model(phys):
            start = bits_to_word(bits[phys, lo:hi])
            inside = dense_true_probabilities(start, hi - lo, window, t, p_half)
            was, now = bits[phys, outside], bits[:, outside]
            decay = np.where(was == 1, np.where(now == 1, survive, 1 - survive), now == 0)
            true = inside[bits_to_word(bits[:, lo:hi])] * decay.prod(axis=1)
            return readout @ true

        return {"chain": chain_model, "window": window_model}

    def targets(self, measured_given, t, order, mu, relabel, mode):
        """(pooled P(M | keep), sum over x of w(x) P(M | keep, x)) on the
        tally grid, x running over every initial word."""
        n, half = self.n, self.n // 2
        words = np.arange(2**n)
        bits = word_to_bits(words, n)
        ones, right = bits.sum(axis=1), bits[:, half:].sum(axis=1)
        joint = np.zeros((2**n, n + 1))  # P(Delta N_R, keep | x)
        weights = np.array([dense_word_probability(x, n, mu) for x in words])
        for x in words:
            flagged = relabel and ones[x] > half
            measured = measured_given(x ^ (2**n - 1) if flagged else x)
            if flagged:
                measured = measured[words ^ (2**n - 1)]
            if mode == "none":
                keep = np.ones(2**n, dtype=bool)
            elif mode == "number_only":
                keep = ones == ones[x]
            else:
                keep = causal_keeps(n, t, order)[x]
            delta = half + right[keep] - right[x]
            joint[x] = np.bincount(delta, weights=measured[keep], minlength=n + 1)
        kept = joint.sum(axis=1)
        assert np.all(kept > 0)
        pooled = weights @ joint / (weights @ kept)
        return pooled, weights @ (joint / kept[:, None])

    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("t", [1, 2])
    def test_window_model_equals_the_chain(self, t, order):
        lo, hi = ChainConfig(self.n, t, HEIS, order).window
        assert hi - lo == 2 * t < self.n
        models = self.measured_given(t, order, lo, hi)
        for mu, relabel, mode in itertools.product(
            (0.0, 0.5), (False, True), ("none", "number_only", "causal")
        ):
            chain, window = (
                self.targets(models[m], t, order, mu, relabel, mode)
                for m in ("chain", "window")
            )
            assert np.max(np.abs(window[0] - chain[0])) <= 1e-12  # pooled
            if mode != "causal":  # the causal per-state average is not exact
                assert np.max(np.abs(window[1] - chain[1])) <= 1e-12

    def test_a_shifted_window_is_told_apart(self):
        n, t, order = self.n, 2, LayerOrder.EVEN_FIRST
        lo, hi = ChainConfig(n, t, HEIS, order).window
        chain = self.measured_given(t, order, lo, hi)["chain"]
        shifted = self.measured_given(t, order, lo + 1, hi + 1)["window"]
        want, _ = self.targets(chain, t, order, 0.5, True, "number_only")
        got, _ = self.targets(shifted, t, order, 0.5, True, "number_only")
        assert np.max(np.abs(got - want)) > 0.05


def window_words(ens, config, sample):
    """Integer window word of every prepared state of a run."""
    lo, hi = config.window
    _, prepared, _ = _prepare(ens, sample, config.cycles)
    return np.array([bits_to_word(row[lo:hi]) for row in prepared], dtype=np.uint64)


class TestBatchedWindow:
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_block_columns_match_single_column_runs(
        self, n, convention, order, monkeypatch
    ):
        # every word of every sector of the window (sites 1..n-2, an odd
        # anchor), in the chunks the sampler evolves, against one column
        # each; at 2^13 amplitudes a chunk of the 10-site window's middle
        # sectors holds at most 39 columns
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 1 << 13)
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        t = n // 2 - 1
        config = ChainConfig(n, t, params, order)
        lo, hi = config.window
        width = hi - lo
        every = np.arange(2**width, dtype=np.uint64)
        chunks = [every[picked] for picked in ensemble._word_chunks(every, width)]
        assert sum(len(words) for words in chunks) == 2**width
        if n == 12:  # the 10-site window's middle sectors span several chunks
            sizes = np.bincount([np.bitwise_count(words[0]) for words in chunks])
            assert sizes.max() >= 3
        for words in chunks:
            [(block, columns)] = _trajectory(
                SectorState.from_words(words, width), lo, config, NoiseConfig(), None
            )
            assert columns.tolist() == list(range(len(words)))
            assert block.amplitudes.shape == (block.basis.dimension, len(words))
            for column, word in enumerate(words):
                single = basis_state(word_to_bits(word, width))
                [(single, _)] = _trajectory(single, lo, config, NoiseConfig(), None)
                assert single.basis is block.basis
                diff = block.probabilities()[:, column] - single.probabilities()
                assert np.max(np.abs(diff)) <= 1e-12

    def test_each_distinct_window_word_is_evolved_once(self, monkeypatch):
        n, t = 12, 6
        ens = ImbalanceEnsemble(0.0, n)
        config = ChainConfig(n, t, HEIS)
        sample = SampleConfig(1000, 20, seed=17)
        distinct = np.unique(window_words(ens, config, sample)).size
        assert distinct < sample.n_initial_states
        columns = []
        engine = ensemble._SectorBlocks

        class Counting(engine):
            def __init__(self, *args):
                super().__init__(*args)
                # no block is larger than a chunk, or a single column
                amps = self.amps
                assert amps.size <= max(amps.shape[0], ensemble._CHUNK_AMPLITUDES)
                columns.append(amps.shape[1])

        monkeypatch.setattr(ensemble, "_SectorBlocks", Counting)
        run = run_sampled(ens, config, sample)
        assert sum(columns) == distinct
        assert len(run.counts) == sample.n_initial_states

    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_engine_columns_match_single_column_trajectories(
        self, n, convention, order
    ):
        # every word of every sector, in the chunks the sampler evolves, on
        # windows anchored at odd and even sites (t < n/2), the whole chain
        # (t = n/2) and a depth beyond it (t > n/2, the window is the chain)
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        anchors = set()
        for t in range(1, n // 2 + 2):
            config = ChainConfig(n, t, params, order)
            lo, hi = config.window
            anchors.add(lo % 2)
            width = hi - lo
            every = np.arange(2**width, dtype=np.uint64)
            chunks = [every[picked] for picked in ensemble._word_chunks(every, width)]
            assert sum(len(words) for words in chunks) == 2**width
            for words in chunks:
                got = word_right_masses(words, width, lo, t, params, order)
                basis = sector_basis(width, int(np.bitwise_count(words[0])))
                assert got.shape == (width // 2 + 1, len(words))
                for column, word in enumerate(words):
                    single = basis_state(word_to_bits(word, width))
                    [(single, _)] = _trajectory(single, lo, config, NoiseConfig(), None)
                    assert single.basis is basis
                    want = np.bincount(
                        basis.right_ones(), single.probabilities(), width // 2 + 1
                    )
                    assert np.max(np.abs(got[:, column] - want)) <= 1e-12
        assert anchors == ({0, 1} if n > 2 else {0})

    def test_a_word_mass_off_one_is_an_invariant_error(self, monkeypatch):
        # half-chain operators 1% too large: every word's mass grows
        built = ensemble._half_chain_operators

        def inflated(*args):
            ops, mix = built(*args)
            return [1.01 * w for w in ops], mix

        monkeypatch.setattr(ensemble, "_half_chain_operators", inflated)
        ens = ImbalanceEnsemble(0.5, 8)
        with pytest.raises(InvariantError, match="not normalized"):
            run_sampled(ens, ChainConfig(8, 3, HEIS), SampleConfig(10, 10, seed=5))

    def test_no_basis_spans_the_window(self, monkeypatch):
        # the noiseless route builds bases of half the 12-site window only
        sites = []

        def recording(n_sites, n_excitations):
            sites.append(n_sites)
            return sector_basis(n_sites, n_excitations)

        monkeypatch.setattr(ensemble, "sector_basis", recording)
        monkeypatch.setattr(sampler, "sector_basis", recording)
        n, t = 12, 6
        run_sampled(
            ImbalanceEnsemble(0.0, n), ChainConfig(n, t, HEIS),
            SampleConfig(50, 10, seed=8),
        )
        assert sites and max(sites) <= n // 2

    @staticmethod
    def spy_operators(monkeypatch, delay=0.0):
        """Record each call of `ensemble._half_chain_operators`, with weak
        references to the operator arrays it returns; each call first
        sleeps `delay` seconds, which frees the GIL for other threads."""
        calls, refs = [], []
        built = ensemble._half_chain_operators

        def spy(*args):
            time.sleep(delay)
            ops, mix = built(*args)
            calls.append(args)
            refs.extend(weakref.ref(w) for w in ops)
            return ops, mix

        monkeypatch.setattr(ensemble, "_half_chain_operators", spy)
        return calls, refs

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_operator_set_is_built_per_run(self, threads, monkeypatch):
        # the word end builds its operators before its pool starts, so no
        # worker builds them again, however many chunks the run has and
        # however slow the build is
        calls, _ = self.spy_operators(monkeypatch, delay=0.02)
        ens = ImbalanceEnsemble(0.0, 46)
        for t in (4, 5, 6):
            config, sample = ChainConfig(46, t, HEIS), SampleConfig(40, 10, seed=t)
            words = np.unique(window_words(ens, config, sample))
            assert len(ensemble._word_chunks(words, 2 * t)) > 2 * threads
            calls.clear()
            run_sampled(ens, config, sample, threads=threads)
            assert len(calls) == 1

    def test_no_operator_outlives_a_run(self, monkeypatch):
        _, refs = self.spy_operators(monkeypatch)
        ens = ImbalanceEnsemble(0.5, 8)
        for t in (1, 2, 3):
            run_sampled(ens, ChainConfig(8, t, HEIS), SampleConfig(10, 10, seed=t))
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    @pytest.mark.parametrize("order", list(LayerOrder))
    def test_every_window_word_at_once_equals_the_calls_per_group(
        self, order, monkeypatch
    ):
        # every word of an 8-site window anchored at an odd site, shuffled
        # so that the popcount groups interleave; at 256 amplitudes the
        # middle groups span several chunks of 3 columns, some of which
        # start in more than one block
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 256)
        width, lo, t = 8, 1, 3
        every = np.arange(2**width, dtype=np.uint64)
        words = np.random.default_rng(11).permutation(every)
        got = word_right_masses(words, width, lo, t, HEIS, order)
        assert got.shape == (width // 2 + 1, words.size)
        ones = np.bitwise_count(words)
        left = np.bitwise_count(words >> np.uint64(width // 2))
        chunks = ensemble._word_chunks(words, width)
        assert len(chunks) > width + 1 and max(map(len, chunks)) > 1
        assert any(len(set(left[picked].tolist())) > 1 for picked in chunks)
        for k in range(width + 1):
            picked = np.flatnonzero(ones == k)
            alone = word_right_masses(words[picked], width, lo, t, HEIS, order)
            assert np.array_equal(got[:, picked], alone)
        threaded = word_right_masses(words, width, lo, t, HEIS, order, threads=2)
        assert np.array_equal(threaded, got)

    def test_a_word_mass_off_one_prints_a_plain_number(self, monkeypatch):
        built = ensemble._half_chain_operators

        def inflated(*args):
            ops, mix = built(*args)
            return [1.01 * w for w in ops], mix

        monkeypatch.setattr(ensemble, "_half_chain_operators", inflated)
        with pytest.raises(InvariantError, match=r"not normalized: 1\.\d+$"):
            word_right_masses([0b0110], 4, 0, 1, HEIS, LayerOrder.EVEN_FIRST)


def tiled_records(ens, config, sample, mode):
    """A noiseless run's (bits, counts, kept) rows as the route before the
    right-count tally made them: the same chunks evolved gate by gate, then
    for every state, in state order, its shots' right counts drawn from the
    cycle count's tally generator as one multinomial over the dense
    right-count marginal of its word, cut after its last right count of
    nonzero mass, each shot an n-bit row tiled from the prepared bits with
    the likeliest window outcome of its right count unpacked into it, and
    the rows relabeled back, filtered and tallied by `_tally`."""
    bits, phys, flagged = _prepare(ens, sample, config.cycles)
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    lo, hi = config.window
    words, word_of = np.unique(bits_to_word(phys[:, lo:hi]), return_inverse=True)
    evolved = {}  # word index -> (basis words, marginal, likeliest)
    for picked in ensemble._word_chunks(words, hi - lo):
        block = SectorState.from_words(words[picked], hi - lo)
        [(block, _)] = _trajectory(block, lo, config, NoiseConfig(), None)
        probabilities = block.probabilities()
        right = block.basis.right_ones()
        for column, w in enumerate(picked):
            p = probabilities[:, column]
            marginal = np.bincount(right, p, (hi - lo) // 2 + 1)
            likeliest = [
                np.argmax(np.where(right == r, p, -1.0)) for r in range(marginal.size)
            ]
            evolved[w] = block.basis.words, marginal, likeliest
    rng = _philox(sample.seed, _substream(t, 0), sampler._TALLY_BLOCK)
    rows = []
    for i, w in enumerate(word_of):
        basis_words, marginal, likeliest = evolved[w]
        cut = np.trim_zeros(marginal, "b")
        tally = rng.multinomial(shots, cut / cut.sum())
        drawn = np.repeat(np.arange(cut.size), tally)
        outcomes = basis_words[np.take(likeliest, drawn)]
        measured = np.tile(phys[i], (shots, 1))
        measured[:, lo:hi] = word_to_bits(outcomes, hi - lo)
        every = np.ones(shots, dtype=bool)
        rows.append(
            (bits[i], *_tally(bits[i], flagged[i], measured, config, mode, every))
        )
    return rows


class TestSinglePrecision:
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize("width", range(2, 13, 2))
    def test_every_word_is_near_its_exact_masses_and_in_its_light_cone(
        self, width, convention
    ):
        # every word of the window, anchored at 0 and 1, in both layer
        # orders, at t = 1, w/2 and w/2 + 2: total-variation distance at
        # most 1e-6 from complex128, and masses outside the light cone
        # |r - b0| <= t exactly 0.0
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        every = np.arange(2**width, dtype=np.uint64)
        b0 = np.bitwise_count(every & np.uint64((1 << width // 2) - 1))
        r = np.arange(width // 2 + 1)[:, None]
        for lo, order, t in itertools.product(
            (0, 1), LayerOrder, sorted({1, width // 2, width // 2 + 2})
        ):
            args = (every, width, lo, t, params, order)
            exact = word_right_masses(*args)
            single = word_right_masses(*args, dtype=np.complex64)
            assert single.dtype == np.float64
            assert np.abs(single - exact).sum(axis=0).max() / 2 <= 1e-6
            assert np.all(single[np.abs(r - b0) > t] == 0.0)

    def test_a_deeper_window_stays_near_its_exact_masses(self):
        # 64 words of a 16-site window at t = 8, popcounts 4 to 13: the error
        # does not grow with depth (about 4e-7 here, 3e-7 at w = 24, t = 12)
        words = np.random.default_rng(16).integers(0, 1 << 16, 64, dtype=np.uint64)
        args = (words, 16, 1, 8, HEIS, LayerOrder.EVEN_FIRST)
        exact = word_right_masses(*args)
        single = word_right_masses(*args, dtype=np.complex64)
        assert np.abs(single - exact).sum(axis=0).max() / 2 <= 1e-6

    def test_masses_are_bitwise_alike_for_any_thread_count(self, monkeypatch):
        # chunks of a few columns, several spanning more than one block
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 256)
        every = np.arange(2**8, dtype=np.uint64)
        args = (every, 8, 1, 3, HEIS, LayerOrder.EVEN_FIRST)
        one = word_right_masses(*args, dtype=np.complex64)
        two = word_right_masses(*args, threads=2, dtype=np.complex64)
        assert np.array_equal(one, two)

    def test_its_own_normalization_bound_is_checked(self, monkeypatch):
        # complex64 masses are off 1 by about 1e-7, within SINGLE_NORM_TOL
        # (1e-5) but not within complex128's 1e-12
        every = np.arange(2**10, dtype=np.uint64)
        args = (every, 10, 0, 5, HEIS, LayerOrder.EVEN_FIRST)
        word_right_masses(*args, dtype=np.complex64)
        monkeypatch.setattr(ensemble, "SINGLE_NORM_TOL", 1e-12)
        word_right_masses(*args)
        with pytest.raises(InvariantError, match="not normalized"):
            word_right_masses(*args, dtype=np.complex64)

    def test_the_sampler_draws_from_complex64_masses(self, monkeypatch):
        widths = []

        def spy(*args, dtype):
            widths.append(np.dtype(dtype))
            return word_right_masses(*args, dtype=dtype)

        monkeypatch.setattr(sampler, "word_right_masses", spy)
        config = ChainConfig(8, 3, HEIS)
        run_sampled(ImbalanceEnsemble(0.5, 8), config, SampleConfig(9, 9))
        assert widths == [np.complex64]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_sampled_moments_agree_with_the_exact_tensor(self, n, seed):
        # z-scores of the four moments of a noiseless run, drawn from
        # complex64 masses, against the complex128 tensor at n = 2t
        ens = ImbalanceEnsemble(0.5, n)
        config = ChainConfig(n, n // 2, HEIS)
        exact = moment_row(exact_dists(ens, config)[-1])
        run = run_sampled(ens, config, SampleConfig(400, 500, seed=seed))
        report = moment_report([run])
        assert np.all(np.abs(report.rows[0] - exact) < 5 * report.sigmas[0])


class TestNoiselessRoute:
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_every_reachable_outcome_passes_the_causal_filter(self, n, order):
        # the ground for running no filter without noise: every outcome of
        # nonzero probability keeps the popcount and is causal, for the
        # prepared word and, as relabeling sees it, for their complements
        first = 0 if order is LayerOrder.EVEN_FIRST else 1
        words = word_to_bits(np.arange(2**n), n)
        depths = [bfs_depths(word, n, first) for word in words]
        for t in range(1, n // 2 + 1):
            lo, hi = ChainConfig(n, t, HEIS, order).window
            pairs = set()  # (prepared, measured) word pairs, both conventions
            for convention in PhaseConvention:
                params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
                config = ChainConfig(n, t, params, order)
                for x, phys in enumerate(words):
                    window = basis_state(phys[lo:hi])
                    [(state, _)] = _trajectory(window, lo, config, NoiseConfig(), None)
                    reached = state.basis.words[state.probabilities() > 0]
                    measured = np.tile(phys, (len(reached), 1))
                    measured[:, lo:hi] = word_to_bits(reached, hi - lo)
                    pairs.update((x, int(y)) for y in bits_to_word(measured))
            for x, y in pairs:
                phys, measured = words[x], words[y]
                assert measured.sum() == phys.sum()
                assert depths[x][tuple(measured)] <= 2 * t
                assert postselect(phys, measured, t, "causal", order)
                assert postselect(1 - phys, 1 - measured, t, "causal", order)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("mode", ["none", "number_only", "causal"])
    def test_records_equal_the_tiled_route(
        self, mode, relabel, order, threads, monkeypatch
    ):
        # chunks of 64 amplitudes: the 6-site window's middle sector spans
        # several chunks, which the threads share out
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 64)
        ens = ImbalanceEnsemble(0.5, 8)
        config = ChainConfig(8, 3, HEIS, order)
        sample = SampleConfig(40, 30, seed=23, relabel_enabled=relabel)
        _, _, flagged = _prepare(ens, sample, config.cycles)
        assert flagged.any() == relabel
        run = run_sampled(ens, config, sample, postselect_mode=mode, threads=threads)
        want = tiled_records(ens, config, sample, mode)
        assert len(want) == len(run.kept)
        for i, (bits, counts, kept) in enumerate(want):
            assert np.array_equal(run.initial_bits[i], bits)
            assert np.array_equal(run.counts[i], counts)
            assert run.kept[i] == kept

    def test_at_zero_cycles_every_shot_keeps_its_right_count(self):
        # the window is empty: nothing is evolved and nothing is drawn
        ens = ImbalanceEnsemble(0.5, 6)
        sample = SampleConfig(7, 9, seed=3)
        run = run_sampled(ens, ChainConfig(6, 0, HEIS), sample)
        for i in range(sample.n_initial_states):
            assert run.counts[i].tolist() == [0, 0, 0, 9, 0, 0, 0]
            assert run.kept[i] == 9

    def test_pooled_tally_follows_the_word_masses(self):
        # at mu = inf every state is the domain wall, so all share one
        # window word and the pooled tally of their shots is
        # Multinomial(states x shots, p), p the word's right-count masses
        n, t = 8, 3
        config = ChainConfig(n, t, HEIS)
        sample = SampleConfig(400, 50, seed=61)
        run = run_sampled(ImbalanceEnsemble(math.inf, n), config, sample)
        lo, hi = config.window
        wall = np.repeat([1, 0], n // 2)
        for bits in run.initial_bits:
            assert np.array_equal(bits, wall)
        word = bits_to_word(wall[lo:hi])
        p = word_right_masses([word], hi - lo, lo, t, HEIS, config.layer_order)[:, 0]
        b0 = int(wall[n // 2 : hi].sum())
        counts = run.counts
        assert np.all(counts.sum(axis=1) == sample.shots_per_state)
        delta = np.arange(n + 1) - n // 2
        assert not counts[:, np.abs(delta) > t].any()
        total = counts.sum()
        frequency = counts.sum(axis=0)[n // 2 - b0 + np.arange(p.size)] / total
        sigma = np.sqrt(p * (1 - p) / total)
        assert np.all(np.abs(frequency - p) <= 5 * sigma)

    @pytest.mark.parametrize("mode", ["none", "number_only", "causal"])
    def test_the_route_neither_filters_nor_unpacks(self, mode, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the noiseless route called it")

        monkeypatch.setattr(sampler, "postselect", refuse)
        monkeypatch.setattr(sampler, "word_to_bits", refuse)
        ens = ImbalanceEnsemble(0.5, 8)
        run = run_sampled(
            ens, ChainConfig(8, 3, HEIS), SampleConfig(20, 10, seed=4),
            postselect_mode=mode,
        )
        assert run.yield_fraction() == 1.0


class Served:
    """A stream stub that serves given numbers in order: `random` and
    `standard_normal` the next ones, and `choice` the next one searched in
    the normalized cumsum of p, as `Generator.choice` does."""

    def __init__(self, *values):
        self.values = np.concatenate([np.ravel(v) for v in values])
        self.used = 0

    def random(self, size=None):
        end = self.used + (1 if size is None else math.prod(np.atleast_1d(size)))
        out, self.used = self.values[self.used : end], end
        return out[0] if size is None else out.reshape(size)

    standard_normal = random

    def choice(self, a, p):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, self.random(), side="right"))


def drawn_numbers(ens, config, sample, noise, i):
    """State i's prepared bits and the numbers its shots draw from counter
    block 1, one column (or row) per shot: disorder normals, per half-layer
    k0 thinning and k0 site uniforms and a measurement uniform (None for
    an empty window), then the decay uniforms of the sites outside the
    window and the readout uniforms of every site."""
    phys = _prepare(ens, sample, config.cycles)[1][i]
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    lo, hi = config.window
    layers = brickwork_layers(hi - lo, lo, config.layer_order) * t
    jitter, dephasing = noise.angle_jitter_sd, noise.dephasing_sd
    rng = _philox(sample.seed, _substream(t, i), 1)
    normals = uniforms = u = None
    if hi > lo:
        pairs = 2 * sum(map(len, layers)) if jitter > 0 else 0
        z_angles = len(layers) * (hi - lo) if dephasing > 0 else 0
        normals = rng.standard_normal((pairs + z_angles, shots))
        damped = len(layers) if noise.half_layer_decay > 0 else 0
        k0 = int(phys[lo:hi].sum())
        uniforms = rng.random((damped, 2, k0, shots))
        u = rng.random(shots)
    decay = rng.random((shots, n - (hi - lo)))
    flips = rng.random((shots, n))
    return phys, normals, uniforms, u, decay, flips


def replayed_jumps(k0, p_decay, thinning):
    """Jumps of one shot whose window starts with k0 ones, from its
    thinning uniforms (half-layers, k0): on each half-layer, the number of
    its first `ones` uniforms below p_decay, `ones` the count it has left."""
    ones = k0
    for row in thinning:
        ones -= np.count_nonzero(row[:ones] < p_decay)
    return k0 - ones


def drawn_survivors(ens, config, sample, noise, i):
    """Which shots of state i can still read out their prepared popcount,
    one shot at a time from the numbers they drew: U >= J + D, with J the
    jumps of `replayed_jumps`, D the ones outside the window that decay and
    U the sites whose readout uniform lies below e0."""
    phys, _, uniforms, _, decay, flips = drawn_numbers(ens, config, sample, noise, i)
    lo, hi = config.window
    outside = np.r_[:lo, hi:config.n_qubits]
    k0 = int(phys[lo:hi].sum())
    p_bit = noise.bit_decay(float(config.cycles))
    alive = []
    for shot in range(sample.shots_per_state):
        jumps = 0
        if uniforms is not None:
            thinning = uniforms[:, 0, :, shot]
            jumps = replayed_jumps(k0, noise.half_layer_decay, thinning)
        decays = np.count_nonzero((phys[outside] == 1) & (decay[shot] < p_bit))
        raised = np.count_nonzero(flips[shot] < noise.e0)
        alive.append(raised >= jumps + decays)
    return np.array(alive)


def per_shot_measured(ens, config, sample, noise, i):
    """The measured rows of state i of a noisy run, before the relabeling
    is undone, as the route before column blocks ran them: every shot its
    own single-state trajectory, reading its own column of the arrays the
    state draws from counter block 1 (disorder normals, per half-layer k0
    thinning and k0 site uniforms, a measurement uniform), its disorder
    one number at a time, then one `damping_step` per half-layer, the
    measurement, then its row of the decay outside the window and of the
    readout flips."""
    phys, normals, uniforms, u, decay, flips = drawn_numbers(
        ens, config, sample, noise, i
    )
    n, t, params = config.n_qubits, config.cycles, config.params
    shots = sample.shots_per_state
    lo, hi = config.window
    layers = brickwork_layers(hi - lo, lo, config.layer_order) * t
    jitter, dephasing = noise.angle_jitter_sd, noise.dephasing_sd
    damped = len(layers) if noise.half_layer_decay > 0 else 0
    measured = np.tile(phys, (shots, 1))
    for shot, row in enumerate(measured):
        if hi > lo:
            disorder = Served(normals[:, shot])
            circuit = []
            for bonds in layers:
                gates = [params] * len(bonds)
                if jitter > 0:
                    gates = [
                        FSimParams(
                            params.theta + jitter * disorder.standard_normal(),
                            params.phi + jitter * disorder.standard_normal(),
                            params.convention,
                        )
                        for _ in bonds
                    ]
                z = None
                if dephasing > 0:
                    z = dephasing * disorder.standard_normal(hi - lo)
                circuit.append((bonds, gates, z))
            state = basis_state(phys[lo:hi])
            for l, (bonds, gates, z) in enumerate(circuit):
                for bond, gate in zip(bonds, gates):
                    state.apply_fsim(bond, gate)
                if z is not None:
                    state.apply_diagonal_phases(z)
                if damped:
                    thin, sites = uniforms[l, :, :, shot]
                    k = state.basis.n_excitations
                    state = damping_step(
                        state, noise.half_layer_decay, Served(thin[:k], sites)
                    )
            index = _measure_indices(_cdf(state.probabilities()), Served(u[shot]), 1)[0]
            row[lo:hi] = word_to_bits(state.basis.words[index], hi - lo)
        outside = np.r_[:lo, hi:n]
        row[outside] = damp_bits(phys[outside], float(t), noise, decay[shot])
        row[:] = readout_flip(row, noise, flips[shot])
    return measured


def per_shot_record(ens, config, sample, noise, mode, i, measured=None):
    """State i's (bits, counts, kept) row, tallied from `per_shot_measured`'s
    rows (or from `measured`, those rows computed before)."""
    bits, _, flagged = (column[i] for column in _prepare(ens, sample, config.cycles))
    if measured is None:
        measured = per_shot_measured(ens, config, sample, noise, i)
    every = np.ones(len(measured), dtype=bool)
    return bits, *_tally(bits, flagged, measured, config, mode, every)


class TestBatchedNoisyRoute:
    NOISE = NoiseConfig(
        t1_cycles=1.5, e0=0.05, e1=0.1, angle_jitter_sd=0.3, dephasing_sd=0.2
    )

    @staticmethod
    def traced_run(monkeypatch, ens, config, sample, noise, mode):
        """`_noisy_records`, checking that no block is wider than the chunk
        rule allows; returns the run's (initial bits, counts, kept) arrays,
        the block widths, the number of jumps and each state's measured
        rows and evolved shots, as `_tally` receives them, by state."""
        widths, jumps, rows, alive = [], [], {}, {}
        prepared = _prepare(ens, sample, config.cycles)
        apply_fsim_tables = _kernels.apply_fsim_tables
        damp_columns = sampler.damp_columns
        tally = sampler._tally

        def kernel(amps, *args):
            dim, m = amps.shape
            assert m <= max(1, ensemble._CHUNK_AMPLITUDES // dim)
            widths.append(m)
            return apply_fsim_tables(amps, *args)

        def damping(block, *args):
            moved = damp_columns(block, *args)
            k = block.basis.n_excitations
            jumps.extend(
                j for lowered, picked in moved
                if lowered.basis.n_excitations < k for j in picked
            )
            return moved

        def tallying(bits, flagged, measured, config, mode, evolved):
            # batches run by popcount: the state is the prepared row that
            # `bits` views
            [i] = [
                i for i, row in enumerate(prepared[0]) if np.shares_memory(row, bits)
            ]
            rows[i], alive[i] = measured, evolved
            return tally(bits, flagged, measured, config, mode, evolved)

        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "apply_fsim_tables", kernel)
            patch.setattr(sampler, "damp_columns", damping)
            patch.setattr(sampler, "_tally", tallying)
            counts, kept = sampler._noisy_records(
                prepared, config, sample, noise, mode, 1
            )
        return (prepared[0], counts, kept), widths, len(jumps), rows, alive

    @staticmethod
    def assert_records_are_the_per_shot_ones(
        run, rows, alive, ens, config, sample, noise, mode
    ):
        # the evolved shots are those the rule restated shot by shot keeps
        # (every shot without a filter), and every other shot reads out a
        # popcount other than its prepared one; every measured bit of an
        # evolved shot, before any filter, then the rows
        initial_bits, counts, kept = run
        assert len(counts) == len(rows) == sample.n_initial_states
        for i in range(len(counts)):
            evolved = np.ones(sample.shots_per_state, dtype=bool)
            if mode != "none":
                evolved = drawn_survivors(ens, config, sample, noise, i)
            assert np.array_equal(alive[i], evolved)
            measured = per_shot_measured(ens, config, sample, noise, i)
            phys = _prepare(ens, sample, config.cycles)[1][i]
            assert np.all(measured[~evolved].sum(axis=1) != phys.sum())
            assert np.array_equal(rows[i][evolved], measured[evolved])
            bits, want_counts, want_kept = per_shot_record(
                ens, config, sample, noise, mode, i, measured
            )
            assert np.array_equal(initial_bits[i], bits)
            assert np.array_equal(counts[i], want_counts)
            assert kept[i] == want_kept

    @pytest.mark.parametrize("mode", ["number_only", "causal", "none"])
    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_records_equal_the_per_shot_loop(
        self, convention, order, relabel, mode, monkeypatch
    ):
        # chunks of 64 amplitudes: 3 columns of the 6-site window's middle
        # sector, so 14 shots span several chunks, and the columns that
        # jump stay within the same rule; a filter rejects every
        # shot that jumps here before it evolves, so the jumps are covered
        # without one
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 64)
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        ens = ImbalanceEnsemble(0.5, 8)
        config = ChainConfig(8, 3, params, order)
        sample = SampleConfig(5, 14, seed=41, relabel_enabled=relabel)
        run, widths, jumps, rows, alive = self.traced_run(
            monkeypatch, ens, config, sample, self.NOISE, mode
        )
        if mode == "none":
            assert max(widths) > 1 and jumps > 0
        else:
            evolved = np.concatenate(list(alive.values()))
            assert 0 < evolved.sum() < evolved.size
        self.assert_records_are_the_per_shot_ones(
            run, rows, alive, ens, config, sample, self.NOISE, mode
        )

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(angle_jitter_sd=0.3, e0=0.05),
            NoiseConfig(t1_cycles=1.0, dephasing_sd=0.2),
            NoiseConfig(t1_cycles=1.0, e1=0.1),
        ],
    )
    def test_each_noise_channel_alone_equals_the_per_shot_loop(self, noise, monkeypatch):
        # the filter rejects every shot that jumps here before it evolves:
        # the run without it covers the jumps
        ens = ImbalanceEnsemble(0.5, 10)
        config = ChainConfig(10, 2, HEIS)  # window sites 3..6, decay outside
        sample = SampleConfig(6, 40, seed=8)
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 32)
        for mode in ("none", "number_only"):
            run, widths, jumps, rows, alive = self.traced_run(
                monkeypatch, ens, config, sample, noise, mode
            )
            if mode == "none":
                assert max(widths) > 1
                assert (jumps > 0) == (noise.half_layer_decay > 0)
            self.assert_records_are_the_per_shot_ones(
                run, rows, alive, ens, config, sample, noise, mode
            )

    def test_records_equal_the_per_shot_loop_at_the_real_chunk_size(self, monkeypatch):
        # a 10-site window: 320 shots of a sector of dimension >= 210 span
        # two chunks or more
        n, t = 12, 5
        ens = ImbalanceEnsemble(0.5, n)
        config = ChainConfig(n, t, HEIS)
        sample = SampleConfig(3, 320, seed=3)
        lo, hi = config.window
        _, phys, _ = _prepare(ens, sample, t)
        chunks = [
            math.ceil(320 / ensemble._chunk_columns(hi - lo, int(row[lo:hi].sum())))
            for row in phys
        ]
        assert max(chunks) >= 2
        # the filter rejects every shot that jumps here before it evolves:
        # the run without it covers the jumps
        for mode in ("none", "causal"):
            run, widths, jumps, rows, alive = self.traced_run(
                monkeypatch, ens, config, sample, self.NOISE, mode
            )
            if mode == "none":
                assert jumps > 0
            self.assert_records_are_the_per_shot_ones(
                run, rows, alive, ens, config, sample, self.NOISE, mode
            )


class TestStatePacking:
    NOISE = TestBatchedNoisyRoute.NOISE

    @staticmethod
    def rule_blocks(ens, config, sample, noise, mode):
        """The first blocks of a noisy run by the batch rule, written out,
        each as the state of each of its columns.  The states of one window
        popcount k0 join a batch in index order while its shots times
        C(width, k0) plus the numbers of a shot (disorder normals, 2 k0 per
        damped half-layer, one measurement uniform) stay within
        `_CHUNK_AMPLITUDES`.  The shots of a batch that evolve, those of
        `drawn_survivors` under a filter, run in chunks of `_chunk_columns`
        of the largest sector damping can lower them into."""
        n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
        lo, hi = config.window
        width = hi - lo
        layers = brickwork_layers(width, lo, config.layer_order) * t
        normals = sum(disorder_draws(noise, width, layers))
        damped = len(layers) if noise.half_layer_decay > 0 else 0
        ones = _prepare(ens, sample, t)[1][:, lo:hi].sum(axis=1).tolist()
        evolved = [np.ones(shots, dtype=bool)] * len(ones)
        if mode != "none":
            evolved = [
                drawn_survivors(ens, config, sample, noise, i)
                for i in range(len(ones))
            ]
        blocks = []
        for k in sorted(set(ones)):
            per_shot = math.comb(width, k) + normals + 2 * k * damped + 1
            batches = [[]]
            for i in (i for i, o in enumerate(ones) if o == k):
                if batches[-1] and (len(batches[-1]) + 1) * shots * per_shot > (
                    ensemble._CHUNK_AMPLITUDES
                ):
                    batches.append([])
                batches[-1].append(i)
            # a chunk fits the largest sector damping can lower it into
            size = ensemble._chunk_columns(width, min(k, width // 2))
            for batch in batches:
                columns = [i for i in batch for _ in range(evolved[i].sum())]
                blocks += [columns[j : j + size] for j in range(0, len(columns), size)]
        return blocks

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("budget", [128, 2048])
    def test_a_record_does_not_depend_on_its_batch_mates(
        self, budget, threads, monkeypatch
    ):
        # at 128 amplitudes most states run alone, some in two chunks or
        # more; at 2048 the shots of several states share blocks at every t.
        # The causal filter leaves few shots of a state to evolve here, so
        # the chunks are covered without it
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", budget)
        blocks = []
        trajectory = sampler._trajectory

        def spy(state, *args):
            rows = np.argmax(np.abs(state.columns()), axis=0)
            blocks.append(tuple(state.basis.words[rows].tolist()))
            return trajectory(state, *args)

        monkeypatch.setattr(sampler, "_trajectory", spy)
        ens = ImbalanceEnsemble(0.5, 8)
        many, few = (SampleConfig(states, 8, seed=4) for states in (7, 3))
        shared = chunked = 0
        for t, mode in itertools.product((1, 2, 3), ("causal", "none")):
            config = ChainConfig(8, t, HEIS)

            def run(sample):
                return run_sampled(
                    ens, config, sample, noise=self.NOISE,
                    postselect_mode=mode, threads=threads,
                )

            blocks.clear()
            got = run(many)
            lo, hi = config.window
            words = bits_to_word(_prepare(ens, many, t)[1][:, lo:hi])
            rule = self.rule_blocks(ens, config, many, self.NOISE, mode)
            assert sorted(blocks) == sorted(tuple(words[b].tolist()) for b in rule)
            shared += sum(len(set(b)) > 1 for b in rule)
            # a state whose evolved shots span several blocks
            spans = collections.Counter(b[0] for b in rule if len(set(b)) == 1)
            chunked += sum(count > 1 for count in spans.values())
            alone = run(few)
            assert len(alone.kept) == 3
            for i in range(3):
                assert np.array_equal(got.counts[i], alone.counts[i])
                assert got.kept[i] == alone.kept[i]
            for i in range(len(got.kept)):
                _, counts, kept = per_shot_record(
                    ens, config, many, self.NOISE, mode, i
                )
                assert np.array_equal(got.counts[i], counts)
                assert got.kept[i] == kept
        assert shared > 0
        if budget == 128:
            assert chunked > 0


class TestPopcountRule:
    """A filtering mode evolves only the shots whose drawn numbers leave
    their prepared popcount within reach (`noise.may_keep_popcount`)."""

    @staticmethod
    def every_shot(k, p_decay, uniforms, decayed, flips, e0):
        return np.ones(len(flips), dtype=bool)

    # order, convention, relabeling and per-qubit e0 rotate through their
    # 16 combinations along the sweep of the other axes
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_evolving_every_shot_changes_no_record(self, n, monkeypatch):
        rotations = itertools.cycle(
            itertools.product(
                LayerOrder, PhaseConvention, (False, True), (False, True)
            )
        )
        sweep = itertools.product(
            (1.5, 20, math.inf), (0.0, 0.5, math.inf), ("number_only", "causal")
        )
        for t1, mu, mode in sweep:
            order, convention, relabel, per_qubit = next(rotations)
            e0 = np.linspace(0.0, 0.1, n) if per_qubit else 0.05
            noise = NoiseConfig(
                t1_cycles=t1, e0=e0, e1=0.1, angle_jitter_sd=0.3, dephasing_sd=0.2
            )
            params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
            config = ChainConfig(n, 1 + n % 4, params, order)
            sample = SampleConfig(6, 12, seed=n, relabel_enabled=relabel)
            args = ImbalanceEnsemble(mu, n), config, sample
            got = run_sampled(*args, noise=noise, postselect_mode=mode)
            with monkeypatch.context() as patch:
                patch.setattr(sampler, "may_keep_popcount", self.every_shot)
                want = run_sampled(*args, noise=noise, postselect_mode=mode)
            assert np.array_equal(got.counts, want.counts)
            assert np.array_equal(got.kept, want.kept)

    @pytest.mark.parametrize("mode", ["none", "number_only"])
    def test_every_evolved_column_makes_the_jumps_its_numbers_give(
        self, mode, monkeypatch
    ):
        # strong damping and readout: under the filter the shots that jump
        # and survive are those whose readout may restore their popcount
        noise = NoiseConfig(t1_cycles=1.0, e0=0.3, e1=0.1, dephasing_sd=0.2)
        evolved, jumped = [], []
        trajectory = sampler._trajectory

        def spy(state, lo, config, noise, numbers):
            k0 = state.basis.n_excitations
            blocks = trajectory(state, lo, config, noise, numbers)
            for block, columns in blocks:
                for c in columns:
                    thinning = numbers[1][:, 0, :, c]
                    made = k0 - block.basis.n_excitations
                    assert made == replayed_jumps(k0, noise.half_layer_decay, thinning)
                    jumped.append(made)
                evolved.append(columns.size)
            return blocks

        monkeypatch.setattr(sampler, "_trajectory", spy)
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 64)
        run = run_sampled(
            ImbalanceEnsemble(0.5, 8), ChainConfig(8, 3, HEIS),
            SampleConfig(8, 16, seed=2), noise=noise, postselect_mode=mode,
        )
        assert min(jumped) == 0 and max(jumped) > 1
        if mode == "none":
            assert sum(evolved) == 8 * 16
        else:
            assert 0 < sum(evolved) < 8 * 16 and run.kept.sum() > 0

    def test_without_a_filter_every_shot_evolves(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the rule ran without a filter")

        columns = []
        trajectory = sampler._trajectory

        def spy(state, *args):
            columns.append(state.columns().shape[1])
            return trajectory(state, *args)

        monkeypatch.setattr(sampler, "may_keep_popcount", refuse)
        monkeypatch.setattr(sampler, "_trajectory", spy)
        run = run_sampled(
            ImbalanceEnsemble(0.5, 10), ChainConfig(10, 2, HEIS),
            SampleConfig(9, 20, seed=6), noise=TestBatchedNoisyRoute.NOISE,
            postselect_mode="none",
        )
        assert sum(columns) == 9 * 20
        assert np.all(run.kept == 20)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", ["number_only", "causal"])
    def test_a_batch_of_rejected_shots_evolves_nothing(self, mode, threads, monkeypatch):
        # every excitation decays on the first half-layer and no readout
        # raises a bit: each shot of a state with a one loses it
        def refuse(*args):
            raise AssertionError("evolved a rejected shot")

        monkeypatch.setattr(sampler, "_trajectory", refuse)
        config = ChainConfig(10, 2, HEIS)
        lo, hi = config.window
        phys = np.zeros((5, 10), dtype=np.int64)
        phys[:, lo] = 1
        phys[1:, 0] = 1  # and one outside
        prepared = (phys, phys, np.zeros(5, dtype=bool))
        counts, kept = sampler._noisy_records(
            prepared, config, SampleConfig(5, 30, seed=1),
            NoiseConfig(t1_cycles=1e-3), mode, threads,
        )
        assert not counts.any() and not kept.any()


class TestNoisyChannels:
    """The decay outside the window and the readout flips read uniforms
    the states drew, in one call each per batch."""

    NOISE = NoiseConfig(t1_cycles=1.5, e0=0.05, e1=0.1, dephasing_sd=0.2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_channel_runs_once_per_batch_on_drawn_uniforms(
        self, threads, monkeypatch
    ):
        # a small budget splits the states of a popcount into several batches
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 512)
        batches, calls = [], {"damp_bits": [], "readout_flip": []}
        thread_map = sampler.thread_map

        def mapping(fn, items, threads):
            batches.extend(items)
            return thread_map(fn, items, threads)

        def spying(name):
            channel = getattr(sampler, name)

            def spy(bits, *args):
                u = args[-1]
                assert isinstance(u, np.ndarray) and u.shape == bits.shape
                calls[name].append(len(bits))
                return channel(bits, *args)

            return spy

        monkeypatch.setattr(sampler, "thread_map", mapping)
        for name in calls:
            monkeypatch.setattr(sampler, name, spying(name))
        shots = 6
        run_sampled(
            ImbalanceEnsemble(0.5, 10), ChainConfig(10, 2, HEIS),
            SampleConfig(12, shots, seed=4), noise=self.NOISE,
            postselect_mode="causal", threads=threads,
        )
        assert len(batches) > 2 and max(map(len, batches)) > 1
        rows = sorted(len(batch) * shots for batch in batches)
        for name, sizes in calls.items():
            assert sorted(sizes) == rows, name


class TestWindowCheck:
    @pytest.mark.parametrize("width", range(4, 15, 2))
    def test_the_noiseless_estimate_is_what_the_engine_allocates(
        self, width, monkeypatch
    ):
        # one complex64 operator set, the complex128 build of its largest
        # operator, and one complex64 word of the middle sector with its
        # scratch, in bytes: the cap set to exactly that admits the window,
        # one byte less refuses it
        half, single = width // 2, np.complex64
        order = LayerOrder.EVEN_FIRST
        ops, _ = ensemble._half_chain_operators(half, HEIS, order, 0, single)
        built, _ = ensemble._half_chain_operators(half, HEIS, order, 0)
        word = ensemble._SectorBlocks(half, half, half // 2, [0], single)
        scratch = word._halves[word.lo][1].base
        assert {w.dtype for w in ops} == {word.amps.dtype, scratch.dtype} == {
            np.dtype(single)
        }
        need = sum(w.nbytes for w in ops) + word.amps.nbytes + scratch.nbytes
        need += max(w.nbytes for w in built)
        monkeypatch.setattr(ensemble, "MEMORY_CAP", need)
        ensemble.check_memory(width, "sampled")
        monkeypatch.setattr(ensemble, "MEMORY_CAP", need - 1)
        with pytest.raises(EnumerationCapError, match=f"of {width} sites"):
            ensemble.check_memory(width, "sampled")

    @pytest.mark.parametrize("width", range(4, 15, 2))
    def test_the_noisy_estimate_is_what_the_sector_bases_keep(
        self, width, monkeypatch
    ):
        # every sector's bond tables, site bits and lowering tables, in
        # bytes: the cap set to exactly that admits the window, one byte
        # less refuses it
        need = 0
        for k in range(width + 1):
            basis = SectorBasis(width, k)
            for bond in range(width - 1):
                tables = basis.bond_tables(bond)
                need += tables.pairs.nbytes + tables.order.nbytes
            need += basis.site_bits().nbytes
            if k > 0:
                need += sum(table.nbytes for table in basis.lowering())
        monkeypatch.setattr(ensemble, "MEMORY_CAP", need)
        ensemble.check_memory(width, "noisy-sampled")
        monkeypatch.setattr(ensemble, "MEMORY_CAP", need - 1)
        with pytest.raises(EnumerationCapError, match=f"of {width} sites"):
            ensemble.check_memory(width, "noisy-sampled")

    def test_a_run_holds_the_bases_of_its_own_window_alone(self, monkeypatch):
        # after the runs of t = 1..7 on 46 sites, as `spinfcs run` makes
        # them, the live sector bases hold no more than the 14-site
        # window's noisy count, which the bases of the earlier windows,
        # left in the cache, exceeded (9.21 MB against 7.93 MB)
        noise = NoiseConfig(
            t1_cycles=20, e0=0.01, e1=0.02, angle_jitter_sd=0.02, dephasing_sd=0.05
        )
        for t in range(1, 8):
            run_sampled(
                ImbalanceEnsemble(0.5, 46), ChainConfig(46, t, HEIS),
                SampleConfig(10, 20, seed=3), noise=noise,
            )
        gc.collect()
        held = 0
        for basis in (o for o in gc.get_objects() if isinstance(o, SectorBasis)):
            arrays = [basis.words, basis._site_bits, *(basis._lowering or ())]
            for tables in basis._bond_tables.values():
                arrays += [tables.pairs, tables.order]
            held += sum(a.nbytes for a in arrays if a is not None)
        # the count is at least what is held: a cap one byte below refuses
        monkeypatch.setattr(ensemble, "MEMORY_CAP", held - 1)
        with pytest.raises(EnumerationCapError):
            ensemble.check_memory(14, "noisy-sampled")

    # the rates of the noisy benchmark workload
    RATES = NoiseConfig(
        t1_cycles=20, e0=0.01, e1=0.02, angle_jitter_sd=0.02, dephasing_sd=0.05
    )

    @pytest.mark.parametrize("relabeled", [False, True])
    @pytest.mark.parametrize(
        "t, mode",
        [(t, mode) for t in (1, 3, 7) for mode in ("none", "causal")],
    )
    def test_the_shot_estimate_bounds_what_a_batch_holds(
        self, t, mode, relabeled, monkeypatch
    ):
        # one 46-site state of more shots than a batch of several holds,
        # its window all ones (k0 = w, the most damping uniforms) and 10
        # ones outside: the traced peak of its run is at most `shot_bytes`
        # plus what a run of 8 shots peaks at (its generator and
        # bookkeeping), and more than half of it.  Every sector's tables,
        # which `check_memory` counts apart, are built first: 8 shots do
        # not jump into every sector that 400 reach.  At t = 7 the chunk
        # budget is lowered from 2^16 to 2^8, so that, as at the refusal
        # edge there, the shots outnumber a chunk's columns at every k0:
        # the numbers gathered for a chunk and its realized circuit are
        # charged for one chunk, not for every shot.  Damping moves a
        # column from the one-word sector into sectors of up to C(14, 7)
        # words, so a chunk holds one column here, in every mode, and 400
        # shots, each a one-column trajectory, still fill one batch.  The
        # 8-shot base already holds one chunk's damping transient, so this
        # cannot tell whether `shot_bytes` covers that transient;
        # `TestDampBlocks` ties it to a traced peak
        shots = 20_000
        if t == 7:
            monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", 1 << 8)
            shots = 400
        config = ChainConfig(46, t, HEIS)
        lo, hi = config.window
        phys = np.zeros((1, 46), dtype=np.int64)
        phys[0, :10] = phys[0, lo:hi] = 1
        bits = 1 - phys if relabeled else phys
        prepared = (bits, phys, np.array([relabeled]))
        for k in range(hi - lo + 1):
            basis = sector_basis(hi - lo, k)
            basis.site_bits()
            for bond in range(hi - lo - 1):
                basis.bond_tables(bond)
            if k:
                basis.lowering()

        def peak(shots):
            sample = SampleConfig(1, shots, seed=5)
            tracemalloc.start()
            try:
                sampler._noisy_records(prepared, config, sample, self.RATES, mode, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        base, held = peak(8), peak(shots)
        need = sampler.shot_bytes(config, shots, self.RATES)
        assert need / 2 < held <= need + base

    def test_a_noisy_state_of_too_many_shots_is_refused_before_drawing(
        self, monkeypatch
    ):
        # 10^7 shots of a 2-site window on 46 sites hold about 17 GB of
        # per-shot arrays; 10^5 of them fit
        def drawing(*args):
            raise AssertionError("drew before the memory check")

        monkeypatch.setattr(sampler, "_prepare", drawing)
        config = ChainConfig(46, 1, HEIS)
        fits = sampler.shot_bytes(config, 10**5, self.RATES)
        ensemble.check_memory(2, "noisy-sampled", fits)
        tracemalloc.start()
        try:
            with pytest.raises(
                EnumerationCapError, match="of 2 sites and a batch of shots needs"
            ):
                run_sampled(
                    ImbalanceEnsemble(0.5, 46), config, SampleConfig(1, 10**7),
                    noise=self.RATES,
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("n, t", [(2, 1), (8, 4), (12, 6), (46, 1), (46, 3)])
    def test_the_state_estimate_bounds_what_a_noiseless_run_holds(
        self, n, t, relabel
    ):
        # the traced peak of a noiseless run of many states is at most
        # `state_bytes` plus what a run of 10 states peaks at (its
        # generators, operators and bookkeeping), and more than a third of
        # `state_bytes`
        config = ChainConfig(n, t, HEIS)

        def peak(states):
            sample = SampleConfig(states, 100, seed=3, relabel_enabled=relabel)
            tracemalloc.start()
            try:
                run_sampled(ImbalanceEnsemble(0.5, n), config, sample)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # the sector bases, which `check_memory` counts apart
        base, held = peak(10), peak(20_000)
        need = sampler.state_bytes(config, 20_000)
        assert need / 3 < held <= need + base

    def test_a_noiseless_run_of_too_many_states_is_refused_before_drawing(
        self, monkeypatch
    ):
        # 10^7 states of a 2-site window on 46 sites hold about 23 GB of
        # per-state arrays; 10^5 of them fit
        def drawing(*args):
            raise AssertionError("drew before the memory check")

        monkeypatch.setattr(sampler, "_prepare", drawing)
        config = ChainConfig(46, 1, HEIS)
        ensemble.check_memory(2, "sampled", sampler.state_bytes(config, 10**5))
        sample = SampleConfig(10**7, 100)
        with pytest.raises(EnumerationCapError, match="of 2 sites and its states"):
            run_sampled(ImbalanceEnsemble(0.5, 46), config, sample)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_run_sampled_refuses_before_drawing(self, noisy, monkeypatch):
        def drawing(*args):
            raise AssertionError("drew before the window check")

        monkeypatch.setattr(sampler, "_prepare", drawing)
        with pytest.raises(EnumerationCapError):
            run_sampled(
                ImbalanceEnsemble(0.5, 46), ChainConfig(46, 20, HEIS),
                SampleConfig(1, 1), noise=NoiseConfig() if noisy else None,
            )


def one_jump(m):
    """Damping uniforms of m columns of a sector with 4 ones: each column
    jumps once (only its first thinning uniform lies below 0.5), at the
    site the uniform 0.5 picks."""
    uniforms = np.full((2, 4, m), 0.9)
    uniforms[0, 0] = 0.1
    uniforms[1, 0] = 0.5
    return uniforms


class TestDampBlocks:
    def test_jumped_columns_join_one_block_of_their_count(self):
        # 4 columns of the 6-site sector with 4 ones, two blocks of 2, all
        # jump into the one with 3: one block, in input order, each column
        # as it would be alone
        basis = sector_basis(6, 4)
        amps = np.random.default_rng(3).standard_normal((basis.dimension, 4)) + 0j
        amps /= np.linalg.norm(amps, axis=0)
        blocks = [
            (SectorState(basis, amps[:, part].copy()), np.arange(4)[part])
            for part in (slice(0, 2), slice(2, 4))
        ]
        blocks = sampler._damp_blocks(blocks, 0.5, one_jump(4))
        assert [(b.basis.n_excitations, c.tolist()) for b, c in blocks] == [
            (3, [0, 1, 2, 3])
        ]
        [(lowered, columns)] = blocks
        for got, c in zip(lowered.columns().T, columns):
            alone = SectorState(basis, amps[:, c : c + 1].copy())
            [(want, _)] = sampler.damp_columns(alone, 0.5, one_jump(1))
            assert np.array_equal(got, want.columns()[:, 0])

    @pytest.mark.parametrize("width", [10, 14, 18])
    @pytest.mark.parametrize("full", [False, True])
    def test_a_damping_step_peaks_within_the_charged_amplitudes(self, width, full):
        # one chunk as `_noisy_records` cuts it, `_chunk_columns` of the
        # middle sector, whose windows start with k0 = w/2 or w ones, and
        # every column making k0 jumps in one step, down through every
        # sector: the traced peak, the input block included, lies between
        # half and all of what `shot_bytes` charges for the chunk's
        # amplitudes, `_AMPLITUDE_BYTES` each of the middle sector's
        k0 = width if full else width // 2
        columns = ensemble._chunk_columns(width, width // 2)
        basis = sector_basis(width, k0)
        rng = np.random.default_rng(width)
        uniforms = np.zeros((2, k0, columns))
        uniforms[1] = rng.random((k0, columns))

        def chunk():
            shape = (basis.dimension, columns)
            amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            amps /= np.linalg.norm(amps, axis=0)
            return [(SectorState(basis, amps), np.arange(columns))]

        sampler._damp_blocks(chunk(), 0.5, uniforms)  # the sector tables
        tracemalloc.start()
        try:
            blocks = sampler._damp_blocks(chunk(), 0.5, uniforms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [b.basis.n_excitations for b, _ in blocks] == [0]
        charged = columns * math.comb(width, width // 2) * sampler._AMPLITUDE_BYTES
        assert charged / 2 < peak <= charged

    @pytest.mark.parametrize("mode", ["none", "number_only", "causal"])
    @pytest.mark.parametrize(
        "n, t, budget", [(8, 3, 1 << 8), (10, 4, 1 << 10), (46, 4, 1 << 12)]
    )
    def test_the_chunk_rule_keeps_each_count_in_one_block(
        self, n, t, budget, mode, monkeypatch
    ):
        # two states of each window popcount k0 = 0..w, 8 times as many
        # shots as a chunk of the middle sector holds, strong damping:
        # after every damping step each excitation count's columns are
        # one block, some merged from several, within `_chunk_columns` of
        # their sector.  Nothing splits them, so the chunk rule alone must
        # keep them there (chunks sized by k0 fail here under "none", and
        # under every mode at n = 46)
        monkeypatch.setattr(ensemble, "_CHUNK_AMPLITUDES", budget)
        config = ChainConfig(n, t, HEIS)
        lo, hi = config.window
        width = hi - lo
        shots = 8 * ensemble._chunk_columns(width, width // 2)
        phys = np.zeros((2 * (width + 1), n), dtype=np.int64)
        for r, row in enumerate(phys):
            row[:lo] = row[lo : lo + r // 2] = 1
        prepared = (phys, phys, np.zeros(len(phys), dtype=bool))
        noise = NoiseConfig(t1_cycles=1.5, e0=0.5, e1=0.1)
        damp_blocks = sampler._damp_blocks
        merged = []

        def damping(blocks, *args):
            out = damp_blocks(blocks, *args)
            counts = [b.basis.n_excitations for b, _ in out]
            assert counts == sorted(set(counts))
            for block, columns in out:
                k = block.basis.n_excitations
                assert columns.size <= ensemble._chunk_columns(width, k)
            # which input block each column came from
            source = {c: i for i, (_, cs) in enumerate(blocks) for c in cs.tolist()}
            merged.extend(len({source[c] for c in cs.tolist()}) > 1 for _, cs in out)
            return out

        monkeypatch.setattr(sampler, "_damp_blocks", damping)
        sample = SampleConfig(len(phys), shots, seed=n + t)
        sampler._noisy_records(prepared, config, sample, noise, mode, 1)
        assert any(merged)


def phased_trajectory(state, lo, config, noise, numbers):
    """`_trajectory` with its Z rotations applied: per half-layer, each
    gate by `apply_fsim` with the layer's `gate_params`, then the layer's
    `apply_diagonal_phases`, then its damping step."""
    width = state.basis.n_sites
    layers = brickwork_layers(width, lo, config.layer_order) * config.cycles
    normals, uniforms = numbers
    realizations = disorder_and_dephasing(config.params, noise, normals, width, layers)
    blocks = [(state, np.arange(state.columns().shape[1]))]
    for l, layer in enumerate(realizations):
        for block, columns in blocks:
            gates = gate_params(layer, config.params, columns)
            for bond, gate in zip(layer.bonds, gates):
                block.apply_fsim(bond, gate)
            if layer.z_angles is not None:
                block.apply_diagonal_phases(layer.z_angles[:, columns])
        if noise.half_layer_decay > 0.0:
            blocks = sampler._damp_blocks(blocks, noise.half_layer_decay, uniforms[l])
    return blocks


def by_column(blocks):
    """{input column: (sector basis, amplitudes)} of (block, columns) pairs."""
    return {
        c: (block.basis, amps)
        for block, columns in blocks
        for c, amps in zip(columns.tolist(), block.columns().T)
    }


class TestVirtualZ:
    """The noisy route never applies a Z rotation: the angles A summed so
    far ride on the hops of the next gates, and each column ends as psi
    with D_A psi, D_A = exp(-i sum_q A_q n_q), the state the applied
    rotations give, up to a phase per column that jumped."""

    @staticmethod
    def inputs(config, noise, m, seed):
        """m columns of the middle sector of `config`'s window, and their
        disorder normals and damping uniforms."""
        lo, hi = config.window
        width, k = hi - lo, (hi - lo) // 2
        layers = brickwork_layers(width, lo, config.layer_order) * config.cycles
        rng = np.random.default_rng(seed)
        words = rng.choice(sector_basis(width, k).words, m)
        normals = rng.standard_normal((sum(disorder_draws(noise, width, layers)), m))
        damped = len(layers) if noise.half_layer_decay > 0.0 else 0
        uniforms = rng.random((damped, 2, k, m))
        return words, width, lo, (normals, uniforms), layers

    @pytest.mark.parametrize(
        "jitter, dephasing", [(0.3, 0.0), (0.0, 0.4), (0.3, 0.4)]
    )
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_columns_are_the_phased_ones_up_to_the_accumulated_z(
        self, convention, order, jitter, dephasing
    ):
        # the 8-site chain's 3-cycle window is sites 1..6: anchored at an
        # odd site
        noise = NoiseConfig(
            t1_cycles=1.5, angle_jitter_sd=jitter, dephasing_sd=dephasing
        )
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        config = ChainConfig(8, 3, params, order)
        words, width, lo, numbers, layers = self.inputs(config, noise, 12, 5)
        assert lo % 2 == 1
        states = [SectorState.from_words(words, width) for _ in range(2)]
        got, want = (
            by_column(trajectory(state, lo, config, noise, numbers))
            for trajectory, state in zip((_trajectory, phased_trajectory), states)
        )
        realizations = disorder_and_dephasing(
            config.params, noise, numbers[0], width, layers
        )
        turns = sum(
            (layer.z_angles for layer in realizations if layer.z_angles is not None),
            np.zeros((width, len(words))),
        )
        k0 = width // 2
        assert sorted(got) == sorted(want) == list(range(len(words)))
        assert any(basis.n_excitations < k0 for basis, _ in got.values())
        for c, (basis, psi) in got.items():
            assert want[c][0] is basis
            ref = want[c][1]
            assert np.max(np.abs(np.abs(psi) ** 2 - np.abs(ref) ** 2)) <= 1e-12
            rotated = SectorState(basis, psi.copy())
            rotated.apply_diagonal_phases(turns[:, c])
            # a jump lowers D_A psi into D_A times the lowered psi, up to a phase
            overlap = np.vdot(rotated.amplitudes, ref)
            phase = overlap / abs(overlap)
            if basis.n_excitations == k0:
                assert abs(phase - 1.0) <= 1e-12
            assert np.max(np.abs(phase * rotated.amplitudes - ref)) <= 1e-12

    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_without_dephasing_the_columns_are_bitwise_the_phased_ones(
        self, convention, order
    ):
        for jitter in (0.0, 0.3):
            noise = NoiseConfig(t1_cycles=1.5, angle_jitter_sd=jitter)
            params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
            config = ChainConfig(8, 3, params, order)
            words, width, lo, numbers, _ = self.inputs(config, noise, 12, 6)
            states = [SectorState.from_words(words, width) for _ in range(2)]
            runs = [
                trajectory(state, lo, config, noise, numbers)
                for trajectory, state in zip((_trajectory, phased_trajectory), states)
            ]
            got, want = map(by_column, runs)
            assert [c.tolist() for _, c in runs[0]] == [c.tolist() for _, c in runs[1]]
            for c, (basis, psi) in got.items():
                assert want[c][0] is basis and np.array_equal(psi, want[c][1])

    def test_a_noisy_run_applies_no_diagonal_phases(self, monkeypatch):
        calls = []
        apply = SectorState.apply_diagonal_phases

        def spy(self, angles):
            calls.append(np.shape(angles))
            return apply(self, angles)

        monkeypatch.setattr(SectorState, "apply_diagonal_phases", spy)
        noise = NoiseConfig(t1_cycles=10.0, angle_jitter_sd=0.1, dephasing_sd=0.3)
        ens = ImbalanceEnsemble(0.5, 8)
        run = run_sampled(
            ens, ChainConfig(8, 3, HEIS), SampleConfig(4, 20, seed=2), noise=noise
        )
        assert run.kept.sum() > 0 and calls == []


class TestNoStateAcrossRuns:
    NOISE = TestBatchedNoisyRoute.NOISE

    def run(self, ens, config, sample, threads):
        return run_sampled(
            ens, config, sample, noise=self.NOISE, postselect_mode="causal",
            threads=threads,
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_run_leaves_nothing_for_the_next(self, threads):
        # run A then run B in one thread; B alone in a fresh thread; both
        # must be the per-shot rows of B (more shots in A than in B), so
        # no per-thread state carries over from one run to the next
        ens = ImbalanceEnsemble(0.5, 8)
        config_a, sample_a = ChainConfig(8, 2, HEIS), SampleConfig(4, 9, seed=1)
        config_b, sample_b = ChainConfig(8, 3, HEIS), SampleConfig(5, 6, seed=2)
        self.run(ens, config_a, sample_a, threads)
        after = self.run(ens, config_b, sample_b, threads)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as fresh:
            alone = fresh.submit(self.run, ens, config_b, sample_b, threads).result()
        for i in range(sample_b.n_initial_states):
            _, counts, kept = per_shot_record(
                ens, config_b, sample_b, self.NOISE, "causal", i
            )
            for got in (after, alone):
                assert np.array_equal(got.counts[i], counts)
                assert got.kept[i] == kept


class TestReproducibility:
    def test_bitwise_identical_across_thread_counts(self):
        for n, t, states, shots in ((6, 2, 24, 64), (12, 6, 1000, 40)):
            ens = ImbalanceEnsemble(0.5, n)
            config = ChainConfig(n, t, HEIS)
            for relabel in (True, False):
                sample = SampleConfig(states, shots, seed=999, relabel_enabled=relabel)
                if n == 12:  # the largest window sector spans several chunks
                    width = 2 * t
                    words = np.unique(window_words(ens, config, sample))
                    per_sector = np.bincount(
                        [
                            np.bitwise_count(words[picked[0]])
                            for picked in ensemble._word_chunks(words, width)
                        ]
                    )
                    assert per_sector[t] >= 2
                runs = [
                    run_sampled(ens, config, sample, threads=k) for k in (1, 2, 3, 8)
                ]
                first = runs[0]
                for other in runs[1:]:
                    assert len(other.counts) == states
                    for i in range(states):
                        assert np.array_equal(first.counts[i], other.counts[i])
                        assert np.array_equal(
                            first.initial_bits[i], other.initial_bits[i]
                        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("noise", [None, TestBatchedNoisyRoute.NOISE])
    def test_the_first_states_of_a_run_are_the_shorter_run(self, noise, threads):
        # a state's initial bits and tally do not depend on how many
        # states the run draws after it
        ens = ImbalanceEnsemble(0.5, 8)
        many, few = (SampleConfig(states, 12, seed=31) for states in (40, 13))
        for t in (1, 2, 3):
            config = ChainConfig(8, t, HEIS)
            for got, want in zip(_prepare(ens, many, t), _prepare(ens, few, t)):
                assert np.array_equal(got[:13], want)
            longer, shorter = (
                run_sampled(
                    ens, config, sample, noise=noise, postselect_mode="causal",
                    threads=threads,
                )
                for sample in (many, few)
            )
            assert len(shorter.kept) == 13
            for i in range(13):
                assert np.array_equal(longer.initial_bits[i], shorter.initial_bits[i])
                assert np.array_equal(longer.counts[i], shorter.counts[i])
                assert longer.kept[i] == shorter.kept[i]

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("noise", [None, NoiseConfig(e0=0.01)])
    def test_thread_count_below_one_is_refused(self, threads, noise):
        ens = ImbalanceEnsemble(0.5, 6)
        with pytest.raises(ValueError, match="threads"):
            run_sampled(
                ens, ChainConfig(6, 2, HEIS), SampleConfig(2, 4), noise=noise,
                threads=threads,
            )

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(t1_cycles=4.0, e0=0.03, e1=0.01),
            NoiseConfig(
                t1_cycles=2.0, e0=0.03, e1=0.01, angle_jitter_sd=0.1, dephasing_sd=0.1
            ),
        ],
    )
    def test_noisy_runs_reproducible(self, noise):
        ens = ImbalanceEnsemble(0.5, 6)
        config = ChainConfig(6, 2, HEIS)
        sample = SampleConfig(6, 30, seed=5)
        first, *others = (
            run_sampled(ens, config, sample, noise=noise, threads=k)
            for k in (1, 2, 3, 4)
        )
        for other in others:
            assert len(first.kept) == len(other.kept)
            for i in range(len(first.kept)):
                assert np.array_equal(first.counts[i], other.counts[i])
                assert first.kept[i] == other.kept[i]

    def test_different_seeds_differ(self):
        ens = ImbalanceEnsemble(0.5, 6)
        config = ChainConfig(6, 2, HEIS)
        a = run_sampled(ens, config, SampleConfig(10, 50, seed=1))
        b = run_sampled(ens, config, SampleConfig(10, 50, seed=2))
        assert any(
            not np.array_equal(x, y) for x, y in zip(a.counts, b.counts)
        )


class TestNoisyPipeline:
    def test_convention_choice_applies_to_trajectories(self):
        # smoke: split-phase trajectories run and stay normalized
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, PhaseConvention.SPLIT)
        run = run_sampled(
            ImbalanceEnsemble(0.5, 4),
            ChainConfig(4, 2, params),
            SampleConfig(4, 20, seed=8),
            noise=NoiseConfig(t1_cycles=5.0),
        )
        assert run.yield_fraction() <= 1.0

    def test_zero_rotation_noise_matches_noiseless_distribution(self):
        # Z-rotation noise alone cannot change the transfer statistics of a
        # single domain wall at one cycle: the phases are diagonal
        ens = ImbalanceEnsemble(math.inf, 4)
        config = ChainConfig(4, 1, HEIS)
        exact = exact_dists(ens, config)[-1]
        noise = NoiseConfig(dephasing_sd=0.4)
        run = run_sampled(
            ens, config, SampleConfig(1, 4000, seed=13), noise=noise
        )
        sampled = run.per_state_distributions().mean(axis=0)
        for m, got in zip(run.grid, sampled):
            p = mass_at(exact, m)
            sigma = math.sqrt(max(p * (1 - p) / 4000, 1e-12))
            assert abs(got - p) < 5 * sigma

    def test_theta_jitter_shifts_cycle_one_mean(self):
        # jittered swap angle: mean = <2 sin^2(theta')> averaged over jitter
        from scipy.integrate import quad

        theta, sd = 0.3 * np.pi, 0.05 * np.pi
        params = FSimParams(theta, 0.8 * np.pi)
        ens = ImbalanceEnsemble(math.inf, 2)
        config = ChainConfig(2, 1, params)
        noise = NoiseConfig(angle_jitter_sd=sd)
        shots = 20000
        run = run_sampled(ens, config, SampleConfig(1, shots, seed=21), noise=noise)
        mean = moment_report([run]).mean[0]

        def integrand(x):
            g = math.exp(-0.5 * ((x - theta) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
            return g * 2 * math.sin(x) ** 2

        expected, _ = quad(integrand, theta - 8 * sd, theta + 8 * sd)
        # Var(M) per shot <= 4; the jitter adds spread of the same order
        sigma = 2.5 / math.sqrt(shots)
        assert abs(mean - expected) < 5 * sigma

    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize(
        "noise",
        [
            NoiseConfig(),
            # widths too small to move any angle, but they draw a disorder
            # realization for every gate and layer
            NoiseConfig(angle_jitter_sd=1e-300),
            NoiseConfig(dephasing_sd=1e-300),
        ],
    )
    def test_window_trajectory_runs_the_nominal_circuit(self, noise, order):
        # at n=6, t=2 the window is sites 1..4: its first local bond is the
        # physical odd bond (1, 2), so parity must follow physical sites
        n, t = 6, 2
        config = ChainConfig(n, t, HEIS, order)
        lo, hi = config.window
        assert (lo, hi) == (1, 5)
        first = 0 if order is LayerOrder.EVEN_FIRST else 1
        nominal = [
            [b - lo for b in range(lo, hi - 1) if b % 2 == (first + layer) % 2]
            for layer in range(2 * t)
        ]
        rng = np.random.default_rng(3)
        for phys in itertools.product([0, 1], repeat=n):
            phys = np.array(phys)
            want = basis_state(phys[lo:hi])
            for bonds in nominal:
                for bond in bonds:
                    want.apply_fsim(bond, HEIS)
            window = basis_state(phys[lo:hi])
            draws = sum(disorder_draws(noise, hi - lo, nominal))
            normals = rng.standard_normal((draws, 1))
            [(got, _)] = _trajectory(window, lo, config, noise, (normals, None))
            assert got.basis is want.basis
            diff = np.abs(got.probabilities() - want.probabilities())
            assert np.max(diff) < 1e-12

    @pytest.mark.parametrize("mode", ["none", "number_only"])
    def test_domain_wall_counts_match_the_density_matrix(self, mode):
        # damping and readout trajectories against the channel they unravel
        n, t = 6, 3
        assert ChainConfig(n, t, HEIS).window == (0, n)  # the window is the whole chain
        noise = NoiseConfig(t1_cycles=2.0, e0=0.05, e1=0.1)
        run = run_sampled(
            ImbalanceEnsemble(math.inf, n),
            ChainConfig(n, t, HEIS),
            SampleConfig(20, 200, seed=2024),
            noise=noise,
            postselect_mode=mode,
        )
        wall = 0b111000
        measured = dense_noisy_measured_probabilities(
            wall, n, t, HEIS.theta, HEIS.phi, noise.half_layer_decay, 0.05, 0.1
        )
        # tally column n/2 + N_R(measured) - N_R(wall), with N_R(wall) = 0
        expected = np.zeros(n + 1)
        for word, prob in enumerate(measured):
            if mode == "none" or word.bit_count() == wall.bit_count():
                expected[n // 2 + dense_right_ones(word, n)] += prob
        counts = run.counts.sum(axis=0)
        expected *= counts.sum() / expected.sum()
        assert chi_square_p_value(counts, expected) > 1e-3

    def test_damping_with_compensating_readout_passes_number_filter(self):
        # events where a lost excitation meets a 0->1 readout flip survive
        # the number filter and distort the distribution
        ens = ImbalanceEnsemble(0.5, 6)
        config = ChainConfig(6, 2, HEIS)
        noise = NoiseConfig(t1_cycles=3.0, e0=0.1, e1=0.0)
        run = run_sampled(
            ens,
            config,
            SampleConfig(20, 400, seed=31),
            noise=noise,
            postselect_mode="number_only",
        )
        assert 0.0 < run.yield_fraction() < 1.0
        with np.errstate(all="ignore"):
            pooled = run.counts.sum(axis=0)
        assert pooled.sum() > 500


class TestMomentReport:
    def test_values_equal_the_exact_path_on_the_sampled_distribution(self):
        # n=8 tallies on M in [-8, 8]; the t=2 cone is [-4, 4], so the
        # sampled grid carries zero padding that the fold must not feel
        ens = ImbalanceEnsemble(0.5, 8)
        run = run_sampled(ens, ChainConfig(8, 2, HEIS), SampleConfig(30, 40, seed=2))
        probs = run.per_state_distributions().mean(axis=0)
        cone = np.abs(run.grid) <= 4
        assert not cone.all() and not probs[~cone].any()
        report = moment_report([run])
        exact_path = MomentReport([2], [moment_row((run.grid[cone], probs[cone]))])
        assert report.cycles.tolist() == exact_path.cycles.tolist() == [2]
        assert report.rows.tobytes() == exact_path.rows.tobytes()
        assert np.all(report.sigmas > 0.0)

    def test_sigmas_equal_the_generic_jackknife(self):
        # delete-one means as (S - x_i)/(N - 1) against re-averaging N - 1
        ens = ImbalanceEnsemble(0.5, 8)
        runs = [
            run_sampled(ens, ChainConfig(8, t, HEIS), SampleConfig(60, 30, seed=6))
            for t in (1, 2, 3)
        ]
        report = moment_report(runs)
        for run, sigma in zip(runs, report.sigmas):
            grid = run.grid.astype(float)

            def row(subset):
                return moment_row((grid, np.mean(subset, axis=0)))

            want = jackknife_sigma(row, run.per_state_distributions()).sigma
            np.testing.assert_allclose(sigma, want, rtol=1e-12, atol=0.0)

    def test_zero_variance_jackknife_subset_gives_nan_sigmas(self):
        # at T1 = 1 cycle the causal filter keeps few shots; at t=3 two
        # states survive, one with every kept shot at M = 0, so deleting the
        # other leaves a subset of zero variance: its skewness and kurtosis
        # are NaN, which propagates to the sigmas instead of aborting
        ens = ImbalanceEnsemble(0.5, 6)
        runs = [
            run_sampled(
                ens,
                ChainConfig(6, t, HEIS),
                SampleConfig(10, 100, seed=1),
                noise=NoiseConfig(t1_cycles=1),
                postselect_mode="causal",
            )
            for t in (1, 2)
        ]
        survivors = [[0, 0, 0, 3, 0, 0, 0], [0, 0, 1, 1, 1, 0, 0]]
        runs.append(
            TestEstimator.fixed_run([[0] * 7] * 8 + survivors, cycles=3, n_qubits=6)
        )
        report = moment_report(runs)
        assert report.cycles.tolist() == [1, 2, 3]
        assert math.isnan(report.sigma_skewness[2])
        assert math.isnan(report.sigma_kurtosis[2])
        assert np.all(np.isfinite(report.sigma_mean))
        assert np.all(np.isfinite(report.sigma_variance))
