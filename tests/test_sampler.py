import concurrent.futures
import functools
import itertools
import logging
import math
import types

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
)

from spinfcs.circuit import ChainConfig
from spinfcs.errors import InvariantError
from spinfcs.ensemble import (
    ImbalanceEnsemble,
    TransferDistribution,
    distribution_from_tensor,
    transfer_tensor,
    word_right_masses,
)
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.noise import (
    NoiseConfig,
    damp_bits,
    damping_step,
    disorder_draws,
    postselect,
    readout_flip,
)
from spinfcs import _kernels, ensemble, sampler
from spinfcs.sampler import (
    _CHUNK_AMPLITUDES,
    SampleConfig,
    SampledRun,
    _cdf,
    _philox,
    _prepare,
    _substream,
    _tally,
    _trajectory,
    _window_bounds,
    _window_chunks,
    moment_report,
    relabel_if_overfull,
    run_sampled,
    sample_initial,
)
from spinfcs.sector import (
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
            mode="sampled",
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
            lo, hi = _window_bounds(n, t)
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
                want = distribution_from_tensor(T, t, ens).probabilities
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
        assert _window_bounds(n, t) == (4, 8)
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
        lo, hi = _window_bounds(self.n, t)
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
        lo, hi = _window_bounds(n, t)
        chain = self.measured_given(t, order, lo, hi)["chain"]
        shifted = self.measured_given(t, order, lo + 1, hi + 1)["window"]
        want, _ = self.targets(chain, t, order, 0.5, True, "number_only")
        got, _ = self.targets(shifted, t, order, 0.5, True, "number_only")
        assert np.max(np.abs(got - want)) > 0.05


def window_words(ens, config, sample):
    """Integer window word of every prepared state of a run."""
    lo, hi = _window_bounds(config.n_qubits, config.cycles)
    _, prepared, _ = _prepare(ens, sample, config.cycles)
    return np.array([bits_to_word(row[lo:hi]) for row in prepared], dtype=np.uint64)


class TestBatchedWindow:
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_block_columns_match_single_column_runs(self, n, convention, order):
        # every word of every sector of the window (sites 1..n-2, an odd
        # anchor), in the chunks the sampler evolves, against one column each
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        t = n // 2 - 1
        config = ChainConfig(n, t, params, order)
        lo, hi = _window_bounds(n, t)
        width = hi - lo
        every = np.arange(2**width, dtype=np.uint64)
        chunks = [every[picked] for picked in _window_chunks(every, width)]
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
                assert amps.size <= max(amps.shape[0], _CHUNK_AMPLITUDES)
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
            lo, hi = _window_bounds(n, t)
            anchors.add(lo % 2)
            width = hi - lo
            every = np.arange(2**width, dtype=np.uint64)
            chunks = [every[picked] for picked in _window_chunks(every, width)]
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

    def test_words_of_different_left_counts_are_refused(self):
        with pytest.raises(ValueError, match="left-half count"):
            word_right_masses(
                np.array([0b0011, 0b1100], dtype=np.uint64), 4, 0, 1, HEIS,
                LayerOrder.EVEN_FIRST,
            )

    def test_a_word_mass_off_one_is_an_invariant_error(self, monkeypatch):
        # half-chain operators 1% too large: every word's mass grows
        cached = ensemble._cached_operators

        def inflated(*args):
            left, right, mix = cached(*args)
            return [1.01 * w for w in left], [1.01 * w for w in right], mix

        monkeypatch.setattr(ensemble, "_cached_operators", inflated)
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

    def test_one_operator_set_is_cached(self):
        # every chunk of a run shares one key, so a run keeps one set alive
        ens = ImbalanceEnsemble(0.5, 8)
        for t in (1, 2, 3):
            run_sampled(ens, ChainConfig(8, t, HEIS), SampleConfig(10, 10, seed=t))
        assert ensemble._cached_operators.cache_info().currsize == 1


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
    lo, hi = _window_bounds(n, t)
    words, word_of = np.unique(bits_to_word(phys[:, lo:hi]), return_inverse=True)
    evolved = {}  # word index -> (basis words, marginal, likeliest)
    for picked in _window_chunks(words, hi - lo):
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
        rows.append((bits[i], *_tally(bits[i], flagged[i], measured, config, mode)))
    return rows


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
            lo, hi = _window_bounds(n, t)
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
        monkeypatch.setattr(sampler, "_CHUNK_AMPLITUDES", 64)
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
        lo, hi = _window_bounds(n, t)
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


def per_shot_measured(ens, config, sample, noise, i):
    """The measured rows of state i of a noisy run, before the relabeling
    is undone, as the route before column blocks ran them: every shot its
    own single-state trajectory, reading its own column of the arrays the
    state draws from counter block 1 (disorder normals, per half-layer k0
    thinning and k0 site uniforms, a measurement uniform), its disorder
    one number at a time, then one `damping_step` per half-layer, the
    measurement, then its row of the decay outside the window and of the
    readout flips."""
    phys = _prepare(ens, sample, config.cycles)[1][i]
    n, t, params = config.n_qubits, config.cycles, config.params
    shots = sample.shots_per_state
    lo, hi = _window_bounds(n, t)
    layers = brickwork_layers(hi - lo, lo, config.layer_order) * t
    jitter, dephasing = noise.angle_jitter_sd, noise.dephasing_sd
    rng = _philox(sample.seed, _substream(t, i), 1)
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
        row[outside] = damp_bits(phys[outside], float(t), noise, Served(decay[shot]))
        row[:] = readout_flip(row, noise, Served(flips[shot]))
    return measured


def per_shot_record(ens, config, sample, noise, mode, i):
    """State i's (bits, counts, kept) row, tallied from `per_shot_measured`'s
    rows."""
    bits, _, flagged = (column[i] for column in _prepare(ens, sample, config.cycles))
    measured = per_shot_measured(ens, config, sample, noise, i)
    return bits, *_tally(bits, flagged, measured, config, mode)


class TestBatchedNoisyRoute:
    NOISE = NoiseConfig(
        t1_cycles=1.5, e0=0.05, e1=0.1, angle_jitter_sd=0.3, dephasing_sd=0.2
    )

    @staticmethod
    def traced_run(monkeypatch, ens, config, sample, noise, mode):
        """`_noisy_records`, checking that no block is wider than the chunk
        rule allows; returns the run's (initial bits, counts, kept) arrays,
        the block widths, the number of jumps and each state's measured
        rows, as `_tally` receives them, by state."""
        widths, jumps, rows = [], [], {}
        prepared = _prepare(ens, sample, config.cycles)
        apply_fsim_tables = _kernels.apply_fsim_tables
        damp_columns = sampler.damp_columns
        tally = sampler._tally

        def kernel(amps, *args):
            dim, m = amps.shape
            assert m <= max(1, sampler._CHUNK_AMPLITUDES // dim)
            widths.append(m)
            return apply_fsim_tables(amps, *args)

        def damping(*args):
            moved = damp_columns(*args)
            jumps.extend(j for _, jumped in moved for j in jumped)
            return moved

        def tallying(bits, flagged, measured, *args):
            # batches run by popcount: the state is the prepared row that
            # `bits` views
            [i] = [
                i for i, row in enumerate(prepared[0]) if np.shares_memory(row, bits)
            ]
            rows[i] = measured
            return tally(bits, flagged, measured, *args)

        monkeypatch.setattr(_kernels, "apply_fsim_tables", kernel)
        monkeypatch.setattr(sampler, "damp_columns", damping)
        monkeypatch.setattr(sampler, "_tally", tallying)
        counts, kept = sampler._noisy_records(prepared, config, sample, noise, mode, 1)
        return (prepared[0], counts, kept), widths, len(jumps), rows

    @staticmethod
    def assert_records_are_the_per_shot_ones(
        run, rows, ens, config, sample, noise, mode
    ):
        # every measured bit, before any filter, then the rows
        initial_bits, counts, kept = run
        assert len(counts) == len(rows) == sample.n_initial_states
        for i in range(len(counts)):
            measured = per_shot_measured(ens, config, sample, noise, i)
            assert np.array_equal(rows[i], measured)
            bits, want_counts, want_kept = per_shot_record(
                ens, config, sample, noise, mode, i
            )
            assert np.array_equal(initial_bits[i], bits)
            assert np.array_equal(counts[i], want_counts)
            assert kept[i] == want_kept

    @pytest.mark.parametrize("mode", ["number_only", "causal"])
    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_records_equal_the_per_shot_loop(
        self, convention, order, relabel, mode, monkeypatch
    ):
        # chunks of 64 amplitudes: 3 columns of the 6-site window's middle
        # sector, so 14 shots span several chunks, and the columns that
        # jump are re-blocked under the same rule
        monkeypatch.setattr(sampler, "_CHUNK_AMPLITUDES", 64)
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi, convention)
        ens = ImbalanceEnsemble(0.5, 8)
        config = ChainConfig(8, 3, params, order)
        sample = SampleConfig(5, 14, seed=41, relabel_enabled=relabel)
        run, widths, jumps, rows = self.traced_run(
            monkeypatch, ens, config, sample, self.NOISE, mode
        )
        assert max(widths) > 1 and jumps > 0
        self.assert_records_are_the_per_shot_ones(
            run, rows, ens, config, sample, self.NOISE, mode
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
        ens = ImbalanceEnsemble(0.5, 10)
        config = ChainConfig(10, 2, HEIS)  # window sites 3..6, decay outside
        sample = SampleConfig(6, 40, seed=8)
        monkeypatch.setattr(sampler, "_CHUNK_AMPLITUDES", 32)
        run, widths, jumps, rows = self.traced_run(
            monkeypatch, ens, config, sample, noise, "number_only"
        )
        assert max(widths) > 1
        assert (jumps > 0) == (noise.half_layer_decay > 0)
        self.assert_records_are_the_per_shot_ones(
            run, rows, ens, config, sample, noise, "number_only"
        )

    def test_records_equal_the_per_shot_loop_at_the_real_chunk_size(self, monkeypatch):
        # a 10-site window: 320 shots of a sector of dimension >= 210 span
        # two chunks or more
        n, t = 12, 5
        ens = ImbalanceEnsemble(0.5, n)
        config = ChainConfig(n, t, HEIS)
        sample = SampleConfig(3, 320, seed=3)
        lo, hi = _window_bounds(n, t)
        _, phys, _ = _prepare(ens, sample, t)
        chunks = [
            math.ceil(320 / sampler._chunk_columns(hi - lo, int(row[lo:hi].sum())))
            for row in phys
        ]
        assert max(chunks) >= 2
        run, widths, jumps, rows = self.traced_run(
            monkeypatch, ens, config, sample, self.NOISE, "causal"
        )
        assert jumps > 0
        self.assert_records_are_the_per_shot_ones(
            run, rows, ens, config, sample, self.NOISE, "causal"
        )


class TestStatePacking:
    NOISE = TestBatchedNoisyRoute.NOISE

    @staticmethod
    def rule_blocks(ens, config, sample, noise):
        """The first blocks of a noisy run by the batch rule, written out,
        each as the state of each of its columns.  The states of one window
        popcount k0 join a block in index order while its columns times
        C(width, k0) plus the numbers of a shot (disorder normals, 2 k0 per
        damped half-layer, one measurement uniform) stay within
        `_CHUNK_AMPLITUDES`; a state over that alone runs in chunks of
        `_chunk_columns`."""
        n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
        lo, hi = _window_bounds(n, t)
        width = hi - lo
        layers = brickwork_layers(width, lo, config.layer_order) * t
        normals = sum(disorder_draws(noise, width, layers))
        damped = len(layers) if noise.half_layer_decay > 0 else 0
        ones = _prepare(ens, sample, t)[1][:, lo:hi].sum(axis=1).tolist()
        blocks = []
        for k in sorted(set(ones)):
            per_shot = math.comb(width, k) + normals + 2 * k * damped + 1
            batches = [[]]
            for i in (i for i, o in enumerate(ones) if o == k):
                if batches[-1] and (len(batches[-1]) + 1) * shots * per_shot > (
                    sampler._CHUNK_AMPLITUDES
                ):
                    batches.append([])
                batches[-1].append(i)
            for batch in batches:
                columns = [i for i in batch for _ in range(shots)]
                size = len(columns)
                if len(batch) == 1:
                    size = sampler._chunk_columns(width, k)
                blocks += [columns[j : j + size] for j in range(0, len(columns), size)]
        return blocks

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("budget", [128, 2048])
    def test_a_record_does_not_depend_on_its_batch_mates(
        self, budget, threads, monkeypatch
    ):
        # at 128 amplitudes most states run alone, some in two chunks or
        # more; at 2048 the shots of several states share blocks at every t
        monkeypatch.setattr(sampler, "_CHUNK_AMPLITUDES", budget)
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
        for t in (1, 2, 3):
            config = ChainConfig(8, t, HEIS)

            def run(sample):
                return run_sampled(
                    ens, config, sample, noise=self.NOISE,
                    postselect_mode="causal", threads=threads,
                )

            blocks.clear()
            got = run(many)
            lo, hi = _window_bounds(8, t)
            words = bits_to_word(_prepare(ens, many, t)[1][:, lo:hi])
            rule = self.rule_blocks(ens, config, many, self.NOISE)
            assert sorted(blocks) == sorted(tuple(words[b].tolist()) for b in rule)
            shared += sum(len(set(b)) > 1 for b in rule)
            chunked += sum(len(b) < 8 for b in rule)
            alone = run(few)
            assert len(alone.kept) == 3
            for i in range(3):
                assert np.array_equal(got.counts[i], alone.counts[i])
                assert got.kept[i] == alone.kept[i]
            for i in range(len(got.kept)):
                _, counts, kept = per_shot_record(
                    ens, config, many, self.NOISE, "causal", i
                )
                assert np.array_equal(got.counts[i], counts)
                assert got.kept[i] == kept
        assert shared > 0
        if budget == 128:
            assert chunked > 0


def one_jump(m):
    """Damping uniforms of m columns of a sector with 4 ones: each column
    jumps once (only its first thinning uniform lies below 0.5), at the
    site the uniform 0.5 picks."""
    uniforms = np.full((2, 4, m), 0.9)
    uniforms[0, 0] = 0.1
    uniforms[1, 0] = 0.5
    return uniforms


class TestDampBlocks:
    def test_jumped_columns_are_reblocked_to_the_chunk_rule(self, monkeypatch):
        # 4 columns of the 6-site sector with 4 ones (dimension 15: 4 to a
        # block of 64 amplitudes) all jump into the one with 3 (dimension
        # 20: 3 to a block)
        monkeypatch.setattr(sampler, "_CHUNK_AMPLITUDES", 64)
        basis = sector_basis(6, 4)
        amps = np.random.default_rng(3).standard_normal((basis.dimension, 4)) + 0j
        amps /= np.linalg.norm(amps, axis=0)
        block = (SectorState(basis, amps.copy()), np.arange(4))
        blocks = sampler._damp_blocks([block], 0.5, one_jump(4))
        assert [(b.basis.n_excitations, c.tolist()) for b, c in blocks] == [
            (3, [0, 1, 2]),
            (3, [3]),
        ]
        for lowered, columns in blocks:
            for got, c in zip(lowered.columns().T, columns):
                alone = SectorState(basis, amps[:, c : c + 1].copy())
                [(want, _)] = sampler.damp_columns(alone, 0.5, one_jump(1))
                assert np.array_equal(got, want.columns()[:, 0])


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
        for n, t, states, shots in ((6, 2, 24, 64), (12, 6, 300, 40)):
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
                            for picked in _window_chunks(words, width)
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
            p = exact.probability(int(m))
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
        lo, hi = _window_bounds(n, t)
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
        assert _window_bounds(n, t) == (0, n)  # the window is the whole chain
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
        exact_path = MomentReport.from_distributions(
            [TransferDistribution(2, probs[cone])]
        )
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
