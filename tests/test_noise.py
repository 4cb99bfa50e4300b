import itertools
import math

import numpy as np
import pytest
from conftest import (
    basis_state,
    bfs_depths,
    chi_square_p_value,
    dense_cycle,
    dense_damping,
    gate_params,
)
from scipy.optimize import curve_fit
from scipy.stats import binom

from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.noise import (
    NoiseConfig,
    causal_min_half_layers,
    damp_bits,
    damp_columns,
    damping_step,
    disorder_and_dephasing,
    disorder_draws,
    postselect,
    readout_flip,
)
from spinfcs.sector import SectorState, brickwork_layers, sector_basis


def bfs_min_layers(b_i, b_f, n, first_parity):
    """Breadth-first depth of one pair of words."""
    return bfs_depths(b_i, n, first_parity).get(tuple(b_f), math.inf)


class TestCausalFilter:
    def test_worked_example_needs_three_half_layers(self):
        b_i = [1, 1, 0, 1, 1, 0, 0, 0]
        b_f = [0, 1, 0, 1, 1, 0, 0, 1]
        assert causal_min_half_layers(b_i, b_f) == 3

    def test_identity_is_free(self):
        bits = [1, 0, 1, 0, 0, 1]
        assert causal_min_half_layers(bits, bits) == 0

    def test_popcount_mismatch_is_impossible(self):
        assert causal_min_half_layers([1, 0], [1, 1]) == math.inf

    @pytest.mark.parametrize("order", list(LayerOrder))
    def test_depth_equals_bfs_on_every_pair_up_to_8_sites(self, order):
        first = 0 if order is LayerOrder.EVEN_FIRST else 1
        for n in range(1, 9):
            words = list(itertools.product((0, 1), repeat=n))
            for b_i in words:
                depths = bfs_depths(b_i, n, first)
                for b_f in words:
                    want = depths.get(b_f, math.inf)
                    assert causal_min_half_layers(b_i, b_f, order) == want


class TestPostselect:
    def test_acausal_at_one_cycle_kept_by_number_filter(self):
        b_i = [1, 1, 0, 1, 1, 0, 0, 0]
        b_f = [0, 1, 0, 1, 1, 0, 0, 1]
        assert not postselect(b_i, b_f, 1, "causal")
        assert postselect(b_i, b_f, 1, "number_only")
        assert postselect(b_i, b_f, 2, "causal")  # 1.5 cycles fit in 2

    def test_popcount_mismatch_discarded_everywhere(self):
        assert not postselect([1, 0], [1, 1], 5, "number_only")
        assert not postselect([1, 0], [1, 1], 5, "causal")

    @pytest.mark.parametrize("b_f", [[1, 1], [0, 1], [1, 0]])
    def test_none_keeps_everything(self, b_f):
        assert postselect([1, 0], b_f, 3, "none") is True

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown post-selection mode"):
            postselect([1, 0], [1, 1], 3, "causl")

    def test_causal_never_looser_than_number(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            b_i = rng.integers(0, 2, size=6)
            b_f = rng.integers(0, 2, size=6)
            t = int(rng.integers(0, 4))
            if postselect(b_i, b_f, t, "causal"):
                assert postselect(b_i, b_f, t, "number_only")


class TestDamping:
    def test_infinite_t1_is_identity(self):
        rng = np.random.default_rng(0)
        noise = NoiseConfig()
        bits = np.array([1, 0, 1, 1])
        u = rng.random(bits.shape)
        assert np.array_equal(damp_bits(bits, 5.0, noise, u), bits)
        state = basis_state([1, 0, 1, 0])
        before = state.amplitudes.copy()
        for _ in range(6):  # 3 cycles of half-layer steps
            state = damping_step(state, noise.half_layer_decay, rng)
        assert np.array_equal(state.amplitudes, before)

    def test_gate_free_survival_probability(self):
        # three excitations, no hopping: P(no decay by t) = exp(-3 t / T1)
        noise = NoiseConfig(t1_cycles=3.0)
        rng = np.random.default_rng(123)
        t = 2.0
        n_traj = 20000
        bits = np.tile(np.array([1, 1, 1, 0, 0, 0]), (n_traj, 1))
        out = damp_bits(bits, t, noise, rng.random(bits.shape))
        survived = np.mean(out.sum(axis=1) == 3)
        p = math.exp(-3 * t / 3.0)
        sigma = math.sqrt(p * (1 - p) / n_traj)
        assert abs(survived - p) < 5 * sigma

    def test_trajectory_survival_matches_bits_path(self):
        # a basis state under jump damping is the classical process
        noise = NoiseConfig(t1_cycles=2.0)
        rng = np.random.default_rng(7)
        t = 2.0
        survived = 0
        n_traj = 3000
        for _ in range(n_traj):
            state = basis_state([1, 1, 0, 0])
            for _ in range(int(2 * t)):
                state = damping_step(state, noise.half_layer_decay, rng)
            survived += state.basis.n_excitations == 2
        p = math.exp(-2 * t / 2.0)
        sigma = math.sqrt(p * (1 - p) / n_traj)
        assert abs(survived / n_traj - p) < 5 * sigma

    def test_yield_decay_constant_recovers_t1(self):
        noise = NoiseConfig(t1_cycles=4.0)
        rng = np.random.default_rng(5)
        n_traj = 100000
        n_ones = 2
        ts = np.arange(1, 7, dtype=float)
        yields = []
        for t in ts:
            bits = np.tile(np.array([1] * n_ones + [0] * 4), (n_traj, 1))
            out = damp_bits(bits, t, noise, rng.random(bits.shape))
            yields.append(np.mean(out.sum(axis=1) == n_ones))
        popt, _ = curve_fit(lambda t, tau: np.exp(-n_ones * t / tau), ts, yields)
        assert abs(popt[0] - 4.0) / 4.0 < 0.1

    def test_jumps_on_an_entangled_state_follow_the_kraus_channel(self):
        # on a fixed-N sector the no-jump Kraus product is a scalar, so the
        # number of jumps is Binomial(N, p) whatever the amplitudes; the
        # measured words follow the damped density matrix
        n, p, draws = 6, 0.3, 4000
        theta, phi = 0.4 * np.pi, 0.8 * np.pi
        state = basis_state([1, 1, 0, 1, 0, 0])
        for _ in range(2):
            state.apply_cycle(FSimParams(theta, phi))
        before = state.amplitudes.copy()
        rng = np.random.default_rng(31)
        jumps, words = [], []
        for _ in range(draws):
            damped = damping_step(state, p, rng)
            jumps.append(3 - damped.basis.n_excitations)
            idx = rng.choice(damped.basis.dimension, p=damped.probabilities())
            words.append(damped.basis.words[idx])
        assert np.array_equal(state.amplitudes, before)  # input left unchanged
        expected = draws * binom.pmf(np.arange(4), 3, p)
        assert chi_square_p_value(np.bincount(jumps, minlength=4), expected) > 1e-3
        u = np.linalg.matrix_power(dense_cycle(n, theta, phi), 2)
        psi = u[:, 0b110100]
        rho = dense_damping(np.outer(psi, psi.conj()), n, p)
        expected = draws * np.real(np.diag(rho))
        observed = np.bincount(np.array(words, dtype=np.int64), minlength=2**n)
        assert chi_square_p_value(observed, expected) > 1e-3

    @pytest.mark.parametrize("k, p", [(1, 0.3), (3, 0.1), (5, 0.45)])
    def test_thinned_jump_counts_are_binomial(self, k, p):
        # the step draws its jump count as the number of k uniforms below p
        rng = np.random.default_rng(2718)
        state = basis_state([1] * k + [0] * (8 - k))
        draws = 10000
        jumps = [
            k - damping_step(state, p, rng).basis.n_excitations for _ in range(draws)
        ]
        expected = draws * binom.pmf(np.arange(k + 1), k, p)
        observed = np.bincount(jumps, minlength=k + 1)
        assert chi_square_p_value(observed, expected) > 1e-3

    def test_damping_step_preserves_norm(self):
        rng = np.random.default_rng(21)
        state = basis_state([1, 0, 1, 1, 0, 0])
        state.apply_cycle(FSimParams(0.4 * np.pi, 0.8 * np.pi))
        for _ in range(10):
            state = damping_step(state, 0.2, rng)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def random_block(n, k, m, seed):
    """m random normalized states of the sector (n, k), as one block."""
    basis = sector_basis(n, k)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((basis.dimension, m, 2)) @ np.array([1.0, 1j])
    return SectorState(basis, amps / np.linalg.norm(amps, axis=0))


def stream_uniforms(seed, k, m):
    """Damping uniforms of m columns of a sector with k ones, column j the
    first 2k uniforms of the stream [seed, j] laid out as (2, k)."""
    return np.stack(
        [np.random.default_rng([seed, j]).random((2, k)) for j in range(m)], axis=-1
    )


class TestBlockDamping:
    """`damp_columns` against `damping_step` on each column alone."""

    @staticmethod
    def damp_both(block, p, seed):
        """The block's damped (block, columns) pairs, reading the uniforms
        of `stream_uniforms`, and each column's reference state, drawing
        from its stream [seed, j]; checks that the reference drew k
        thinning uniforms then one per jump."""
        k, m = block.basis.n_excitations, block.columns().shape[1]
        before = block.amplitudes.copy()
        moved = damp_columns(block, p, stream_uniforms(seed, k, m))
        assert np.array_equal(block.amplitudes, before)  # input left unchanged
        singles = []
        for j, column in enumerate(block.columns().T):
            rng = np.random.default_rng([seed, j])
            single = damping_step(SectorState(block.basis, column.copy()), p, rng)
            used = k + (k - single.basis.n_excitations)  # thinning, then sites
            after = np.random.default_rng([seed, j]).random(used + 1)[-1]
            assert rng.random() == after
            singles.append(single)
        return moved, singles

    @staticmethod
    def empty_sites(state):
        """Sites whose occupation is exactly zero, per column."""
        occupation = (np.abs(state.columns()) ** 2).T @ state.basis.site_bits()
        return occupation == 0

    @pytest.mark.parametrize("n, k, p", [(6, 3, 0.3), (8, 4, 0.35), (7, 5, 0.4)])
    def test_each_column_is_the_single_state_step(self, n, k, p):
        block = random_block(n, k, 40, seed=n)
        assert not self.empty_sites(block).any()
        moved, singles = self.damp_both(block, p, seed=k)
        got = {}
        for lowered, columns in moved:
            assert np.all(np.diff(columns) > 0)
            assert lowered.columns().shape == (lowered.basis.dimension, columns.size)
            for j, amps, empty in zip(
                columns, lowered.columns().T, self.empty_sites(lowered)
            ):
                got[j] = (lowered.basis.n_excitations, amps, empty)
        jumps = [k - single.basis.n_excitations for single in singles]
        assert max(jumps) >= 2 and 0 in jumps  # several jumps, and none
        for j, single in enumerate(singles):
            if jumps[j] == 0:
                # a column that did not jump comes back as it was
                ones, amps, _ = got[j]
                assert ones == k
                assert np.array_equal(amps, block.columns()[:, j])
                continue
            ones, amps, empty = got[j]
            assert ones == single.basis.n_excitations
            # the jump sites are the sites left empty
            assert np.array_equal(empty, self.empty_sites(single)[0])
            assert np.count_nonzero(empty) == (jumps[j] if ones else n)
            assert np.max(np.abs(amps - single.amplitudes)) <= 1e-12

    def test_a_column_does_not_depend_on_its_block(self):
        block = random_block(8, 4, 30, seed=4)
        moved, _ = self.damp_both(block, 0.35, seed=6)
        uniforms = stream_uniforms(6, 4, 30)
        assert len(moved) >= 2
        for lowered, columns in moved:
            for j, got in zip(columns, lowered.columns().T):
                alone = SectorState(block.basis, block.columns()[:, j : j + 1].copy())
                [(want, _)] = damp_columns(alone, 0.35, uniforms[..., j : j + 1])
                assert np.array_equal(got, want.columns()[:, 0])

    def test_certain_decay_reaches_the_vacuum(self):
        block = random_block(6, 4, 5, seed=3)
        moved, singles = self.damp_both(block, 1.0, seed=9)
        [(vacuum, columns)] = moved
        assert columns.tolist() == list(range(5))
        assert vacuum.basis.n_excitations == 0
        for amps, single in zip(vacuum.columns().T, singles):
            assert single.basis.n_excitations == 0
            assert np.max(np.abs(amps - single.amplitudes)) <= 1e-12
            assert abs(abs(amps[0]) - 1.0) <= 1e-12

    def test_no_decay_moves_nothing(self):
        block = random_block(6, 3, 4, seed=1)
        moved, _ = self.damp_both(block, 0.0, seed=2)
        [(same, columns)] = moved
        assert same is block
        assert columns.tolist() == list(range(4))

    def test_each_column_comes_back_once_the_stayers_first(self):
        block = random_block(8, 4, 30, seed=5)
        moved, _ = self.damp_both(block, 0.35, seed=7)
        [stayers, *lowered] = moved
        assert stayers[0].basis.n_excitations == 4
        assert all(piece.basis.n_excitations < 4 for piece, _ in lowered)
        every = np.concatenate([columns for _, columns in moved])
        assert sorted(every.tolist()) == list(range(30))
        assert np.array_equal(stayers[0].columns(), block.columns()[:, stayers[1]])


class TestReadout:
    def test_zero_rates_identity(self):
        rng = np.random.default_rng(0)
        bits = np.array([1, 0, 1, 1, 0])
        out = readout_flip(bits, NoiseConfig(), rng.random(bits.shape))
        assert np.array_equal(out, bits)

    def test_certain_flips(self):
        rng = np.random.default_rng(0)
        out = readout_flip(np.array([1, 1, 1, 1]), NoiseConfig(e1=1.0), rng.random(4))
        assert np.array_equal(out, np.zeros(4, dtype=np.int64))

    def test_flip_rate_statistics(self):
        rng = np.random.default_rng(99)
        noise = NoiseConfig(e0=0.01)
        n_trials = 100000
        zeros = np.zeros((n_trials, 46), dtype=np.int64)
        flips = readout_flip(zeros, noise, rng.random(zeros.shape)).sum(axis=1)
        expected = 0.46
        sigma = math.sqrt(46 * 0.01 * 0.99 / n_trials)
        assert abs(flips.mean() - expected) < 5 * sigma

    def test_per_qubit_rate_vectors(self):
        rng = np.random.default_rng(1)
        e0 = np.array([0.0, 1.0, 0.0, 0.0])
        zeros = np.zeros(4, dtype=np.int64)
        out = readout_flip(zeros, NoiseConfig(e0=e0), rng.random(4))
        assert np.array_equal(out, np.array([0, 1, 0, 0]))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(e0=1.5)
        with pytest.raises(ValueError):
            NoiseConfig(t1_cycles=0.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("e0", math.nan),
            ("e1", math.nan),
            ("e0", np.array([0.1, math.nan, 0.0])),
            ("e1", [0.0, math.nan]),
            ("angle_jitter_sd", math.nan),
            ("dephasing_sd", math.nan),
            ("angle_jitter_sd", math.inf),
            ("t1_cycles", math.nan),
        ],
    )
    def test_nan_is_refused(self, key, value):
        # a NaN rate fails no range comparison; it used to pass and never flip
        with pytest.raises(ValueError, match=key):
            NoiseConfig(**{key: value})


class TestChannelUniforms:
    """`damp_bits` and `readout_flip` as pure functions of the uniforms
    they are given: bit b flips when u[b] lies strictly below its rate."""

    def test_a_uniform_equal_to_the_rate_flips_nothing(self):
        noise = NoiseConfig(t1_cycles=2.0, e0=0.25, e1=0.5)
        p = noise.bit_decay(3.0)
        ones = np.ones((2, 3), dtype=np.int64)
        kept = damp_bits(ones, 3.0, noise, np.full((2, 3), p))
        assert kept.tolist() == ones.tolist()
        below = np.nextafter(p, 0.0)
        assert damp_bits(ones, 3.0, noise, np.full((2, 3), below)).sum() == 0
        bits = np.array([[0, 1], [1, 0]])
        at_rate = np.array([[0.25, 0.5], [0.5, 0.25]])
        assert readout_flip(bits, noise, at_rate).tolist() == bits.tolist()
        flipped = readout_flip(bits, noise, np.nextafter(at_rate, 0.0))
        assert flipped.tolist() == (1 - bits).tolist()

    def test_per_qubit_rates_broadcast_over_a_block_of_shots(self):
        e0, e1 = np.array([0.0, 1.0, 0.5, 0.0]), np.array([1.0, 0.0, 0.0, 0.5])
        noise = NoiseConfig(e0=e0, e1=e1)
        u = np.tile([0.3, 0.3, 0.7, 0.7], (3, 1))
        zeros, ones = np.zeros((3, 4), dtype=np.int64), np.ones((3, 4), dtype=np.int64)
        assert readout_flip(zeros, noise, u).tolist() == [[0, 1, 0, 0]] * 3
        assert readout_flip(ones, noise, u).tolist() == [[0, 1, 1, 1]] * 3

    def test_the_inputs_are_not_modified(self):
        noise = NoiseConfig(t1_cycles=1.0, e0=0.5, e1=0.5)
        bits = np.array([[1, 0, 1], [0, 1, 1]])
        u = np.array([[0.1, 0.2, 0.9], [0.3, 0.05, 0.6]])
        before = bits.copy(), u.copy()
        for out in (damp_bits(bits, 2.0, noise, u), readout_flip(bits, noise, u)):
            assert not np.shares_memory(out, bits)
            assert not np.array_equal(out, bits)
        assert np.array_equal(bits, before[0]) and np.array_equal(u, before[1])


class TestDisorder:
    def test_zero_widths_give_nominal_circuit(self):
        params = FSimParams(0.3, 0.4)
        layers = brickwork_layers(6, 0, LayerOrder.EVEN_FIRST) * 2
        assert disorder_draws(NoiseConfig(), 6, layers) == [0] * 4
        realizations = disorder_and_dephasing(params, NoiseConfig(), None, 6, layers)
        assert len(realizations) == 4
        for layer in realizations:
            assert layer.z_angles is None
            assert layer.angles is None
            gates = gate_params(layer, params, [0])
            assert len(gates) == len(layer.bonds)
            assert all(gp is params for gp in gates)

    def test_jitter_draws_fresh_angles_per_gate(self):
        rng = np.random.default_rng(0)
        params = FSimParams(0.3, 0.4)
        noise = NoiseConfig(angle_jitter_sd=0.05)
        layers = brickwork_layers(6, 0, LayerOrder.EVEN_FIRST)
        normals = rng.standard_normal((sum(disorder_draws(noise, 6, layers)), 1))
        realizations = disorder_and_dephasing(params, noise, normals, 6, layers)
        angles = [
            float(gp.theta[0])
            for layer in realizations
            for gp in gate_params(layer, params, [0])
        ]
        assert len(set(angles)) == len(angles) == 5

    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize("jitter, dephasing", [(0.3, 0.0), (0.0, 0.2), (2.5, 0.2)])
    def test_a_block_draws_what_each_shot_draws_alone(
        self, jitter, dephasing, convention
    ):
        # shot j of a block, its column the normals of its own stream,
        # against one scalar draw at a time from that stream: per layer a
        # (theta, phi) pair per gate, then the Z angles; a wide jitter
        # sends angles round the circle, where they must be reduced exactly
        # as FSimParams reduces them
        params = FSimParams(0.9 * np.pi, -0.7 * np.pi, convention)
        noise = NoiseConfig(angle_jitter_sd=jitter, dephasing_sd=dephasing)
        layers = brickwork_layers(7, 1, LayerOrder.ODD_FIRST) * 3
        draws = sum(disorder_draws(noise, 7, layers))
        assert draws == 2 * 18 * (jitter > 0) + 6 * 7 * (dephasing > 0)  # 6 layers
        normals = np.stack(
            [np.random.default_rng(s).standard_normal(draws) for s in range(4)], axis=1
        )
        block = disorder_and_dephasing(params, noise, normals, 7, layers)
        columns = np.array([3, 0, 2])
        for j, shot in enumerate(columns):
            rng = np.random.default_rng(shot)
            for layer, bonds in zip(block, layers):
                gates = gate_params(layer, params, columns)
                assert layer.bonds == bonds and len(gates) == len(bonds)
                for gp in gates:
                    if jitter > 0:
                        want = FSimParams(
                            params.theta + jitter * rng.standard_normal(),
                            params.phi + jitter * rng.standard_normal(),
                        )
                        assert gp.convention is convention
                        assert (gp.theta[j], gp.phi[j]) == (want.theta, want.phi)
                    else:
                        assert gp is params
                if dephasing > 0:
                    want_z = dephasing * rng.standard_normal(7)
                    assert np.array_equal(layer.z_angles[:, shot], want_z)
                else:
                    assert layer.z_angles is None

    @pytest.mark.parametrize(
        "first_site, order, first, second",
        [
            (0, LayerOrder.EVEN_FIRST, [0, 2, 4], [1, 3]),
            (0, LayerOrder.ODD_FIRST, [1, 3], [0, 2, 4]),
            # a window starting at physical site 1: its local bond 0 is the
            # physical odd bond (1, 2)
            (1, LayerOrder.EVEN_FIRST, [1, 3], [0, 2, 4]),
        ],
    )
    def test_brickwork_layout(self, first_site, order, first, second):
        realizations = disorder_and_dephasing(
            FSimParams(0.3, 0.4),
            NoiseConfig(),
            None,
            6,
            brickwork_layers(6, first_site, order),
        )
        assert realizations[0].bonds == first
        assert realizations[1].bonds == second
