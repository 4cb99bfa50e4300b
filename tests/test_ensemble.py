import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_KURTOSIS, dense_cycle, dense_exact_pm, dense_right_ones
from spinfcs.circuit import ChainConfig
from spinfcs.ensemble import (
    ImbalanceEnsemble,
    TransferDistribution,
    distribution_from_tensor,
    exact_distribution,
    lightcone_reduce,
    pure_domain_wall_distribution,
    transfer_tensor,
    transferred_magnetization,
)
from spinfcs.errors import (
    ConservationError,
    EnumerationCapError,
    InvariantError,
    UnderResolvedError,
)
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.sector import SectorState
from spinfcs.stats import distribution_moments


def params_at(theta, phi, convention="tail"):
    return FSimParams(theta, phi, PhaseConvention(convention))


class TestTransferredMagnetization:
    def test_worked_example(self):
        assert transferred_magnetization([1, 1, 1, 0, 1, 0], [1, 1, 0, 1, 1, 0]) == 2

    def test_identity(self):
        bits = [1, 0, 1, 1, 0, 0]
        assert transferred_magnetization(bits, bits) == 0

    def test_conservation_violation(self):
        with pytest.raises(ConservationError):
            transferred_magnetization([1, 0, 0, 0], [1, 1, 0, 0])

    @given(st.integers(min_value=0, max_value=2**8 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_against_left_count_oracle(self, word, data):
        n = 8
        bits_i = [(word >> (n - 1 - i)) & 1 for i in range(n)]
        k = sum(bits_i)
        ones = data.draw(
            st.permutations(range(n)).map(lambda p: sorted(p[:k]))
        )
        bits_f = [1 if i in ones else 0 for i in range(n)]
        m = transferred_magnetization(bits_i, bits_f)
        # independent route: ones leaving the left half
        left = sum(bits_i[: n // 2]) - sum(bits_f[: n // 2])
        assert m == 2 * left


class TestLightconeReduce:
    def test_reduces_to_cone_width(self):
        params = params_at(0.4 * np.pi, 0.8 * np.pi)
        for n in (8, 10, 12):
            reduced = lightcone_reduce(ChainConfig(n, 4, params))
            assert reduced.n_qubits == 8
            assert reduced.cycles == 4

    def test_under_resolved(self):
        with pytest.raises(UnderResolvedError):
            lightcone_reduce(ChainConfig(4, 3, params_at(0.1, 0.1)))

    def test_zero_cycles(self):
        reduced = lightcone_reduce(ChainConfig(6, 0, params_at(0.1, 0.1)))
        dist = exact_distribution(ImbalanceEnsemble(0.7, reduced.n_qubits), reduced)
        assert dist.cycles == 0
        assert dist.probability(0) == 1.0


class TestExactDistribution:
    @pytest.mark.parametrize("mu", [0.0, 0.5, math.inf])
    @pytest.mark.parametrize("convention", ["tail", "split"])
    @pytest.mark.parametrize("t", [1, 2])
    def test_matches_dense_oracle(self, mu, convention, t):
        theta, phi = 0.3 * np.pi, 0.7 * np.pi
        n = 4
        config = ChainConfig(n, t, params_at(theta, phi, convention))
        dist = exact_distribution(ImbalanceEnsemble(mu, n), config)
        oracle = dense_exact_pm(n, t, theta, phi, mu, convention)
        for m in dist.values:
            assert abs(dist.probability(m) - oracle.get(int(m), 0.0)) < 1e-13

    def test_reference_kurtosis_rows(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for t in (1, 2):
            config = ChainConfig(2 * t, t, params_at(theta, phi))
            dist = exact_distribution(ImbalanceEnsemble(0.0, 2 * t), config)
            q = distribution_moments(dist)[3]
            assert abs(q - REFERENCE_KURTOSIS[t]) < 1e-12

    def test_normalized(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        config = ChainConfig(6, 3, params_at(theta, phi))
        dist = exact_distribution(ImbalanceEnsemble(0.3, 6), config)
        assert abs(dist.total() - 1.0) < 1e-10

    def test_mirror_symmetry_at_mu_zero(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for t in (1, 2, 3):
            config = ChainConfig(2 * t, t, params_at(theta, phi))
            dist = exact_distribution(ImbalanceEnsemble(0.0, 2 * t), config)
            assert np.max(np.abs(dist.probabilities - dist.probabilities[::-1])) < 1e-14

    def test_sign_symmetry_of_angles(self):
        n, t = 4, 2
        base = exact_distribution(
            ImbalanceEnsemble(0.5, n), ChainConfig(n, t, params_at(0.4 * np.pi, 0.8 * np.pi))
        )
        for theta, phi in [(-0.4 * np.pi, 0.8 * np.pi), (0.4 * np.pi, -0.8 * np.pi)]:
            other = exact_distribution(
                ImbalanceEnsemble(0.5, n), ChainConfig(n, t, params_at(theta, phi))
            )
            assert np.array_equal(base.probabilities, other.probabilities)

    def test_length_independence(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for t in (1, 2, 3):
            reference = None
            for n in (2 * t, 2 * t + 2, 2 * t + 4):
                config = ChainConfig(n, t, params_at(theta, phi))
                dist = exact_distribution(ImbalanceEnsemble(0.4, n), config)
                moments = np.array(distribution_moments(dist))
                if reference is None:
                    reference = moments
                else:
                    assert np.max(np.abs(moments - reference)) < 1e-12

    def test_convention_invariance(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for n, t in [(4, 2), (6, 3)]:
            tail = exact_distribution(
                ImbalanceEnsemble(0.5, n),
                ChainConfig(n, t, params_at(theta, phi, "tail")),
            )
            split = exact_distribution(
                ImbalanceEnsemble(0.5, n),
                ChainConfig(n, t, params_at(theta, phi, "split")),
            )
            assert np.max(np.abs(tail.probabilities - split.probabilities)) < 1e-13

    def test_layer_order_invariance_of_ensemble_statistics(self, heisenberg_angles):
        # both parity orderings give the same ensemble-averaged transfer
        theta, phi = heisenberg_angles
        n, t = 6, 3
        a = exact_distribution(
            ImbalanceEnsemble(0.5, n),
            ChainConfig(n, t, params_at(theta, phi), LayerOrder.EVEN_FIRST),
        )
        b = exact_distribution(
            ImbalanceEnsemble(0.5, n),
            ChainConfig(n, t, params_at(theta, phi), LayerOrder.ODD_FIRST),
        )
        assert np.max(np.abs(a.probabilities - b.probabilities)) < 1e-13

    def test_mu_monotonic_mean_at_cycle_one(self):
        theta = 0.35 * np.pi
        config = ChainConfig(2, 1, params_at(theta, 0.9 * np.pi))
        means = []
        for mu in (0.0, 0.2, 0.5, 1.0, 2.0, math.inf):
            dist = exact_distribution(ImbalanceEnsemble(mu, 2), config)
            mean = distribution_moments(dist)[0]
            expected = 2 * math.sin(theta) ** 2 * (
                1.0 if math.isinf(mu) else math.tanh(mu)
            )
            assert abs(mean - expected) < 1e-12
            means.append(mean)
        assert all(a <= b + 1e-15 for a, b in zip(means, means[1:]))

    def test_cap_exceeded(self):
        config = ChainConfig(22, 11, params_at(0.1, 0.1))
        with pytest.raises(EnumerationCapError):
            exact_distribution(ImbalanceEnsemble(0.0, 22), config)

    def test_mu_zero_skewness_zero(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        config = ChainConfig(6, 3, params_at(theta, phi))
        dist = exact_distribution(ImbalanceEnsemble(0.0, 6), config)
        assert abs(distribution_moments(dist)[2]) < 1e-13


class TestPureDomainWall:
    def test_cycle_one_mean(self):
        theta = 0.4 * np.pi
        dist = pure_domain_wall_distribution(ChainConfig(2, 1, params_at(theta, 0.8 * np.pi)))
        assert abs(distribution_moments(dist)[0] - 2 * math.sin(theta) ** 2) < 1e-14

    def test_frozen_chain(self):
        dist = pure_domain_wall_distribution(ChainConfig(4, 2, params_at(0.0, 0.5)))
        assert dist.probability(0) == 1.0

    def test_matches_ensemble_at_mu_inf(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        config = ChainConfig(4, 2, params_at(theta, phi))
        direct = pure_domain_wall_distribution(config)
        weighted = exact_distribution(ImbalanceEnsemble(math.inf, 4), config)
        assert np.max(np.abs(direct.probabilities - weighted.probabilities)) < 1e-13

    def test_no_negative_transfer(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        dist = pure_domain_wall_distribution(ChainConfig(6, 3, params_at(theta, phi)))
        negative = dist.values < 0
        assert np.all(dist.probabilities[negative] == 0.0)


def dense_transfer_tensor(n, cycles, theta, phi, convention, order):
    """T[t, a, b, r] for t = 0..cycles from the dense 2^n cycle unitary."""
    half = n // 2
    u = dense_cycle(n, theta, phi, convention, order)
    words = range(2**n)
    left = np.array([(w >> half).bit_count() for w in words])
    right = np.array([dense_right_ones(w, n) for w in words])
    T = np.zeros((cycles + 1, half + 1, half + 1, half + 1))
    ut = np.eye(2**n, dtype=complex)
    for t in range(cycles + 1):
        probs = np.abs(ut) ** 2  # [final, initial]
        np.add.at(T[t], (left[None, :], right[None, :], right[:, None]), probs)
        ut = u @ ut
    return T


class TestTransferTensor:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_matches_dense_oracle(self, n, order, convention):
        # t <= n/2 and t > n/2; n = 2 is the one-site half chain, and the
        # center bond is odd for n = 4, 8 and even for n = 2, 6
        theta, phi = 0.37 * np.pi, -0.61 * np.pi
        cycles = n // 2 + 2
        oracle = dense_transfer_tensor(
            n, cycles, theta, phi, convention.value, order.value
        )
        params = params_at(theta, phi, convention.value)
        for mirror in (True, False):
            for t in (n // 2, cycles):
                T = transfer_tensor(n, t, params, order, mirror=mirror)
                assert np.max(np.abs(T - oracle[: t + 1])) <= 1e-12

    def test_mirror_flag_is_an_optimization_only(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        params = params_at(theta, phi)
        full = transfer_tensor(8, 4, params, mirror=False)
        mirrored = transfer_tensor(8, 4, params, mirror=True)
        assert np.max(np.abs(full - mirrored)) < 1e-11

    def test_thread_count_does_not_change_bits(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        params = params_at(theta, phi)
        a = transfer_tensor(8, 3, params, threads=1)
        b = transfer_tensor(8, 3, params, threads=4)
        assert np.array_equal(a, b)

    def test_cycle_zero_block_counts(self):
        tensor = transfer_tensor(4, 0, params_at(0.2, 0.2))
        assert tensor[0, 1, 1, 1] == 4.0  # C(2,1)*C(2,1) words stay put
        assert tensor[0, 1, 1, 0] == 0.0


class TestRelabelPipelineEquality:
    def test_exact_vs_relabeled_pipeline(self, heisenberg_angles):
        """Complementing over-half-full initial words (and un-complementing
        the outcomes) leaves the ensemble-averaged distribution unchanged."""
        theta, phi = heisenberg_angles
        n, t = 4, 2
        params = params_at(theta, phi)
        ens = ImbalanceEnsemble(0.5, n)
        plain = exact_distribution(ens, ChainConfig(n, t, params))
        half = n // 2
        acc = np.zeros(2 * t + 1)
        for word in range(2**n):
            bits = [(word >> (n - 1 - i)) & 1 for i in range(n)]
            a = sum(bits[:half])
            b = sum(bits[half:])
            weight = ens.word_probability_by_counts(a, b)
            if weight == 0.0:
                continue
            flagged = sum(bits) > half
            phys = [1 - x for x in bits] if flagged else bits
            state = SectorState.from_bitstring(phys)
            for _ in range(t):
                state.apply_cycle(params)
            r_phys = state.basis.right_ones()
            r_logical = (half - r_phys) if flagged else r_phys
            probs = state.probabilities()
            for r, p in zip(r_logical, probs):
                acc[t + (int(r) - b)] += weight * p
        assert np.max(np.abs(acc - plain.probabilities)) < 1e-13


class TestTransferDistributionType:
    def test_point_mass_and_grid(self):
        dist = TransferDistribution.point_mass(0)
        assert dist.values.tolist() == [0]
        assert dist.probability(0) == 1.0
        with pytest.raises(ValueError):
            TransferDistribution.point_mass(1, 3)

    def test_from_samples(self):
        dist = TransferDistribution.from_samples(2, [0, 2, 2, -4, 0, 0])
        assert dist.probability(2) == pytest.approx(2 / 6)
        assert dist.probability(-4) == pytest.approx(1 / 6)
        with pytest.raises(ValueError):
            TransferDistribution.from_samples(1, [3])

    def test_symmetrized_is_exactly_symmetric(self):
        dist = TransferDistribution(1, np.array([0.1, 0.2, 0.7]))
        sym = dist.symmetrized()
        assert np.array_equal(sym.probabilities, sym.probabilities[::-1])
        assert sym.raw_moment(1) == 0.0
        assert sym.raw_moment(3) == 0.0

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            ImbalanceEnsemble(-0.1, 4)
        with pytest.raises(ValueError):
            ImbalanceEnsemble(0.5, 5)
        assert ImbalanceEnsemble(math.inf, 4).p == 1.0
        assert ImbalanceEnsemble(0.0, 4).p == 0.5

    def test_unnormalized_tensor_raises_invariant_error(self):
        tensor = transfer_tensor(4, 1, FSimParams(0.2, 0.3))
        tensor[1, 1, 1, 1] += 0.5
        with pytest.raises(InvariantError, match="not normalized"):
            distribution_from_tensor(tensor, 1, ImbalanceEnsemble(0.0, 4))

    def test_mass_outside_the_light_cone_raises_invariant_error(self):
        tensor = transfer_tensor(6, 1, FSimParams(0.2, 0.3))
        # move mass of block (3, 0) from r = 0 to r = 2: M = 4 > 2t, same total
        tensor[1, 3, 0, 2] += 0.25
        tensor[1, 3, 0, 0] -= 0.25
        with pytest.raises(InvariantError, match="outside the light cone"):
            distribution_from_tensor(tensor, 1, ImbalanceEnsemble(0.0, 6))

    def test_distribution_from_tensor_rejects_mismatch(self):
        tensor = transfer_tensor(4, 1, FSimParams(0.2, 0.3))
        with pytest.raises(ValueError):
            distribution_from_tensor(tensor, 1, ImbalanceEnsemble(0.0, 6))
        with pytest.raises(ValueError):
            distribution_from_tensor(tensor, 2, ImbalanceEnsemble(0.0, 4))
