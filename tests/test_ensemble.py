import functools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    REFERENCE_KURTOSIS,
    basis_state,
    dense_cycle,
    dense_exact_pm,
    dense_right_ones,
    exact_dists,
    mass_at,
    mirrored_half_chain_operators,
)
from spinfcs import ensemble
from spinfcs.circuit import ChainConfig
from spinfcs.ensemble import (
    CHUNK_COLUMNS,
    ImbalanceEnsemble,
    check_memory,
    distribution_from_tensor,
    lightcone_reduce,
    transfer_tensor,
)
from spinfcs.errors import EnumerationCapError, InvariantError
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.sector import sector_basis
from spinfcs.stats import central_moments, moment_row


def params_at(theta, phi, convention="tail"):
    return FSimParams(theta, phi, PhaseConvention(convention))


class TestLightconeReduce:
    def test_reduces_to_cone_width(self):
        params = params_at(0.4 * np.pi, 0.8 * np.pi)
        for n in (8, 10, 12):
            reduced = lightcone_reduce(ChainConfig(n, 4, params))
            assert reduced.n_qubits == 8
            assert reduced.cycles == 4

    def test_a_chain_shorter_than_its_light_cone_is_kept(self):
        config = ChainConfig(4, 3, params_at(0.1, 0.1))
        assert lightcone_reduce(config) == config

    def test_zero_cycles(self):
        reduced = lightcone_reduce(ChainConfig(6, 0, params_at(0.1, 0.1)))
        values, probs = exact_dists(ImbalanceEnsemble(0.7, reduced.n_qubits), reduced)[-1]
        assert values.tolist() == [0]
        assert probs.tolist() == [1.0]


class TestExactDistribution:
    @pytest.mark.parametrize("mu", [0.0, 0.5, math.inf])
    @pytest.mark.parametrize("convention", ["tail", "split"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_dense_oracle(self, mu, convention, t):
        # t = 3 outgrows the 4-site chain: the grid still spans -2t..2t
        theta, phi = 0.3 * np.pi, 0.7 * np.pi
        n = 4
        config = ChainConfig(n, t, params_at(theta, phi, convention))
        values, probs = exact_dists(ImbalanceEnsemble(mu, n), config)[-1]
        assert values.tolist() == list(range(-2 * t, 2 * t + 1, 2))
        assert np.all(probs[np.abs(values) > n] == 0.0)
        oracle = dense_exact_pm(n, t, theta, phi, mu, convention)
        for m, p in zip(values, probs):
            assert abs(p - oracle.get(int(m), 0.0)) < 1e-13

    def test_reference_kurtosis_rows(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for t in (1, 2):
            config = ChainConfig(2 * t, t, params_at(theta, phi))
            dist = exact_dists(ImbalanceEnsemble(0.0, 2 * t), config)[-1]
            q = moment_row(dist)[3]
            assert abs(q - REFERENCE_KURTOSIS[t]) < 1e-12

    def test_normalized(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        config = ChainConfig(6, 3, params_at(theta, phi))
        _, probs = exact_dists(ImbalanceEnsemble(0.3, 6), config)[-1]
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_mirror_symmetry_at_mu_zero(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for t in (1, 2, 3):
            config = ChainConfig(2 * t, t, params_at(theta, phi))
            _, probs = exact_dists(ImbalanceEnsemble(0.0, 2 * t), config)[-1]
            assert np.max(np.abs(probs - probs[::-1])) < 1e-14

    def test_sign_symmetry_of_angles(self):
        n, t = 4, 2
        base = exact_dists(
            ImbalanceEnsemble(0.5, n), ChainConfig(n, t, params_at(0.4 * np.pi, 0.8 * np.pi))
        )[-1]
        for theta, phi in [(-0.4 * np.pi, 0.8 * np.pi), (0.4 * np.pi, -0.8 * np.pi)]:
            other = exact_dists(
                ImbalanceEnsemble(0.5, n), ChainConfig(n, t, params_at(theta, phi))
            )[-1]
            assert np.array_equal(base[1], other[1])

    def test_length_independence(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for t in (1, 2, 3):
            reference = None
            for n in (2 * t, 2 * t + 2, 2 * t + 4):
                config = ChainConfig(n, t, params_at(theta, phi))
                dist = exact_dists(ImbalanceEnsemble(0.4, n), config)[-1]
                moments = moment_row(dist)
                if reference is None:
                    reference = moments
                else:
                    assert np.max(np.abs(moments - reference)) < 1e-12

    def test_convention_invariance(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        for n, t in [(4, 2), (6, 3)]:
            tail = exact_dists(
                ImbalanceEnsemble(0.5, n),
                ChainConfig(n, t, params_at(theta, phi, "tail")),
            )[-1]
            split = exact_dists(
                ImbalanceEnsemble(0.5, n),
                ChainConfig(n, t, params_at(theta, phi, "split")),
            )[-1]
            assert np.max(np.abs(tail[1] - split[1])) < 1e-13

    def test_layer_order_invariance_of_ensemble_statistics(self, heisenberg_angles):
        # both parity orderings give the same ensemble-averaged transfer
        theta, phi = heisenberg_angles
        n, t = 6, 3
        a = exact_dists(
            ImbalanceEnsemble(0.5, n),
            ChainConfig(n, t, params_at(theta, phi), LayerOrder.EVEN_FIRST),
        )[-1]
        b = exact_dists(
            ImbalanceEnsemble(0.5, n),
            ChainConfig(n, t, params_at(theta, phi), LayerOrder.ODD_FIRST),
        )[-1]
        assert np.max(np.abs(a[1] - b[1])) < 1e-13

    def test_mu_monotonic_mean_at_cycle_one(self):
        theta = 0.35 * np.pi
        config = ChainConfig(2, 1, params_at(theta, 0.9 * np.pi))
        means = []
        for mu in (0.0, 0.2, 0.5, 1.0, 2.0, math.inf):
            dist = exact_dists(ImbalanceEnsemble(mu, 2), config)[-1]
            mean = moment_row(dist)[0]
            expected = 2 * math.sin(theta) ** 2 * (
                1.0 if math.isinf(mu) else math.tanh(mu)
            )
            assert abs(mean - expected) < 1e-12
            means.append(mean)
        assert all(a <= b + 1e-15 for a, b in zip(means, means[1:]))

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapError):
            check_memory(22, "exact")

    def test_mu_zero_skewness_zero(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        config = ChainConfig(6, 3, params_at(theta, phi))
        dist = exact_dists(ImbalanceEnsemble(0.0, 6), config)[-1]
        assert abs(moment_row(dist)[2]) < 1e-13


class TestMemoryCheck:
    # mode: its widest admitted chain or window; the next even width is refused
    EDGES = {"exact": 20, "sampled": 30, "noisy-sampled": 22}
    HEIS = params_at(0.4 * np.pi, 0.8 * np.pi)

    @pytest.mark.parametrize("mode", EDGES)
    def test_the_edge_of_each_mode(self, mode):
        width = self.EDGES[mode]
        check_memory(width, mode)
        with pytest.raises(EnumerationCapError) as refused:
            check_memory(width + 2, mode)
        # the refusal states every mode's edge
        edges = (
            f"exact chains up to {self.EDGES['exact']} sites, sampled windows "
            f"up to {self.EDGES['sampled']} and noisy-sampled ones up to "
            f"{self.EDGES['noisy-sampled']}"
        )
        assert str(refused.value).startswith(f"{mode} evolution of {width + 2} sites")
        assert str(refused.value).endswith(edges)

    @pytest.mark.parametrize("mode", EDGES)
    def test_a_width_past_64_sites_is_refused_without_its_binomials(self, mode):
        # C(10^6, 5 10^5) alone takes seconds to compute
        with pytest.raises(EnumerationCapError, match="sites needs more than"):
            check_memory(10**6, mode)

    @classmethod
    def operator_bytes(cls, half):
        """Bytes of the one half-chain operator set."""
        ops, _ = ensemble._half_chain_operators(half, cls.HEIS, LayerOrder.EVEN_FIRST, 0)
        return sum(w.nbytes for w in ops)

    @staticmethod
    def block_bytes(half, a, b, m):
        """Bytes of a `_SectorBlocks` of m columns of block (a, b)."""
        blocks = ensemble._SectorBlocks(half, a + b, a, np.arange(m))
        return blocks.amps.nbytes + blocks._halves[blocks.lo][1].base.nbytes

    @pytest.mark.parametrize("n, need", [(14, 31_223_872), (16, 117_209_824)])
    def test_the_exact_estimate_is_what_the_widest_task_holds(
        self, n, need, monkeypatch
    ):
        # the chain's and its widest forward window's (n - 2 sites)
        # operator sets and tasks of CHUNK_COLUMNS middle-sector columns,
        # in bytes: the cap set to exactly that admits the chain, one byte
        # less refuses it
        held = 0
        for half in (n // 2, n // 2 - 1):
            widest = self.block_bytes(half, half // 2, half - half // 2, CHUNK_COLUMNS)
            held += self.operator_bytes(half) + widest
        assert held == need
        monkeypatch.setattr(ensemble, "MEMORY_CAP", need)
        check_memory(n, "exact")
        monkeypatch.setattr(ensemble, "MEMORY_CAP", need - 1)
        with pytest.raises(EnumerationCapError, match=f"exact evolution of {n} sites"):
            check_memory(n, "exact")

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("n", range(2, 14, 2))
    def test_the_exact_estimate_bounds_what_a_tensor_holds(
        self, n, order, symmetric, monkeypatch
    ):
        # the operator sets of a call and the most bytes of engines alive
        # at once (the full one and a window one), counted by their
        # nbytes as they are built and freed
        live, peak, operators = [0], [0], []
        engine, build = ensemble._SectorBlocks, ensemble._half_chain_operators

        def free(size):
            live[0] -= size

        class Counted(engine):
            def __init__(self, *args):
                super().__init__(*args)
                size = self.amps.nbytes + self._halves[self.lo][1].base.nbytes
                live[0] += size
                peak[0] = max(peak[0], live[0])
                weakref.finalize(self, free, size)

        def counted(*args):
            ops = build(*args)
            operators.append(sum(w.nbytes for w in ops[0]))
            return ops

        monkeypatch.setattr(ensemble, "_SectorBlocks", Counted)
        monkeypatch.setattr(ensemble, "_half_chain_operators", counted)
        transfer_tensor(n, n // 2 + 2, self.HEIS, order, symmetric=symmetric)
        assert live[0] == 0 and len(operators) == 1 + (symmetric and n > 2)
        monkeypatch.setattr(ensemble, "MEMORY_CAP", sum(operators) + peak[0] - 1)
        with pytest.raises(EnumerationCapError):
            check_memory(n, "exact")

    def test_transfer_tensor_refuses_before_it_allocates(self, monkeypatch):
        def building(*args):
            raise AssertionError("built operators before the memory check")

        monkeypatch.setattr(ensemble, "_half_chain_operators", building)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError, match="exact evolution of 22"):
                transfer_tensor(22, 1, self.HEIS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestPureDomainWall:
    @staticmethod
    def domain_wall(n, t, params):
        """P(M) at mu = inf on the route of `spinfcs run`: the tensor,
        reweighted onto the single word 1...10...0."""
        tensor = transfer_tensor(n, t, params)
        return distribution_from_tensor(tensor, t, ImbalanceEnsemble(math.inf, n))

    def test_cycle_one_mean(self):
        theta = 0.4 * np.pi
        dist = self.domain_wall(2, 1, params_at(theta, 0.8 * np.pi))
        assert abs(moment_row(dist)[0] - 2 * math.sin(theta) ** 2) < 1e-14

    def test_frozen_chain(self):
        dist = self.domain_wall(4, 2, params_at(0.0, 0.5))
        values, probs = dist
        # no mass leaves M = 0; the mass there is a sum of |phase|^2 terms
        assert np.all(probs[values != 0] == 0.0)
        assert mass_at(dist, 0) == pytest.approx(1.0, abs=1e-15)

    def test_no_negative_transfer(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        values, probs = self.domain_wall(6, 3, params_at(theta, phi))
        assert np.all(probs[values < 0] == 0.0)


GENERIC = (0.37 * np.pi, -0.61 * np.pi)


@functools.cache
def every_column(n, t, order, convention, angles=GENERIC):
    """The unreduced reference tensor (`symmetric=False`), read-only and
    shared by the tests that compare with it."""
    params = params_at(*angles, convention.value)
    T = transfer_tensor(n, t, params, order, symmetric=False)
    T.setflags(write=False)
    return T


def block_words(half):
    """C(h, a) C(h, b), the words of block (a, b), indexed [a, b]."""
    words = np.array([math.comb(half, a) for a in range(half + 1)])
    return np.multiply.outer(words, words)


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
    @pytest.mark.parametrize(
        "theta, phi",
        [(0.37 * np.pi, -0.61 * np.pi), (np.pi / 2, np.pi), (0.8 * np.pi, 0.3 * np.pi)],
        ids=["generic", "full-swap", "cos-negative"],
    )
    def test_matches_dense_oracle(self, n, order, convention, theta, phi):
        # t <= n/2 and t > n/2; n = 2 is the one-site half chain, and the
        # center bond is odd for n = 4, 8 and even for n = 2, 6.  The full
        # swap stores phi = +pi, where the center mix's phase e^{i phi/2} is i
        cycles = n // 2 + 2
        oracle = dense_transfer_tensor(
            n, cycles, theta, phi, convention.value, order.value
        )
        params = params_at(theta, phi, convention.value)
        for symmetric in (True, False):
            for t in (n // 2, cycles):
                T = transfer_tensor(n, t, params, order, symmetric=symmetric)
                assert np.max(np.abs(T - oracle[: t + 1])) <= 1e-12

    def test_mirror_flag_is_an_optimization_only(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        params = params_at(theta, phi)
        full = transfer_tensor(8, 4, params, symmetric=False)
        mirrored = transfer_tensor(8, 4, params, symmetric=True)
        assert np.max(np.abs(full - mirrored)) < 1e-11

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_symmetric_matches_every_column(self, n, order, convention):
        # t = n/2 + 2 with `tail` falls back to the mirror alone
        half = n // 2
        params = params_at(*GENERIC, convention.value)
        tolerance = 1e-12 * block_words(half)[None, :, :, None]
        for t in (half - 1, half, half + 2):
            reduced = transfer_tensor(n, t, params, order, symmetric=True)
            every = every_column(n, t, order, convention)
            assert np.all(np.abs(reduced - every) <= tolerance)
            # their moments agree too, also at mu = inf, where the mean is far from 0
            for mu in (0.0, 0.5, math.inf):
                ens = ImbalanceEnsemble(mu, n)
                rows = [
                    [
                        moment_row(distribution_from_tensor(T, s, ens))
                        for s in range(t + 1)
                    ]
                    for T in (reduced, every)
                ]
                np.testing.assert_allclose(*rows, rtol=0.0, atol=2e-14)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_the_unreduced_tensor_is_reciprocal(self, n, order, convention):
        # T[t, a, b, r] = T[t, a+b-r, r, b], the identity by which the
        # reduced tensor fills its self-mirror blocks: every gate, the
        # center mix and the boundary phases are symmetric matrices, so the
        # evolution's transpose is the evolution conjugated by a half-layer
        # that keeps every block.  t = h + 2 runs `tail` past the bit flip
        half = n // 2
        a, b, r = np.indices((half + 1,) * 3)
        s = a + b - r
        inside = (0 <= s) & (s <= half)
        tolerance = 1e-12 * block_words(half)[a[inside], b[inside]]
        for t in (half - 1, half, half + 2):
            T = every_column(n, t, order, convention)
            reciprocal = T[:, s[inside], r[inside], b[inside]]
            assert np.all(np.abs(T[:, inside] - reciprocal) <= tolerance)
            assert np.all(T[:, ~inside] == 0.0)  # no left count a+b-r

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    @pytest.mark.parametrize(
        "angles", [GENERIC, (0.0, 0.5), (np.pi / 2, np.pi)],
        ids=["generic", "frozen", "full-swap"],
    )
    def test_the_reduced_tensor_keeps_every_exact_zero(
        self, n, order, convention, angles
    ):
        # no reduced mass is a rounding residue where the unreduced one is
        # 0.0: outside the light cone |r - b| <= t, which
        # `distribution_from_tensor` checks exactly, and at theta = 0 off
        # the initial block, r != b, which `test_frozen_chain` reads
        half = n // 2
        b, r = np.indices((half + 1,) * 2)
        params = params_at(*angles, convention.value)
        for t in (half - 1, half, half + 2):
            every = every_column(n, t, order, convention, angles)
            reduced = transfer_tensor(n, t, params, order)
            zero = every == 0.0
            assert np.all(reduced[zero] == 0.0)
            cycle = np.arange(t + 1)[:, None, None, None]
            assert np.all(zero[np.broadcast_to(abs(r - b) > cycle, zero.shape)])
            if angles[0] == 0.0:
                assert np.all(zero[:, :, r != b])

    @pytest.mark.parametrize("order", [1, 2, 4], ids=["trivial", "mirror", "both"])
    def test_orbit_columns_count_every_word_once(self, order):
        for n in range(2, 21, 2):
            half = n // 2
            # Burnside: the mirror fixes the 2^h words with L = R, the bit
            # flip none, and their product the 2^h words with R = ~L
            fixed = {1: 0, 2: 2**half, 4: 2 * 2**half}[order]
            blocks = {
                (a, b): ensemble._orbit_columns(half, a, b, order)
                for a in range(half + 1)
                for b in range(half + 1)
            }
            assert sum(order * w.sum() for _, w in blocks.values()) == 2**n
            evolved = sum(columns.size for columns, _ in blocks.values())
            assert evolved == (2**n + fixed) // order
            if n > 10:
                continue
            # the evolved words are the least images of all 2^n words
            word = np.arange(2**n, dtype=np.uint64)
            h, ones = np.uint64(half), np.uint64(2**half - 1)
            mirror = (word & ones) << h | word >> h
            flip = np.uint64(2**n - 1)
            least = np.min([word, mirror, word ^ flip, mirror ^ flip][:order], axis=0)
            chosen = [
                sector_basis(half, a).words[columns // math.comb(half, b)] << h
                | sector_basis(half, b).words[columns % math.comb(half, b)]
                for (a, b), (columns, _) in blocks.items()
            ]
            assert np.array_equal(np.sort(np.concatenate(chosen)), np.unique(least))

    @pytest.mark.parametrize(
        "convention, cycles, symmetric, order, words",
        [
            # reciprocity fills the self-mirror blocks (a, a): their 70
            # words make 23 orbits under both maps and 43 under the mirror
            # (Burnside: the mirror fixes 16, the bit flip none and their
            # product 6), which are not evolved
            ("tail", 4, True, 4, (256 + 32) // 4 - 23),
            ("tail", 5, True, 2, (256 + 16) // 2 - 43),
            ("split", 5, True, 4, (256 + 32) // 4 - 23),
            ("tail", 5, False, 1, 256),
        ],
    )
    def test_tensor_evolves_one_word_per_orbit(
        self, monkeypatch, convention, cycles, symmetric, order, words
    ):
        # n = 8: the bit flip applies for t <= 4, or at any t with `split`
        evolved, engine_columns = [], {3: 0, 4: 0}
        engine, blocks = ensemble._evolve_block, ensemble._SectorBlocks

        def spy(h, a, b, columns, weights, *rest):
            evolved.append((len(columns), weights.sum()))
            return engine(h, a, b, columns, weights, *rest)

        class Counted(blocks):
            def __init__(self, half, k, lefts, columns):
                super().__init__(half, k, lefts, columns)
                engine_columns[half] += len(columns)

        monkeypatch.setattr(ensemble, "_evolve_block", spy)
        monkeypatch.setattr(ensemble, "_SectorBlocks", Counted)
        params = params_at(0.3, 0.7, convention)
        transfer_tensor(8, cycles, params, symmetric=symmetric)
        assert sum(count for count, _ in evolved) == words
        assert order * sum(weight for _, weight in evolved) == 256 - 70 * symmetric
        # even-first, the first two cycles reach 3 sites of each half: with
        # `symmetric` every word runs them on that window, then the chain
        assert engine_columns == {3: words * symmetric, 4: words}

    def test_thread_count_does_not_change_bits(self, heisenberg_angles):
        theta, phi = heisenberg_angles
        params = params_at(theta, phi)
        a = transfer_tensor(8, 3, params, threads=1)
        b = transfer_tensor(8, 3, params, threads=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_is_refused(self, threads):
        with pytest.raises(ValueError, match="threads"):
            transfer_tensor(4, 1, params_at(0.2, 0.2), threads=threads)

    @pytest.mark.parametrize("cycles", [-1, -2])
    def test_negative_depth_is_refused(self, cycles):
        with pytest.raises(ValueError, match="cycles"):
            transfer_tensor(4, cycles, params_at(0.2, 0.2))

    def test_cycle_zero_block_counts(self):
        tensor = transfer_tensor(4, 0, params_at(0.2, 0.2))
        assert tensor[0, 1, 1, 1] == 4.0  # C(2,1)*C(2,1) words stay put
        assert tensor[0, 1, 1, 0] == 0.0


class TestHalfChainOperators:
    @pytest.mark.parametrize("first_site", [0, 1])
    @pytest.mark.parametrize("order", list(LayerOrder))
    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_one_set_serves_both_halves(self, convention, order, first_site):
        # read outward from the cut, left bond j is chain bond h - 2 - j and
        # right bond j is h + j, of the same parity: W is the right half's own
        # set bit for bit, and the mirrored left half's up to the order of
        # the commuting gates within a half-layer
        params = params_at(0.37 * np.pi, -0.61 * np.pi, convention.value)
        for half in range(1, 11):
            ops, mix = ensemble._half_chain_operators(half, params, order, first_site)
            left, right, want_mix = mirrored_half_chain_operators(
                half, params, order, first_site
            )
            assert mix == want_mix and len(ops) == half + 1
            for w, w_left, w_right in zip(ops, left, right):
                assert np.array_equal(w, w_right)
                assert np.max(np.abs(w - w_left)) <= 1e-15


class TestBlasThreadBudget:
    @pytest.fixture
    def openblas(self):
        calls = ensemble._openblas_threads()
        if calls is None:
            pytest.skip("numpy exports no OpenBLAS thread control")
        get, set_threads = calls
        before = get()
        set_threads(2)
        yield get
        set_threads(before)

    def test_workers_run_single_threaded_blas_then_the_count_is_restored(
        self, openblas
    ):
        assert ensemble.thread_map(lambda _: openblas(), range(4), 2) == [1] * 4
        assert openblas() == 2
        # one worker runs in the calling thread and leaves BLAS alone
        assert ensemble.thread_map(lambda _: openblas(), range(2), 1) == [2, 2]

    def test_the_count_is_restored_when_a_task_raises(self, openblas):
        def task(item):
            assert openblas() == 1
            raise RuntimeError(f"task {item} failed")

        with pytest.raises(RuntimeError, match="failed"):
            ensemble.thread_map(task, range(3), 2)
        assert openblas() == 2


class TestRelabelPipelineEquality:
    def test_exact_vs_relabeled_pipeline(self, heisenberg_angles):
        """Complementing over-half-full initial words (and un-complementing
        the outcomes) leaves the ensemble-averaged distribution unchanged."""
        theta, phi = heisenberg_angles
        n, t = 4, 2
        params = params_at(theta, phi)
        ens = ImbalanceEnsemble(0.5, n)
        plain = exact_dists(ens, ChainConfig(n, t, params))[-1]
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
            state = basis_state(phys)
            for _ in range(t):
                state.apply_cycle(params)
            r_phys = state.basis.right_ones()
            r_logical = (half - r_phys) if flagged else r_phys
            probs = state.probabilities()
            for r, p in zip(r_logical, probs):
                acc[t + (int(r) - b)] += weight * p
        assert np.max(np.abs(acc - plain[1])) < 1e-13


class TestTransferDistributionType:
    def test_symmetrized_is_exactly_symmetric(self):
        probs = np.array([0.1, 0.2, 0.7])
        sym = 0.5 * (probs + probs[::-1])
        assert np.array_equal(sym, sym[::-1])
        alpha = central_moments((np.array([-2, 0, 2]), sym), 3)
        assert alpha[1] == alpha[3] == 0.0

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            ImbalanceEnsemble(-0.1, 4)
        with pytest.raises(ValueError):
            ImbalanceEnsemble(0.5, 5)
        assert ImbalanceEnsemble(math.inf, 4).p == 1.0
        assert ImbalanceEnsemble(0.0, 4).p == 0.5

    @pytest.mark.parametrize(
        "mass, message",
        # a plain number, not np.float64(...); a NaN total is not normalized either
        [(0.5, r"not normalized: 1\.03\d*$"), (math.nan, r"not normalized: nan$")],
        ids=["off_one", "nan"],
    )
    def test_unnormalized_tensor_raises_invariant_error(self, mass, message):
        tensor = transfer_tensor(4, 1, FSimParams(0.2, 0.3))
        tensor[1, 1, 1, 1] += mass
        with pytest.raises(InvariantError, match=message):
            distribution_from_tensor(tensor, 1, ImbalanceEnsemble(0.0, 4))

    def test_mass_outside_the_light_cone_raises_invariant_error(self):
        tensor = transfer_tensor(6, 1, FSimParams(0.2, 0.3))
        # move mass of block (3, 0) from r = 0 to r = 2: M = 4 > 2t, same total
        tensor[1, 3, 0, 2] += 0.25
        tensor[1, 3, 0, 0] -= 0.25
        with pytest.raises(InvariantError, match=r"^mass 0\.0039\d* outside the light"):
            distribution_from_tensor(tensor, 1, ImbalanceEnsemble(0.0, 6))

    def test_distribution_from_tensor_rejects_mismatch(self):
        tensor = transfer_tensor(4, 1, FSimParams(0.2, 0.3))
        with pytest.raises(ValueError):
            distribution_from_tensor(tensor, 1, ImbalanceEnsemble(0.0, 6))
        with pytest.raises(ValueError):
            distribution_from_tensor(tensor, 2, ImbalanceEnsemble(0.0, 4))
