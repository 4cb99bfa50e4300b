import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FSimColumns, basis_state, dense_cycle
from spinfcs import _kernels
from spinfcs.errors import SectorMismatchError
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention, fsim_coefficients
from spinfcs.sector import (
    SectorBasis,
    SectorState,
    bits_to_word,
    brickwork_layers,
    sector_basis,
    word_to_bits,
)


def brute_force_rank(bits, n, k):
    """Position of a word in the sorted list of all n-bit words with k ones."""
    words = sorted(
        sum(1 << (n - 1 - i) for i in pos)
        for pos in itertools.combinations(range(n), k)
    )
    return words.index(bits_to_word(bits))


class TestRanking:
    def test_lexicographic_extremes(self):
        basis = SectorBasis(4, 2)
        assert basis.words[0] == 0b0011
        assert basis.words[5] == 0b1100
        assert basis.dimension == 6

    def test_rank_matches_enumeration_oracle(self):
        bits = [0, 1, 0, 1, 1, 0]
        expected = brute_force_rank(bits, 6, 3)
        assert SectorBasis(6, 3).words[expected] == bits_to_word(bits)

    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=0, max_value=n),
                st.integers(min_value=0),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_unrank_roundtrip(self, nki):
        n, k, raw = nki
        basis = sector_basis(n, k)
        i = raw % basis.dimension
        assert brute_force_rank(word_to_bits(basis.words[i], n), n, k) == i

    def test_unrank_strictly_increasing(self):
        basis = SectorBasis(8, 3)
        words = [int(basis.words[i]) for i in range(basis.dimension)]
        assert all(a < b for a, b in zip(words, words[1:]))

    def test_words_equal_the_combinations_enumeration(self):
        for n in range(1, 13):
            for k in range(n + 1):
                expected = sorted(
                    sum(1 << (n - 1 - i) for i in pos)
                    for pos in itertools.combinations(range(n), k)
                )
                words = SectorBasis(n, k).words
                assert words.dtype == np.uint64
                assert words.tolist() == expected, (n, k)

    def test_site_bits_is_cached_and_read_only(self):
        basis = SectorBasis(6, 3)
        bits = basis.site_bits()
        assert basis.site_bits() is bits
        assert not bits.flags.writeable
        assert [bits_to_word(row) for row in bits] == basis.words.tolist()

    def test_lowering_empties_each_site(self):
        for n, k in ((1, 1), (5, 2), (6, 6), (7, 3)):
            basis = SectorBasis(n, k)
            source, target = basis.lowering()
            assert basis.lowering()[0] is source and not target.flags.writeable
            lowered = sector_basis(n, k - 1)
            for q in range(n):
                bit = 1 << (n - 1 - q)
                rows = [i for i, w in enumerate(basis.words.tolist()) if w & bit]
                assert source[q].tolist() == rows
                expected = [int(basis.words[i]) & ~bit for i in rows]
                assert lowered.words[target[q]].tolist() == expected
        with pytest.raises(ValueError, match="vacuum"):
            SectorBasis(4, 0).lowering()

    def test_bond_tables_cache_the_pair_rows(self):
        basis = SectorBasis(7, 3)
        for bond in range(6):
            tables = basis.bond_tables(bond)
            i01, i10, i11, i00 = tables
            assert basis.bond_tables(bond) is tables
            rows = [*i01.tolist(), *i10.tolist(), *i11.tolist(), *i00.tolist()]
            assert tables.pairs.tolist() == rows + [*i10.tolist(), *i01.tolist()]
            assert tables.pairs[tables.order].tolist() == list(range(basis.dimension))
            flip = np.uint64(0b11 << (5 - bond))
            assert np.array_equal(basis.words[i01] ^ flip, basis.words[i10])
            covered = np.concatenate([i01, i10, i11, i00])
            assert sorted(covered.tolist()) == list(range(basis.dimension))

    def test_word_bits_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert list(word_to_bits(bits_to_word(bits), 7)) == bits

    def test_packing_past_64_sites_is_refused(self):
        with pytest.raises(ValueError, match="at most 64 sites"):
            bits_to_word([1] + [0] * 69)
        assert bits_to_word([1] + [0] * 63) == 1 << 63

    def test_basis_past_64_sites_is_refused(self):
        with pytest.raises(ValueError, match="at most 64 sites"):
            SectorBasis(65, 1)
        assert SectorBasis(64, 1).words[-1] == np.uint64(1 << 63)


class TestGateApplication:
    def test_full_swap_at_theta_half_pi(self):
        state = basis_state([0, 1])
        state.apply_fsim(0, FSimParams(np.pi / 2, 0.3))
        assert np.isclose(state.amplitudes[brute_force_rank([1, 0], 2, 1)], 1j)
        assert np.isclose(state.amplitudes[brute_force_rank([0, 1], 2, 1)], 0.0)

    def test_identity_at_zero_angles(self):
        state = basis_state([0, 1, 1, 0])
        before = state.amplitudes.copy()
        for bond in range(3):
            state.apply_fsim(bond, FSimParams(0.0, 0.0))
        assert np.array_equal(state.amplitudes, before)

    def test_doubly_occupied_phase(self):
        theta, phi = 0.4 * np.pi, 0.8 * np.pi
        state = basis_state([1, 1])
        state.apply_fsim(0, FSimParams(theta, phi))
        assert np.isclose(state.amplitudes[0], np.exp(-1j * phi))

    def test_split_phase_touches_empty_bond(self):
        phi = 0.6 * np.pi
        state = basis_state([0, 0, 1, 1])
        state.apply_fsim(0, FSimParams(0.3, phi, PhaseConvention.SPLIT))
        idx = brute_force_rank([0, 0, 1, 1], 4, 2)
        assert np.isclose(state.amplitudes[idx], np.exp(-1j * phi / 2))

    def test_bond_out_of_range(self):
        state = basis_state([0, 1, 1, 0])
        with pytest.raises(ValueError):
            state.apply_fsim(3, FSimParams(0.1, 0.1))

    def test_two_site_cycle_is_single_gate(self):
        params = FSimParams(0.37, 1.1)
        a = basis_state([1, 0])
        b = basis_state([1, 0])
        a.apply_cycle(params)
        b.apply_fsim(0, params)
        assert np.array_equal(a.amplitudes, b.amplitudes)


def four_table_fsim(amps, tables, theta, phi, split_phase):
    """The fSim kernel as it was before the pair table: two gathers and two
    scatters of the |01>/|10> rows."""
    i01, i10, i11, i00 = tables
    c = np.cos(theta)
    js = 1j * np.sin(theta)
    a = amps[i01]
    b = amps[i10]
    amps[i01] = c * a + js * b
    amps[i10] = js * a + c * b
    if split_phase:
        half = np.exp(-1j * phi / 2.0)
        amps[i00] *= half
        amps[i11] *= half
    else:
        amps[i11] *= np.exp(-1j * phi)


class TestKernel:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("per_column", [False, True])
    def test_pair_table_kernel_equals_the_four_table_one(self, per_column, split):
        rng = np.random.default_rng(11)
        convention = PhaseConvention.SPLIT if split else PhaseConvention.TAIL
        for n, k, m in ((2, 1, 1), (6, 3, 5), (9, 4, 3), (10, 7, 8)):
            basis = sector_basis(n, k)
            amps = rng.standard_normal((basis.dimension, m, 2)) @ np.array([1.0, 1j])
            want = amps.copy()
            for bond in rng.permutation(n - 1):
                tables = basis.bond_tables(bond)
                theta, phi = rng.uniform(-np.pi, np.pi, (2, m))
                if not per_column:
                    theta, phi = theta[0], phi[0]
                hop, phase = fsim_coefficients(theta, phi, convention)
                _kernels.apply_fsim_tables(amps, tables, hop, phase, split)
                four_table_fsim(want, tables, theta, phi, split)
                assert np.array_equal(amps, want)

    @pytest.mark.parametrize("convention", list(PhaseConvention))
    def test_a_twisted_gate_is_the_gate_on_the_z_rotated_state(self, convention):
        # G D_A psi = D_A G' psi: G' is G with its hops twisted by
        # A_{b+1} - A_b, D_A = exp(-i sum_q A_q n_q)
        rng = np.random.default_rng(12)
        split = convention is PhaseConvention.SPLIT
        for n, k, m in ((2, 1, 3), (7, 3, 4), (10, 5, 2)):
            basis = sector_basis(n, k)
            amps = rng.standard_normal((basis.dimension, m, 2)) @ np.array([1.0, 1j])
            turns = rng.uniform(-7.0, 7.0, (n, m))
            theta, phi = rng.uniform(-np.pi, np.pi, (2, m))
            for bond in range(n - 1):
                want = SectorState(basis, amps.copy())
                want.apply_diagonal_phases(turns)
                want.apply_fsim(bond, FSimColumns(theta, phi, convention))
                got = SectorState(basis, amps.copy())
                twist = turns[bond + 1] - turns[bond]
                hop, phase = fsim_coefficients(theta, phi, convention, twist)
                tables = basis.bond_tables(bond)
                _kernels.apply_fsim_tables(got.columns(), tables, hop, phase, split)
                got.apply_diagonal_phases(turns)
                assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12


def direct_phases(basis, angles):
    """exp(-i * sum of the angles of the occupied sites) of every word, as
    one (dim, m) table."""
    bits = basis.site_bits()[:, :, None]
    return np.exp(-1j * (bits * angles.reshape(basis.n_sites, -1)).sum(axis=1))


class TestDiagonalPhases:
    def test_half_word_phases_equal_the_per_site_sum(self):
        rng = np.random.default_rng(5)
        for n in range(1, 15):
            for k in range(n + 1):
                basis = sector_basis(n, k)
                amps = rng.standard_normal((basis.dimension, 3, 2)) @ np.array([1, 1j])
                for angles in (rng.normal(0, 2, n), rng.normal(0, 2, (n, 3))):
                    state = SectorState(basis, amps.copy())
                    state.apply_diagonal_phases(angles)
                    want = amps * direct_phases(basis, angles)
                    assert np.max(np.abs(state.amplitudes - want)) <= 1e-12, (n, k)

    def test_a_single_state_takes_shared_angles(self):
        basis = sector_basis(7, 3)
        angles = np.linspace(-2.0, 3.0, 7)
        state = SectorState(basis, np.full(basis.dimension, 0.5 + 0j))
        state.apply_diagonal_phases(angles)
        want = 0.5 * direct_phases(basis, angles)[:, 0]
        assert state.amplitudes.shape == (basis.dimension,)
        assert np.max(np.abs(state.amplitudes - want)) <= 1e-12


def sector_cycle_matrix(n, k, params, order):
    basis = sector_basis(n, k)
    cols = []
    for i in range(basis.dimension):
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        amps[i] = 1.0
        state = SectorState(basis, amps)
        state.apply_cycle(params, order)
        cols.append(state.amplitudes)
    return np.column_stack(cols)


class TestBrickworkLayout:
    @pytest.mark.parametrize("order", list(LayerOrder))
    def test_window_runs_the_layers_of_the_chain(self, order):
        # a window of sites lo..lo+w-1 applies exactly the chain's bonds that
        # lie inside it, in the chain's half-layer, whatever the parity of lo
        n = 9
        chain = brickwork_layers(n, 0, order)
        for lo in range(n - 1):
            for width in range(2, n - lo + 1):
                window = brickwork_layers(width, lo, order)
                for local, physical in zip(window, chain):
                    inside = [b - lo for b in physical if lo <= b <= lo + width - 2]
                    assert local == inside


class TestCycle:
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("order", list(LayerOrder))
    def test_cycle_matrix_unitary(self, n, order):
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi)
        for k in range(n + 1):
            u = sector_cycle_matrix(n, k, params, order)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10

    @pytest.mark.parametrize("convention", ["tail", "split"])
    @pytest.mark.parametrize("order", ["even_first", "odd_first"])
    def test_cycle_matches_dense_oracle(self, convention, order):
        n, theta, phi = 4, 0.3 * np.pi, 0.7 * np.pi
        dense = dense_cycle(n, theta, phi, convention, order)
        params = FSimParams(theta, phi, PhaseConvention(convention))
        for k in range(n + 1):
            basis = sector_basis(n, k)
            u = sector_cycle_matrix(n, k, params, LayerOrder(order))
            sub = dense[np.ix_(basis.words.astype(int), basis.words.astype(int))]
            assert np.max(np.abs(u - sub)) < 1e-13

    def test_norm_preserved_over_many_cycles(self):
        rng = np.random.default_rng(5)
        basis = sector_basis(8, 4)
        amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(
            basis.dimension
        )
        amps /= np.linalg.norm(amps)
        state = SectorState(basis, amps)
        params = FSimParams(0.4 * np.pi, 0.8 * np.pi)
        for _ in range(50):
            state.apply_cycle(params)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_sector_dimension_never_changes(self):
        state = basis_state([1, 0, 1, 0, 0, 1])
        dim = state.basis.dimension
        for t in range(5):
            state.apply_cycle(FSimParams(0.2 * np.pi, 0.9 * np.pi))
            assert state.amplitudes.shape == (dim,)
            assert state.basis.n_excitations == 3



class TestColumnBlocks:
    def test_block_columns_evolve_like_single_states(self):
        n, k = 6, 3
        basis = sector_basis(n, k)
        words = basis.words[[0, 7, 19]]
        block = SectorState.from_words(words, n)
        assert block.amplitudes.shape == (basis.dimension, 3)
        singles = [basis_state(word_to_bits(w, n)) for w in words]
        angles = np.linspace(0.1, 0.6, n)
        for state in [block, *singles]:
            state.apply_cycle(FSimParams(0.3, 1.1), LayerOrder.ODD_FIRST)
            state.apply_diagonal_phases(angles)
        for column, single in enumerate(singles):
            diff = block.amplitudes[:, column] - single.amplitudes
            assert np.max(np.abs(diff)) <= 1e-12
        assert np.allclose(block.probabilities().sum(axis=0), 1.0)

    # from 8 sites on, numpy sums a contiguous axis pairwise, so a
    # column's phases alone and in a block could differ in the last bit
    @pytest.mark.parametrize("n", [7, 11])
    def test_per_column_gates_and_phases_act_on_their_own_column(self, n):
        basis = sector_basis(n, 3)
        words = basis.words[[2, 2, 11, 30]]
        rng = np.random.default_rng(9)
        theta, phi = rng.uniform(-np.pi, np.pi, (2, words.size))
        z = rng.normal(0.0, 0.3, (n, words.size))
        block = SectorState.from_words(words, n)
        singles = [basis_state(word_to_bits(w, n)) for w in words]
        for bond in (0, 3, 5, 1):
            block.apply_fsim(bond, FSimColumns(theta, phi, PhaseConvention.SPLIT))
            for j, single in enumerate(singles):
                single.apply_fsim(bond, FSimParams(theta[j], phi[j], "split"))
        block.apply_diagonal_phases(z)
        for j, single in enumerate(singles):
            single.apply_diagonal_phases(z[:, j])
            diff = block.amplitudes[:, j] - single.amplitudes
            assert np.max(np.abs(diff)) <= 1e-12
        # a column's phases do not depend on the block it sits in, on the
        # words the gates reached and on every word of the sector
        spread = rng.standard_normal((basis.dimension, words.size)) + 0j
        for block in (block, SectorState(basis, spread)):
            alone = SectorState(basis, block.amplitudes[:, 2:3].copy())
            block.apply_diagonal_phases(z)
            alone.apply_diagonal_phases(z[:, 2:3])
            assert np.array_equal(alone.amplitudes[:, 0], block.amplitudes[:, 2])
        with pytest.raises(ValueError):
            block.apply_diagonal_phases(z[:, :3])

    def test_block_words_must_share_a_sector(self):
        with pytest.raises(SectorMismatchError):
            SectorState.from_words([0b0011, 0b0111], 4)
        with pytest.raises(ValueError):
            SectorState.from_words([0b10011], 4)  # five sites
        with pytest.raises(ValueError):
            SectorState.from_words([], 4)

    def test_a_stack_of_rows_packs_row_by_row(self):
        rows = word_to_bits(sector_basis(8, 4).words, 8)
        words = bits_to_word(rows)
        assert words.dtype == np.uint64
        assert words.tolist() == [bits_to_word(row) for row in rows]
        assert bits_to_word(rows[:, :0]).tolist() == [0] * len(rows)
