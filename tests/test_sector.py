import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_cycle
from spinfcs.errors import SectorMismatchError
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.sector import (
    SectorBasis,
    SectorState,
    bits_to_word,
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
        assert basis.rank([0, 0, 1, 1]) == 0
        assert basis.rank([1, 1, 0, 0]) == 5
        assert basis.dimension == 6

    def test_rank_matches_enumeration_oracle(self):
        bits = [0, 1, 0, 1, 1, 0]
        expected = brute_force_rank(bits, 6, 3)
        assert SectorBasis(6, 3).rank(bits) == expected

    def test_wrong_popcount_raises(self):
        with pytest.raises(SectorMismatchError):
            SectorBasis(4, 2).rank([1, 1, 1, 0])

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
        assert basis.rank(basis.unrank(i)) == i

    def test_unrank_strictly_increasing(self):
        basis = SectorBasis(8, 3)
        words = [basis.unrank(i) for i in range(basis.dimension)]
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

    def test_word_bits_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert list(word_to_bits(bits_to_word(bits), 7)) == bits


class TestGateApplication:
    def test_full_swap_at_theta_half_pi(self):
        state = SectorState.from_bitstring([0, 1])
        state.apply_fsim(0, FSimParams(np.pi / 2, 0.3))
        basis = state.basis
        assert np.isclose(state.amplitudes[basis.rank([1, 0])], 1j)
        assert np.isclose(state.amplitudes[basis.rank([0, 1])], 0.0)

    def test_identity_at_zero_angles(self):
        state = SectorState.from_bitstring([0, 1, 1, 0])
        before = state.amplitudes.copy()
        for bond in range(3):
            state.apply_fsim(bond, FSimParams(0.0, 0.0))
        assert np.array_equal(state.amplitudes, before)

    def test_doubly_occupied_phase(self):
        theta, phi = 0.4 * np.pi, 0.8 * np.pi
        state = SectorState.from_bitstring([1, 1])
        state.apply_fsim(0, FSimParams(theta, phi))
        assert np.isclose(state.amplitudes[0], np.exp(-1j * phi))

    def test_split_phase_touches_empty_bond(self):
        phi = 0.6 * np.pi
        state = SectorState.from_bitstring([0, 0, 1, 1])
        state.apply_fsim(0, FSimParams(0.3, phi, PhaseConvention.SPLIT))
        idx = state.basis.rank([0, 0, 1, 1])
        assert np.isclose(state.amplitudes[idx], np.exp(-1j * phi / 2))

    def test_bond_out_of_range(self):
        state = SectorState.from_bitstring([0, 1, 1, 0])
        with pytest.raises(ValueError):
            state.apply_fsim(3, FSimParams(0.1, 0.1))

    def test_two_site_cycle_is_single_gate(self):
        params = FSimParams(0.37, 1.1)
        a = SectorState.from_bitstring([1, 0])
        b = SectorState.from_bitstring([1, 0])
        a.apply_cycle(params)
        b.apply_fsim(0, params)
        assert np.array_equal(a.amplitudes, b.amplitudes)


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
        assert abs(state.norm() - 1.0) < 1e-10

    def test_sector_dimension_never_changes(self):
        state = SectorState.from_bitstring([1, 0, 1, 0, 0, 1])
        dim = state.basis.dimension
        for t in range(5):
            state.apply_cycle(FSimParams(0.2 * np.pi, 0.9 * np.pi))
            assert state.amplitudes.shape == (dim,)
            assert state.basis.n_excitations == 3

