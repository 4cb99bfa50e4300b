"""Number-conserving statevector engine on a fixed-excitation sector.

A chain of `n_sites` qubits with exactly `n_excitations` ones spans a
C(n, k)-dimensional sector.  Basis words are stored as integers with site 0
at the most significant bit, so ascending integer order coincides with
lexicographic order of the bitstrings.  Gates act bond-locally through
precomputed index tables, pairing each |01> word with its |10> partner via
a two-bit flip; the 4x4 tensor product is never built.
"""

import math
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import SectorMismatchError
from .gates import FSimParams, LayerOrder, PhaseConvention


def bits_to_word(bits) -> int:
    """Pack a 0/1 sequence (site 0 first) into an integer word."""
    word = 0
    for b in bits:
        word = (word << 1) | int(b)
    return word


def word_to_bits(word: int, n_sites: int) -> np.ndarray:
    """Unpack an integer word into a 0/1 array of length `n_sites`."""
    return np.array(
        [(word >> (n_sites - 1 - i)) & 1 for i in range(n_sites)],
        dtype=np.int64,
    )


def cycle_bonds(n_sites: int, layer_order: LayerOrder = LayerOrder.EVEN_FIRST):
    """Bond indices of one full cycle, first layer then second layer."""
    even = list(range(0, n_sites - 1, 2))
    odd = list(range(1, n_sites - 1, 2))
    return even + odd if layer_order is LayerOrder.EVEN_FIRST else odd + even


def _sector_words(n_sites: int, n_excitations: int) -> np.ndarray:
    """All n-site words with k ones, ascending, as uint64.

    words(n, k) is words(n-1, k) followed by (1 << (n-1)) | words(n-1, k-1);
    both parts are ascending and the second lies above the first.
    """
    n, k = n_sites, n_excitations
    none = np.empty(0, dtype=np.uint64)
    # words[j] = words(m, j) for the counts j that can still reach (n, k)
    words = {0: np.zeros(1, dtype=np.uint64)}
    for m in range(1, n + 1):
        top = np.uint64(1 << (m - 1))
        words = {
            j: np.concatenate([words.get(j, none), top | words.get(j - 1, none)])
            for j in range(max(0, k - (n - m)), min(k, m) + 1)
        }
    return words[k]


class SectorBasis:
    """Ranked basis of all n-site words with a fixed number of ones.

    Attributes:
        n_sites: chain length.
        n_excitations: number of ones.
        dimension: C(n_sites, n_excitations).
        words: uint64 array of basis words in ascending (lexicographic) order.
    """

    def __init__(self, n_sites: int, n_excitations: int):
        if n_sites < 1 or not 0 <= n_excitations <= n_sites:
            raise ValueError(
                f"invalid sector ({n_sites} sites, {n_excitations} excitations)"
            )
        self.n_sites = int(n_sites)
        self.n_excitations = int(n_excitations)
        self.dimension = math.comb(self.n_sites, self.n_excitations)
        self.words = _sector_words(self.n_sites, self.n_excitations)
        self._site_bits = None
        self._bond_tables = {}

    def rank(self, bitstring) -> int:
        """Lexicographic rank of a word among all words of this sector.

        Accepts an integer word or a 0/1 sequence.  Raises
        SectorMismatchError when the popcount is wrong.
        """
        word = bitstring if isinstance(bitstring, (int, np.integer)) else bits_to_word(bitstring)
        word = int(word)
        n, k = self.n_sites, self.n_excitations
        if word < 0 or word >> n:
            raise ValueError(f"word {word:#x} does not fit in {n} sites")
        if word.bit_count() != k:
            raise SectorMismatchError(
                f"word has {word.bit_count()} ones, sector expects {k}"
            )
        r = 0
        remaining = k
        for i in range(n):
            if (word >> (n - 1 - i)) & 1:
                r += math.comb(n - 1 - i, remaining)
                remaining -= 1
        return r

    def unrank(self, index: int) -> int:
        """Inverse of `rank`; returns the integer word at a given rank."""
        if not 0 <= index < self.dimension:
            raise ValueError(f"rank {index} outside [0, {self.dimension})")
        return int(self.words[index])

    def right_ones(self) -> np.ndarray:
        """Number of ones in the right half of each basis word."""
        half = self.n_sites // 2
        mask = np.uint64((1 << half) - 1)
        return np.bitwise_count(self.words & mask).astype(np.int64)

    def site_bits(self) -> np.ndarray:
        """(dimension, n_sites) 0/1 matrix of basis words (cached, read-only)."""
        if self._site_bits is None:
            n = self.n_sites
            shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
            bits = ((self.words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
                np.int64
            )
            bits.setflags(write=False)
            self._site_bits = bits
        return self._site_bits

    def bond_tables(self, bond: int):
        """Index tables (i01, i10, i11, i00) for the bond (bond, bond+1).

        i01/i10 are aligned partner lists: word j of i01 has sites
        (bond, bond+1) in state (0,1) and flips to word j of i10.
        """
        if not 0 <= bond < self.n_sites - 1:
            raise ValueError(
                f"bond {bond} outside [0, {self.n_sites - 1})"
            )
        if bond not in self._bond_tables:
            n = self.n_sites
            hi = np.uint64(1 << (n - 1 - bond))
            lo = np.uint64(1 << (n - 2 - bond))
            has_hi = (self.words & hi) != 0
            has_lo = (self.words & lo) != 0
            i01 = np.flatnonzero(~has_hi & has_lo).astype(np.int64)
            partners = self.words[i01] ^ (hi | lo)
            i10 = np.searchsorted(self.words, partners).astype(np.int64)
            i11 = np.flatnonzero(has_hi & has_lo).astype(np.int64)
            i00 = np.flatnonzero(~has_hi & ~has_lo).astype(np.int64)
            self._bond_tables[bond] = (i01, i10, i11, i00)
        return self._bond_tables[bond]


@lru_cache(maxsize=64)
def sector_basis(n_sites: int, n_excitations: int) -> SectorBasis:
    """Shared, cached SectorBasis instances (they are immutable in use)."""
    return SectorBasis(n_sites, n_excitations)


class SectorState:
    """A normalized statevector confined to one excitation sector."""

    def __init__(self, basis: SectorBasis, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (basis.dimension,):
            raise ValueError(
                f"amplitudes shape {amplitudes.shape} != ({basis.dimension},)"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    @classmethod
    def from_bitstring(cls, bits, n_sites: int | None = None) -> "SectorState":
        """Basis state |bits>.  `bits` is a 0/1 sequence or an integer word
        (the latter requires `n_sites`)."""
        if isinstance(bits, (int, np.integer)):
            if n_sites is None:
                raise ValueError("integer word requires n_sites")
            word = int(bits)
            n = int(n_sites)
        else:
            bits = list(bits)
            word = bits_to_word(bits)
            n = len(bits)
        k = word.bit_count()
        basis = sector_basis(n, k)
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        amps[basis.rank(word)] = 1.0
        return cls(basis, amps)

    def copy(self) -> "SectorState":
        return SectorState(self.basis, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def apply_fsim(self, bond: int, params: FSimParams) -> None:
        """Apply one fSim gate on sites (bond, bond+1), in place."""
        tables = self.basis.bond_tables(bond)
        amps2d = self.amplitudes.reshape(-1, 1)
        _kernels.apply_fsim_tables(
            amps2d,
            tables,
            params.theta,
            params.phi,
            params.convention is PhaseConvention.SPLIT,
        )

    def apply_cycle(
        self,
        params: FSimParams,
        layer_order: LayerOrder = LayerOrder.EVEN_FIRST,
    ) -> None:
        """Apply one full brickwork cycle (both bond parities), in place."""
        for bond in cycle_bonds(self.basis.n_sites, layer_order):
            self.apply_fsim(bond, params)

    def apply_diagonal_phases(self, site_angles: np.ndarray) -> None:
        """Multiply by exp(-i * angle_q) on every occupied site q, in place.

        Used for inter-layer Z-rotation noise; diagonal in the basis.
        """
        site_angles = np.asarray(site_angles, dtype=float)
        if site_angles.shape != (self.basis.n_sites,):
            raise ValueError("one angle per site required")
        total = self.basis.site_bits() @ site_angles
        self.amplitudes *= np.exp(-1j * total)
