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
from .gates import FSimParams, LayerOrder, PhaseConvention, fsim_coefficients


def bits_to_word(bits):
    """Pack a 0/1 sequence of at most 64 sites (site 0 first) into an
    integer word; a stack of them, one per row, gives a uint64 array."""
    bits = np.asarray(bits, dtype=np.uint64)
    if bits.shape[-1] > 64:
        raise ValueError(
            f"a uint64 word holds at most 64 sites, got {bits.shape[-1]}"
        )
    shifts = np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.uint64)
    words = np.bitwise_or.reduce(bits << shifts, axis=-1)
    return int(words) if bits.ndim == 1 else words


def word_to_bits(word, n_sites: int) -> np.ndarray:
    """Unpack an integer word into a 0/1 array of length `n_sites`; an
    array of words gives one such row per word."""
    shifts = np.arange(n_sites - 1, -1, -1, dtype=np.uint64)
    words = np.asarray(word, dtype=np.uint64)[..., None]
    return ((words >> shifts) & np.uint64(1)).astype(np.int64)


def brickwork_layers(
    n_sites: int, first_site: int, layer_order: LayerOrder
) -> tuple[list[int], list[int]]:
    """Bond lists of the two half-layers of one cycle on `n_sites` sites.

    Bond b joins sites b and b+1 of the chain it is given, whose site 0 is
    physical site `first_site`.  Parity is that of the physical bond
    first_site + b, so a window cut out of a longer chain runs the layers of
    the chain itself.  This is the one place the brickwork layout is decided.
    """
    start = (first_site + (layer_order is LayerOrder.ODD_FIRST)) % 2
    return list(range(start, n_sites - 1, 2)), list(range(1 - start, n_sites - 1, 2))


def cycle_bonds(n_sites: int, layer_order: LayerOrder = LayerOrder.EVEN_FIRST):
    """Bond indices of one full cycle, first layer then second layer."""
    first, second = brickwork_layers(n_sites, 0, layer_order)
    return first + second


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
        if n_sites > 64:
            raise ValueError(f"a uint64 word holds at most 64 sites, got {n_sites}")
        self.n_sites = int(n_sites)
        self.n_excitations = int(n_excitations)
        self.dimension = math.comb(self.n_sites, self.n_excitations)
        self.words = _sector_words(self.n_sites, self.n_excitations)
        self._site_bits = None
        self._lowering = None
        self._bond_tables = {}

    def right_ones(self) -> np.ndarray:
        """Number of ones in the right half of each basis word."""
        half = self.n_sites // 2
        mask = np.uint64((1 << half) - 1)
        return np.bitwise_count(self.words & mask).astype(np.int64)

    def site_bits(self) -> np.ndarray:
        """(dimension, n_sites) 0/1 matrix of basis words (cached, read-only)."""
        if self._site_bits is None:
            bits = word_to_bits(self.words, self.n_sites)
            bits.setflags(write=False)
            self._site_bits = bits
        return self._site_bits

    def lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """Tables (source, target) of sigma^-_q, each (n_sites, C(n-1, k-1))
        (cached, read-only): row q of `source` lists, ascending, the rows of
        the words with site q occupied, and row q of `target` the rows of
        those words, site q emptied, in the sector with one excitation
        fewer."""
        if self.n_excitations == 0:
            raise ValueError("the vacuum sector has no excitation to lower")
        if self._lowering is None:
            n = self.n_sites
            sites, source = np.nonzero(self.site_bits().T)
            bits = np.uint64(1) << (np.uint64(n - 1) - sites.astype(np.uint64))
            lowered = sector_basis(n, self.n_excitations - 1)
            target = np.searchsorted(lowered.words, self.words[source] & ~bits)
            tables = (source.reshape(n, -1), target.reshape(n, -1))
            for table in tables:
                table.setflags(write=False)
            self._lowering = tables
        return self._lowering

    def bond_tables(self, bond: int) -> "BondTables":
        """Index tables (i01, i10, i11, i00) for the bond (bond, bond+1).

        i01/i10 are aligned partner lists: word j of i01 has sites
        (bond, bond+1) in state (0,1) and flips to word j of i10.  The
        tables are cached per bond as `BondTables`, whose `pairs` and
        `order` let a gate read every row of the sector, and the partner
        of each |01>/|10> row, in one gather, and put them back in
        another.
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
            self._bond_tables[bond] = BondTables(i01, i10, i11, i00)
        return self._bond_tables[bond]


class BondTables(tuple):
    """The index tables (i01, i10, i11, i00) of one bond, a 4-tuple, with
    two more.  `pairs` lists the rows of i01, i10, i11 and i00, which are
    views of it, and then those of i10 and i01 again: the partner of each
    |01>/|10> row.  `order` gives the position of each row of the sector
    among the first `dimension` entries of `pairs`."""

    def __new__(cls, i01, i10, i11, i00):
        pairs = np.concatenate([i01, i10, i11, i00, i10, i01])
        ends = np.cumsum([i01.size, i10.size, i11.size, i00.size])
        tables = super().__new__(cls, np.split(pairs[: ends[-1]], ends[:-1]))
        tables.pairs = pairs
        tables.order = np.argsort(pairs[: ends[-1]])
        return tables


@lru_cache(maxsize=64)
def sector_basis(n_sites: int, n_excitations: int) -> SectorBasis:
    """Shared, cached SectorBasis instances (they are immutable in use)."""
    return SectorBasis(n_sites, n_excitations)


class SectorState:
    """Statevectors confined to one excitation sector: one normalized
    state of shape (dim,), or a block of them as the columns of a (dim, m)
    array.  Gates, phases and `probabilities` act on every column alike."""

    def __init__(self, basis: SectorBasis, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.ndim not in (1, 2) or amplitudes.shape[0] != basis.dimension:
            raise ValueError(
                f"amplitudes shape {amplitudes.shape} is neither "
                f"({basis.dimension},) nor ({basis.dimension}, m)"
            )
        self.basis = basis
        self.amplitudes = amplitudes

    @classmethod
    def from_words(cls, words, n_sites: int) -> "SectorState":
        """Block of basis states, column j being |words[j]>.  The integer
        words must share one popcount.

        Raises:
            SectorMismatchError: if the popcounts differ.
        """
        words = np.asarray(words, dtype=np.uint64).reshape(-1)
        if words.size == 0 or np.any(words >> np.uint64(n_sites)):
            raise ValueError(f"need one or more words of {n_sites} sites")
        ones = np.bitwise_count(words)
        if np.any(ones != ones[0]):
            raise SectorMismatchError("the words of a block differ in popcount")
        basis = sector_basis(int(n_sites), int(ones[0]))
        rows = np.searchsorted(basis.words, words)
        amps = np.zeros((basis.dimension, words.size), dtype=np.complex128)
        amps[rows, np.arange(words.size)] = 1.0
        return cls(basis, amps)

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def apply_fsim(self, bond: int, params: FSimParams) -> None:
        """Apply one fSim gate on sites (bond, bond+1) of every column, in
        place; `params` with (m,) arrays of angles gives each column its
        own gate."""
        hop, phase = fsim_coefficients(params.theta, params.phi, params.convention)
        _kernels.apply_fsim_tables(
            self.columns(),
            self.basis.bond_tables(bond),
            hop,
            phase,
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

        `site_angles` holds one angle per site, shared by every column, or
        an (n_sites, m) array with a column of angles per column.  Each
        word's phase is exp(-i * the sum of the angles of its occupied
        sites), read off `SectorBasis.site_bits` and added one site at a
        time: elementwise arithmetic, with no BLAS, so a column's result
        does not depend on the block it sits in.  Diagonal in the basis.
        The noisy route never calls it (its Z rotations ride on the next
        gates' hops, `gates.fsim_coefficients`); it is their reference.
        """
        columns = self.columns()
        n = self.basis.n_sites
        if np.shape(site_angles) not in ((n,), (n, columns.shape[1])):
            raise ValueError("one angle per site (and column) required")
        angles = np.asarray(site_angles, dtype=float).reshape(n, -1)
        total = np.zeros(columns.shape)
        for occupied, angle in zip(self.basis.site_bits().T, angles):
            total += occupied[:, None] * angle
        columns *= np.exp(-1j * total)

    def columns(self) -> np.ndarray:
        """The amplitudes as a (dim, m) view, m = 1 for a single state."""
        return self.amplitudes.reshape(self.basis.dimension, -1)
