"""Imbalance-parameterized initial ensembles and exact transfer statistics.

The initial state is a product ensemble: left-half sites hold a 1 with
probability p = e^mu/(e^mu + e^-mu), right-half sites with probability 1-p.
The observable is twice the net number of excitations crossing the center
cut.  Because every site within a half is i.i.d., the ensemble weight of a
bitstring depends only on its per-half excitation counts (a, b), so exact
enumeration factorizes: one mu-independent tensor T[t, a, b, r] accumulates
the total probability that a word in block (a, b) evolves to a word with r
excitations on the right after t cycles, and any imbalance is applied as a
reweighting afterwards.  The tensor is built by evolving every basis word of
every sector once, in batched columns.

Left-right mirror symmetry of the brickwork (exact for even chain length)
gives T[t, a, b, r] = T[t, b, a, a+b-r]; only blocks with a >= b are
evolved and the rest are reflected.
"""

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuit import ChainConfig
from .errors import ConservationError, EnumerationCapError
from .gates import FSimParams, LayerOrder, PhaseConvention
from .sector import SectorState, cycle_bonds, sector_basis

DEFAULT_SITE_CAP = 20


@dataclass(frozen=True)
class ImbalanceEnsemble:
    """Product distribution over initial bitstrings at imbalance mu >= 0.

    mu = 0 is the uniform (infinite-temperature) ensemble; mu = math.inf is
    the pure domain wall 1...10...0.
    """

    mu: float
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2 != 0:
            raise ValueError(
                f"n_qubits must be even and >= 2, got {self.n_qubits}"
            )
        if not (self.mu >= 0.0):
            raise ValueError(f"mu must be >= 0 (or inf), got {self.mu}")

    @property
    def p(self) -> float:
        """Per-site probability of the majority value in each half."""
        if math.isinf(self.mu):
            return 1.0
        return 1.0 / (1.0 + math.exp(-2.0 * self.mu))

    def site_excitation_probabilities(self) -> np.ndarray:
        """P(bit=1) for every site: p on the left half, 1-p on the right."""
        half = self.n_qubits // 2
        return np.concatenate(
            [np.full(half, self.p), np.full(half, 1.0 - self.p)]
        )

    def word_probability_by_counts(self, a: int, b: int) -> float:
        """Probability of any single word with a ones left, b ones right."""
        half = self.n_qubits // 2
        p = self.p
        q = 1.0 - p
        return p**a * q ** (half - a) * q**b * p ** (half - b)


def folded_raw_moment(values, probs, k: int) -> float:
    """<M^k> on a grid symmetric about zero, folding +-M pairs first so an
    exactly symmetric mass yields exactly zero odd moments.

    Raises:
        ValueError: if `values` is not symmetric about zero.
    """
    half = len(values) // 2
    if not np.array_equal(values, -values[::-1]):
        raise ValueError("grid must be symmetric about zero")
    acc = probs[half] * (1.0 if k == 0 else 0.0)
    odd = k % 2 == 1
    for d in range(half, 0, -1):
        v = float(values[half + d]) ** k
        if odd:
            acc += probs[half + d] * v - probs[half - d] * v
        else:
            acc += probs[half + d] * v + probs[half - d] * v
    return float(acc)


class TransferDistribution:
    """Probability mass of the transferred magnetization after t cycles.

    The support is the even grid -2t, ..., 2t (a single 0 for t = 0).
    """

    def __init__(self, cycles: int, probabilities: np.ndarray):
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        self.cycles = int(cycles)
        self.values = 2 * np.arange(-self.cycles, self.cycles + 1)
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != self.values.shape:
            raise ValueError(
                f"expected {self.values.size} masses for t={cycles}, "
                f"got {probabilities.shape}"
            )
        self.probabilities = probabilities

    @classmethod
    def point_mass(cls, cycles: int, value: int = 0) -> "TransferDistribution":
        if value % 2 != 0 or abs(value) > 2 * cycles:
            raise ValueError(f"M={value} not on the even grid of t={cycles}")
        probs = np.zeros(2 * cycles + 1)
        probs[cycles + value // 2] = 1.0
        return cls(cycles, probs)

    @classmethod
    def from_samples(cls, cycles: int, m_values) -> "TransferDistribution":
        """Empirical distribution of sampled M values (all even, |M|<=2t)."""
        m_values = np.asarray(m_values, dtype=np.int64)
        if m_values.size == 0:
            raise ValueError("no samples")
        if np.any(m_values % 2 != 0) or np.any(np.abs(m_values) > 2 * cycles):
            raise ValueError("samples must be even and within [-2t, 2t]")
        counts = np.bincount(
            (m_values // 2) + cycles, minlength=2 * cycles + 1
        ).astype(float)
        return cls(cycles, counts / counts.sum())

    def probability(self, m: int) -> float:
        if m % 2 != 0 or abs(m) > 2 * self.cycles:
            return 0.0
        return float(self.probabilities[self.cycles + m // 2])

    def total(self) -> float:
        return float(self.probabilities.sum())

    def raw_moment(self, k: int) -> float:
        """<M^k>, by `folded_raw_moment`."""
        return folded_raw_moment(self.values, self.probabilities, k)

    def symmetrized(self) -> "TransferDistribution":
        """Average the masses of M and -M."""
        sym = 0.5 * (self.probabilities + self.probabilities[::-1])
        return TransferDistribution(self.cycles, sym)

    def as_dict(self) -> dict[int, float]:
        return {int(v): float(p) for v, p in zip(self.values, self.probabilities)}


def transferred_magnetization(b_initial, b_final) -> int:
    """Twice the net number of excitations that moved into the right half.

    Raises:
        ConservationError: if the popcounts differ.
    """
    bi = np.asarray(b_initial, dtype=np.int64)
    bf = np.asarray(b_final, dtype=np.int64)
    if bi.shape != bf.shape or bi.ndim != 1:
        raise ValueError("bitstrings must be 1-D and of equal length")
    if bi.sum() != bf.sum():
        raise ConservationError(
            f"popcount changed: {int(bi.sum())} -> {int(bf.sum())}"
        )
    half = bi.size // 2
    return 2 * int(bf[half:].sum() - bi[half:].sum())


def lightcone_reduce(config: ChainConfig) -> ChainConfig:
    """Equivalent configuration on the central light-cone sites.

    Ensemble-averaged center-cut statistics are unchanged for any chain with
    n_qubits >= 2*cycles, so the chain is shrunk to exactly that width (a
    minimum of 2 sites).

    Raises:
        UnderResolvedError: if the chain is shorter than the light cone.
    """
    config.require_exact()
    reduced = max(2, config.lightcone_width)
    return ChainConfig(reduced, config.cycles, config.params, config.layer_order)


def _chunk_columns(dim: int) -> int:
    return int(max(16, min(2048, (1 << 23) // max(dim, 1))))


def _sector_tasks(n_qubits: int, mirror: bool):
    """Deterministic task list: (k, column indices) chunks per sector."""
    half = n_qubits // 2
    tasks = []
    for k in range(n_qubits + 1):
        basis = sector_basis(n_qubits, k)
        r_of = basis.right_ones()
        a_of = k - r_of
        keep = np.flatnonzero(a_of >= r_of) if mirror else np.arange(basis.dimension)
        m_chunk = _chunk_columns(basis.dimension)
        for j0 in range(0, keep.size, m_chunk):
            tasks.append((k, keep[j0 : j0 + m_chunk]))
    return half, tasks


def _evolve_chunk(n_qubits, k, cols, cycles, params, layer_order):
    """Evolve basis columns `cols` of sector k and return the per-cycle
    right-count mass tensor contribution, indexed [t-1, a, b, r]."""
    basis = sector_basis(n_qubits, k)
    half = n_qubits // 2
    dim = basis.dimension
    r_of = basis.right_ones()
    a_of = (k - r_of).astype(np.int64)
    m = cols.size
    amps = np.zeros((dim, m), dtype=np.complex128)
    amps[cols, np.arange(m)] = 1.0
    bonds = cycle_bonds(n_qubits, layer_order)
    tables = [basis.bond_tables(b) for b in bonds]
    split = params.convention is PhaseConvention.SPLIT
    a_cols = a_of[cols]
    b_cols = r_of[cols]
    part = np.zeros((cycles, half + 1, half + 1, half + 1))
    acc = np.empty((half + 1, m))
    for t in range(1, cycles + 1):
        for tab in tables:
            _kernels.apply_fsim_tables(amps, tab, params.theta, params.phi, split)
        acc[:] = 0.0
        _kernels.readout_accumulate(amps, r_of, acc)
        for r in range(half + 1):
            np.add.at(part[t - 1], (a_cols, b_cols, r), acc[r])
    return part


def transfer_tensor(
    n_qubits: int,
    cycles: int,
    params: FSimParams,
    layer_order: LayerOrder = LayerOrder.EVEN_FIRST,
    *,
    mirror: bool = True,
    threads: int = 1,
) -> np.ndarray:
    """Block-resolved transfer tensor T[t, a, b, r] for t = 0..cycles.

    T[t, a, b, r] is the summed probability, over every basis word with a
    ones in the left half and b in the right, of measuring r ones on the
    right after t cycles.  It is independent of the imbalance; combine with
    `distribution_from_tensor` for any mu.  Output is bitwise independent of
    `threads` (fixed reduction order).
    """
    if n_qubits < 2 or n_qubits % 2 != 0:
        raise ValueError(f"n_qubits must be even and >= 2, got {n_qubits}")
    half = n_qubits // 2
    T = np.zeros((cycles + 1, half + 1, half + 1, half + 1))
    for a in range(half + 1):
        for b in range(half + 1):
            T[0, a, b, b] = math.comb(half, a) * math.comb(half, b)
    if cycles == 0:
        return T
    _, tasks = _sector_tasks(n_qubits, mirror)

    def run(task):
        k, cols = task
        return _evolve_chunk(n_qubits, k, cols, cycles, params, layer_order)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, tasks))
    else:
        parts = [run(task) for task in tasks]
    for part in parts:  # fixed task order: deterministic sum
        T[1:] += part
    if mirror:
        for a in range(half + 1):
            for b in range(a + 1, half + 1):
                k = a + b
                for r in range(half + 1):
                    if 0 <= k - r <= half:
                        T[1:, a, b, r] = T[1:, b, a, k - r]
    return T


def distribution_from_tensor(
    T: np.ndarray, cycles: int, ens: ImbalanceEnsemble
) -> TransferDistribution:
    """Reweight a transfer tensor into P(M) at a given cycle and imbalance."""
    half = T.shape[1] - 1
    if ens.n_qubits != 2 * half:
        raise ValueError(
            f"ensemble is on {ens.n_qubits} qubits, tensor on {2 * half}"
        )
    if not 0 <= cycles < T.shape[0]:
        raise ValueError(f"cycle {cycles} not recorded in tensor")
    mass = np.zeros(2 * half + 1)  # index r - b + half
    for a in range(half + 1):
        for b in range(half + 1):
            w = ens.word_probability_by_counts(a, b)
            if w == 0.0:
                continue
            for r in range(half + 1):
                mass[r - b + half] += w * T[cycles, a, b, r]
    total = mass.sum()
    if abs(total - 1.0) > 1e-10:
        raise RuntimeError(f"transfer mass not normalized: {total!r}")
    # the light cone bounds |M| <= 2t exactly: no amplitude path reaches
    # further, so any mass outside the grid is an internal error
    probs = np.zeros(2 * cycles + 1)
    for i, m_half in enumerate(range(-half, half + 1)):
        if mass[i] == 0.0:
            continue
        if abs(m_half) > cycles:
            raise RuntimeError(
                f"mass {mass[i]!r} outside the light cone at M={2 * m_half}"
            )
        probs[cycles + m_half] = mass[i]
    return TransferDistribution(cycles, probs)


def exact_distribution(
    ens: ImbalanceEnsemble,
    config: ChainConfig,
    *,
    cap_sites: int = DEFAULT_SITE_CAP,
) -> TransferDistribution:
    """Exact P(M) by weighted enumeration of every initial word.

    The chain is simulated exactly as configured; results equal the
    infinite-chain ones whenever n_qubits >= 2*cycles.  Use
    `lightcone_reduce` first to simulate the minimal chain.

    Raises:
        EnumerationCapError: if n_qubits exceeds `cap_sites`; use the
            sampler for larger systems.
    """
    return exact_distributions(ens, config, cap_sites=cap_sites)[-1]


def exact_distributions(
    ens: ImbalanceEnsemble,
    config: ChainConfig,
    *,
    cap_sites: int = DEFAULT_SITE_CAP,
    threads: int = 1,
) -> list[TransferDistribution]:
    """Exact P(M) for every cycle 0..config.cycles (one enumeration pass)."""
    if ens.n_qubits != config.n_qubits:
        raise ValueError(
            f"ensemble on {ens.n_qubits} qubits, config on {config.n_qubits}"
        )
    if config.n_qubits > cap_sites:
        raise EnumerationCapError(
            f"exact enumeration on {config.n_qubits} sites exceeds the cap "
            f"({cap_sites}); use sampled mode instead"
        )
    T = transfer_tensor(
        config.n_qubits,
        config.cycles,
        config.params,
        config.layer_order,
        threads=threads,
    )
    return [
        distribution_from_tensor(T, t, ens) for t in range(config.cycles + 1)
    ]


def pure_domain_wall_distribution(
    config: ChainConfig,
    *,
    cap_sites: int = DEFAULT_SITE_CAP,
) -> TransferDistribution:
    """P(M) for the single initial word 1...10...0 (the mu = inf limit).

    Evolves one sector state instead of enumerating the ensemble.
    """
    if config.n_qubits > cap_sites:
        raise EnumerationCapError(
            f"domain-wall evolution on {config.n_qubits} sites exceeds the "
            f"cap ({cap_sites}); use sampled mode instead"
        )
    n = config.n_qubits
    half = n // 2
    if config.cycles == 0:
        return TransferDistribution.point_mass(0)
    bits = [1] * half + [0] * half
    state = SectorState.from_bitstring(bits)
    for _ in range(config.cycles):
        state.apply_cycle(config.params, config.layer_order)
    r_of = state.basis.right_ones()
    probs_by_r = np.bincount(
        r_of, weights=state.probabilities(), minlength=half + 1
    )
    t = config.cycles
    probs = np.zeros(2 * t + 1)
    for r in range(half + 1):
        if probs_by_r[r] != 0.0:
            probs[t + r] = probs_by_r[r]  # M = 2 r, never negative
    return TransferDistribution(t, probs)
