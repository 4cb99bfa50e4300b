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

The evolution stores a sector as a direct sum of left (x) right blocks
(a, k-a).  A cycle is then one dense cached operator per half chain,
applied to each block as matrix products, and the center-bond gate, which
updates slice views of neighbouring blocks in place.

Left-right mirror symmetry of the brickwork (exact for even chain length)
gives T[t, a, b, r] = T[t, b, a, a+b-r]; only blocks with a >= b are
evolved and the rest are reflected.
"""

import concurrent.futures
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuit import ChainConfig
from .errors import ConservationError, EnumerationCapError, InvariantError
from .gates import FSimParams, LayerOrder, PhaseConvention
from .sector import cycle_bonds, sector_basis

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


CHUNK_COLUMNS = 256


def _half_chain_operators(half: int, params: FSimParams, layer_order: LayerOrder):
    """Dense one-cycle operators (W_L, W_R) of the two half chains.

    W[c] is the C(half, c)-square matrix of all half-chain gates of one
    cycle, in cycle order, on the c-excitation sector of `half` sites with
    the boundary site as the most significant bit.  The left half is read
    mirrored, which maps its bond i to bond half-2-i; fSim is symmetric
    under swapping its two sites, so the gates are unchanged.
    """
    bonds = cycle_bonds(2 * half, layer_order)
    split = params.convention is PhaseConvention.SPLIT

    def operators(local_bonds):
        ops = []
        for c in range(half + 1):
            basis = sector_basis(half, c)
            w = np.eye(basis.dimension, dtype=np.complex128)
            for bond in local_bonds:
                _kernels.apply_fsim_tables(
                    w, basis.bond_tables(bond), params.theta, params.phi, split
                )
            ops.append(w)
        return ops

    left = operators([half - 2 - b for b in bonds if b <= half - 2])
    right = operators([b - half for b in bonds if b >= half])
    return left, right


def _evolve_block(half, a0, b0, j0, m, cycles, params, operators):
    """Right-count masses of columns j0..j0+m-1 of block (a0, b0) after each
    cycle, indexed [t-1, r].

    Sector k = a0 + b0 is stored as blocks (a, k-a), a ascending, each of
    C(half, a) * C(half, k-a) rows ordered left index major, with m columns.
    A cycle is W_L (x) W_R on every block followed by the center gate, which
    pairs |01> rows of block (a, b) with |10> rows of block (a+1, b-1).  The
    W before the first center gate and after the last readout are dropped:
    summed over a whole initial block, T does not see them.  After s center
    gates only blocks |a - a0| <= s are nonzero, and only they are touched.
    """
    k = a0 + b0
    lo, hi = max(0, k - half), min(half, k)
    shape = {a: (math.comb(half, a), math.comb(half, k - a)) for a in range(lo, hi + 1)}
    sizes = [dl * dr for dl, dr in shape.values()]
    start = dict(zip(shape, itertools.accumulate(sizes, initial=0)))
    stop = {a: start[a] + size for a, size in zip(shape, sizes)}
    r_of = np.repeat([k - a for a in shape], sizes)
    amps = np.zeros((sum(sizes), m), dtype=np.complex128)
    # GEMM output, or the two products of the center gate
    scratch = np.empty(2 * max(sizes) * m, dtype=np.complex128)

    def block(a):
        return amps[start[a] : stop[a]].reshape(*shape[a], m)

    cols = np.arange(m)
    amps[start[a0] + j0 + cols, cols] = 1.0
    w_left, w_right = operators
    cos = math.cos(params.theta)
    isin = 1j * math.sin(params.theta)
    split = params.convention is PhaseConvention.SPLIT
    phase11 = complex(np.exp(-1j * params.phi / (2.0 if split else 1.0)))
    phase00 = complex(np.exp(-1j * params.phi / 2.0))
    part = np.zeros((cycles, half + 1))
    acc = np.empty((half + 1, m))
    for t in range(1, cycles + 1):
        # t - 1 center gates applied so far
        a_lo, a_hi = max(lo, a0 - t + 1), min(hi, a0 + t - 1)
        if t > 1:
            for a in range(a_lo, a_hi + 1):
                dl, dr = shape[a]
                x = block(a)
                y = scratch[: dl * dr * m].reshape(dl, dr, m)
                np.matmul(w_left[a], x.reshape(dl, dr * m), out=y.reshape(dl, dr * m))
                np.matmul(w_right[k - a], y, out=x)
        for a in range(max(lo, a_lo - 1), min(hi - 1, a_hi) + 1):
            b = k - a
            # |01> of (a, b): left boundary 0, right boundary 1; its |10>
            # partner leads block (a+1, b-1) on the left, ends it on the right
            x = block(a)[: math.comb(half - 1, a), math.comb(half - 1, b) :]
            y = block(a + 1)[math.comb(half - 1, a + 1) :, : math.comb(half - 1, b - 1)]
            isin_y = scratch[: x.size].reshape(x.shape)
            isin_x = scratch[x.size : 2 * x.size].reshape(x.shape)
            np.multiply(y, isin, out=isin_y)
            np.multiply(x, isin, out=isin_x)
            x *= cos
            x += isin_y
            y *= cos
            y += isin_x
        a_lo, a_hi = max(lo, a_lo - 1), min(hi, a_hi + 1)
        for a in range(a_lo, a_hi + 1):
            left0, right0 = math.comb(half - 1, a), math.comb(half - 1, k - a)
            blk = block(a)
            blk[left0:, right0:] *= phase11
            if split:
                blk[:left0, :right0] *= phase00
        rows = slice(start[a_lo], stop[a_hi])
        acc[:] = 0.0
        _kernels.readout_accumulate(amps[rows], r_of[rows], acc)
        part[t - 1] = acc.sum(axis=1)
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
    `threads` (fixed reduction order) and of the BLAS thread count.
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
    operators = _half_chain_operators(half, params, layer_order)
    tasks = [
        (a, b, j0, min(CHUNK_COLUMNS, size - j0))
        for a in range(half + 1)
        for b in range(half + 1)
        if a >= b or not mirror
        for size in [math.comb(half, a) * math.comb(half, b)]
        for j0 in range(0, size, CHUNK_COLUMNS)
    ]

    def run(task):
        a, b, j0, m = task
        return _evolve_block(half, a, b, j0, m, cycles, params, operators)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, tasks))
    else:
        parts = [run(task) for task in tasks]
    for (a, b, _, _), part in zip(tasks, parts):  # fixed order: deterministic sum
        T[1:, a, b] += part
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
    """Reweight a transfer tensor into P(M) at a given cycle and imbalance.

    Raises:
        InvariantError: if the mass is not normalized or lies outside the
            light cone |M| <= 2t.
    """
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
        raise InvariantError(f"transfer mass not normalized: {total!r}")
    # the light cone bounds |M| <= 2t exactly: no amplitude path reaches
    # further, so any mass outside the grid is an internal error
    probs = np.zeros(2 * cycles + 1)
    for i, m_half in enumerate(range(-half, half + 1)):
        if mass[i] == 0.0:
            continue
        if abs(m_half) > cycles:
            raise InvariantError(
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

    This is T[t, half, 0, :]: block (half, 0) holds the single word, so it
    is evolved alone on the block engine of `transfer_tensor`.
    """
    if config.n_qubits > cap_sites:
        raise EnumerationCapError(
            f"domain-wall evolution on {config.n_qubits} sites exceeds the "
            f"cap ({cap_sites}); use sampled mode instead"
        )
    half = config.n_qubits // 2
    t = config.cycles
    if t == 0:
        return TransferDistribution.point_mass(0)
    operators = _half_chain_operators(half, config.params, config.layer_order)
    probs_by_r = _evolve_block(half, half, 0, 0, 1, t, config.params, operators)[-1]
    probs = np.zeros(2 * t + 1)
    for r in range(half + 1):
        if probs_by_r[r] != 0.0:
            probs[t + r] = probs_by_r[r]  # M = 2 r, never negative
    return TransferDistribution(t, probs)
