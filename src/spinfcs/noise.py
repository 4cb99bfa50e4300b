"""Trajectory-level error channels and the post-selection stack.

Amplitude damping is unraveled as stochastic quantum jumps: between gate
layers every qubit decays with a per-half-layer probability
p = 1 - exp(-1/(2 T1)), uniform across qubits, so a state with N
excitations makes Binomial(N, p) jumps per half-layer whatever its
amplitudes; only which sites jump depends on them.  The count is drawn by
thinning, as the number of N uniforms below p, so that a block of states
draws it from arrays, one column per state, exactly as one state draws it
from its generator.  Qubits outside the light cone never see gates and
reduce to classical bits decaying with 1 - exp(-t/T1).
Readout errors flip measured bits at independent 0->1 and 1->0 rates.
Both channels read uniforms that their caller drew, so a shot's jumps and
outside decays, and a bound on its readout's 0->1 flips, are known before
it evolves (`may_keep_popcount`).  The causal filter
rejects measured bitstrings whose excitation rearrangement needs more
half-layers than the circuit contained.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gates import FSimParams, LayerOrder, wrap_angles
from .sector import SectorState, brickwork_layers, sector_basis


@dataclass(frozen=True)
class NoiseConfig:
    """Error-channel strengths; the defaults are noiseless.

    t1_cycles: relaxation scale in units of cycles (inf disables damping).
    e0 / e1: 0->1 and 1->0 readout flip probabilities, scalar or per-qubit.
    angle_jitter_sd: per-gate Gaussian spread of (theta, phi), radians.
    dephasing_sd: per-layer Gaussian Z-rotation spread, radians.
    """

    t1_cycles: float = math.inf
    e0: float | np.ndarray = 0.0
    e1: float | np.ndarray = 0.0
    angle_jitter_sd: float = 0.0
    dephasing_sd: float = 0.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not self.t1_cycles > 0:
            raise ValueError(f"t1_cycles must be positive, got {self.t1_cycles}")
        for name in ("e0", "e1"):
            rates = np.asarray(getattr(self, name), dtype=float)
            if not np.all((rates >= 0) & (rates <= 1)):
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("angle_jitter_sd", "dephasing_sd"):
            width = getattr(self, name)
            if not (math.isfinite(width) and width >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {width}")

    @property
    def half_layer_decay(self) -> float:
        """Per-qubit decay probability applied after each gate layer."""
        if math.isinf(self.t1_cycles):
            return 0.0
        return 1.0 - math.exp(-1.0 / (2.0 * self.t1_cycles))

    def bit_decay(self, duration_cycles: float) -> float:
        """Decay probability of an idle excitation over a circuit duration."""
        if math.isinf(self.t1_cycles):
            return 0.0
        return 1.0 - math.exp(-duration_cycles / self.t1_cycles)


def damping_step(state: SectorState, p_decay: float, rng) -> SectorState:
    """One stochastic amplitude-damping step on every qubit of a state.

    Damping is uniform, so on a sector with N excitations the no-jump Kraus
    product is the scalar (1 - p_decay)^(N/2): the step makes
    j ~ Binomial(N, p_decay) jumps whatever the state, drawn as the number
    of N uniforms below p_decay.  Which sites S jump has probability
    proportional to ||sigma^-_S psi||^2; lowering one site at a time, each
    drawn with probability <n_q>/N of the current state, samples exactly
    that law.  Returns a new state; the input is unchanged.  This is the
    single-state reference of `damp_columns`.
    """
    jumps = np.count_nonzero(rng.random(state.basis.n_excitations) < p_decay)
    return _jumps(state, jumps, rng)


def damp_columns(state: SectorState, p_decay: float, uniforms: np.ndarray):
    """`damping_step` on every column j of a block, reading from `uniforms`
    (2, K, m), K at least the block's excitation count k, what that step
    draws from a generator whose first 2k uniforms, as (2, k), are
    uniforms[:, :k, j]: its jump count from uniforms[0, :k, j], then its
    r-th site from uniforms[1, r, j].

    The columns that jump are lowered together, in rounds: in round r each
    column with more than r jumps sits in the sector with k - r ones.  It
    draws its site as `Generator.choice(p=...)` would, searching the
    normalized cumsum of its site occupations with its uniform, and the
    basis's `lowering` table moves its amplitudes to the sector below.
    There they are divided by the square root of the site's occupation,
    which is their norm.  Each column's arithmetic is its own, so its
    result does not depend on the other columns of the block.

    Returns (block, columns) pairs, one per excitation count that columns
    ended in, those that did not jump first (the input block itself when
    none did): the block holds the damped input columns `columns`
    (ascending), in that order.  The input block is left unchanged.
    """
    basis, k = state.basis, state.basis.n_excitations
    counts = np.count_nonzero(uniforms[0, :k] < p_decay, axis=0)
    moved, stay = np.flatnonzero(counts), np.flatnonzero(counts == 0)
    if not moved.size:
        return [(state, stay)]
    left = counts[moved]
    amps = state.columns()[:, moved]
    out = [(SectorState(basis, state.columns()[:, stay]), stay)] if stay.size else []
    while moved.size:
        source, target = basis.lowering()
        rows = np.ascontiguousarray((amps.real**2 + amps.imag**2).T)
        # (columns, sites), gathered a few sites at a time, at most 2^16
        # numbers: each sum runs along a contiguous row of the gathered
        # probabilities, whatever the other columns
        step = max(1, (1 << 16) // (len(rows) * source.shape[1]))
        occupation = np.empty((len(rows), len(source)))
        for q in range(0, len(source), step):
            occupation[:, q : q + step] = rows.take(source[q : q + step], axis=1).sum(axis=2)
        cdf = np.cumsum(occupation / occupation.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        u = uniforms[1, k - basis.n_excitations, moved]  # round r = k - ones
        sites = np.count_nonzero(cdf <= u[:, None], axis=1)
        basis = sector_basis(basis.n_sites, basis.n_excitations - 1)
        every = np.arange(moved.size)
        lowered = np.zeros((basis.dimension, moved.size), dtype=np.complex128)
        lowered[target[sites].T, every] = amps[source[sites].T, every]
        lowered /= np.sqrt(occupation[every, sites])
        left = left - 1
        done = left == 0
        if done.all():
            out.append((SectorState(basis, lowered), moved))
            break
        if done.any():
            out.append((SectorState(basis, lowered[:, done]), moved[done]))
        moved, left, amps = moved[~done], left[~done], lowered[:, ~done]
    return out


def may_keep_popcount(k, p_decay, uniforms, decayed, flips, e0) -> np.ndarray:
    """Which of m shots can still read out the popcount they were prepared
    with, from the numbers they drew before evolving.  A shot whose window
    starts with k ones makes J jumps whatever its amplitudes, counted as
    `damp_columns` counts them from its damping uniforms (half-layers, 2,
    k, m): on each half-layer, its first k' thinning uniforms below
    p_decay, k' the ones it has left.  It loses `decayed` (m,) ones outside
    the window, and its readout adds at most U ones, one per site whose
    readout uniform in `flips` (m, n) lies below e0.  So a shot with
    U < J + decayed reads out fewer ones than it was prepared with, and
    every post-selection mode but "none" rejects it."""
    left = np.full(flips.shape[0], k)
    ranks = np.arange(k)[:, None]
    for thinning in uniforms[:, 0]:
        left -= np.count_nonzero((thinning < p_decay) & (ranks < left), axis=0)
    return np.count_nonzero(flips < e0, axis=1) >= k - left + decayed


def _jumps(state: SectorState, count: int, rng) -> SectorState:
    """`count` jumps of a single state, one lowered site at a time."""
    for _ in range(count):
        basis = state.basis
        occupation = state.probabilities() @ basis.site_bits()
        q = rng.choice(basis.n_sites, p=occupation / occupation.sum())
        bit = np.uint64(1 << (basis.n_sites - 1 - q))
        occupied = (basis.words & bit) != 0
        lowered = sector_basis(basis.n_sites, basis.n_excitations - 1)
        amps = np.zeros(lowered.dimension, dtype=np.complex128)
        amps[np.searchsorted(lowered.words, basis.words[occupied] & ~bit)] = (
            state.amplitudes[occupied]
        )
        state = SectorState(lowered, amps / np.linalg.norm(amps))
    return state


def damp_bits(bits: np.ndarray, duration_cycles: float, noise: NoiseConfig, u):
    """Classical damping of idle qubits: each 1 flips to 0 with probability
    1 - exp(-t/T1), bit b when its uniform u[b] lies below it."""
    bits = np.asarray(bits)
    p = noise.bit_decay(duration_cycles)
    out = bits.copy()
    out[(bits == 1) & (u < p)] = 0
    return out


def readout_flip(bits: np.ndarray, noise: NoiseConfig, u) -> np.ndarray:
    """Independent per-qubit readout flips, bit b reading its uniform u[b]:
    0->1 below e0, 1->0 below e1."""
    bits = np.asarray(bits)
    out = bits.copy()
    out[(bits == 0) & (u < noise.e0)] = 1
    out[(bits == 1) & (u < noise.e1)] = 0
    return out


def causal_min_half_layers(
    b_initial,
    b_final,
    layer_order: LayerOrder = LayerOrder.EVEN_FIRST,
) -> float:
    """Minimum number of brickwork half-layers turning one word into another.

    Excitations cannot cross, so the k-th one of the initial word becomes
    the k-th one of the final word, and each moves straight to its target,
    one site per half-layer on which the bond it needs is active.  Rightward
    movers are timed from the rightmost one leftward: a mover arrives at y
    one half-layer after the later of its own arrival at y-1 and the arrival
    at y+1 of the rightward mover directly ahead (at sites that one passed
    through), plus one if that half-layer does not activate bond y-1.
    Leftward movers follow the same rule on the mirrored chain.  The depth
    is the latest arrival: 0 if nothing moves, and math.inf when the
    popcounts differ (the rearrangement is impossible).
    """
    bi = np.asarray(b_initial, dtype=np.int64)
    bf = np.asarray(b_final, dtype=np.int64)
    if bi.shape != bf.shape or bi.ndim != 1:
        raise ValueError("bitstrings must be 1-D and of equal length")
    n = bi.size
    src, tgt = (np.flatnonzero(bits == 1).tolist() for bits in (bi, bf))
    if len(src) != len(tgt):
        return math.inf
    # half-layer L = 1, 2, ... activates the bonds of parity p + L - 1 (3
    # sites have a bond in each layer); the mirror x -> n-1-x maps bond b to
    # bond n-2-b, of parity n + b
    p = brickwork_layers(3, 0, layer_order)[0][0]
    right = list(zip(src, tgt))
    left = [(n - 1 - s, n - 1 - d) for s, d in reversed(right)]
    depth = 0
    for moves, parity in ((right, p), (left, (p + n) % 2)):
        # arrivals by site of the last rightward mover timed; one that is not
        # directly ahead never passed y+1
        ahead = {}
        for s, d in reversed(moves):
            if s < d:
                arrival = {s: 0}
                for y in range(s + 1, d + 1):
                    at = max(arrival[y - 1], ahead.get(y + 1, 0)) + 1
                    arrival[y] = at + (at + parity + y) % 2
                ahead = arrival
                depth = max(depth, arrival[d])
    return depth


POSTSELECT_MODES = ("none", "number_only", "causal")


def postselect(
    b_initial,
    b_measured,
    cycles: int,
    mode: str = "causal",
    layer_order: LayerOrder = LayerOrder.EVEN_FIRST,
) -> bool:
    """Keep or discard a measured bitstring.

    "none" keeps every outcome; "number_only" keeps equal-popcount outcomes;
    "causal" additionally requires the rearrangement to fit in the
    circuit's 2*cycles half-layers.
    """
    if mode not in POSTSELECT_MODES:
        raise ValueError(f"unknown post-selection mode {mode!r}")
    if mode == "none":
        return True
    bi = np.asarray(b_initial, dtype=np.int64)
    bm = np.asarray(b_measured, dtype=np.int64)
    if bi.sum() != bm.sum():
        return False
    if mode == "number_only":
        return True
    return bool(causal_min_half_layers(bi, bm, layer_order) <= 2 * cycles)


@dataclass
class LayerRealization:
    """One half-layer of the noisy circuits of a block of m shots."""

    bonds: list[int]
    # jittered (theta, phi), each (len(bonds), m); None for the nominal gate
    angles: tuple[np.ndarray, np.ndarray] | None
    z_angles: np.ndarray | None  # (n_sites, m), applied after the layer when present


def disorder_draws(noise: NoiseConfig, n_sites: int, layers) -> list[int]:
    """Standard normals per shot on each half-layer that
    `disorder_and_dephasing` reads: a (theta, phi) pair per gate with angle
    jitter, then one Z angle per site with dephasing."""
    jitter, dephasing = noise.angle_jitter_sd > 0.0, noise.dephasing_sd > 0.0
    return [2 * len(bonds) * jitter + n_sites * dephasing for bonds in layers]


def disorder_and_dephasing(
    params: FSimParams,
    noise: NoiseConfig,
    normals: np.ndarray | None,
    n_sites: int,
    layers: Sequence[list[int]],
) -> list[LayerRealization]:
    """The noisy circuits of a block of shots over the given half-layers
    (bond lists, as `sector.brickwork_layers` lays them out): per-gate
    Gaussian (theta, phi) jitter plus random Z rotations of the `n_sites`
    sites after each layer.

    Column j of `normals` holds shot j's standard normals, in the order of
    one scalar draw at a time: per half-layer, a (theta, phi) pair per
    gate, then one Z angle per site, sum(`disorder_draws`) in all.
    Jittered angles are reduced exactly as `FSimParams` reduces them.  Zero
    widths reproduce the nominal circuit exactly and read nothing (then
    `normals` may be None).
    """
    jitter, dephasing = noise.angle_jitter_sd, noise.dephasing_sd
    sizes = disorder_draws(noise, n_sites, layers)
    ends = np.cumsum(sizes)
    if jitter > 0.0 and layers:
        # gate g of a layer reads row 2g of the layer's normals for its theta
        # and row 2g + 1 for its phi: only those rows are reduced, each once
        # (elementwise, so the same numbers as one angle at a time)
        gates = [len(bonds) for bonds in layers]
        firsts = zip(ends - sizes, gates)  # each layer's first row, its gates
        rows = np.concatenate([f + np.arange(0, 2 * g, 2) for f, g in firsts])
        splits = np.cumsum(gates)[:-1]
        thetas, phis = (
            np.split(wrap_angles(angle + jitter * normals[rows + shift]), splits)
            for angle, shift in ((params.theta, 0), (params.phi, 1))
        )
    realizations = []
    for i, bonds in enumerate(layers):
        angles = z_angles = None
        if jitter > 0.0:
            angles = (thetas[i], phis[i])
        if dephasing > 0.0:
            z_angles = dephasing * normals[ends[i] - n_sites : ends[i]]
        realizations.append(LayerRealization(list(bonds), angles, z_angles))
    return realizations
