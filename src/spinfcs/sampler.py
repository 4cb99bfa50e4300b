"""Monte Carlo estimation of the transfer distribution, as the experiment
samples it: random initial bitstrings, per-state measurement shots, noise
trajectories, post-selection, and the per-state-normalized power estimator.

Randomness is counter-based for thread-count-independent reproducibility:
every (cycle, initial state) owns a Philox stream keyed by the master seed,
and within a state the initial-bit draw and each shot live in disjoint
counter blocks.  Results therefore depend only on (seed, configuration).

Every initial state evolves only the 2t-site light-cone window around the
cut; sites outside it never see a gate and keep their prepared bits.  The
state then takes one of two routes to its measured bitstrings:

* noiseless: the window is evolved once, and all shots are drawn from its
  exact outcome distribution (counter block 1);
* noisy: each shot is its own trajectory (counter block 1 + shot) on the
  window, drawing its disorder, then one damping step per half-layer, the
  measurement, the classical decay of the sites left and right of the
  window, and the readout flips, in that order.

Both routes run the same brickwork layout, anchored to physical sites, and
end in the same tail: undo the relabeling, post-select (the popcount must
match the initial state's, and in causal mode the word must also pass the
causal filter, evaluated once per distinct word), and tally.

The window is exact for the ensemble average, not for one initial state:
a per-state histogram is that of the window, while the uniform average
over i.i.d. initial states, and its jackknife over them, are those of the
whole chain.

Per-state tallies live on the full grid of right-half count changes,
-n/2..n/2, because noisy number-only-filtered outcomes can land outside the
causal cone |M| <= 2t; causal filtering confines them again.
"""

import concurrent.futures
import logging
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .circuit import ChainConfig
from .ensemble import ImbalanceEnsemble, TransferDistribution
from .noise import (
    NoiseConfig,
    damp_bits,
    damping_step,
    disorder_and_dephasing,
    postselect,
    readout_flip,
)
from .sector import SectorState, brickwork_layers, word_to_bits

logger = logging.getLogger(__name__)

_NOISELESS = NoiseConfig()


@dataclass(frozen=True)
class SampleConfig:
    """Shot budget and seeding for a sampled run."""

    n_initial_states: int = 100
    shots_per_state: int = 1000
    seed: int = 0
    relabel_enabled: bool = True

    def __post_init__(self):
        if self.n_initial_states < 1 or self.shots_per_state < 1:
            raise ValueError("state and shot counts must be >= 1")


def _philox(seed: int, substream: int, block: int):
    """Generator on the counter block `block` of stream (seed, substream)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, substream], dtype=np.uint64)
    counter = np.array([0, 0, block, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _substream(cycles: int, state_index: int) -> int:
    return ((cycles & 0xFFFFFFFF) << 32) | (state_index & 0xFFFFFFFF)


def sample_initial(ens: ImbalanceEnsemble, rng) -> np.ndarray:
    """Draw one initial bitstring: left sites are 1 with probability p,
    right sites are 0 with probability p, independently."""
    u = rng.random(ens.n_qubits)
    return (u < ens.site_excitation_probabilities()).astype(np.int64)


def relabel_if_overfull(bits) -> tuple[np.ndarray, bool]:
    """Complement a more-than-half-full bitstring (and flag it), so the
    physically prepared state never carries more than n/2 excitations."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.sum() > bits.size // 2:
        return 1 - bits, True
    return bits.copy(), False


@dataclass
class StateRecord:
    """Per-initial-state tally of surviving right-count changes.

    `counts[i]` counts shots with N_R(final) - N_R(initial) = i - n/2,
    i.e. M = 2*(i - n/2).
    """

    initial_bits: np.ndarray
    counts: np.ndarray
    shots: int
    kept: int


@dataclass
class SampledRun:
    """Aggregated output of a sampled experiment at one cycle count."""

    cycles: int
    n_qubits: int
    mu: float
    mode: str
    sample: SampleConfig
    records: list[StateRecord] = field(repr=False)

    @property
    def grid(self) -> np.ndarray:
        """M values of the tally columns: 2*(-n/2..n/2)."""
        half = self.n_qubits // 2
        return 2 * np.arange(-half, half + 1)

    @property
    def dropped_states(self) -> list[int]:
        return [i for i, r in enumerate(self.records) if r.kept == 0]

    def surviving_records(self) -> list[StateRecord]:
        return [r for r in self.records if r.kept > 0]

    def per_state_distributions(self) -> np.ndarray:
        """Row-normalized per-state M histograms (surviving states only)."""
        rows = [r.counts / r.kept for r in self.surviving_records()]
        if not rows:
            raise ValueError("no surviving shots in any state")
        return np.array(rows)

    def pooled_counts(self) -> np.ndarray:
        """Raw surviving-shot counts summed over states (for count tests)."""
        return np.sum([r.counts for r in self.records], axis=0)

    def distribution(self) -> TransferDistribution:
        """Uniform average of the per-state normalized histograms; moments
        of this distribution are exactly the double-average estimator.

        Raises:
            ValueError: if surviving mass lies outside the causal cone
                |M| <= 2t (possible for noisy number-only runs; the causal
                filter removes such outcomes).
        """
        mean_row = self.per_state_distributions().mean(axis=0)
        half = self.n_qubits // 2
        t = self.cycles
        probs = np.zeros(2 * t + 1)
        for i, m_half in enumerate(range(-half, half + 1)):
            if mean_row[i] == 0.0:
                continue
            if abs(m_half) > t:
                raise ValueError(
                    f"acausal surviving mass at M={2 * m_half} (|M| > 2t); "
                    "use the causal post-selection mode"
                )
            probs[t + m_half] = mean_row[i]
        return TransferDistribution(t, probs)

    def yield_fraction(self) -> float:
        kept = sum(r.kept for r in self.records)
        total = sum(r.shots for r in self.records)
        return kept / total


def estimate_powers(run: SampledRun, k: int) -> float:
    """<M^k>: uniform outer mean over initial states of the count-weighted
    inner mean over that state's surviving shots.  States with no surviving
    shots are dropped with a warning."""
    if k == 0:
        return 1.0
    dropped = run.dropped_states
    if dropped:
        logger.warning(
            "excluding %d initial state(s) with zero surviving shots: %s",
            len(dropped),
            dropped,
        )
    rows = run.per_state_distributions()
    m_values = run.grid.astype(float)
    return float(np.mean(rows @ (m_values**k)))


def _measure_indices(probabilities, rng, shots):
    cdf = np.cumsum(probabilities)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top edge against rounding
    u = rng.random(shots)
    return np.searchsorted(cdf, u, side="right")


def _window_bounds(n_qubits: int, cycles: int) -> tuple[int, int]:
    width = min(n_qubits, 2 * cycles)
    lo = n_qubits // 2 - width // 2
    return lo, lo + width


def _trajectory(phys, lo, hi, config, noise, rng) -> SectorState:
    """Sites lo..hi-1 of the prepared bitstring `phys` after the circuit:
    every half-layer of the brickwork, anchored at physical site `lo`, with
    its disorder realization, Z rotations and damping step."""
    layers = brickwork_layers(hi - lo, lo, config.layer_order) * config.cycles
    realizations = disorder_and_dephasing(config.params, noise, rng, hi - lo, layers)
    p_half = noise.half_layer_decay
    state = SectorState.from_bitstring(phys[lo:hi])
    for layer in realizations:
        for bond, gate_params in zip(layer.bonds, layer.gate_params):
            state.apply_fsim(bond, gate_params)
        if layer.z_angles is not None:
            state.apply_diagonal_phases(layer.z_angles)
        if p_half > 0.0:
            state = damping_step(state, p_half, rng)
    return state


def _state_record(ens, config, sample, noise, state_index, postselect_mode):
    """Draw one initial state, measure its shots, filter and tally them."""
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    half = n // 2
    sub = _substream(t, state_index)
    bits = sample_initial(ens, _philox(sample.seed, sub, 0))
    if sample.relabel_enabled:
        phys, flagged = relabel_if_overfull(bits)
    else:
        phys, flagged = bits.copy(), False
    lo, hi = _window_bounds(n, t)
    measured = np.tile(phys, (shots, 1))
    if noise is None:
        if hi > lo:
            state = _trajectory(phys, lo, hi, config, _NOISELESS, None)
            outcomes = _measure_indices(
                state.probabilities(), _philox(sample.seed, sub, 1), shots
            )
            measured[:, lo:hi] = word_to_bits(state.basis.words[outcomes], hi - lo)
    else:
        for shot, row in enumerate(measured):
            rng = _philox(sample.seed, sub, 1 + shot)
            if hi > lo:
                state = _trajectory(phys, lo, hi, config, noise, rng)
                idx = _measure_indices(state.probabilities(), rng, 1)[0]
                row[lo:hi] = word_to_bits(state.basis.words[idx], hi - lo)
            if lo > 0:
                row[:lo] = damp_bits(phys[:lo], float(t), noise, rng)
            if hi < n:
                row[hi:] = damp_bits(phys[hi:], float(t), noise, rng)
            row[:] = readout_flip(row, noise, rng)
    if flagged:
        measured = 1 - measured
    if postselect_mode == "none":
        keep = np.ones(shots, dtype=bool)
    else:
        keep = measured.sum(axis=1) == bits.sum()
    if postselect_mode == "causal":
        words, inverse = np.unique(measured[keep], axis=0, return_inverse=True)
        causal = np.array(
            [postselect(bits, w, t, "causal", config.layer_order) for w in words],
            dtype=bool,
        )
        keep[keep] = causal[inverse.reshape(-1)]
    delta_r = measured[keep, half:].sum(axis=1) - bits[half:].sum()
    counts = np.bincount(half + delta_r, minlength=n + 1)
    return StateRecord(bits, counts, shots, int(np.count_nonzero(keep)))


def run_sampled(
    ens: ImbalanceEnsemble,
    config: ChainConfig,
    sample: SampleConfig,
    *,
    noise: NoiseConfig | None = None,
    postselect_mode: str = "number_only",
    threads: int = 1,
) -> SampledRun:
    """Sample the experiment: draw initial states, evolve their 2t-site
    light-cone windows, measure shots, filter, and tally per-state M
    histograms.

    With `noise=None` each window is evolved once and shots are drawn from
    its exact outcome distribution; with noise every shot is an independent
    trajectory (disorder realizations included).  Output is bitwise
    independent of `threads`.
    """
    if ens.n_qubits != config.n_qubits:
        raise ValueError(
            f"ensemble on {ens.n_qubits} qubits, config on {config.n_qubits}"
        )
    if postselect_mode not in ("none", "number_only", "causal"):
        raise ValueError(f"unknown post-selection mode {postselect_mode!r}")

    mode = "sampled" if noise is None else "noisy-sampled"

    def worker(i):
        return _state_record(ens, config, sample, noise, i, postselect_mode)

    indices = range(sample.n_initial_states)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(worker, indices))
    else:
        records = [worker(i) for i in indices]
    run = SampledRun(
        cycles=config.cycles,
        n_qubits=config.n_qubits,
        mu=ens.mu,
        mode=mode,
        sample=sample,
        records=records,
    )
    if run.dropped_states:
        logger.warning(
            "run has %d initial state(s) with zero surviving shots",
            len(run.dropped_states),
        )
    return run


def moment_report(runs: list[SampledRun]) -> stats.MomentReport:
    """Per-cycle moments of sampled runs with delete-one jackknife sigmas
    over initial states (zero for a single surviving state).

    The delete-one mean histograms are formed at once as (S - x_i)/(N - 1)
    from the sum S of the N per-state histograms."""
    rows = []
    sigmas = []
    for run in runs:
        states = run.per_state_distributions()
        grid = run.grid.astype(float)
        rows.append(stats.moment_row((grid, states.mean(axis=0))))
        n = len(states)
        if n >= 2:
            deleted = (states.sum(axis=0) - states) / (n - 1)
            estimates = [stats.moment_row((grid, mean)) for mean in deleted]
            sigmas.append(stats.jackknife_from_estimates(estimates, rows[-1]).sigma)
        else:
            sigmas.append(np.zeros(4))
    return stats.MomentReport([run.cycles for run in runs], rows, sigmas)
