"""Monte Carlo estimation of the transfer distribution, as the experiment
samples it: random initial bitstrings, per-state measurement shots, noise
trajectories, post-selection, and the per-state-normalized power estimator.

Randomness is counter-based for thread-count-independent reproducibility:
every stream is a Philox counter block on a key of the master seed and a
substream.  Per cycle count, one generator draws every state's initial
bits, row i state i's, in one call, and, without noise, one more draws
every state's tally in one call; with noise, each state draws its shots'
numbers from its own stream, a counter block of its own key.  The
per-cycle generators draw in state order on the calling thread, and a
state's own stream depends on nothing else, so results depend only on
(seed, configuration), and the first N' states of an N-state run are
those of an N'-state run.

Every initial state is relabeled once it is drawn.  Only the 2t-site
light-cone window around the cut is evolved; sites outside it never see a
gate and keep their prepared bits.  A state then takes one of two routes
to its tally:

* noiseless: a shot counts only through its right-half count, whose
  distribution depends only on the window word, so each distinct word of
  the run is evolved once, on the block engine of the exact tensor
  (`ensemble.word_right_masses`): dense half-chain operators applied as
  matrix products, and the center mix, read out per right count as the
  tensor is.  Words of one popcount and one left-half count are evolved
  together, as the columns of one initial block, in chunks of at most
  max(1, 2^16 // dim) columns (the chunks are also the units of work for
  the threads).  Every state's whole tally of right counts is then drawn
  in one multinomial call, one row per state: the right-count masses of
  its word, renormalized and rolled to make its last right count of
  nonzero mass the last category (`multinomial` gives the last category
  whatever the draws before it leave over, and a zero-mass one draws
  nothing).  That is each state's own multinomial, drawn in state
  order: O(t) binomial draws per state, none per shot;
* noisy: each shot is its own trajectory on the window.  Before any runs,
  the state draws, with its counter block 1, its shots' numbers as arrays
  with one column per shot: disorder normals; per half-layer, k0 uniforms
  that thin the jumps and k0 that pick their sites (k0 the window's
  popcount); one measurement uniform.  The decay of the sites outside the
  window and the readout flips follow, one call each.  The shots run as
  the columns of blocks, each column with its own gate angles and
  Z rotations, and the shots of many states share a block: the states of
  one k0 are packed, in index order and side by side, into batches of as
  many whole states as keep their shots' amplitudes and numbers within
  2^16, one block each.  A state over that budget runs alone, in chunks of
  at most max(1, 2^16 // dim) shots of the prepared window's sector.  The
  batches are the units of work for the threads.  The columns
  of a block that jump are lowered together, one round per jump
  (`noise.damp_columns`), and join the columns of their new excitation
  count; the columns of a count that are not one block within the size
  rule are re-blocked under it.  A shot reads its own columns, whatever
  its block, batch or thread.

The noisy route evolves gate by gate (`_trajectory`), since jittered
per-column angles and damping jumps cannot use the engine's cached
operators; the noiseless one needs neither.  Both run the same brickwork
layout, anchored to physical sites, and a test checks the right-count
masses of every engine column against a single-column `_trajectory` run.
They end differently.  A noisy shot's measured bitstring is relabeled
back, post-selected (the popcount must match the initial state's, and in
causal mode the word must also pass the causal filter, evaluated once per
distinct word) and tallied.  A noiseless state builds no bitstring: the
right-count change of a shot is the right count it drew less that of the
prepared window word (the sites outside the window cancel), negated for a
relabeled state.  No filter runs there, since a noiseless circuit keeps
the popcount and gives amplitude only to words inside the light cone, so
every post-selection mode keeps every shot.

The window is exact for the ensemble average, not for one initial state:
a per-state histogram is that of the window, while the uniform average
over i.i.d. initial states, and its jackknife over them, are those of the
whole chain.  Under damping and readout noise this holds for the pooled
P(M | kept) in every post-selection mode, and for the per-state-normalized
average with the "none" and "number_only" filters.  With the causal filter
the per-state-normalized average is not exact: it differs from the whole
chain's by up to about 1e-4 (even-first) and 5e-3 (odd-first) at n = 6.

Per-state tallies, the rows of a run's `counts`, live on the full grid of
right-half count changes, -n/2..n/2, because noisy number-only-filtered
outcomes can land outside the causal cone |M| <= 2t; causal filtering
confines them again.
"""

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .circuit import ChainConfig
from .ensemble import ImbalanceEnsemble, thread_map, word_right_masses
from .noise import (
    POSTSELECT_MODES,
    NoiseConfig,
    damp_bits,
    damp_columns,
    disorder_and_dephasing,
    disorder_draws,
    postselect,
    readout_flip,
)
from .sector import (
    SectorState,
    bits_to_word,
    brickwork_layers,
    sector_basis,
    word_to_bits,
)

logger = logging.getLogger(__name__)

# Amplitudes in one block of window columns: the noiseless route evolves
# distinct window words of one popcount and one left-half count in blocks
# of at most max(1, _CHUNK_AMPLITUDES // dim) columns, so the engines'
# amplitudes never span the whole run.  The noisy route packs the whole
# states of one window popcount into a block while its columns times their
# amplitudes and numbers fit it: a noisy block's peak memory is set by its
# per-shot numbers and their transients (disorder angles, gate gathers)
# more than by its amplitudes.  A state over it runs alone, in blocks of
# the same column rule, as do the columns of one excitation count after a
# damping step.  Only evolution is blocked: each state draws its tally in
# one call.
_CHUNK_AMPLITUDES = 1 << 16

# The counter blocks of the generators built once per cycle count t, on the
# key (seed, _substream(t, 0)).  A noisy state i's shots draw from block 1
# of the key (seed, _substream(t, i)), so no state's stream reaches these.
_INITIAL_BITS_BLOCK = 2
_TALLY_BLOCK = 3


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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in 0 .. 2^64 - 1, got {self.seed}")


def _philox(seed: int, substream: int, block: int):
    """Generator on the counter block `block` of stream (seed, substream)."""
    key = np.array([seed, substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, block, 0]))


def _substream(cycles: int, state_index: int) -> int:
    return ((cycles & 0xFFFFFFFF) << 32) | (state_index & 0xFFFFFFFF)


def sample_initial(ens: ImbalanceEnsemble, rng) -> np.ndarray:
    """Draw one initial bitstring: left sites are 1 with probability p,
    right sites are 0 with probability p, independently."""
    u = rng.random(ens.n_qubits)
    return (u < ens.site_excitation_probabilities()).astype(np.int64)


def relabel_if_overfull(bits) -> tuple[np.ndarray, bool | np.ndarray]:
    """Complement a more-than-half-full bitstring (and flag it), so the
    physically prepared state never carries more than n/2 excitations.

    A 2-D array is a stack of bitstrings, one per row; each row is relabeled
    on its own and the flags come back as a boolean array."""
    bits = np.asarray(bits, dtype=np.int64)
    flagged = bits.sum(axis=-1) > bits.shape[-1] // 2
    relabeled = np.where(np.expand_dims(flagged, -1), 1 - bits, bits)
    return relabeled, (flagged if bits.ndim > 1 else bool(flagged))


@dataclass
class SampledRun:
    """A sampled experiment at one cycle count, one row per initial state in
    state order: `initial_bits`, as drawn, before the relabeling; `counts`,
    kept shots by column j, N_R(final) - N_R(initial) = j - n/2, i.e.
    M = 2*(j - n/2); `kept`, their number, of `sample.shots_per_state`."""

    cycles: int
    n_qubits: int
    mu: float
    mode: str
    sample: SampleConfig
    initial_bits: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    kept: np.ndarray = field(repr=False)

    @property
    def grid(self) -> np.ndarray:
        """M values of the tally columns: 2*(-n/2..n/2)."""
        half = self.n_qubits // 2
        return 2 * np.arange(-half, half + 1)

    @property
    def dropped_states(self) -> list[int]:
        return np.flatnonzero(self.kept == 0).tolist()

    @property
    def records(self) -> np.recarray:
        """Only `perfbench/spans.py`'s `_sampled` observer reads this: it sums
        `r.kept` over it into JSON (so Python ints), and a traced run raises
        without it.  One record per state; ROADMAP item 2 retires it."""
        return np.rec.fromarrays([self.kept.astype(object)], names="kept")

    def per_state_distributions(self) -> np.ndarray:
        """Row-normalized per-state M histograms (surviving states only)."""
        survived = self.kept > 0
        if not survived.any():
            raise ValueError("no surviving shots in any state")
        return self.counts[survived] / self.kept[survived, None]

    def yield_fraction(self) -> float:
        return int(self.kept.sum()) / (self.kept.size * self.sample.shots_per_state)


def _cdf(probabilities):
    """Outcome CDFs along the last axis, their top edge guarded against
    rounding: each is at least 1 from its last outcome of nonzero mass on,
    so a uniform u < 1 never lands on an outcome beyond it, whose
    probability is 0."""
    cdf = np.cumsum(probabilities, axis=-1)
    nonzero = probabilities > 0
    last = nonzero.shape[-1] - 1 - np.argmax(nonzero[..., ::-1], axis=-1)
    top = np.arange(cdf.shape[-1]) >= np.expand_dims(last, -1)
    np.maximum(cdf, 1.0, out=cdf, where=top)
    return cdf


def _window_bounds(n_qubits: int, cycles: int) -> tuple[int, int]:
    width = min(n_qubits, 2 * cycles)
    lo = n_qubits // 2 - width // 2
    return lo, lo + width


def _chunk_columns(width: int, k: int) -> int:
    """Columns per block of the window sector with k ones."""
    return max(1, _CHUNK_AMPLITUDES // math.comb(width, k))


def _trajectory(state, lo, config, noise, numbers):
    """The columns of `state`, on the window of sites lo.. of the chain,
    after the circuit: every half-layer of the brickwork, anchored at
    physical site `lo`, with its disorder realization, Z rotations and
    damping step.  Column j is one shot and reads column j of `numbers`
    (None without noise): the normals of `disorder_and_dephasing` and, per
    half-layer l, the uniforms[l] of `damp_columns`.  Gates and phases act
    on every column of a block in place; a column that jumps moves to a
    block of its new excitation count.

    Returns (block, columns) pairs: column i of the block is input column
    columns[i].  Without damping that is the input block, whole."""
    width = state.basis.n_sites
    layers = brickwork_layers(width, lo, config.layer_order) * config.cycles
    normals, uniforms = (None, None) if numbers is None else numbers
    realizations = disorder_and_dephasing(config.params, noise, normals, width, layers)
    p_half = noise.half_layer_decay
    blocks = [(state, np.arange(state.columns().shape[1]))]
    del state  # the blocks own the columns: damping may replace them
    for l, layer in enumerate(realizations):
        for block, columns in blocks:
            gates = layer.gate_params(config.params, columns)
            for bond, gate_params in zip(layer.bonds, gates):
                block.apply_fsim(bond, gate_params)
            if layer.z_angles is not None:
                block.apply_diagonal_phases(layer.z_angles[:, columns])
        if p_half > 0.0:
            blocks = _damp_blocks(blocks, p_half, uniforms[l])
    return blocks


def _damp_blocks(blocks, p_decay, uniforms):
    """One damping step on every column of the (block, columns) pairs,
    column c reading uniforms[..., c].  The columns that jumped join the
    columns of their new excitation count.  A count's lone block that fits
    `_chunk_columns` passes as it is; the columns of any other count are
    concatenated and re-blocked, at most `_chunk_columns` to a block."""
    width = blocks[0][0].basis.n_sites
    pieces = defaultdict(list)  # excitation count -> [(state, columns)]
    for block, columns in blocks:
        moved = damp_columns(block, p_decay, uniforms[..., columns])
        stay = np.ones(columns.size, dtype=bool)
        for lowered, jumped in moved:
            stay[jumped] = False
            pieces[lowered.basis.n_excitations].append((lowered, columns[jumped]))
        if stay.any():
            if not stay.all():
                block = SectorState(block.basis, block.columns()[:, stay])
            pieces[block.basis.n_excitations].append((block, columns[stay]))
    out = []
    for k in sorted(pieces):
        size = _chunk_columns(width, k)
        if len(pieces[k]) == 1 and pieces[k][0][1].size <= size:
            out.extend(pieces[k])
            continue
        basis = sector_basis(width, k)
        amps = np.concatenate([state.columns() for state, _ in pieces[k]], axis=1)
        columns = np.concatenate([c for _, c in pieces[k]])
        for j0 in range(0, columns.size, size):
            part = slice(j0, j0 + size)
            out.append((SectorState(basis, amps[:, part]), columns[part]))
    return out


def _prepare(ens, sample, cycles):
    """The initial bits of every state, one row each, all drawn in one call
    from the cycle count's initial-bit generator: row i is its i-th
    `sample_initial` draw.  Then the prepared bits after the relabeling,
    and which states were relabeled."""
    rng = _philox(sample.seed, _substream(cycles, 0), _INITIAL_BITS_BLOCK)
    u = rng.random((sample.n_initial_states, ens.n_qubits))
    bits = (u < ens.site_excitation_probabilities()).astype(np.int64)
    if sample.relabel_enabled:
        return bits, *relabel_if_overfull(bits)
    return bits, bits, np.zeros(len(bits), dtype=bool)


def _tally(bits, flagged, measured, config, postselect_mode):
    """Undo the relabeling of one state's measured bitstrings (shots x n),
    post-select them and tally their right-count changes: the state's
    `counts` row and its kept-shot count."""
    n, t, shots = config.n_qubits, config.cycles, len(measured)
    half = n // 2
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
    return np.bincount(half + delta_r, minlength=n + 1), np.count_nonzero(keep)


def _noisy_records(prepared, config, sample, noise, postselect_mode, threads):
    """Every state's `counts` row and kept-shot count with noise, as two
    arrays in state order.  The states of one window popcount k0 are
    packed, in index order, into batches of as many whole states (at least
    one) as keep the batch's columns times C(width, k0) plus the numbers of
    a shot (the disorder normals, 2 k0 per damped half-layer, 1) within
    `_CHUNK_AMPLITUDES`.  A batch is the threads' unit of work and runs in
    three passes.

    Draw: each state opens its counter block 1 and draws its shots' numbers
    as arrays with one column per shot: the disorder normals, per
    half-layer k0 thinning and k0 site uniforms, one measurement uniform.
    Evolve: the states' arrays are placed side by side, so column j of the
    batch's block is one shot and reads its own numbers; the block runs in
    chunks of at most `_chunk_columns` columns (more than one only for a
    state over the budget alone), and each shot measures the first outcome
    of its column's guarded CDF above its uniform.  Tally: each state, with
    its own generator, decays its sites outside the window, flips its
    readouts, and filters and tallies its measured rows into its own row
    of the two arrays."""
    bits, phys, flagged = prepared
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    lo, hi = _window_bounds(n, t)
    width = hi - lo
    layers = brickwork_layers(width, lo, config.layer_order) * t
    draws = sum(disorder_draws(noise, width, layers))
    damped = len(layers) if noise.half_layer_decay > 0.0 else 0
    words = bits_to_word(phys[:, lo:hi])
    ones = np.bitwise_count(words).tolist()
    outside = np.r_[:lo, hi:n]
    counts = np.empty((len(ones), n + 1), dtype=np.int64)
    kept = np.empty(len(ones), dtype=np.int64)

    def tally_batch(batch):
        k = ones[batch[0]]
        rngs = [_philox(sample.seed, _substream(t, i), 1) for i in batch]
        # the shots of batch[b] are rows b * shots .. of `measured` and the
        # same columns of the block
        measured = np.repeat(phys[batch], shots, axis=0)
        if width:
            m = len(rngs) * shots
            normals, uniforms, u = (
                np.empty((*shape, m)) for shape in ((draws,), (damped, 2, k), ())
            )
            for b, rng in enumerate(rngs):
                cols = slice(b * shots, (b + 1) * shots)
                normals[:, cols] = rng.standard_normal((draws, shots))
                uniforms[..., cols] = rng.random((damped, 2, k, shots))
                u[cols] = rng.random(shots)
            start = words[batch].repeat(shots)
            size = _chunk_columns(width, k)
            for s0 in range(0, start.size, size):
                part = slice(s0, s0 + size)
                # no name holds a block once damping has replaced it, or
                # into the next chunk
                for block, columns in _trajectory(
                    SectorState.from_words(start[part], width),
                    lo, config, noise, (normals[:, part], uniforms[..., part]),
                ):
                    cdf = _cdf(block.probabilities().T)
                    found = np.count_nonzero(cdf <= u[part][columns, None], axis=1)
                    found = block.basis.words[found]
                    measured[s0 + columns, lo:hi] = word_to_bits(found, width)
                del block
        for b, (i, rng) in enumerate(zip(batch, rngs)):
            own = measured[b * shots : (b + 1) * shots]
            own[:, outside] = damp_bits(own[:, outside], float(t), noise, rng)
            own = readout_flip(own, noise, rng)
            counts[i], kept[i] = _tally(
                bits[i], flagged[i], own, config, postselect_mode
            )

    batches = []
    for k in sorted(set(ones)):
        group = [i for i, count in enumerate(ones) if count == k]
        numbers = draws + 2 * k * damped + 1
        per = max(1, _CHUNK_AMPLITUDES // (shots * (math.comb(width, k) + numbers)))
        batches += [group[j : j + per] for j in range(0, len(group), per)]
    thread_map(tally_batch, batches, threads)
    return counts, kept


def _window_chunks(words, width):
    """Distinct window words in evolution chunks: index arrays into `words`.

    The words of a chunk share their popcount k and their left-half count,
    as the block engine evolves them.  Chunks run through k, then the left
    count, in ascending order, indices ascending, at most
    max(1, _CHUNK_AMPLITUDES // C(width, k)) words each."""
    ones = np.bitwise_count(words)
    left = np.bitwise_count(words >> np.uint64(width // 2))
    chunks = []
    for k, a in sorted(set(zip(ones.tolist(), left.tolist()))):
        group = np.flatnonzero((ones == k) & (left == a))
        size = _chunk_columns(width, k)
        chunks.extend(group[j0 : j0 + size] for j0 in range(0, group.size, size))
    return chunks


def _noiseless_records(prepared, config, sample, threads):
    """Every state's `counts` row and kept-shot count without noise, as two
    arrays.  Each distinct window word is evolved once on the block engine,
    in `_window_chunks`; then every state's whole tally of right counts r
    is drawn, in state order, in one multinomial call on the cycle count's
    tally generator, one row of right-count masses per state, and each
    state tallies r - b0, b0 its word's right count, negated for a
    relabeled state; unfiltered, as no mode can reject a noiseless shot."""
    _, phys, flagged = prepared
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    lo, hi = _window_bounds(n, t)
    width = hi - lo
    words, word_of = np.unique(bits_to_word(phys[:, lo:hi]), return_inverse=True)
    masses = np.ones((words.size, 1))  # no cycle: the empty window stays put
    if width:
        chunks = _window_chunks(words, width)

        def evolve(picked):
            return word_right_masses(
                words[picked], width, lo, t, config.params, config.layer_order
            )

        masses = np.empty((words.size, width // 2 + 1))
        for picked, part in zip(chunks, thread_map(evolve, chunks, threads)):
            masses[picked] = part.T
    # Each word's right counts are rolled so that its last one of nonzero
    # mass is the last category, which `multinomial` gives whatever the
    # draws before it leave over; the zero-mass ones rolled ahead of the
    # others draw nothing.  The masses are renormalized to the sum
    # `multinomial` checks.
    size = masses.shape[1]
    ends = size - np.argmax(masses[:, ::-1] != 0, axis=1)
    order = (np.arange(size) + ends[:, None]) % size  # category -> right count
    pvals = np.take_along_axis(masses / masses.sum(axis=1, keepdims=True), order, 1)
    rng = _philox(sample.seed, _substream(t, 0), _TALLY_BLOCK)
    right = rng.multinomial(shots, pvals[word_of])
    b0 = np.bitwise_count(words & np.uint64((1 << width // 2) - 1))
    sign = np.where(flagged, -1, 1)[:, None]
    delta_r = (order[word_of] - b0[word_of, None]) * sign
    counts = np.zeros((word_of.size, n + 1), dtype=np.int64)
    np.put_along_axis(counts, n // 2 + delta_r, right, axis=1)
    return counts, np.full(word_of.size, shots, dtype=np.int64)


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

    With `noise=None` each distinct window word is evolved once, on the
    block engine, and every state draws its tally of right counts in one
    multinomial call over the exact right-count masses of its word;
    `postselect_mode` has no effect there, because every mode keeps every
    noiseless shot.  With noise every shot is an
    independent trajectory (disorder realizations included), the shots of
    batches of states evolve together as the columns of blocks, and their
    measured bitstrings are post-selected under `postselect_mode`.  Output
    is bitwise independent of `threads`.
    """
    if ens.n_qubits != config.n_qubits:
        raise ValueError(
            f"ensemble on {ens.n_qubits} qubits, config on {config.n_qubits}"
        )
    if postselect_mode not in POSTSELECT_MODES:
        raise ValueError(f"unknown post-selection mode {postselect_mode!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    prepared = _prepare(ens, sample, config.cycles)
    if noise is None:
        mode = "sampled"
        counts, kept = _noiseless_records(prepared, config, sample, threads)
    else:
        mode = "noisy-sampled"
        counts, kept = _noisy_records(
            prepared, config, sample, noise, postselect_mode, threads
        )
    run = SampledRun(
        cycles=config.cycles,
        n_qubits=config.n_qubits,
        mu=ens.mu,
        mode=mode,
        sample=sample,
        initial_bits=prepared[0],
        counts=counts,
        kept=kept,
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
            estimates = stats.moment_row((grid, deleted))
            sigmas.append(stats.jackknife_from_estimates(estimates, rows[-1]).sigma)
        else:
            sigmas.append(np.zeros(4))
    return stats.MomentReport([run.cycles for run in runs], rows, sigmas)
