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

Every initial state is relabeled once it is drawn.  Only the light-cone
window around the cut, `ChainConfig.window`, is evolved; sites outside it
never see a gate and keep their prepared bits.  A state then takes one of
two routes to its tally:

* noiseless: a shot counts only through its right-half count, whose
  distribution depends only on the window word, so each distinct word of
  the run is evolved once, on the block engine of the exact tensor
  (`ensemble.word_right_masses`): dense half-chain operators applied as
  matrix products, and the center mix, read out per right count as the
  tensor is.  The run's distinct words go to it in one call, which
  groups them by popcount into chunks of one sector and threads them
  itself.  It runs in complex64: the masses, summed in float64, are
  normalized to `ensemble.SINGLE_NORM_TOL`, far below what a run's shots
  resolve, and outside the light cone they are exactly 0.0.  Tests hold
  them within total-variation distance 1e-6 of the complex128 reference
  for every word up to width 12 and for words of width 16 at t = 8;
  wider windows were measured, not tested (2.8e-7 at width 24).  Every
  state's whole tally of right counts is then drawn in one multinomial
  call, one row per state: the right-count masses of
  its word, renormalized and rolled to make its last right count of
  nonzero mass the last category (`multinomial` gives the last category
  whatever the draws before it leave over, and a zero-mass one draws
  nothing).  That is each state's own multinomial, drawn in state
  order: O(t) binomial draws per state, none per shot;
* noisy: each shot is its own trajectory on the window.  Before any runs,
  the state draws, with its counter block 1, its shots' numbers as arrays
  with one column per shot: disorder normals; per half-layer, k0 uniforms
  that thin the jumps and k0 that pick their sites (k0 the window's
  popcount); one measurement uniform; then one uniform per site outside
  the window, for its decay, and one per site, for its readout flip.  The
  sites outside the window decay, once per batch, before anything
  evolves.  The numbers then fix, before a shot evolves, its jumps J (its
  thinning uniforms give them whatever its amplitudes), its decays D
  outside the window and a bound U on its readout's 0->1 flips, the sites
  whose readout uniform lies below e0.  A shot with U < J + D reads out
  fewer ones than it was prepared with, so under the "number_only" and
  "causal" filters it is rejected unevolved (`noise.may_keep_popcount`);
  without a filter every shot evolves.  The shots that evolve run as
  the columns of blocks, each column with its own gate angles and
  Z rotations, and the shots of many states share a block.  The
  Z rotations are never applied: each column's angles so far twist the
  hops of its next gates ("virtual Z"), which leaves every |amplitude|^2,
  and so every jump and measurement, as the rotations would.  The states of
  one k0 are packed, in index order and side by side, into batches of as
  many whole states as keep their shots' amplitudes and numbers within
  2^16, the units of work for the threads.  A batch's evolving shots run
  in chunks of at most max(1, 2^16 // dim) columns, dim that of the
  largest sector they can reach: the prepared window's sector, or with
  damping, which only lowers the count, C(w, min(k0, w/2)).  The columns
  of a chunk that jump are lowered together, one round per jump
  (`noise.damp_columns`), and join the columns of their new excitation
  count in one block, which the chunk rule keeps within the size rule of
  its sector.  A shot reads its own columns, whatever its block, batch
  or thread.  The readout flips read their uniforms once
  per batch, after the evolution.

The noisy route evolves gate by gate (`_trajectory`), since jittered
per-column angles and damping jumps cannot use the engine's dense
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

import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, ensemble, stats
from .circuit import ChainConfig
from .ensemble import ImbalanceEnsemble, thread_map, word_right_masses
from .gates import PhaseConvention, fsim_coefficients
from .noise import (
    POSTSELECT_MODES,
    NoiseConfig,
    damp_bits,
    damp_columns,
    disorder_and_dephasing,
    disorder_draws,
    may_keep_popcount,
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

# The counter blocks of the generators built once per cycle count t, on the
# key (seed, _substream(t, 0)).  A noisy state i's shots draw from block 1
# of the key (seed, _substream(t, i)), so no state's stream reaches these.
_INITIAL_BITS_BLOCK = 2
_TALLY_BLOCK = 3

_clear_bases = sector_basis.cache_clear  # a wrapped `sector_basis` has none


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
            raise ValueError(
                f"no surviving shots in any state at t={self.cycles}, "
                f"mu={float(self.mu)!r}"
            )
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


def _trajectory(state, lo, config, noise, numbers):
    """The columns of `state`, on the window of sites lo.. of the chain,
    after the circuit, up to a phase per basis word that no measurement
    sees: every half-layer of the brickwork, anchored at physical site
    `lo`, with its disorder realization, Z rotations and damping step.
    Column j is one shot and reads column j of `numbers` (None without
    noise): the normals of `disorder_and_dephasing` and, per half-layer l,
    the uniforms[l] of `damp_columns`.  Gates act on every column of a
    block in place; a column that jumps moves to a block of its new
    excitation count.

    The Z rotations are never applied.  Each column sums its Z angles so
    far per site, A, and its true state is D_A psi, D_A =
    exp(-i sum_q A_q n_q): a gate on bond (b, b+1) acting on D_A psi is D_A
    times the gate with hops twisted by A_{b+1} - A_b acting on psi
    (`gates.fsim_coefficients`), a jump lowers D_A psi into D_A times the
    jump of psi, up to a phase per column, and the site law and norm of a
    jump, like the measurement, read only |amp|^2.  Each half-layer's gate
    coefficients are built once, for every bond and column.

    Returns (block, columns) pairs: column i of the block is input column
    columns[i].  Without damping that is the input block, whole."""
    width = state.basis.n_sites
    layers = brickwork_layers(width, lo, config.layer_order) * config.cycles
    normals, uniforms = (None, None) if numbers is None else numbers
    params, p_half = config.params, noise.half_layer_decay
    realizations = disorder_and_dephasing(params, noise, normals, width, layers)
    split = params.convention is PhaseConvention.SPLIT
    blocks = [(state, np.arange(state.columns().shape[1]))]
    del state  # the blocks own the columns: damping may replace them
    turns = None  # (width, m): each column's Z angle per site so far
    for l, layer in enumerate(realizations):
        bonds = np.array(layer.bonds, dtype=np.intp)
        twist = 0.0 if turns is None else turns[bonds + 1] - turns[bonds]
        angles = (params.theta, params.phi) if layer.angles is None else layer.angles
        hop, phase = fsim_coefficients(*angles, params.convention, twist)
        for block, columns in blocks:
            # per-bond rows of the (bonds, m) coefficients; a scalar serves all
            rows = (
                value[:, columns] if np.ndim(value) else itertools.repeat(value)
                for value in (*hop, phase)
            )
            amps = block.columns()
            for bond, c, s01, s10, ph in zip(layer.bonds, *rows):
                tables = block.basis.bond_tables(bond)
                _kernels.apply_fsim_tables(amps, tables, (c, s01, s10), ph, split)
        if layer.z_angles is not None:
            turns = layer.z_angles if turns is None else turns + layer.z_angles
        if p_half > 0.0:
            blocks = _damp_blocks(blocks, p_half, uniforms[l])
    return blocks


def _damp_blocks(blocks, p_decay, uniforms):
    """One damping step on every column of the (block, columns) pairs,
    column c reading uniforms[..., c].  The columns that jumped join those
    of their new excitation count in one block, which the chunk rule of
    `_noisy_records` keeps within `ensemble._chunk_columns`."""
    width = blocks[0][0].basis.n_sites
    pieces = defaultdict(list)  # excitation count -> [(state, columns)]
    for block, columns in blocks:
        for piece, picked in damp_columns(block, p_decay, uniforms[..., columns]):
            pieces[piece.basis.n_excitations].append((piece, columns[picked]))
    out = []
    for k in sorted(pieces):
        if len(pieces[k]) == 1:
            out.extend(pieces[k])
            continue
        amps = np.concatenate([state.columns() for state, _ in pieces[k]], axis=1)
        columns = np.concatenate([c for _, c in pieces[k]])
        out.append((SectorState(sector_basis(width, k), amps), columns))
    return out


def _prepare(ens, sample, cycles):
    """The initial bits of every state, one row each, all drawn in one call
    from the cycle count's initial-bit generator, row i state i's: left
    sites are 1 with probability p, right sites are 0 with probability p,
    independently.  Then the prepared bits after the relabeling, and which
    states were relabeled."""
    rng = _philox(sample.seed, _substream(cycles, 0), _INITIAL_BITS_BLOCK)
    u = rng.random((sample.n_initial_states, ens.n_qubits))
    bits = (u < ens.site_excitation_probabilities()).astype(np.int64)
    if sample.relabel_enabled:
        return bits, *relabel_if_overfull(bits)
    return bits, bits, np.zeros(len(bits), dtype=bool)


def _tally(bits, flagged, measured, config, postselect_mode, alive):
    """Undo the relabeling of one state's measured bitstrings (shots x n),
    post-select them and tally their right-count changes: the state's
    `counts` row and its kept-shot count.  The popcount test keeps only
    the shots that `alive` marks: the others were not evolved, as their
    numbers already ruled out their popcount (`noise.may_keep_popcount`)."""
    n, t = config.n_qubits, config.cycles
    half = n // 2
    if flagged:
        measured = 1 - measured
    if postselect_mode == "none":
        keep = np.ones(len(measured), dtype=bool)
    else:
        keep = (measured.sum(axis=1) == bits.sum()) & alive
    if postselect_mode == "causal":
        words, inverse = np.unique(measured[keep], axis=0, return_inverse=True)
        causal = np.array(
            [postselect(bits, w, t, "causal", config.layer_order) for w in words],
            dtype=bool,
        )
        keep[keep] = causal[inverse.reshape(-1)]
    delta_r = measured[keep, half:].sum(axis=1) - bits[half:].sum()
    return np.bincount(half + delta_r, minlength=n + 1), np.count_nonzero(keep)


def _shot_draws(config, noise):
    """(disorder normals, damped half-layers) of one noisy shot on the
    window of `config`."""
    lo, hi = config.window
    layers = brickwork_layers(hi - lo, lo, config.layer_order) * config.cycles
    draws = sum(disorder_draws(noise, hi - lo, layers))
    return draws, len(layers) if noise.half_layer_decay > 0.0 else 0


def _reach(width, k, damped):
    """Excitation count of the largest sector a noisy column whose window
    starts with k ones can reach: damping only lowers the count."""
    return min(k, width // 2) if damped else k


def _batch_states(width, k, shots, numbers):
    """States of window popcount k in a noisy batch: as many as keep their
    shots' C(width, k) amplitudes and `numbers` within the budget, >= 1."""
    per_state = shots * (math.comb(width, k) + numbers)
    return max(1, ensemble._CHUNK_AMPLITUDES // per_state)


# Bytes a run holds at once beside the window's tables, set above the
# traced peaks of `TestWindowCheck` and `TestDampBlocks`.  Per column, a
# noisy batch holds `_NUMBER_BYTES` per drawn number and `_SITE_BYTES` per
# chain site (measured bits, decay and readout uniforms, their copies,
# masks and indices), and one chunk of it `_GATHERED_BYTES` per number it
# gathers (with its realized circuit) and `_AMPLITUDE_BYTES` per amplitude
# of the largest sector it can reach, what a damping step peaks at (traced
# at most 72).  The batch peaks at 0.51-0.65 of that estimate on 46 sites.
# A noiseless run holds `_STATE_BYTES` (n + 1) a state (traced at most
# 44 (n + 1) for n = 2..20, and 31.4 (n + 1) at n = 46).
_NUMBER_BYTES = 16
_SITE_BYTES = 32
_GATHERED_BYTES = 32
_AMPLITUDE_BYTES = 80
_STATE_BYTES = 48


def shot_bytes(config: ChainConfig, shots: int, noise: NoiseConfig) -> int:
    """Bytes a noisy run of `shots` shots a state holds at once beside the
    window's tables, for `ensemble.check_memory`: the most over the window
    popcounts k0 of one batch as `_batch_states` packs it and one chunk of
    it, `ensemble._chunk_columns` of the largest sector its columns can
    reach (`_reach`), at the byte constants above."""
    n = config.n_qubits
    lo, hi = config.window
    w = hi - lo
    draws, damped = _shot_draws(config, noise)
    most = 0
    for k in range(w + 1):
        numbers = draws + 2 * k * damped + 1
        columns = shots * _batch_states(w, k, shots, numbers)
        reach = _reach(w, k, damped)
        chunk = min(columns, ensemble._chunk_columns(w, reach))
        batch = columns * (_NUMBER_BYTES * numbers + _SITE_BYTES * n)
        amplitudes = _AMPLITUDE_BYTES * math.comb(w, reach)
        most = max(most, batch + chunk * (amplitudes + _GATHERED_BYTES * numbers))
    return most


def state_bytes(config: ChainConfig, states: int) -> int:
    """Bytes of the per-state arrays a noiseless run of `states` states
    holds, for `ensemble.check_memory`: `_STATE_BYTES` (n + 1) a state."""
    return states * _STATE_BYTES * (config.n_qubits + 1)


def _noisy_records(prepared, config, sample, noise, postselect_mode, threads):
    """Every state's `counts` row and kept-shot count with noise, as two
    arrays in state order.  The states of one window popcount k0 are
    packed, in index order, into batches of `_batch_states` each: their
    shots' C(width, k0) amplitudes and numbers (the disorder normals, 2 k0
    per damped half-layer, 1) stay within `ensemble._CHUNK_AMPLITUDES`.  A
    batch is the threads' unit of work and runs in four passes.

    Draw: each state opens its counter block 1 and draws its shots' numbers
    as arrays, one column per shot: the disorder normals, per half-layer k0
    thinning and k0 site uniforms, one measurement uniform, then one decay
    uniform per site outside the window and one readout uniform per site.
    Reject: the batch's outside sites decay, in one call reading the drawn
    uniforms; then, under the "number_only" and "causal" filters, the
    shots whose jumps and decays outnumber the readout uniforms below e0
    are rejected (`noise.may_keep_popcount`): they cannot read out their
    prepared popcount.  Evolve: the states' arrays are placed side by side,
    and the shots not rejected, in order, are the columns of the batch's
    block, each reading its own numbers; the block runs in chunks of at
    most `_chunk_columns` of the largest sector its columns can reach
    (`_reach`), so that damping never gathers more columns of a count
    than one block of its sector holds, and each shot measures the first
    outcome of its column's guarded CDF above its uniform.  Tally: the batch's readouts
    flip, in one call reading the drawn uniforms; each state then filters
    its measured rows, the rejected ones failing the popcount test, and
    tallies them into its own row of the two arrays."""
    bits, phys, flagged = prepared
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    lo, hi = config.window
    width = hi - lo
    draws, damped = _shot_draws(config, noise)
    words = bits_to_word(phys[:, lo:hi])
    ones = np.bitwise_count(words).tolist()
    outside = np.r_[:lo, hi:n]
    counts = np.empty((len(ones), n + 1), dtype=np.int64)
    kept = np.empty(len(ones), dtype=np.int64)

    def tally_batch(batch):
        k, m = ones[batch[0]], len(batch) * shots
        # the shots of batch[b] are rows b * shots .. of `measured`, `decay`
        # and `flips`, and the same columns of their numbers
        measured = np.repeat(phys[batch].astype(np.int8), shots, axis=0)  # 1 B a site
        normals, uniforms, u = (
            np.empty((*shape, m)) for shape in ((draws,), (damped, 2, k), ())
        )
        decay, flips = np.empty((m, n - width)), np.empty((m, n))
        for b, i in enumerate(batch):
            rng = _philox(sample.seed, _substream(t, i), 1)
            rows = slice(b * shots, (b + 1) * shots)
            if width:
                normals[:, rows] = rng.standard_normal((draws, shots))
                uniforms[..., rows] = rng.random((damped, 2, k, shots))
                u[rows] = rng.random(shots)
            decay[rows] = rng.random((shots, n - width))
            flips[rows] = rng.random((shots, n))
        measured[:, outside] = damp_bits(measured[:, outside], float(t), noise, decay)
        del decay
        alive = np.ones(m, dtype=bool)
        if postselect_mode != "none":
            decayed = np.repeat(phys[batch].sum(axis=1), shots) - measured.sum(axis=1)
            p_half = noise.half_layer_decay
            alive = may_keep_popcount(k, p_half, uniforms, decayed, flips, noise.e0)
        if width:
            # the block's column j is shot evolved[j]; each chunk gathers
            # the numbers of its shots
            evolved = np.flatnonzero(alive)
            start = words[batch].repeat(shots)[evolved]
            size = ensemble._chunk_columns(width, _reach(width, k, damped))
            for s0 in range(0, evolved.size, size):
                part = evolved[s0 : s0 + size]
                # no name holds a block once damping has replaced it, or
                # into the next chunk
                for block, columns in _trajectory(
                    SectorState.from_words(start[s0 : s0 + size], width),
                    lo, config, noise, (normals[:, part], uniforms[..., part]),
                ):
                    cdf = _cdf(block.probabilities().T)
                    found = np.count_nonzero(cdf <= u[part][columns, None], axis=1)
                    found = block.basis.words[found]
                    measured[part[columns], lo:hi] = word_to_bits(found, width)
                del block
        del normals, uniforms, u
        measured = readout_flip(measured, noise, flips)
        del flips
        for i, own, mask in zip(
            batch, np.split(measured, len(batch)), np.split(alive, len(batch))
        ):
            counts[i], kept[i] = _tally(
                bits[i], flagged[i], own, config, postselect_mode, mask
            )

    batches = []
    for k in sorted(set(ones)):
        group = [i for i, count in enumerate(ones) if count == k]
        per = _batch_states(width, k, shots, draws + 2 * k * damped + 1)
        batches += [group[j : j + per] for j in range(0, len(group), per)]
    thread_map(tally_batch, batches, threads)
    return counts, kept


def _noiseless_records(prepared, config, sample, threads):
    """Every state's `counts` row and kept-shot count without noise, as two
    arrays.  Each distinct window word is evolved once, in one call of the
    block engine's word end, in complex64; then every state's whole tally
    of right counts r is drawn, in state order, in one multinomial call on
    the cycle count's tally generator, one row of right-count masses per
    state, and each state tallies r - b0, b0 its word's right count,
    negated for a relabeled state; unfiltered, as no mode can reject a
    noiseless shot."""
    _, phys, flagged = prepared
    n, t, shots = config.n_qubits, config.cycles, sample.shots_per_state
    lo, hi = config.window
    width = hi - lo
    words, word_of = np.unique(bits_to_word(phys[:, lo:hi]), return_inverse=True)
    masses = np.ones((words.size, 1))  # no cycle: the empty window stays put
    if width:
        masses = word_right_masses(
            words, width, lo, t, config.params, config.layer_order, threads,
            dtype=np.complex64,
        ).T
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
    """Sample the experiment: draw initial states, evolve their light-cone
    windows (`config.window`), measure shots, filter, and tally per-state M
    histograms.

    With `noise=None` each distinct window word is evolved once, on the
    block engine, and every state draws its tally of right counts in one
    multinomial call over the exact right-count masses of its word;
    `postselect_mode` has no effect there, because every mode keeps every
    noiseless shot.  With noise every shot is an
    independent trajectory (disorder realizations included), the shots of
    batches of states evolve together as the columns of blocks, and their
    measured bitstrings are post-selected under `postselect_mode`.  Output
    is bitwise independent of `threads`.  Before anything is drawn, the
    window must pass `ensemble.check_memory` together with the run's
    `state_bytes`, or with noise its `shot_bytes` (else
    EnumerationCapError).
    """
    if ens.n_qubits != config.n_qubits:
        raise ValueError(
            f"ensemble on {ens.n_qubits} qubits, config on {config.n_qubits}"
        )
    if postselect_mode not in POSTSELECT_MODES:
        raise ValueError(f"unknown post-selection mode {postselect_mode!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    lo, hi = config.window
    if noise is None:
        held = state_bytes(config, sample.n_initial_states)
        ensemble.check_memory(hi - lo, "sampled", held)
    else:
        held = shot_bytes(config, sample.shots_per_state, noise)
        ensemble.check_memory(hi - lo, "noisy-sampled", held)
    _clear_bases()  # `check_memory` counts this window's bases, not earlier ones

    prepared = _prepare(ens, sample, config.cycles)
    if noise is None:
        counts, kept = _noiseless_records(prepared, config, sample, threads)
    else:
        counts, kept = _noisy_records(
            prepared, config, sample, noise, postselect_mode, threads
        )
    run = SampledRun(
        cycles=config.cycles,
        n_qubits=config.n_qubits,
        mu=ens.mu,
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
