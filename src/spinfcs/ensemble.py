"""Imbalance-parameterized initial ensembles and exact transfer statistics.

The initial state is a product ensemble: left-half sites hold a 1 with
probability p = e^mu/(e^mu + e^-mu), right-half sites with probability 1-p.
The observable is twice the net number of excitations crossing the center
cut.  Because every site within a half is i.i.d., the ensemble weight of a
bitstring depends only on its per-half excitation counts (a, b), so exact
enumeration factorizes: one mu-independent tensor T[t, a, b, r] accumulates
the total probability that a word in block (a, b) evolves to a word with r
excitations on the right after t cycles, and any imbalance is applied as a
reweighting afterwards.  The tensor is built by evolving basis words in
batched columns, one word per symmetry orbit.

The evolution stores a sector as a direct sum of left (x) right blocks
(a, k-a), both halves read outward from the center.  Read so, the two half
chains run the same gates, so a cycle is one set of dense half-chain
operators, built once per call and applied to each block's left and right
factor as matrix products, and the center gate's |01>/|10> mix, which
updates slice views of neighbouring blocks in place.
`split`'s phase on |00> and |11> is global, and `tail`'s boundary phase is
folded into the half-chain operators (n = 2 too), so no phase pass remains.
This block engine has two ends, which read out alike: the tensor end
weights the right-count masses of every cycle, and the word end
(`word_right_masses`) returns the final right-count masses of any basis
words, the noiseless sampler's.  It groups them by popcount alone into
chunks of one sector, whose columns start in neighbouring blocks, and
runs in complex128, the exact reference, or, for the sampler, complex64;
the tensor end runs one initial block a task, in complex128.

Three exact identities cut the work of the reduced tensor.  First,
symmetry.  The halves are stored read outward from the center, so an
initial word is w = L << h | R, h = n/2, and the symmetries of the
brickwork act on words: the left-right mirror (exact for even n) swaps L
and R, the bit flip complements both, and their product does both.  Of
each orbit of the symmetry group only the least word is evolved, at
weight 1/|stabilizer|; the group's images of the summed masses,
T[t, a, b, r] -> T[t, b, a, a+b-r] for the mirror and T[t, h-a, h-b, h-r]
for the flip, then give the tensor of every word.  The mirror always
applies.  `split` gates commute with the bit flip, so it applies at any
depth.  `tail` gates differ by phases on the two edge sites one layer
leaves idle, which break the flip per word but for t <= h leave the
tensor equal to the `split` one (checked against the every-column path
and the dense oracle): such runs are evolved with `split` gates under both
maps, deeper `tail` runs under the mirror alone.

Second, reciprocity: T[t, a, b, r] = T[t, a+b-r, r, b], in both
conventions and at any depth.  Every fSim gate, `tail` phases included,
is a symmetric matrix, so with A the half-layer that holds the center
gate and B the other, the transpose of t cycles (BA)^t is
B^-1 (BA)^t B; B keeps every block, so the mass from block (a, b) to
right count r is the mass from block (a+b-r, r) to right count b.  The
self-mirror blocks (a, a), whose orbits stay inside
{(a, a), (h-a, h-a)}, are not evolved: their rows are copies
T[t, a, a, r] = T[t, 2a-r, r, a], exact zeros included, and their
diagonal is C(h, a)^2 less the rest of the row.

Third, causality.  Summed over its initial block, a state does not see a
gate outside the forward light cone of the center (`_evolve_block`), so
while that cone reaches fewer than h sites of each half
(`_forward_window`), a task runs on the 2f sites it has reached, f < h,
with the outer sites of each column as spectators, and then goes on on
the whole chain from the state it places there.
"""

import concurrent.futures
import contextlib
import ctypes
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .circuit import ChainConfig
from .errors import EnumerationCapError, InvariantError
from .gates import FSimParams, LayerOrder, PhaseConvention, fsim_coefficients
from .sector import bits_to_word, brickwork_layers, sector_basis, word_to_bits

NORM_TOL = 1e-10  # largest |total - 1| of a normalized mass
# the same for the complex64 word end: 10x the largest error measured on
# every word up to 12 sites, 1.05e-6
SINGLE_NORM_TOL = 1e-5


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, reached
    through `ctypes`, or None when numpy does not export them."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@contextlib.contextmanager
def _blas_threads(count: int):
    """Cap OpenBLAS at `count` threads inside the block, then restore the
    count it had, on an exception too; without numpy's bundled OpenBLAS,
    do nothing."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_threads = calls
    before = get()
    set_threads(count)
    try:
        yield
    finally:
        set_threads(before)


def thread_map(task, items, threads: int) -> list:
    """`task` over `items`, in order, on up to `threads` worker threads.

    With more than one worker, OpenBLAS runs single-threaded meanwhile, so
    the workers' matrix products do not each start a pool of BLAS threads
    on the same cores."""
    if threads > 1:
        with (
            _blas_threads(1),
            concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool,
        ):
            return list(pool.map(task, items))
    return [task(item) for item in items]


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

    def word_probability_by_counts(self, a, b):
        """Probability of any single word with a ones left, b ones right."""
        half = self.n_qubits // 2
        p = self.p
        q = 1.0 - p
        return p**a * q ** (half - a) * q**b * p ** (half - b)


def lightcone_reduce(config: ChainConfig) -> ChainConfig:
    """Equivalent configuration on the sites of `config.window`, at least 2.

    Ensemble-averaged center-cut statistics depend only on the window, so
    the chain shrinks to it; a chain shorter than its light cone is its own
    window and is left as it is."""
    lo, hi = config.window
    return replace(config, n_qubits=max(2, hi - lo))


CHUNK_COLUMNS = 256

MEMORY_CAP = 4 << 30  # bytes a run may hold at once, in every mode


def _engine_bytes(w: int, m: int, size: int = 16) -> int:
    """Bytes of the block engine on w sites, in complex numbers of `size`
    bytes: its one half-chain operator set and one `_SectorBlocks` of m
    columns of the middle sector."""
    half = w // 2
    middle = math.comb(w, half)
    return size * middle * (1 + m) + 2 * size * m * math.comb(half, half // 2) ** 2


def check_memory(n_sites: int, mode: str, extra_bytes: int = 0) -> None:
    """Refuse to evolve `n_sites` sites, a chain or a light-cone window, in
    `mode` ("exact", "sampled" or "noisy-sampled") when the arrays the run
    holds at once exceed `MEMORY_CAP` bytes: the one size rule, which the
    CLI, `transfer_tensor` and `sampler.run_sampled` apply before they
    allocate.  It admits exact chains up to 20 sites, sampled windows up
    to 30 and noisy-sampled ones up to 22.

    Exact runs hold the block engine (`_engine_bytes`) in complex128 with
    m = `CHUNK_COLUMNS`, and the engine of the forward window, of at most
    w - 2 sites.  Sampled runs hold it in complex64 with m = 1, and the
    complex128 build of its largest operator, 16 C(w/2, w/4)^2 bytes.
    Noisy runs hold the int64 tables that `sector_basis` keeps, over every
    sector of the window, (36 w - 20) 2^w bytes.  `extra_bytes` adds what
    the run holds beside these (`sampler.state_bytes`, `sampler.shot_bytes`).
    Each worker thread holds a block and a batch of its own; that multiple
    is not counted.  A run that passes may still take too long.

    Raises:
        EnumerationCapError: if the estimate exceeds the cap.
    """
    w = min(n_sites, 64)  # far over the cap already; wider binomials cost seconds
    need = extra_bytes
    if mode == "noisy-sampled":
        need += (36 * w - 20) * 2**w
    elif mode == "exact":
        need += _engine_bytes(w, CHUNK_COLUMNS)
        if w > 2:  # the forward window, at most w - 2 sites
            need += _engine_bytes(w - 2, CHUNK_COLUMNS)
    else:  # complex64, beside the complex128 build of the largest operator
        need += _engine_bytes(w, 1, 8) + 16 * math.comb(w // 2, w // 4) ** 2
    if need > MEMORY_CAP:
        held = {"sampled": " and its states", "noisy-sampled": " and a batch of shots"}
        raise EnumerationCapError(
            f"{mode} evolution of {n_sites} sites"
            f"{held[mode] if extra_bytes else ''} needs "
            f"{'about' if w == n_sites else 'more than'} {need / 1e9:.3g} GB, "
            f"over the {MEMORY_CAP / 2**30:.0f} GiB cap, which admits exact "
            "chains up to 20 sites, sampled windows up to 30 and noisy-sampled "
            "ones up to 22"
        )


def _half_chain_operators(
    half: int,
    params: FSimParams,
    layer_order: LayerOrder,
    first_site: int,
    dtype=np.complex128,
):
    """Dense one-cycle operators W of a half chain, and the constants
    (c, s) = e^{i phi/2} (cos theta, i sin theta) of the center gate's
    |01>/|10> mix M, for a chain of 2*half sites whose site 0 is physical
    site `first_site`.  Each W is built in complex128 and then, one at a
    time, rounded to `dtype`.

    W[c] is the C(half, c)-square matrix of all half-chain gates of one
    cycle, in cycle order, on the c-excitation sector of `half` sites with
    the boundary site as the most significant bit.  Read outward from the
    center, bond j of the right half is chain bond half + j and bond j of
    the left half is chain bond half - 2 - j, of the same parity; fSim is
    symmetric under swapping its two sites, so one W serves both halves.
    Its layout is `brickwork_layers` anchored at the right half's first
    physical site, first_site + half.

    `split`'s center gate is e^{-i phi/2} M, a global phase.  `tail`'s is
    M D, D = e^{-i phi/2 (n_{h-1} + n_h)}, which commutes with M and acts
    on each half alone: each W is W diag(e^{-i phi/2 b}), b its boundary
    bit (for half = 1 just that diagonal), and the last D is not read out.
    """
    theta, phi = params.theta, params.phi
    split = params.convention is PhaseConvention.SPLIT
    boundary_phase = 1.0 if split else complex(np.exp(-0.5j * phi))
    hop, gate_phase = fsim_coefficients(theta, phi, params.convention)
    layers = brickwork_layers(half, first_site + half, layer_order)
    ops = []
    for c in range(half + 1):
        basis = sector_basis(half, c)
        w = np.eye(basis.dimension, dtype=np.complex128)
        for bond in itertools.chain(*layers):
            tables = basis.bond_tables(bond)
            _kernels.apply_fsim_tables(w, tables, hop, gate_phase, split)
        w[:, math.comb(half - 1, c) :] *= boundary_phase
        w = w.astype(dtype, copy=False)
        w.setflags(write=False)  # shared by the threads of a call
        ops.append(w)
    phase = complex(np.exp(0.5j * phi))
    return ops, (phase * math.cos(theta), phase * 1j * math.sin(theta))


class _SectorBlocks:
    """m columns of sector k of 2*half sites, column j starting on word
    columns[j] of block (lefts[j], k - lefts[j]) (`lefts` one count for
    every column, or one each), stored as left (x) right blocks (a, k-a), a
    ascending, each of C(half, a) * C(half, k-a) rows ordered left index
    major (both halves read outward from the center), in `dtype`.

    A cycle is W[a] (x) W[k-a] on every block (a, k-a), one operator set W
    for both halves, followed by the center mix M of `operators` =
    (W, (c, s)), which pairs |01> rows of block (a, b) with |10> rows of
    block (a+1, b-1).  There is no phase pass: `split`'s |00>/|11> phase is
    global and `tail`'s boundary phase is in W (half = 1 included).  After
    j center gates only blocks within j of a starting left count are
    nonzero, and only they are touched; a column's blocks farther than j
    from its own are exactly 0.0, as nothing but the mix moves amplitude
    between blocks.
    """

    def __init__(self, half, k, lefts, columns, dtype=np.complex128):
        self.half, self.k, self.mixes = half, k, 0
        self.lo, self.hi = max(0, k - half), min(half, k)
        self.first, self.last = int(np.min(lefts)), int(np.max(lefts))
        shape = {
            a: (math.comb(half, a), math.comb(half, k - a))
            for a in range(self.lo, self.hi + 1)
        }
        sizes = [dl * dr for dl, dr in shape.values()]
        edges = list(itertools.accumulate(sizes, initial=0))
        m = len(columns)
        self.amps = np.zeros((sum(sizes), m), dtype=dtype)
        starts = np.take(edges, np.subtract(lefts, self.lo)) + columns
        self.amps[starts, np.arange(m)] = 1.0
        # GEMM output, or the two products of the center gate
        scratch = np.empty(2 * max(sizes) * m, dtype=dtype)
        # views, made once: block a as (dl, dr, m) and its GEMM output
        self._halves = {}
        for (a, (dl, dr)), start in zip(shape.items(), edges):
            x = self.amps[start : start + dl * dr].reshape(dl, dr, m)
            self._halves[a] = (x, scratch[: dl * dr * m].reshape(dl, dr, m))
        # the |01> rows of (a, b), left boundary 0 and right boundary 1, and
        # their |10> partners, which lead block (a+1, b-1) on the left and
        # end it on the right, with room for their products
        self._pairs = {}
        for a in range(self.lo, self.hi):
            b = k - a
            x = self._halves[a][0][: math.comb(half - 1, a), math.comb(half - 1, b) :]
            y = self._halves[a + 1][0][
                math.comb(half - 1, a + 1) :, : math.comb(half - 1, b - 1)
            ]
            products = scratch[: 2 * x.size].reshape(2, *x.shape)
            self._pairs[a] = (x, y, *products)

    def _nonzero(self):
        """The blocks a that the center gates so far may have made nonzero."""
        return range(
            max(self.lo, self.first - self.mixes),
            min(self.hi, self.last + self.mixes) + 1,
        )

    def cycle(self, operators, w=True):
        """Apply one cycle, W then M, or M alone without `w`: on a single
        basis word the first cycle's W is a change of basis that T, summed
        over a whole initial block, does not see."""
        ops, (c, s) = operators
        nonzero = self._nonzero()
        if w:  # W[a] (x) W[k-a]: two matrix products a block
            for a in nonzero:
                x, y = self._halves[a]
                dl = x.shape[0]
                np.matmul(ops[a], x.reshape(dl, -1), out=y.reshape(dl, -1))
                np.matmul(ops[self.k - a], y, out=x)
        for a in range(max(self.lo, nonzero.start - 1), min(self.hi, nonzero.stop)):
            x, y, s_y, s_x = self._pairs[a]
            np.multiply(y, s, out=s_y)
            y *= c
            y += np.multiply(x, s, out=s_x)
            x *= c
            x += s_y
        self.mixes += 1

    def right_masses(self):
        """(half + 1, m) probability mass of each column per right count r,
        read block by block: block (a, k-a) holds r = k-a alone."""
        m = self.amps.shape[1]
        masses = np.zeros((self.half + 1, m))
        for a in self._nonzero():
            block = self._halves[a][0].reshape(-1, m)
            # an array scalar: perfbench's readout observer reads its .size
            _kernels.readout_accumulate(block, np.intp(self.k - a), masses)
        return masses

    def place(self, window, outer_left, outer_right, picked):
        """Write the amplitudes of `window`, the engine of the inner sites of
        columns `picked`, into those columns, each with its own outer half
        words (`outer_left`, `outer_right`, of s = half - window.half
        sites), and take the window's count of center gates.  A half word
        is inner << s | outer, so its rank among the words of its count is
        the number of them with a smaller inner part, the rank of
        inner << s, plus the rank of its outer part among the outer words
        of its count.  Every row a column's inner state can reach is
        written."""
        s = self.half - window.half
        halves = []  # (outer count, rank of each column's outer word)
        for outer in (outer_left, outer_right):
            extra = int(np.bitwise_count(outer[0]))
            halves.append((extra, np.searchsorted(sector_basis(s, extra).words, outer)))
        for a in window._nonzero():
            rows = []  # per half: (window rows, columns) rows of the full block
            for count, (extra, rank) in zip((a, window.k - a), halves):
                inner = sector_basis(window.half, count).words << np.uint64(s)
                words = sector_basis(self.half, count + extra).words
                rows.append(np.searchsorted(words, inner)[:, None] + rank)
            block = self._halves[a + halves[0][0]][0]
            block[rows[0][:, None], rows[1][None], picked] = window._halves[a][0]
        self.mixes = window.mixes


def _forward_window(half: int, cycles: int, layer_order: LayerOrder):
    """(f, spent): the first `spent` cycles of the tensor end move nothing
    beyond the f sites of each half next to the center, f < half; (0, 0)
    when even the first reaches a whole half.

    The first center mix reaches the boundary site 0 of each half; each
    later cycle's W grows that reach bond by bond, in cycle order, over
    `brickwork_layers(half, half, layer_order)`.  `spent` counts the
    cycles, at most `cycles`, at whose end the reach is below `half`
    sites, and f is the reach at the end of the last of them."""
    bonds = list(itertools.chain(*brickwork_layers(half, half, layer_order)))
    f = spent = 0
    reach = 1
    while spent < cycles and reach < half:
        f, spent = reach, spent + 1
        for bond in bonds:  # ascending: one bond at most joins the reach
            reach += bond == reach - 1
    return f, spent


def _window_start(half, a0, b0, columns, cycles, window):
    """Run the first cycles of the in-block `columns` of block (a0, b0) on
    the inner sites alone: `window` = (f, spent, window operators) of
    `_forward_window` and `_half_chain_operators(f, ..., half - f)`.

    A column's outer half words (the half - f sites past the window) are
    spectators; its inner words start on window block (a0 - cL, b0 - cR),
    cL and cR its outer counts, and a window right count r' reads out at
    r' + cR.  The columns of one (cL, cR) share one window engine, freed
    once placed.  Returns the (spent, half + 1, m) masses of every column
    after each window cycle and, when cycles > spent, the full engine
    holding their state after the last of them (None otherwise)."""
    f, spent, operators = window
    shift, outer_mask = np.uint64(half - f), np.uint64((1 << half - f) - 1)
    stride = math.comb(half, b0)
    left = sector_basis(half, a0).words[columns // stride]
    right = sector_basis(half, b0).words[columns % stride]
    outer_left, outer_right = left & outer_mask, right & outer_mask
    extra_l, extra_r = np.bitwise_count(outer_left), np.bitwise_count(outer_right)
    masses = np.zeros((spent, half + 1, len(columns)))
    # placing overwrites each column's starting one
    full = _SectorBlocks(half, a0 + b0, a0, columns) if cycles > spent else None
    for cl, cr in sorted(set(zip(extra_l.tolist(), extra_r.tolist()))):
        picked = np.flatnonzero((extra_l == cl) & (extra_r == cr))
        a, b = a0 - cl, b0 - cr
        i_left = np.searchsorted(sector_basis(f, a).words, left[picked] >> shift)
        i_right = np.searchsorted(sector_basis(f, b).words, right[picked] >> shift)
        blocks = _SectorBlocks(f, a + b, a, i_left * math.comb(f, b) + i_right)
        for t in range(spent):
            blocks.cycle(operators, w=t > 0)
            masses[t, cr : cr + f + 1][:, picked] = blocks.right_masses()
        if full is not None:
            full.place(blocks, outer_left[picked], outer_right[picked], picked)
        del blocks  # one window engine at a time
    return masses, full


def _evolve_block(half, a0, b0, columns, weights, cycles, operators, window):
    """Weighted sum of the right-count masses of the in-block `columns` of
    block (a0, b0) after each cycle, indexed [t-1, r]: the tensor end of
    the block engine (`_SectorBlocks`).  With a `window` (`_window_start`;
    None for the whole chain) the first cycles run on the sites of the
    forward light cone alone.

    The W before the first center gate and after the last readout are
    dropped: summed over a whole initial block, T does not see them.  Nor
    does it see a gate outside the forward light cone of the center: the
    block sum of the initial words, a sum over the outer counts c of
    (inner projector) (x) (outer count-c projector), is left alone by any
    number-conserving gate on the outer sites.  W and the window's W
    commute with every map of the symmetry group (the mirror always, the
    bit flip for `split` gates), so neither does the sum over the group's
    images of the weighted least words of its orbits.

    No readout may be filled by subtraction, as "total - rest": a mass
    that the light cone or a zero angle makes exactly 0.0 must stay 0.0,
    and the subtraction leaves a rounding residue there instead (filling
    each task's largest block so put 3.5e-19 outside |M| <= 2t and broke
    the frozen chain).  `transfer_tensor` subtracts only for the diagonal
    T[t, a, a, a] of a self-mirror block, its initial right count, which
    every light cone holds.
    """
    part = np.zeros((cycles, half + 1))
    start = 0
    if window is None:
        blocks = _SectorBlocks(half, a0 + b0, a0, columns)
    else:
        masses, blocks = _window_start(half, a0, b0, columns, cycles, window)
        start = len(masses)
        # no BLAS call, so T does not depend on the BLAS thread count
        part[:start] = np.einsum("trj,j->tr", masses, weights)
    for t in range(start, cycles):
        blocks.cycle(operators, w=t > 0)
        part[t] = np.einsum("rj,j->r", blocks.right_masses(), weights)
    return part


# Amplitudes in one block of window columns, read at call time.  The word
# end evolves its words in chunks of `_chunk_columns` columns; the noisy
# route sizes its batches and chunks by the same budget (`sampler`).
_CHUNK_AMPLITUDES = 1 << 16


def _chunk_columns(n_sites: int, k: int) -> int:
    """Columns per block of the `n_sites` sector with k ones."""
    return max(1, _CHUNK_AMPLITUDES // math.comb(n_sites, k))


def _word_chunks(words, n_sites):
    """Index arrays into `words`, each of one popcount k, by k, then by
    left-half count, then ascending, `_chunk_columns` long: a chunk's words
    start in neighbouring blocks of one sector."""
    left = np.bitwise_count(words >> np.uint64(n_sites // 2))
    ones = np.bitwise_count(words)
    chunks = []
    for k in sorted(set(ones.tolist())):
        group = np.flatnonzero(ones == k)
        group = group[np.argsort(left[group], kind="stable")]
        size = _chunk_columns(n_sites, k)
        chunks.extend(group[j0 : j0 + size] for j0 in range(0, group.size, size))
    return chunks


def word_right_masses(
    words,
    n_sites,
    first_site,
    cycles,
    params,
    layer_order,
    threads=1,
    dtype=np.complex128,
):
    """Right-count masses of basis words after `cycles` brickwork cycles on
    `n_sites` (even) sites, site 0 being physical site `first_site`: an
    (n_sites/2 + 1, m) float64 array whose column j is the probability that
    words[j] ends with r ones in the right half, row r: the word end of the
    block engine, read out as its tensor end is.  The words are evolved in
    `_word_chunks`, one engine a chunk, on up to `threads` threads, all on
    one operator set built for the call; the masses are bitwise alike for
    any `threads`.

    The operators and engines hold `dtype`, complex128 or complex64; the
    readout sums squares in float64 either way.  complex128 is the exact
    reference, its masses normalized to `NORM_TOL`; complex64, which the
    noiseless sampler draws from, to `SINGLE_NORM_TOL`.  Either way a mass
    outside the light cone is exactly 0.0.

    A run from one word keeps the W that the tensor drops before the first
    mix.  With the center bond in the cycle's first half-layer a cycle is
    W M (M commutes with the first half-layer's other gates), so a word
    sees t mixes with a W after each, and the last W, which keeps every
    block, moves no right count; with it in the second, M W, so a W leads
    each mix.  Either way `tail`'s boundary phase, folded into W, moves at
    most a global phase of the word or a diagonal before the readout.  The
    operators are laid out from the anchor `first_site` by
    `brickwork_layers`, as the window's own layers are.

    Raises:
        InvariantError: if a word's mass is not normalized or lies outside
            the light cone |r - b0| <= cycles, b0 its right count.
    """
    words = np.asarray(words, dtype=np.uint64)
    half = n_sites // 2
    left, right = words >> np.uint64(half), words & np.uint64((1 << half) - 1)
    a_of, b_of = np.bitwise_count(left).astype(np.intp), np.bitwise_count(right)
    # in-block column: the rank of the left half-word, read mirrored, outward
    # from the center, among those of its count, times C(half, b0), plus the
    # rank of the right half-word
    mirrored = bits_to_word(word_to_bits(left, half)[:, ::-1])
    rank = np.empty((2, words.size), dtype=np.intp)
    for row, halves, counts in ((0, mirrored, a_of), (1, right, b_of)):
        for c in set(counts.tolist()):  # np.unique would import numpy.ma
            sel = counts == c
            rank[row, sel] = np.searchsorted(sector_basis(half, c).words, halves[sel])
    widths = np.array([math.comb(half, b) for b in range(half + 1)])
    column = rank[0] * widths[b_of] + rank[1]
    lead = half - 1 in brickwork_layers(n_sites, first_site, layer_order)[1]
    operators = _half_chain_operators(half, params, layer_order, first_site, dtype)

    def evolve(picked):
        k = int(a_of[picked[0]] + b_of[picked[0]])
        blocks = _SectorBlocks(half, k, a_of[picked], column[picked], dtype)
        for t in range(cycles):
            blocks.cycle(operators, w=t > 0 or lead)
        return blocks.right_masses()

    chunks = _word_chunks(words, n_sites)
    masses = np.empty((words.size, half + 1))  # the sampler's rows contiguous
    for picked, part in zip(chunks, thread_map(evolve, chunks, threads)):
        masses[picked] = part.T
    masses = masses.T
    total = masses.sum(axis=0)
    tol = NORM_TOL if dtype == np.complex128 else SINGLE_NORM_TOL
    off = ~(np.abs(total - 1.0) <= tol)  # NaN too
    if off.any():
        j = np.argmax(off)
        raise InvariantError(
            f"mass of word {int(words[j])} not normalized: {float(total[j])}"
        )
    outside = np.abs(np.arange(half + 1)[:, None] - b_of) > cycles
    if np.any(masses[outside]):
        r, j = np.argwhere(masses * outside)[0]
        raise InvariantError(
            f"mass {float(masses[r, j])} of word {int(words[j])} outside the "
            f"light cone at r - b0 = {r - int(b_of[j])}"
        )
    return masses


def _orbit_columns(half: int, a: int, b: int, order: int):
    """In-block columns of block (a, b) to evolve, and their weights, under
    the symmetry group of `order` 1 (trivial), 2 (mirror) or 4 (mirror x
    bit flip).  Column (iL, iR) is the word w = L << half | R of its half
    words, both read outward from the center; it is evolved when w is the
    least word of its orbit, at weight 1/|stabilizer of w|.
    """
    left = np.repeat(sector_basis(half, a).words, math.comb(half, b))
    right = np.tile(sector_basis(half, b).words, math.comb(half, a))
    shift, flip = np.uint64(half), np.uint64((1 << 2 * half) - 1)
    word, mirror = left << shift | right, right << shift | left
    keep = np.ones(word.size, dtype=bool)
    stabilizer = np.ones(word.size)
    for image in [mirror, word ^ flip, mirror ^ flip][: order - 1]:
        keep &= word <= image
        stabilizer += word == image
    columns = np.flatnonzero(keep)
    return columns, 1.0 / stabilizer[columns]


def transfer_tensor(
    n_qubits: int,
    cycles: int,
    params: FSimParams,
    layer_order: LayerOrder = LayerOrder.EVEN_FIRST,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Block-resolved transfer tensor T[t, a, b, r] for t = 0..cycles.

    T[t, a, b, r] is the summed probability, over every basis word with a
    ones in the left half and b in the right, of measuring r ones on the
    right after t cycles.  It is independent of the imbalance; combine with
    `distribution_from_tensor` for any mu.  Output is bitwise independent of
    `threads` (fixed reduction order) and of the BLAS thread count.

    It evolves the least word of each orbit of the symmetry group and adds
    the group's images (module docstring): the mirror alone for `tail`
    gates with cycles > h, the mirror and the bit flip otherwise.  It skips
    the self-mirror blocks (a, a), whose rows reciprocity fills, and runs
    each task's first cycles on the forward light cone's window
    (`_forward_window`).
    """
    if n_qubits < 2 or n_qubits % 2 != 0:
        raise ValueError(f"n_qubits must be even and >= 2, got {n_qubits}")
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    check_memory(n_qubits, "exact")
    half = n_qubits // 2
    T = np.zeros((cycles + 1, half + 1, half + 1, half + 1))
    for a in range(half + 1):
        for b in range(half + 1):
            T[0, a, b, b] = math.comb(half, a) * math.comb(half, b)
    if cycles == 0:
        return T
    split = params.convention is PhaseConvention.SPLIT
    order = 2 if not split and cycles > half else 4
    if order == 4:
        # the bit flip commutes with `split` gates only; for cycles <= h
        # the `split` tensor is the `tail` one
        params = replace(params, convention=PhaseConvention.SPLIT)
    operators = _half_chain_operators(half, params, layer_order, 0)
    window = None
    f, spent = _forward_window(half, cycles, layer_order)
    if spent:
        window = (f, spent, _half_chain_operators(f, params, layer_order, half - f))
    tasks = [
        (a, b, columns[j0 : j0 + CHUNK_COLUMNS], weights[j0 : j0 + CHUNK_COLUMNS])
        for a in range(half + 1)
        for b in range(half + 1)
        if a != b  # reciprocity fills them below
        for columns, weights in [_orbit_columns(half, a, b, order)]
        for j0 in range(0, columns.size, CHUNK_COLUMNS)
    ]

    def run(task):
        a, b, columns, weights = task
        return _evolve_block(half, a, b, columns, weights, cycles, operators, window)

    parts = thread_map(run, tasks, threads)
    for (a, b, _, _), part in zip(tasks, parts):  # fixed order: deterministic sum
        T[1:, a, b] += part
    # mirror image: T[a, b, r] += T[b, a, s], s = a+b-r
    a, b, r = np.indices((half + 1,) * 3)
    s = a + b - r
    inside = (0 <= s) & (s <= half)
    T[1:, inside] += T[1:, b[inside], a[inside], s[inside]]
    if order > 2:
        # bit-flip image: T[a, b, r] += T[h-a, h-b, h-r]
        T[1:] = T[1:] + T[1:, ::-1, ::-1, ::-1]
    # reciprocity: T[a, b, r] = T[a+b-r, r, b], so off its diagonal the row
    # of a self-mirror block is a copy, exact zeros included; its diagonal,
    # on the initial block, is what the row's C(h, a)^2 leaves
    a, r = np.indices((half + 1,) * 2)
    s = 2 * a - r
    off = (0 <= s) & (s <= half) & (r != a)
    T[1:, a[off], a[off], r[off]] = T[1:, s[off], r[off], a[off]]
    diagonal = np.arange(half + 1)
    rest = T[1:, diagonal, diagonal].sum(axis=-1)
    T[1:, diagonal, diagonal, diagonal] = T[0, diagonal, diagonal, diagonal] - rest
    return T


def distribution_from_tensor(
    T: np.ndarray, cycles: int, ens: ImbalanceEnsemble
) -> tuple[np.ndarray, np.ndarray]:
    """Reweight a transfer tensor into P(M) at a given cycle and imbalance:
    the pair (M grid -2t, ..., 2t in steps of 2, probabilities), zero where
    |M| exceeds the chain's n.

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
    counts = np.arange(half + 1)
    w = ens.word_probability_by_counts(counts[:, None], counts)
    by_b_r = np.einsum("ab,abr->br", w, T[cycles])  # no BLAS call
    index = counts - counts[:, None] + half  # r - b + half
    mass = np.bincount(index.ravel(), by_b_r.ravel(), 2 * half + 1)
    total = mass.sum()
    if not abs(total - 1.0) <= NORM_TOL:
        raise InvariantError(f"transfer mass not normalized: {float(total)}")
    # the light cone bounds |M| <= 2t exactly: no amplitude path reaches
    # further, so any mass outside the grid is an internal error
    m_half = np.arange(-half, half + 1)
    inside = np.abs(m_half) <= cycles
    if np.any(mass[~inside]):
        i = np.flatnonzero(mass * ~inside)[0]
        raise InvariantError(
            f"mass {float(mass[i])} outside the light cone at M={2 * m_half[i]}"
        )
    probs = np.zeros(2 * cycles + 1)
    probs[cycles + m_half[inside]] = mass[inside]
    return 2 * np.arange(-cycles, cycles + 1), probs

