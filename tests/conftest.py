"""Shared test fixtures, the dense brute-force oracle and the dense
density-matrix reference for noise.

The oracle builds full 2^n statevectors from explicit 4x4 kron products and
never touches the package's sector machinery, so it is an independent check
of the evolution engine.  The density-matrix reference evolves rho on 2^n
with the Kraus operators of amplitude damping and the readout channel, so it
checks the noise trajectories against the channel they unravel.  Breadth-
first search over the brickwork's swap moves gives the depth the causal
filter must reproduce.  Site 0 is the most significant bit, matching the
package convention.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from spinfcs import _kernels
from spinfcs.ensemble import distribution_from_tensor, transfer_tensor
from spinfcs.gates import LayerOrder, PhaseConvention, fsim_coefficients
from spinfcs.sector import SectorState, bits_to_word, brickwork_layers, sector_basis


def exact_dists(ens, config):
    """Exact P(M) of cycles 0..config.cycles, as `spinfcs run` computes it."""
    tensor = transfer_tensor(
        config.n_qubits, config.cycles, config.params, config.layer_order
    )
    return [distribution_from_tensor(tensor, t, ens) for t in range(config.cycles + 1)]


def mass_at(dist, m):
    """P(M = m) of a (values, probabilities) pair: 0 off its grid."""
    values, probs = dist
    return float(probs[values == m].sum())


def sample_initial(ens, rng):
    """Draw one initial bitstring: left sites are 1 with probability p,
    right sites are 0 with probability p, independently.  The reference for
    the rows of the sampler's `_prepare`."""
    u = rng.random(ens.n_qubits)
    return (u < ens.site_excitation_probabilities()).astype(np.int64)


def basis_state(bits):
    """|bits> of a 0/1 sequence as one state: the column of `from_words`."""
    block = SectorState.from_words([bits_to_word(bits)], len(bits))
    return SectorState(block.basis, block.amplitudes[:, 0])


@dataclass(frozen=True)
class FSimColumns:
    """One fSim gate with its own angles on each column of a state block:
    `theta` and `phi` are (m,) arrays, already reduced to (-pi, pi].
    `SectorState.apply_fsim` takes it as it takes `FSimParams`."""

    theta: np.ndarray
    phi: np.ndarray
    convention: PhaseConvention


def gate_params(layer, params, columns):
    """The gate on each bond of the `noise.LayerRealization` `layer` for
    the shots `columns`: the nominal `params`, or `FSimColumns` with each
    shot's own angles."""
    if layer.angles is None:
        return [params] * len(layer.bonds)
    theta, phi = (angles[:, columns] for angles in layer.angles)
    return [FSimColumns(*pair, params.convention) for pair in zip(theta, phi)]


def mirrored_half_chain_operators(half, params, layer_order, first_site):
    """The block engine's operators as two sets, (W_L, W_R, (c, s)): the
    reference for its one set W.  W_L runs the left half's own layers from
    site 0, each bond b mirrored to half - 2 - b; W_R runs the right half's
    from site `half`; an odd `first_site` swaps the layer order of both."""
    if first_site % 2:
        layer_order = next(order for order in LayerOrder if order is not layer_order)
    theta, phi = params.theta, params.phi
    split = params.convention is PhaseConvention.SPLIT
    boundary_phase = 1.0 if split else complex(np.exp(-0.5j * phi))
    hop, gate_phase = fsim_coefficients(theta, phi, params.convention)

    def operators(layers):
        ops = []
        for c in range(half + 1):
            basis = sector_basis(half, c)
            w = np.eye(basis.dimension, dtype=np.complex128)
            for layer in layers:
                for bond in layer:
                    tables = basis.bond_tables(bond)
                    _kernels.apply_fsim_tables(w, tables, hop, gate_phase, split)
            w[:, math.comb(half - 1, c) :] *= boundary_phase
            ops.append(w)
        return ops

    left_layers = brickwork_layers(half, 0, layer_order)
    left = operators([[half - 2 - b for b in layer] for layer in left_layers])
    right = operators(brickwork_layers(half, half, layer_order))
    phase = complex(np.exp(0.5j * phi))
    return left, right, (phase * math.cos(theta), phase * 1j * math.sin(theta))


def dense_fsim(theta, phi, convention="tail"):
    c, s = np.cos(theta), np.sin(theta)
    u = np.array(
        [
            [1, 0, 0, 0],
            [0, c, 1j * s, 0],
            [0, 1j * s, c, 0],
            [0, 0, 0, np.exp(-1j * phi)],
        ],
        dtype=complex,
    )
    if convention == "split":
        u[0, 0] = np.exp(-1j * phi / 2)
        u[3, 3] = np.exp(-1j * phi / 2)
    return u


def dense_gate_on_bond(n, bond, u4):
    return np.kron(
        np.kron(np.eye(2**bond), u4), np.eye(2 ** (n - bond - 2))
    )


def dense_cycle(n, theta, phi, convention="tail", order="even_first"):
    u4 = dense_fsim(theta, phi, convention)
    even = [b for b in range(n - 1) if b % 2 == 0]
    odd = [b for b in range(n - 1) if b % 2 == 1]
    layers = [even, odd] if order == "even_first" else [odd, even]
    u = np.eye(2**n, dtype=complex)
    for layer in layers:
        for bond in layer:
            u = dense_gate_on_bond(n, bond, u4) @ u
    return u


def dense_word_probability(word, n, mu):
    p = 1.0 if math.isinf(mu) else math.exp(mu) / (math.exp(mu) + math.exp(-mu))
    prob = 1.0
    for site in range(n):
        bit = (word >> (n - 1 - site)) & 1
        if site < n // 2:
            prob *= p if bit else 1.0 - p
        else:
            prob *= 1.0 - p if bit else p
    return prob


def dense_right_ones(word, n):
    return ((word & ((1 << (n // 2)) - 1)).bit_count())


def dense_exact_pm(n, t, theta, phi, mu, convention="tail", order="even_first"):
    """P(M) dict from the dense simulator with ensemble weighting."""
    u = dense_cycle(n, theta, phi, convention, order)
    ut = np.linalg.matrix_power(u, t)
    probs = np.abs(ut) ** 2  # [final, initial]
    nr = np.array([dense_right_ones(w, n) for w in range(2**n)])
    pm = {}
    for wi in range(2**n):
        weight = dense_word_probability(wi, n, mu)
        if weight == 0.0:
            continue
        for wf in range(2**n):
            pr = probs[wf, wi]
            if pr == 0.0:
                continue
            m = 2 * (nr[wf] - nr[wi])
            pm[m] = pm.get(m, 0.0) + weight * pr
    return pm


def dense_damping(rho, n, p_decay):
    """Amplitude damping of a 2^n density matrix on every qubit, through the
    Kraus pair K0 = diag(1, sqrt(1 - p)), K1 = sqrt(p) |0><1|."""
    kraus = [
        np.diag([1.0, math.sqrt(1.0 - p_decay)]),
        np.array([[0.0, math.sqrt(p_decay)], [0.0, 0.0]]),
    ]
    for site in range(n):
        left, right = np.eye(2**site), np.eye(2 ** (n - site - 1))
        ks = [np.kron(np.kron(left, k), right) for k in kraus]
        rho = sum(k @ rho @ k.conj().T for k in ks)
    return rho


def dense_noisy_measured_probabilities(word, n, t, theta, phi, p_decay, e0, e1):
    """Probability of every measured n-site word, index = word, after t
    noisy even-first brickwork cycles from the basis state |word>.

    The density matrix is evolved half-layer by half-layer: the layer's
    gates, then amplitude damping on every qubit.  Readout is the classical
    channel that flips a true 0 to 1 with probability e0 and a true 1 to 0
    with probability e1, independently per qubit.
    """
    u4 = dense_fsim(theta, phi)
    even = list(range(0, n - 1, 2))
    odd = list(range(1, n - 1, 2))
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[word, word] = 1.0
    for layer in [even, odd] * t:
        for bond in layer:
            g = dense_gate_on_bond(n, bond, u4)
            rho = g @ rho @ g.conj().T
        rho = dense_damping(rho, n, p_decay)
    flip = np.array([[1.0 - e0, e1], [e0, 1.0 - e1]])  # [measured, true]
    readout = np.ones((1, 1))
    for _ in range(n):
        readout = np.kron(readout, flip)
    return readout @ np.real(np.diag(rho))


def layer_successors(word, bonds):
    """All words reachable from `word` by one layer of optional swaps."""
    swappable = [b for b in bonds if word[b] != word[b + 1]]
    out = set()
    for mask in range(1 << len(swappable)):
        w = list(word)
        for i, b in enumerate(swappable):
            if (mask >> i) & 1:
                w[b], w[b + 1] = w[b + 1], w[b]
        out.add(tuple(w))
    return out


def bfs_depths(word, n, first_parity):
    """Half-layers after which each word is first reachable from `word`, by
    breadth-first search over the brickwork reachability graph."""
    word = tuple(word)
    depths = {word: 0}
    fresh, previous = {word}, set()
    layer = 0
    while fresh or previous:
        bonds = list(range((first_parity + layer) % 2, n - 1, 2))
        layer += 1
        # only the words new at the last two half-layers can move further:
        # the start word has not met a half-layer yet, and every older word
        # made its moves of this parity two half-layers ago
        reached = set().union(*(layer_successors(w, bonds) for w in fresh | previous))
        fresh, previous = reached - depths.keys(), fresh
        depths.update(dict.fromkeys(fresh, layer))
    return depths


def chi_square_p_value(observed, expected):
    """Pearson chi-square p-value of counts against expected counts; bins
    with an expected count under 5 are pooled into one bin, and bins the
    reference gives no mass must be empty."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert not observed[expected == 0].any(), "counts where the reference has none"
    observed, expected = observed[expected > 0], expected[expected > 0]
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return stats.chisquare(observed, expected).pvalue


def dense_moments(pm):
    values = np.array(sorted(pm))
    probs = np.array([pm[v] for v in values])
    mean = float(np.sum(probs * values))
    central = [float(np.sum(probs * (values - mean) ** k)) for k in (2, 3, 4)]
    var = central[0]
    skew = central[1] / var**1.5 if var > 0 else math.nan
    kurt = central[2] / var**2 - 3 if var > 0 else math.nan
    return mean, var, skew, kurt


@pytest.fixture(scope="session")
def heisenberg_angles():
    """The isotropic working point (anisotropy exactly 1)."""
    return 0.4 * np.pi, 0.8 * np.pi


# Frozen kurtosis of the mu=0 ensemble at angles (0.4pi, 0.8pi) per cycle;
# the t <= 4 rows are re-derived independently by the dense oracle in-suite.
REFERENCE_KURTOSIS = {
    1: -0.7888543819998315,
    2: -0.3236513411118609,
    3: -0.19032877952363814,
    4: -0.13634880999637522,
    5: -0.11064712866845028,
    6: -0.0964617033065931,
    7: -0.08726032489412416,
    8: -0.08047534387997635,
}
