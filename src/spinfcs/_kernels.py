"""Low-level gate kernels for batched sector-state evolution.

Amplitude arrays are C-contiguous complex128 of shape (dim, m): one column
per evolving state.  Index tables come from `sector.SectorBasis.bond_tables`.
All results are deterministic.
"""

import numpy as np


def apply_fsim_tables(amps, tables, theta, phi, split_phase):
    """Apply one fSim gate, given the bond's index tables, in place.

    `amps` has shape (dim, m).  `tables` is the (i01, i10, i11, i00) tuple.
    `theta` and `phi` are scalars, or (m,) arrays giving each column its own
    gate; either way every amplitude sees the same elementwise arithmetic.
    """
    i01, i10, i11, i00 = tables
    c = np.cos(theta)
    js = 1j * np.sin(theta)
    a = amps[i01]
    b = amps[i10]
    amps[i01] = c * a + js * b
    amps[i10] = js * a + c * b
    if split_phase:
        half = np.exp(-1j * phi / 2.0)
        amps[i00] *= half
        amps[i11] *= half
    else:
        amps[i11] *= np.exp(-1j * phi)


def readout_accumulate(amps, r_of, acc):
    """Add each column's probability mass per right-half count r to acc[r].

    `r_of` is the right count of each row of `amps`.  Adjacent rows of one
    count are summed as a slice, so a block-ordered layout needs no gather.
    The sums of squares are numpy elementwise reductions (`einsum` without
    path optimization never calls BLAS), so the result does not depend on
    the BLAS thread count.
    """
    m = amps.shape[1]
    edges = np.flatnonzero(np.diff(r_of)) + 1
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, r_of.size]):
        parts = amps[lo:hi].view(np.float64)  # interleaved (real, imag)
        squares = np.einsum("ij,ij->j", parts, parts)
        acc[r_of[lo]] += squares.reshape(m, 2).sum(axis=1)
