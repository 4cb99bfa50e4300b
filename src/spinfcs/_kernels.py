"""Low-level gate kernels for batched sector-state evolution.

Amplitude arrays are C-contiguous complex128 of shape (dim, m): one column
per evolving state.  Index tables come from `sector.SectorBasis.bond_tables`.
All results are deterministic.
"""

import numpy as np


def apply_fsim_tables(amps, tables, theta, phi, split_phase):
    """Apply one fSim gate, given the bond's index tables, in place.

    `amps` has shape (dim, m).  `tables` is the (i01, i10, i11, i00) tuple.
    """
    i01, i10, i11, i00 = tables
    c = np.cos(theta)
    js = 1j * np.sin(theta)
    a = amps[i01]
    b = amps[i10]
    amps[i01] = c * a + js * b
    amps[i10] = js * a + c * b
    if split_phase:
        half = complex(np.exp(-1j * phi / 2.0))
        amps[i00] *= half
        amps[i11] *= half
    else:
        amps[i11] *= complex(np.exp(-1j * phi))


def readout_accumulate(amps, r_of, acc):
    """Add each column's probability mass per right-half count r to acc[r]."""
    probs = amps.real**2 + amps.imag**2
    for r in range(acc.shape[0]):
        rows = np.flatnonzero(r_of == r)
        if rows.size:
            acc[r] += probs[rows].sum(axis=0)
