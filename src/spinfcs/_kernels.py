"""Low-level gate kernels for batched sector-state evolution.

Amplitude arrays are C-contiguous complex128 of shape (dim, m): one column
per evolving state.  Index tables come from `sector.SectorBasis.bond_tables`,
which caches them per bond.  A gate arrives as its complex coefficients,
built by `gates.fsim_coefficients`, so the kernel computes no cosine,
sine or exponential.
All results are deterministic.
"""

import numpy as np


def apply_fsim_tables(amps, tables, hop, phase, split_phase):
    """Apply one fSim gate, given the bond's index tables, in place.

    `amps` has shape (dim, m).  `tables` is the bond's `BondTables`: the
    (i01, i10, i11, i00) tuple plus `pairs`, the rows i01, i10, i11, i00
    and then i10, i01 again, and `order`, which puts the first dim of
    them back in place.  One gather of `pairs` gives the |01>/|10> rows
    x = [a; b], the |11> and |00> rows, and the partners y = [b; a] of x.
    With `hop` = (c, s01, s10), x becomes [c a + s01 b; c b + s10 a] in
    place (x *= c, y's halves *= s01 and s10, x += y); `phase` multiplies
    the |11> rows (and the |00> rows when split), and one gather by
    `order` writes every row back.  Each coefficient is a complex scalar,
    or an (m,) array giving each column its own gate; either way every
    amplitude sees the same elementwise arithmetic.
    """
    i01, _, i11, _ = tables
    dim, h = amps.shape[0], 2 * i01.size
    c, s01, s10 = hop
    mixed = amps.take(tables.pairs, axis=0)
    x, y = mixed[:h], mixed[dim:]
    x *= c
    y[: h // 2] *= s01
    y[h // 2 :] *= s10
    x += y
    if split_phase:
        mixed[h:dim] *= phase
    else:
        mixed[h : h + i11.size] *= phase
    # `order` holds valid rows: "clip" skips the bounds pass and its buffer
    mixed.take(tables.order, axis=0, out=amps, mode="clip")


def readout_accumulate(amps, r, acc):
    """Add each column's probability mass in `amps`, rows whose right-half
    count is r, to acc[r], float64.  `amps` is complex128 or complex64; the
    squares of complex64 parts are summed in float64.

    The sum of squares is a numpy elementwise reduction (`einsum` without
    path optimization never calls BLAS), so the result does not depend on
    the BLAS thread count.
    """
    parts = amps.view(amps.real.dtype)  # interleaved (real, imag)
    squares = np.einsum("ij,ij->j", parts, parts, dtype=np.float64)
    acc[r] += squares.reshape(amps.shape[1], 2).sum(axis=1)
