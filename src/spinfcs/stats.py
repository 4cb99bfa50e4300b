"""Moment statistics, resampling uncertainties, and scaling diagnostics."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightError


def central_moments(data, k_max: int = 4) -> np.ndarray:
    """[1, mean, alpha_2, ..., alpha_k_max] of a P(M) pair (values,
    probabilities), in the last axis: the grid of M values must be symmetric
    about zero, and the probabilities may be a stack of histograms along
    their last axis (one row each).

    The mean m folds the +-M pairs, p(d)*d - p(-d)*d, and each central
    moment sums around it, alpha_k = p(0)*(-m)^k + sum_d [p(d)*(d-m)^k +
    p(-d)*(-d-m)^k] over d = max..1, each pair added as one term and each
    power a chain of products.  Every step is elementwise, so each row of a
    stack gets the bits of its own call; a symmetric mass has a mean and
    odd moments of exactly 0; alpha_2 and alpha_4 are sums of non-negative
    terms, never negative.

    Raises:
        ValueError: if the grid is not symmetric about zero or has no 0.
    """
    values = np.asarray(data[0], dtype=float)
    probs = np.asarray(data[1], dtype=float)
    if not np.array_equal(values, -values[::-1]) or values.size % 2 == 0:
        raise ValueError("grid must be symmetric about zero and hold 0")
    half = len(values) // 2
    pairs = [
        (values[half + d], probs[..., half + d], probs[..., half - d])
        for d in range(half, 0, -1)
    ]
    mean = probs[..., half] * 0.0
    for v, up, down in pairs:
        mean += up * v - down * v
    moments = [np.ones_like(mean), mean]
    # running powers of the deviations from the mean at 0 and at each +-d
    devs = [(v - mean, -v - mean) for v, _, _ in pairs]
    pow0, pows = -mean, devs
    for _ in range(2, k_max + 1):
        pow0 = pow0 * -mean
        pows = [(pu * du, pd * dd) for (pu, pd), (du, dd) in zip(pows, devs)]
        acc = probs[..., half] * pow0
        for (pu, pd), (_, up, down) in zip(pows, pairs):
            acc = acc + (up * pu + down * pd)
        moments.append(acc)
    return np.stack(moments[: k_max + 1], axis=-1)


def moment_row(data) -> np.ndarray:
    """[mean, variance, skewness, excess kurtosis] of a P(M) pair (values,
    probabilities), as a report row: skewness and kurtosis are NaN when the
    variance is not positive.  A stack of histograms gives one row each."""
    alpha = central_moments(data, 4)
    var = alpha[..., 2]
    defined = var > 0.0
    scale = np.where(defined, var, 1.0)
    skew = np.where(defined, alpha[..., 3] / (scale * np.sqrt(scale)), math.nan)
    kurt = np.where(defined, alpha[..., 4] / (scale * scale) - 3.0, math.nan)
    return np.stack([alpha[..., 1], var, skew, kurt], axis=-1)


def _columns(name: str, i: int):
    return property(lambda self: getattr(self, name)[:, i])


@dataclass
class MomentReport:
    """Per-cycle transfer moments with jackknife uncertainties.

    `rows[i]` is the `moment_row` of cycle `cycles[i]` and `sigmas[i]` its
    uncertainties; without sigmas (exact mode) they are zero.
    """

    cycles: np.ndarray
    rows: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        self.cycles = np.asarray(self.cycles, dtype=np.int64)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, 4)
        if self.sigmas is None:
            self.sigmas = np.zeros_like(self.rows)
        self.sigmas = np.asarray(self.sigmas, dtype=float).reshape(-1, 4)

    mean = _columns("rows", 0)
    variance = _columns("rows", 1)
    skewness = _columns("rows", 2)
    kurtosis = _columns("rows", 3)
    sigma_mean = _columns("sigmas", 0)
    sigma_variance = _columns("sigmas", 1)
    sigma_skewness = _columns("sigmas", 2)
    sigma_kurtosis = _columns("sigmas", 3)


@dataclass
class JackknifeResult:
    sigma: float | np.ndarray
    bias: float | np.ndarray
    estimates: np.ndarray = field(repr=False)


def jackknife_sigma(statistic, states) -> JackknifeResult:
    """Delete-one jackknife uncertainty of `statistic` over `states`.

    `statistic` maps a list of states to a float or to a 1-D array; it is
    re-evaluated with each state removed, and the estimates are reduced by
    `jackknife_from_estimates`.
    """
    states = list(states)
    n = len(states)
    if n < 2:
        raise ValueError("jackknife requires at least 2 states")
    estimates = np.array(
        [statistic(states[:i] + states[i + 1 :]) for i in range(n)]
    )
    return jackknife_from_estimates(estimates, statistic(states))


def jackknife_from_estimates(estimates, full) -> JackknifeResult:
    """Jackknife uncertainty from the delete-one estimates (one per deleted
    state, in rows) and the full-sample value `full`.

    Returns sigma = sqrt((N-1)/N * sum_i (theta_(i) - theta_(.))^2) together
    with the bias estimate (N-1)(theta_(.) - theta_full), per component for
    array estimates (each component bit-identical to a scalar call on it)
    and as floats for scalar ones.
    """
    estimates = np.asarray(estimates, dtype=float)
    n = len(estimates)
    # one contiguous row per component: each reduces like a scalar series
    per_component = np.ascontiguousarray(estimates.reshape(n, -1).T)
    center = per_component.mean(axis=1)
    spread = np.sum((per_component - center[:, None]) ** 2, axis=1)
    sigma = np.sqrt((n - 1) / n * spread)
    bias = (n - 1) * (center - np.ravel(full))
    if estimates.ndim == 1:
        return JackknifeResult(float(sigma[0]), float(bias[0]), estimates)
    return JackknifeResult(sigma, bias, estimates)


def weighted_cycle_average(values, sigmas) -> tuple[float, float]:
    """Inverse-variance weighted average and its uncertainty 1/sqrt(sum w).

    Infinite sigmas receive zero weight; zero or negative sigmas are
    rejected.
    """
    values = np.asarray(values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if values.shape != sigmas.shape or values.ndim != 1 or values.size == 0:
        raise ValueError("values and sigmas must be equal-length 1-D arrays")
    if np.any(sigmas <= 0.0):
        raise DegenerateWeightError("all sigmas must be positive")
    w = 1.0 / sigmas**2
    total = w.sum()
    if total == 0.0:
        raise DegenerateWeightError("all weights vanished (infinite sigmas)")
    avg = float(np.sum(w * np.where(w > 0, values, 0.0)) / total)
    return avg, float(1.0 / math.sqrt(total))


@dataclass(frozen=True)
class ExponentFit:
    """Power-law fit value ~ t^(1/z) over a cycle window."""

    z: float
    sigma_z: float
    t_min: int
    t_max: int
    n_points: int


def fit_dynamical_exponent(
    cycles,
    values,
    sigmas=None,
    window: tuple[int, int] = (10, None),
) -> ExponentFit:
    """Fit value ~ t^(1/z) by (weighted) least squares on log-log axes.

    `sigmas`, when given, weight each point by its propagated log-space
    uncertainty sigma/value and sigma_z comes from the weighted-fit
    covariance; otherwise the fit is unweighted and sigma_z comes from the
    residual variance.  Multiplying all values by a positive constant leaves
    z unchanged exactly.
    """
    cycles = np.asarray(cycles, dtype=float)
    values = np.asarray(values, dtype=float)
    t_lo = window[0]
    t_hi = window[1] if window[1] is not None else cycles.max()
    mask = (cycles >= t_lo) & (cycles <= t_hi)
    if mask.sum() < 3:
        raise ValueError(
            f"need >= 3 points in window [{t_lo}, {t_hi}], have {int(mask.sum())}"
        )
    t = cycles[mask]
    v = values[mask]
    if np.any(v <= 0.0):
        raise ValueError("power-law fit requires positive values in window")
    x = np.log(t)
    y = np.log(v)
    if sigmas is not None:
        s = np.asarray(sigmas, dtype=float)[mask]
        if np.any(s <= 0.0):
            raise DegenerateWeightError("sigmas must be positive for weighting")
        w = (v / s) ** 2  # sigma of log(v) is s/v
    else:
        w = np.ones_like(y)
    sw = w.sum()
    xm = np.sum(w * x) / sw
    ym = np.sum(w * y) / sw
    sxx = np.sum(w * (x - xm) ** 2)
    slope = np.sum(w * (x - xm) * (y - ym)) / sxx
    if slope <= 0.0:
        raise ValueError(f"fitted slope {float(slope)} is not positive")
    if sigmas is not None:
        var_slope = 1.0 / sxx
    else:
        resid = y - ym - slope * (x - xm)
        dof = max(len(y) - 2, 1)
        var_slope = float(np.sum(resid**2) / dof / sxx)
    z = 1.0 / slope
    sigma_z = math.sqrt(var_slope) / slope**2
    return ExponentFit(
        z=float(z),
        sigma_z=float(sigma_z),
        t_min=int(t.min()),
        t_max=int(t.max()),
        n_points=int(mask.sum()),
    )


def _distinct(ascending):
    """The distinct values of an ascending array, as `np.unique` gives them;
    `np.unique` itself imports `numpy.ma` to look for a mask."""
    rises = ascending[1:] != ascending[:-1]
    return np.concatenate((ascending[:1], ascending[1:][rises]))


def _monotone_pl_residual(x, y, n_knots):
    """Normalized SSR of the best monotone piecewise-linear fit y(x)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n_knots = min(n_knots, xs.size)  # more knots than points repeat ranks
    idx = _distinct(np.round(np.linspace(0, xs.size - 1, n_knots)).astype(int))
    knots = _distinct(xs[idx])
    n_k = knots.size
    if n_k < 2 or np.ptp(ys) == 0.0:
        return 0.0
    target = ys - ys.mean()
    target -= target.mean()  # a second pass removes the rounding of the first
    tss = float(target @ target)  # the SSR of the best constant
    seg = np.clip(np.searchsorted(knots, xs, side="right") - 1, 0, n_k - 2)
    width = knots[seg + 1] - knots[seg]
    frac = np.where(width > 0, (xs - knots[seg]) / np.where(width > 0, width, 1.0), 0.0)
    hats = np.zeros((xs.size, n_k))
    rows = np.arange(xs.size)
    hats[rows, seg] = 1.0 - frac
    hats[rows, seg + 1] += frac
    # knot values v = v0 + cumulative nonnegative increments -> monotone; the
    # free offset v0 is the mean, so centring leaves an NNLS in the increments
    design = hats @ np.tril(np.ones((n_k, n_k)), -1)[:, :-1]
    design -= design.mean(axis=0)
    best = np.inf
    for sign in (1.0, -1.0):  # try increasing and decreasing references
        steps = _nnls(design, sign * target)
        best = min(best, float(np.sum((design @ steps - sign * target) ** 2)))
    return best / tss


def _nnls(a, b):
    """argmin ||a x - b|| over x >= 0, by the Lawson-Hanson active-set method
    (Solving Least Squares Problems, 1974, ch. 23).

    A variable enters while its gradient component exceeds a tolerance that
    scales with ||a|| and ||b||, so a nearly constant target (b ~ 0) still
    gets its fit."""
    m, n = a.shape
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    tol = 10.0 * np.finfo(float).eps * max(m, n) * scale
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)  # the passive set: unconstrained variables
    for _ in range(3 * n):  # a bound against cycling on rounding
        grad = a.T @ (b - a @ x)
        if free.all() or grad[~free].max() <= tol:
            break
        free[np.flatnonzero(~free)[np.argmax(grad[~free])]] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if np.all(z[free] > 0.0):
                x = z
                break
            # step from x toward z until the first free variable reaches 0,
            # and bind it (x >= 0 >= z on `hit`, so the ratios lie in [0, 1])
            hit = np.flatnonzero(free & (z <= 0.0))
            ratio = x[hit] / np.maximum(x[hit] - z[hit], np.finfo(float).tiny)
            x = x + ratio.min() * (z - x)
            x[hit[np.argmin(ratio)]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
    return x


def collapse_residual(
    series,
    gamma: float,
    *,
    t_min: int = 8,
    n_knots: int = 12,
) -> float:
    """Quality of a mu * t^gamma data collapse (smaller is better).

    `series` is an iterable of (mu, cycles_array, values_array) triples from
    at least two distinct imbalances.  Points with t < t_min are excluded,
    everything is pooled and sorted by x = mu * t^gamma, and a monotone
    piecewise-linear reference with `n_knots` knots placed uniformly in rank
    of x is fit; the result is the sum of squared residuals normalized by
    the pooled variance.  Only the location of the minimum over gamma is
    meaningful, not its value.  A non-finite value among the kept points
    (the NaN skewness of a zero variance) is refused with its mu and cycle.
    """
    xs = []
    ys = []
    mus = set()
    for mu, cycles, values in series:
        cycles = np.asarray(cycles, dtype=float)
        values = np.asarray(values, dtype=float)
        mask = cycles >= t_min
        bad = mask & ~np.isfinite(values)
        if bad.any():
            i = np.argmax(bad)
            raise ValueError(
                f"collapse value {float(values[i])!r} of mu {float(mu)!r} at cycle "
                f"{cycles[i]:g} is not finite"
            )
        if mask.any():
            mus.add(float(mu))
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                xs.append(mu * cycles[mask] ** gamma)
            ys.append(values[mask])
    if len(mus) < 2:
        raise ValueError("collapse needs >= 2 distinct mu series after the cut")
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    if x.size < 3:
        raise ValueError("not enough points for a collapse residual")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"gamma {float(gamma)!r} makes mu * t^gamma non-finite")
    return _monotone_pl_residual(x, y, n_knots)


def collapse_scan(
    series,
    gammas,
    *,
    t_min: int = 8,
    n_knots: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse residual on a gamma grid; returns (gammas, residuals)."""
    gammas = np.asarray(gammas, dtype=float)
    res = np.array(
        [collapse_residual(series, g, t_min=t_min, n_knots=n_knots) for g in gammas]
    )
    return gammas, res
