"""Closed-form early-cycle moments and universality-class reference values.

The one-cycle results are exact: after a single cycle only the two central
sites matter, so the transfer distribution is the three-point law
P(+2) = p^2 sin^2(theta), P(-2) = (1-p)^2 sin^2(theta) with
p = e^mu/(e^mu + e^-mu).  The two-cycle expressions are leading-order in
the imbalance.  Comparison rows carry the asymptotic skewness/kurtosis of
the candidate universality classes; they are fixed constants, never
computed here.
"""

import math
from dataclasses import dataclass

from .errors import UndefinedMomentsError


def _tanh_mu(mu: float) -> float:
    return 1.0 if math.isinf(mu) else math.tanh(mu)


def _exp_ratio(mu: float) -> float:
    """(e^{4 mu} + 1) / (e^{2 mu} + 1)^2, evaluated without overflow."""
    if math.isinf(mu):
        return 1.0
    a = math.exp(-2.0 * abs(mu))
    return (1.0 + a * a) / (1.0 + a) ** 2


def cycle1_moments(theta: float, mu: float) -> tuple[float, float, float, float]:
    """(mean, variance, skewness, excess kurtosis) after one cycle.

    Mean, variance, and skewness follow the closed forms; the kurtosis is
    evaluated from the exact three-point distribution (its closed form is
    only a small-imbalance expansion).

    Raises:
        UndefinedMomentsError: for skewness/kurtosis at sin(theta) = 0.
    """
    s2 = math.sin(theta) ** 2
    tm = _tanh_mu(mu)
    mean = 2.0 * s2 * tm
    var = 2.0 * s2 * (1.0 + math.cos(2.0 * theta) * tm**2)
    if s2 == 0.0:
        raise UndefinedMomentsError("skewness/kurtosis undefined at theta=0")
    num = (2.0 * s2**2 * tm**2 + 1.0) - 3.0 * s2 * _exp_ratio(mu)
    den = (1.0 + math.cos(2.0 * theta) * tm**2) ** 1.5 * math.sin(theta)
    skew = 2.0 * math.sqrt(2.0) * tm * num / den

    # exact kurtosis from the three-point law
    p = 0.5 * (1.0 + tm)
    q = 1.0 - p
    m1 = mean
    a2, a3, a4 = 0.0, 0.0, 0.0
    for value, mass in ((2.0, p * p * s2), (-2.0, q * q * s2),
                        (0.0, 1.0 - s2 * (p * p + q * q))):
        d = value - m1
        a2 += mass * d * d
        a3 += mass * d**3
        a4 += mass * d**4
    kurt = a4 / a2**2 - 3.0
    return mean, var, skew, kurt


def cycle2_small_mu(theta: float, phi: float, mu: float) -> tuple[float, float]:
    """Leading-order (mean, variance) after two cycles.

    The mean is exact to O(mu^3), the variance to O(mu^2); at mu = 0 the
    variance expression is exact.
    """
    s2 = math.sin(theta) ** 2
    c4 = math.cos(theta) ** 4
    cp = math.cos(phi)
    mean = 2.0 * mu * s2 * (c4 * (3.0 + cp) + 2.0 * s2)
    var = s2**2 * (1.0 - cp) + (3.0 + cp) / 8.0 * (
        7.0 * s2 + math.sin(3.0 * theta) ** 2
    )
    return mean, var


@dataclass(frozen=True)
class KpzReference:
    """Asymptotic skewness/kurtosis of one candidate universality class.

    `kurtosis` is either a float or a (low, high) interval.
    """

    name: str
    skewness: float
    kurtosis: float | tuple[float, float]


REFERENCE_DISTRIBUTIONS = (
    KpzReference("GOE_TW", 0.294, 0.165),
    KpzReference("BaikRains", 0.359, 0.289),
    KpzReference("GUE_TW", 0.224, 0.093),
    KpzReference("NLFH", 0.0, 0.14),
    KpzReference("CLL", 0.0, (-0.03, 0.03)),
)


@dataclass(frozen=True)
class ComparisonRow:
    """z-scores of a measured (skewness, kurtosis) pair against one class.

    For an interval reference the z-score is the distance to the nearest
    endpoint (zero inside the interval).
    """

    name: str
    reference_skewness: float
    reference_kurtosis: float | tuple[float, float]
    z_skewness: float
    z_kurtosis: float


def _z_score(measured: float, sigma: float, reference) -> float:
    if isinstance(reference, tuple):
        lo, hi = reference
        if lo <= measured <= hi:
            return 0.0
        edge = lo if measured < lo else hi
        return (measured - edge) / sigma
    return (measured - reference) / sigma


def compare_to_references(
    skewness: float,
    kurtosis: float,
    sigma_skewness: float,
    sigma_kurtosis: float,
) -> list[ComparisonRow]:
    """z-scores of measured moments against every reference class."""
    if not (sigma_skewness > 0.0 and sigma_kurtosis > 0.0):
        raise ValueError("comparison requires positive uncertainties")
    rows = []
    for ref in REFERENCE_DISTRIBUTIONS:
        rows.append(
            ComparisonRow(
                name=ref.name,
                reference_skewness=ref.skewness,
                reference_kurtosis=ref.kurtosis,
                z_skewness=_z_score(skewness, sigma_skewness, ref.skewness),
                z_kurtosis=_z_score(kurtosis, sigma_kurtosis, ref.kurtosis),
            )
        )
    return rows
