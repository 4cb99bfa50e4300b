"""fSim gate parameters and the two conditional-phase conventions.

The gate acts on the two sites of a bond.  In the ``TAIL`` convention the
conditional phase sits entirely on the doubly occupied state,

    |00> -> |00>
    |01> -> cos(theta)|01> + i sin(theta)|10>
    |10> -> i sin(theta)|01> + cos(theta)|10>
    |11> -> exp(-i phi)|11>,

while ``SPLIT`` distributes it evenly over |00> and |11> (each gets
exp(-i phi/2)).  The two differ only by single-site phase rotations, and
transferred-magnetization statistics are insensitive to the choice as long
as the cycle count stays within the light-cone-exact regime.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedAnisotropyError


class PhaseConvention(enum.Enum):
    """Where the conditional phase of the gate is placed."""

    TAIL = "tail"
    SPLIT = "split"


class LayerOrder(enum.Enum):
    """Which bond parity acts first within a cycle.

    Bonds are indexed by their left site; ``EVEN_FIRST`` applies bonds
    (0,1), (2,3), ... before (1,2), (3,4), ...  This default reproduces the
    published minimum-layer counts of the causal reachability filter.
    """

    EVEN_FIRST = "even_first"
    ODD_FIRST = "odd_first"


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    y = math.remainder(x, 2.0 * math.pi)
    if y == -math.pi:
        y = math.pi
    return y


def wrap_angles(x) -> np.ndarray:
    """`wrap_angle` of every entry of an array, bit for bit: `fmod` is
    exact, and so is the one shift by 2 pi that brings its result into
    (-pi, pi] (Sterbenz), where `remainder` ties and -pi both land on pi."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("angles must be finite")
    y = np.fmod(x, 2.0 * math.pi)
    y = np.where(y > math.pi, y - 2.0 * math.pi, y)
    return np.where(y <= -math.pi, y + 2.0 * math.pi, y)


@dataclass(frozen=True)
class FSimParams:
    """Swap angle, conditional phase, and phase-placement convention.

    Angles are stored reduced to (-pi, pi].
    """

    theta: float
    phi: float
    convention: PhaseConvention = PhaseConvention.TAIL

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))
        if not isinstance(self.convention, PhaseConvention):
            object.__setattr__(
                self, "convention", PhaseConvention(self.convention)
            )

    def anisotropy(self) -> float:
        """Anisotropy ratio sin(phi/2)/sin(theta).

        Raises:
            UndefinedAnisotropyError: if sin(theta) == 0.
        """
        s = math.sin(self.theta)
        if s == 0.0:
            raise UndefinedAnisotropyError(
                f"anisotropy undefined at theta={self.theta!r} (sin(theta)=0)"
            )
        return math.sin(self.phi / 2.0) / s


def fsim_coefficients(theta, phi, convention: PhaseConvention, twist=0.0):
    """The complex numbers `_kernels.apply_fsim_tables` multiplies by, for
    angles of any shape, elementwise: ((c, s01, s10), phase).

    c = cos(theta) scales the |01> and |10> rows.  s01 = i sin(theta)
    e^{i twist} carries the |10> amplitude into the |01> row and
    s10 = i sin(theta) e^{-i twist} the |01> amplitude into the |10> row.
    `phase` multiplies the |11> rows, e^{-i phi} (``TAIL``), or the |11>
    and |00> rows, e^{-i phi/2} (``SPLIT``).

    A twist delta = A_{b+1} - A_b makes the gate on bond b act on psi as
    the plain gate acts on D_A psi, D_A = exp(-i sum_q A_q n_q), up to D_A
    on the left: a Z rotation by A that is never applied ("virtual Z").
    With twist 0 every product the kernel forms equals the one it formed
    from cos(theta) and i sin(theta), up to the sign of a zero."""
    c = np.cos(theta) + 0j
    s = 1j * np.sin(theta)
    turn = np.exp(1j * twist)
    if convention is PhaseConvention.SPLIT:
        phase = np.exp(-1j * phi / 2.0)
    else:
        phase = np.exp(-1j * phi)
    return (c, s * turn, s * turn.conj()), phase
