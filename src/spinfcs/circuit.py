"""Chain-level configuration: chain length, cycle count, gate and layer order."""

from dataclasses import dataclass

from .errors import UnderResolvedError
from .gates import FSimParams, LayerOrder


@dataclass(frozen=True)
class ChainConfig:
    """An even-length chain evolved for a number of brickwork cycles.

    Center-cut transfer statistics are exact (length-independent) whenever
    n_qubits >= 2*cycles, the light-cone width.
    """

    n_qubits: int
    cycles: int
    params: FSimParams
    layer_order: LayerOrder = LayerOrder.EVEN_FIRST

    def __post_init__(self):
        if self.n_qubits < 2 or self.n_qubits % 2 != 0:
            raise ValueError(
                f"n_qubits must be even and >= 2, got {self.n_qubits}"
            )
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles}")

    @property
    def lightcone_width(self) -> int:
        return 2 * self.cycles

    def require_exact(self) -> None:
        """Raise unless the chain covers the light cone of the center cut."""
        if self.n_qubits < self.lightcone_width:
            raise UnderResolvedError(
                f"{self.n_qubits} qubits cannot resolve {self.cycles} cycles "
                f"exactly (need >= {self.lightcone_width})"
            )
