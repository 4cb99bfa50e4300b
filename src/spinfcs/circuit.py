"""Chain-level configuration: chain length, cycle count, gate and layer order."""

from dataclasses import dataclass

from .gates import FSimParams, LayerOrder


@dataclass(frozen=True)
class ChainConfig:
    """An even-length chain evolved for a number of brickwork cycles.

    Center-cut transfer statistics depend only on the sites of `window`,
    the light cone of the center cut.
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
    def window(self) -> tuple[int, int]:
        """Sites lo..hi-1 of the light cone of the center cut: the
        min(n_qubits, 2*cycles) sites centered on it.  A chain shorter than
        its light cone is its own window."""
        width = min(self.n_qubits, 2 * self.cycles)
        lo = self.n_qubits // 2 - width // 2
        return lo, lo + width
