"""Transfer statistics of brickwork fSim spin chains.

Exact and sampled full-counting statistics of the magnetization carried
across the center of a number-conserving Floquet circuit, with noise
modeling, post-selection, and universality-class diagnostics.
"""

__version__ = "0.1.0"

from .circuit import ChainConfig
from .ensemble import (
    ImbalanceEnsemble,
    lightcone_reduce,
    transfer_tensor,
    distribution_from_tensor,
)
from .gates import FSimParams, LayerOrder, PhaseConvention
from .noise import (
    NoiseConfig,
    causal_min_half_layers,
    disorder_and_dephasing,
    disorder_draws,
    postselect,
    readout_flip,
)
from .sampler import (
    SampleConfig,
    SampledRun,
    moment_report,
    relabel_if_overfull,
    run_sampled,
)
from .sector import SectorBasis, SectorState, sector_basis
from .stats import (
    ExponentFit,
    MomentReport,
    central_moments,
    collapse_residual,
    collapse_scan,
    fit_dynamical_exponent,
    jackknife_sigma,
    weighted_cycle_average,
)

__all__ = [
    "ChainConfig",
    "ExponentFit",
    "FSimParams",
    "ImbalanceEnsemble",
    "LayerOrder",
    "MomentReport",
    "NoiseConfig",
    "PhaseConvention",
    "SampleConfig",
    "SampledRun",
    "SectorBasis",
    "SectorState",
    "causal_min_half_layers",
    "central_moments",
    "collapse_residual",
    "collapse_scan",
    "disorder_and_dephasing",
    "disorder_draws",
    "distribution_from_tensor",
    "fit_dynamical_exponent",
    "jackknife_sigma",
    "lightcone_reduce",
    "moment_report",
    "postselect",
    "readout_flip",
    "relabel_if_overfull",
    "run_sampled",
    "sector_basis",
    "transfer_tensor",
    "weighted_cycle_average",
]
