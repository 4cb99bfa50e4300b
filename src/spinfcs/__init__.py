"""Transfer statistics of brickwork fSim spin chains.

Exact and sampled full-counting statistics of the magnetization carried
across the center of a number-conserving Floquet circuit, with noise
modeling, post-selection, and universality-class diagnostics.
"""

__version__ = "0.1.0"

from .circuit import ChainConfig, anisotropy
from .ensemble import (
    ImbalanceEnsemble,
    TransferDistribution,
    exact_distribution,
    exact_distributions,
    lightcone_reduce,
    pure_domain_wall_distribution,
    transfer_tensor,
    distribution_from_tensor,
    transferred_magnetization,
)
from .gates import FSimParams, LayerOrder, PhaseConvention
from .noise import (
    NoiseConfig,
    causal_min_half_layers,
    disorder_and_dephasing,
    postselect,
    readout_flip,
)
from .sampler import (
    SampleConfig,
    SampledRun,
    estimate_powers,
    moment_report,
    relabel_if_overfull,
    run_sampled,
    sample_initial,
)
from .sector import SectorBasis, SectorState, sector_basis
from .stats import (
    ExponentFit,
    MomentReport,
    central_moments,
    collapse_residual,
    collapse_scan,
    distribution_moments,
    fit_dynamical_exponent,
    jackknife_sigma,
    skew_kurt,
    symmetrize,
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
    "TransferDistribution",
    "anisotropy",
    "causal_min_half_layers",
    "central_moments",
    "collapse_residual",
    "collapse_scan",
    "disorder_and_dephasing",
    "distribution_from_tensor",
    "distribution_moments",
    "estimate_powers",
    "exact_distribution",
    "exact_distributions",
    "fit_dynamical_exponent",
    "jackknife_sigma",
    "lightcone_reduce",
    "moment_report",
    "postselect",
    "pure_domain_wall_distribution",
    "readout_flip",
    "relabel_if_overfull",
    "run_sampled",
    "sample_initial",
    "sector_basis",
    "skew_kurt",
    "symmetrize",
    "transfer_tensor",
    "transferred_magnetization",
    "weighted_cycle_average",
]
