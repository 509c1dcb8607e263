"""Dephasing dynamics of a single qutrit driven by Gaussian classical noise.

Analytic closed forms for the phase variance budget, the averaged density
matrix, purity and von Neumann entropy, cross-validated by an independent
Monte-Carlo trajectory oracle.  See the ``sim`` CLI for sweeps and figure
reproduction.
"""

from .dynamics import (
    SystemParams,
    evolve_averaged,
    evolve_noiseless,
    fluctuation_series,
    fourier_components,
    initial_state,
    propagator,
    spin1_operators,
)
from .metrics import (
    ENTROPY_SATURATION,
    PURITY_SATURATION,
    purity,
    purity_closed,
    vn_entropy,
    vn_entropy_closed,
)
from .montecarlo import (
    CovarianceError,
    OracleReport,
    TrajectoryEnsemble,
    mc_average_state,
    phase_of,
    sample_trajectories,
)
from .noise import (
    NoiseSpec,
    autocorrelation,
    beta_closed,
    beta_quadrature,
    dephasing_factor,
)

__all__ = [
    "NoiseSpec",
    "autocorrelation",
    "beta_closed",
    "beta_quadrature",
    "dephasing_factor",
    "SystemParams",
    "spin1_operators",
    "propagator",
    "initial_state",
    "evolve_noiseless",
    "evolve_averaged",
    "fourier_components",
    "fluctuation_series",
    "purity",
    "purity_closed",
    "vn_entropy",
    "vn_entropy_closed",
    "PURITY_SATURATION",
    "ENTROPY_SATURATION",
    "TrajectoryEnsemble",
    "OracleReport",
    "CovarianceError",
    "sample_trajectories",
    "phase_of",
    "mc_average_state",
]

__version__ = "0.1.0"
