"""Dephasing dynamics of a single qutrit driven by Gaussian classical noise.

Analytic closed forms for the phase variance budget, the averaged density
matrix, purity and von Neumann entropy, cross-validated by an independent
Monte-Carlo trajectory oracle.  See the ``sim`` CLI for sweeps and figure
reproduction.
"""

from .dynamics import (
    evolve_averaged,
    fluctuation_series,
    initial_state,
    propagator,
)
from .metrics import purity_closed, vn_entropy_closed
from .montecarlo import (
    OracleReport,
    TrajectoryEnsemble,
    mc_average_state,
    sample_trajectories,
)
from .noise import (
    NoiseSpec,
    beta_closed,
    coherence_loss,
    dephasing_factor,
    phase_covariance,
    phase_law,
)

__all__ = [
    "NoiseSpec",
    "beta_closed",
    "coherence_loss",
    "dephasing_factor",
    "phase_covariance",
    "phase_law",
    "propagator",
    "initial_state",
    "evolve_averaged",
    "fluctuation_series",
    "purity_closed",
    "vn_entropy_closed",
    "TrajectoryEnsemble",
    "OracleReport",
    "sample_trajectories",
    "mc_average_state",
]

__version__ = "0.1.0"
