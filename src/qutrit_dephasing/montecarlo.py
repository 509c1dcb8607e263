"""Monte-Carlo oracle: sample Gaussian field realizations, accumulate phases,
and average the evolved qutrit states over the ensemble.

This path never touches the analytic dephasing factors: paths are drawn from
the exact covariance by dense Cholesky, phases are trapezoid integrals of the
sampled field, and the states U(phi) rho0 U(phi)+ are averaged
matrix-by-matrix with the closed-form ``propagator``.  Agreement with
``evolve_averaged`` within the 3/sqrt(N) statistical bound is the independent
check of the analytic averaging rule.

Sampling is bit-reproducible: path i is drawn from its own Philox counter
stream jumped i steps from the seed, so the ensemble is identical no matter
how paths are batched or scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    PhaseLaw,
    SystemParams,
    check_density_matrix,
    evolve_averaged,
    propagator,
)
from .noise import NoiseSpec, autocorrelation, beta_closed

RNG_ALGORITHM = "numpy.random.Philox (4x64), per-path jumped substreams"

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """N sampled noise paths on a shared time grid, with provenance."""

    t_grid: np.ndarray
    paths: np.ndarray
    seed: int
    spec: NoiseSpec
    jitter: float = 0.0
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


@dataclass(frozen=True)
class OracleReport:
    """Comparison of the analytic averaged state with the ensemble average."""

    analytic: np.ndarray
    empirical: np.ndarray
    max_abs_deviation: float
    stderr_bound: float
    n_samples: int
    seed: int
    tau: float
    grid_step: float
    spec: NoiseSpec
    rng_algorithm: str = RNG_ALGORITHM
    jitter: float = 0.0

    @property
    def within_bound(self) -> bool:
        return self.max_abs_deviation <= self.stderr_bound


class CovarianceError(RuntimeError):
    """Covariance matrix failed Cholesky factorization even with jitter."""


def _cholesky_with_jitter(cov: np.ndarray, spec: NoiseSpec) -> tuple[np.ndarray, float]:
    scale = max(np.max(np.abs(np.diag(cov))), 1.0)
    for jitter in _JITTERS:
        try:
            factor = np.linalg.cholesky(cov + jitter * scale * np.eye(cov.shape[0]))
            return factor, jitter
        except np.linalg.LinAlgError:
            continue
    raise CovarianceError(
        f"covariance for {spec.label()} is not positive semidefinite "
        f"even with diagonal jitter up to {_JITTERS[-1]:g}"
    )


def sample_trajectories(
    spec: NoiseSpec, t_grid, n: int, seed: int
) -> TrajectoryEnsemble:
    """Draw n zero-mean Gaussian paths with covariance K(s_i, s_j).

    Standard normals for path i come from Philox(seed) jumped i times, so the
    draw is deterministic per (seed, path index) regardless of batching.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("time grid must be one-dimensional with at least 2 points")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    if n < 1:
        raise ValueError("need at least one path")
    grid_s, grid_sp = np.meshgrid(t_grid, t_grid, indexing="ij")
    cov = np.asarray(autocorrelation(spec, grid_s, grid_sp), dtype=float)
    cov = 0.5 * (cov + cov.T)
    factor, jitter = _cholesky_with_jitter(cov, spec)
    base = np.random.Philox(key=seed)
    normals = np.empty((n, t_grid.size))
    for i in range(n):
        substream = base.jumped(i) if i else base
        normals[i] = np.random.Generator(substream).standard_normal(t_grid.size)
    paths = normals @ factor.T
    return TrajectoryEnsemble(
        t_grid=t_grid, paths=paths, seed=seed, spec=spec, jitter=jitter
    )


def phase_of(path, t_grid, omega: float):
    """Cumulative trapezoid integral of omega * eta; phase at t_grid[0] is 0."""
    path = np.asarray(path, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if path.shape[-1] != t_grid.size:
        raise ValueError("path and grid lengths differ")
    phases = np.zeros_like(path)
    increments = 0.5 * np.diff(t_grid) * (path[..., 1:] + path[..., :-1])
    np.cumsum(increments, axis=-1, out=phases[..., 1:])
    return omega * phases


def _trapezoid_weights(t_grid: np.ndarray, at_index: int) -> np.ndarray:
    """Weights w with path @ w the trapezoid integral from t_grid[0] to
    t_grid[at_index]; entries past at_index are zero."""
    stop = at_index % t_grid.size
    half_steps = 0.5 * np.diff(t_grid[: stop + 1])
    w = np.zeros(t_grid.size)
    w[:stop] += half_steps
    w[1 : stop + 1] += half_steps
    return w


def mc_average_state(
    rho0: np.ndarray,
    ensemble: TrajectoryEnsemble,
    params: SystemParams,
    at_index: int,
) -> OracleReport:
    """Ensemble-averaged evolved state at one grid time, vs the analytic state.

    Each path is evolved unitarily with its own accumulated phase (the
    trapezoid integral up to at_index, taken as one weighted sum per path)
    and the resulting matrices are averaged; the analytic reference is
    evolve_averaged with variance omega^2 * beta_closed(spec, tau).
    """
    check_density_matrix(rho0)
    if ensemble.n_paths == 0:
        raise ValueError("ensemble is empty")
    if not -ensemble.t_grid.size <= at_index < ensemble.t_grid.size:
        raise IndexError("at_index outside the time grid")
    weights = _trapezoid_weights(ensemble.t_grid, at_index)
    u = propagator(params.omega * (ensemble.paths @ weights))
    rho0 = np.asarray(rho0, dtype=complex)
    empirical = np.einsum("nij,jk,nlk->nil", u, rho0, u.conj()).mean(axis=0)
    tau = float(ensemble.t_grid[at_index] - ensemble.t_grid[0])
    variance = params.omega**2 * beta_closed(ensemble.spec, tau)
    analytic = evolve_averaged(rho0, params, PhaseLaw(variance))
    deviation = float(np.max(np.abs(empirical - analytic)))
    steps = np.diff(ensemble.t_grid)
    return OracleReport(
        analytic=analytic,
        empirical=empirical,
        max_abs_deviation=deviation,
        stderr_bound=3.0 / np.sqrt(ensemble.n_paths),
        n_samples=ensemble.n_paths,
        seed=ensemble.seed,
        tau=tau,
        grid_step=float(steps.max()),
        spec=ensemble.spec,
        jitter=ensemble.jitter,
    )
