"""Monte-Carlo oracle: sample Gaussian field realizations, accumulate phases,
and average the evolved qutrit states over the ensemble.

This path never touches the analytic dephasing factors: paths are drawn from
the exact covariance by dense Cholesky, phases are trapezoid integrals of the
sampled field, and the states U(phi) rho0 U(phi)+ are averaged
matrix-by-matrix with the closed-form ``propagator``.  Agreement with
``evolve_averaged`` within the 3/sqrt(N) statistical bound is the independent
check of the analytic averaging rule.

Sampling and averaging stream over blocks of BLOCK = 4096 paths: block b
draws its standard normals from SFC64 seeded by SeedSequence(seed,
spawn_key=(b,)), NumPy's scheme for spawning independent parallel streams,
so path i depends only on (seed, i) and the ensemble is bit-reproducible.
The oracle never builds the N x M paths: the phase of a block is
``Z_b @ (omega L^T w)`` with L the Cholesky factor and w the trapezoid
weights.  Both projections are plain ``np.einsum`` calls, which sum each row
in one fixed order and never call the BLAS, so given L the phases are the
same bits for any chunk size, worker count and BLAS thread count.  Worker
threads, one per core the process may use, draw and project the blocks a few
rows at a time; the calling thread propagates and sums them in block order.
At most workers + 1 blocks are in flight, so memory is O(workers * BLOCK)
for any N.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, check_density_matrix, evolve_averaged, propagator
from .noise import NoiseSpec, autocorrelation, beta_closed

BLOCK = 4096
RNG_ALGORITHM = (
    f"numpy.random.SFC64, block b of {BLOCK} paths from "
    "SFC64(SeedSequence(seed, spawn_key=(b,)))"
)

# A worker draws at most this many normals at once (1 MB), to bound memory.
_CHUNK_NORMALS = 2**17

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """n_paths Gaussian paths ``Z @ factor.T`` on a shared time grid, kept as
    the covariance's Cholesky factor and the seed of the normals Z."""

    t_grid: np.ndarray
    factor: np.ndarray
    n_paths: int
    seed: int
    spec: NoiseSpec
    jitter: float = 0.0

    def blocks(self) -> Iterator[tuple[np.random.Generator, int]]:
        """Each block's stream and row count: block b of BLOCK paths draws
        from SFC64 seeded by SeedSequence(seed, spawn_key=(b,))."""
        for b, start in enumerate(range(0, self.n_paths, BLOCK)):
            bits = np.random.SFC64(np.random.SeedSequence(self.seed, spawn_key=(b,)))
            yield np.random.Generator(bits), min(BLOCK, self.n_paths - start)

    def normals(self) -> Iterator[np.ndarray]:
        """Each block's (rows, M) standard normals."""
        for rng, rows in self.blocks():
            yield rng.standard_normal((rows, self.t_grid.size))

    @property
    def paths(self) -> np.ndarray:
        """All (n_paths, M) paths at once: the reference for small ensembles."""
        return np.concatenate([z @ self.factor.T for z in self.normals()])


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
    """n zero-mean Gaussian paths with covariance K(s_i, s_j).

    Factors the covariance once; the paths themselves are drawn block by
    block when the ensemble is read (``normals``, ``paths``).
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
    return TrajectoryEnsemble(
        t_grid=t_grid, factor=factor, n_paths=n, seed=seed, spec=spec, jitter=jitter
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


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_phases(rng: np.random.Generator, rows: int, v: np.ndarray) -> np.ndarray:
    """One block's phases ``Z_b @ v``, drawing Z_b from rng a chunk of rows
    at a time.  einsum sums each row in the same order whatever the chunk,
    so the phases do not depend on the chunk size."""
    chunk = max(1, _CHUNK_NORMALS // v.size)
    phases = np.empty(rows)
    for start in range(0, rows, chunk):
        out = phases[start : start + chunk]
        np.einsum("ij,j->i", rng.standard_normal((out.size, v.size)), v, out=out)
    return phases


def _state_sum(phases: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Sum over paths of U(phi) rho0 U(phi)^+."""
    u = propagator(phases)
    return np.einsum("nij,jk,nlk->il", u, rho0, u.conj(), optimize=True)


def mc_average_state(
    rho0: np.ndarray,
    ensemble: TrajectoryEnsemble,
    params: SystemParams,
    at_index: int,
) -> OracleReport:
    """Ensemble-averaged evolved state at one grid time, vs the analytic state.

    Each path is evolved unitarily with its own accumulated phase (the
    trapezoid integral up to at_index, taken per block as Z_b @ (omega L^T w)
    on worker threads) and the resulting matrices are summed in block order
    and averaged; the analytic reference is evolve_averaged with variance
    omega^2 * beta_closed(spec, tau).
    """
    check_density_matrix(rho0)
    if ensemble.n_paths == 0:
        raise ValueError("ensemble is empty")
    if not -ensemble.t_grid.size <= at_index < ensemble.t_grid.size:
        raise IndexError("at_index outside the time grid")
    weights = _trapezoid_weights(ensemble.t_grid, at_index)
    v = params.omega * np.einsum("ji,j->i", ensemble.factor, weights)
    rho0 = np.asarray(rho0, dtype=complex)

    from concurrent.futures import ThreadPoolExecutor  # ~7 ms, paid by the oracle only

    workers = _worker_count()
    total = np.zeros((3, 3), dtype=complex)
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for rng, rows in ensemble.blocks():
            pending.append(pool.submit(_block_phases, rng, rows, v))
            if len(pending) > workers:
                total += _state_sum(pending.popleft().result(), rho0)
        for future in pending:
            total += _state_sum(future.result(), rho0)
    empirical = total / ensemble.n_paths
    tau = float(ensemble.t_grid[at_index] - ensemble.t_grid[0])
    variance = params.omega**2 * beta_closed(ensemble.spec, tau)
    analytic = evolve_averaged(rho0, variance)
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
