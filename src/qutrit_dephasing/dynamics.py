"""Qutrit density-matrix evolution under a classical field.

The system Hamiltonian is omega * eta(t) * Sx with Sx the spin-1 x matrix
and eta a classical field.  Because the Hamiltonian commutes with itself at
different times, the propagator is exp(-i phi Sx) with the accumulated phase
phi = omega * Integral eta(s) ds.

Two evolution branches are provided: a deterministic one (constant eta) and a
Gaussian-phase-averaged one.  In the eigenbasis of Sx the propagator is
diagonal, so the coherence between eigenstates with eigenvalues lambda_j and
lambda_k picks up the phase exp(-i (lambda_j - lambda_k) phi); the average
over a zero-mean Gaussian phi with variance var is exactly a damping by
exp(-(lambda_j - lambda_k)^2 var / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-8

# Real orthonormal eigenvectors of spin-1 Sx (columns) and their eigenvalues.
SX_EIGENVECTORS = np.array(
    [[0.5, 1.0 / SQRT2, 0.5], [-1.0 / SQRT2, 0.0, 1.0 / SQRT2], [0.5, -1.0 / SQRT2, 0.5]]
)
SX_EIGENVALUES = np.array([-1.0, 0.0, 1.0])


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the driven qutrit: the coupling omega of the
    field to Sx, and r in [0, 1] the purity weight of the initial state."""

    omega: float = 1.0
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


def propagator(phi) -> np.ndarray:
    """Closed-form propagator exp(-i phi Sx).

    phi may be a scalar or an array of phases; the result has shape
    phi.shape + (3, 3).
    """
    phi = np.asarray(phi, dtype=float)
    c = np.cos(phi)
    off = -1j * np.sin(phi) / SQRT2
    u = np.empty(phi.shape + (3, 3), dtype=complex)
    u[..., 0, 0] = u[..., 2, 2] = np.cos(0.5 * phi) ** 2
    u[..., 0, 2] = u[..., 2, 0] = 0.5 * (c - 1.0)
    u[..., 1, 1] = c
    u[..., 0, 1] = u[..., 1, 0] = u[..., 1, 2] = u[..., 2, 1] = off
    return u


def initial_state(r: float) -> np.ndarray:
    """(1-r)/3 * I + r |psi><psi| with psi the uniform superposition."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    return (1.0 - r) / 3.0 * np.eye(3, dtype=complex) + r / 3.0 * np.ones(
        (3, 3), dtype=complex
    )


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise if rho is not a valid 3x3 density matrix."""
    rho = np.asarray(rho)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -EIGENVALUE_TOL:
        raise ValueError("density matrix has a significantly negative eigenvalue")


def evolve_averaged(rho0: np.ndarray, variance) -> np.ndarray:
    """Average of U(phi) rho0 U(phi)+ over phi ~ N(0, variance).

    Exact: in the Sx eigenbasis V the entry (j, k) of V^T rho0 V averages to
    itself times exp(-var / 2) ** (lambda_j - lambda_k)^2.  A zero gap damps
    by 0 ** 0 == 1, so an infinite variance leaves the Sx-diagonal part of
    rho0 rather than NaN.  variance may be a scalar or an array; the result
    has shape variance.shape + (3, 3).
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0):
        raise ValueError("phase variance must be nonnegative")
    check_density_matrix(rho0)
    v = SX_EIGENVECTORS
    gaps = SX_EIGENVALUES[:, None] - SX_EIGENVALUES
    damping = np.exp(-0.5 * variance)[..., None, None] ** (gaps * gaps)
    rho = v @ ((v.T @ rho0 @ v) * damping) @ v.T
    # Hermitian up to rounding; symmetrize away the residue.
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def fluctuation_series(params: SystemParams, t_grid) -> np.ndarray:
    """Noiseless states along a time grid, shape (T, 3, 3): the field is
    eta = 1, so the phase at time t is omega * t."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must be nonempty")
    if np.any(np.diff(t_grid) < 0.0) or np.any(t_grid < 0.0):
        raise ValueError("time grid must be sorted and nonnegative")
    u = propagator(params.omega * t_grid)
    return u @ initial_state(params.r) @ u.conj().swapaxes(-1, -2)
