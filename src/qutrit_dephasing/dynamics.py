"""Spin-1 operators and qutrit density-matrix evolution.

The system Hamiltonian is eps0 * Sz + omega * eta(t) * Sx with eta a
classical field.  Because the Hamiltonian commutes with itself at different
times, the propagator is exp(-i t eps0) * exp(-i phi Sx) with the accumulated
phase phi = omega * Integral eta(s) ds; the global eps0 phase cancels in
rho = U rho U+.

Two evolution branches are provided: a deterministic one (constant eta) and a
Gaussian-phase-averaged one.  Averaging exploits the fact that every entry of
U(phi) rho U(phi)+ is a trigonometric polynomial of degree <= 2 in phi, so
the average over a zero-mean Gaussian phi with variance var is obtained
exactly by damping the n-th Fourier component with exp(-n^2 var / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-8

# Fourier harmonics present in U rho U+ entries.
_HARMONICS = np.arange(-2, 3)
# Phases of the 5 fifth roots of unity and the DFT that maps samples of
# U rho U+ there to the coefficients of _HARMONICS.
_ROOTS = 2.0 * np.pi * np.arange(5) / 5.0
_DFT = np.exp(-1j * np.outer(_HARMONICS, _ROOTS)) / 5.0


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the driven qutrit.

    eps0 enters only as a global propagator phase and never affects any
    density matrix; it is kept so the propagator matches its closed form.
    eta_const is the constant field amplitude of the noiseless branch, and
    r in [0, 1] the purity weight of the initial state.
    """

    eps0: float = 1.0
    omega: float = 1.0
    eta_const: float = 1.0
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


def spin1_operators() -> tuple[np.ndarray, np.ndarray]:
    """Spin-1 matrices (Sx, Sz) in the {|0>, |1>, |2>} basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sz


def propagator(phi, eps0: float = 0.0, t: float = 0.0) -> np.ndarray:
    """Closed-form propagator exp(-i t eps0) exp(-i phi Sx).

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
    return np.exp(-1j * t * eps0) * u


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


def evolve_noiseless(rho0: np.ndarray, params: SystemParams, t: float) -> np.ndarray:
    """Unitary evolution under a constant field: phi = omega * eta_const * t."""
    check_density_matrix(rho0)
    phi = params.omega * params.eta_const * t
    u = propagator(phi, params.eps0, t)
    return u @ rho0 @ u.conj().T


def fourier_components(rho0: np.ndarray) -> np.ndarray:
    """Exact Fourier coefficients C_n of U(phi) rho0 U(phi)+, n = -2..2.

    Entries are trigonometric polynomials of degree <= 2 in phi, so sampling
    at the 5 fifth roots of unity and applying a DFT recovers the
    coefficients exactly.  Returns an array of shape (5, 3, 3) ordered by n.
    """
    u = propagator(_ROOTS)
    samples = u @ rho0 @ u.conj().swapaxes(-1, -2)
    return np.tensordot(_DFT, samples, axes=1)


def evolve_averaged(rho0: np.ndarray, variance) -> np.ndarray:
    """Average of U(phi) rho0 U(phi)+ over phi ~ N(0, variance).

    Exact: each Fourier component C_n exp(i n phi) averages to
    C_n exp(-n^2 var / 2).  variance may be a scalar or an array; the result
    has shape variance.shape + (3, 3).
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0):
        raise ValueError("phase variance must be nonnegative")
    check_density_matrix(rho0)
    damping = np.exp(-0.5 * _HARMONICS**2 * variance[..., None])
    rho = np.tensordot(damping, fourier_components(rho0), axes=1)
    # Hermitian up to rounding; symmetrize away the residue.
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def fluctuation_series(params: SystemParams, t_grid) -> np.ndarray:
    """Noiseless states along a time grid, shape (T, 3, 3).

    The phase at time t is omega * eta_const * t; the global eps0 phase of
    the propagator cancels and is left out.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must be nonempty")
    if np.any(np.diff(t_grid) < 0.0) or np.any(t_grid < 0.0):
        raise ValueError("time grid must be sorted and nonnegative")
    u = propagator(params.omega * params.eta_const * t_grid)
    return u @ initial_state(params.r) @ u.conj().swapaxes(-1, -2)
