"""Qutrit density-matrix evolution under a classical field.

The system Hamiltonian is omega * eta(t) * Sx with Sx the spin-1 x matrix
and eta a classical field.  Because the Hamiltonian commutes with itself at
different times, the propagator is exp(-i phi Sx) with the accumulated phase
phi = omega * Integral eta(s) ds.

One rule turns a phase law into a state.  In the eigenbasis of Sx the
propagator is diagonal, so the coherence between eigenstates with eigenvalues
lambda_j and lambda_k picks up the phase exp(i (lambda_k - lambda_j) phi).
Averaged over any phase law it is multiplied by chi_n = <exp(i n phi)> at the
signed gap n = lambda_k - lambda_j, with chi_{-n} = conj(chi_n).
``noise.dephasing_factor(n, beta, omega)`` gives the real chi_n of the
zero-mean Gaussian phase of variance omega^2 beta; a constant field is the
point mass chi_n = exp(i n phi), the law ``fluctuation_series`` gives.
"""

from __future__ import annotations

import math

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
# lambda_k - lambda_j: the signed gap whose factor chi_n damps entry (j, k).
_GAPS = (SX_EIGENVALUES - SX_EIGENVALUES[:, None]).astype(int)
# A rounded exp(i theta) has modulus up to 1 + 2.2e-16, and the point-mass
# phase law of a constant field must pass the |chi| <= 1 check.
_MODULUS_TOL = 4.0 * np.finfo(float).eps


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
    check_weight(r)
    return (1.0 - r) / 3.0 * np.eye(3, dtype=complex) + r / 3.0 * np.ones(
        (3, 3), dtype=complex
    )


def check_weight(r: float) -> None:
    """Raise unless r, the purity weight of the initial state, lies in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")


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


def check_dephasing_factor(chi) -> np.ndarray:
    """chi as a float array, or a complex one if chi is complex; raise unless
    every |chi| <= 1 + _MODULUS_TOL."""
    chi = np.asarray(chi)
    if not np.iscomplexobj(chi):
        chi = chi.astype(float)
    if not np.all(np.abs(chi) <= 1.0 + _MODULUS_TOL):
        raise ValueError("dephasing factors must lie in [-1, 1], or the unit disc if complex")
    return chi


def evolve_averaged(rho0: np.ndarray, chi) -> np.ndarray:
    """Average of U(phi) rho0 U(phi)+ over a phase with characteristic
    function chi(n) = <exp(i n phi)>, for any phase law: real chi for a law
    symmetric about zero, complex chi otherwise (exp(i n phi) for a fixed phi).

    Exact: in the Sx eigenbasis V the entry (j, k) of V^T rho0 V averages to
    itself times chi_n at the signed gap n = lambda_k - lambda_j, where
    chi_0 = 1 and chi_{-n} = conj(chi_n).  chi(n), called at each gap n > 0,
    may be a scalar or an array; the result has their broadcast shape + (3, 3).
    """
    top = int(_GAPS.max())
    chis = np.broadcast_arrays(*(check_dephasing_factor(chi(n)) for n in range(1, top + 1)))
    check_density_matrix(rho0)
    v = SX_EIGENVECTORS
    factors = [*(c.conj() for c in reversed(chis)), np.ones_like(chis[0]), *chis]
    damping = np.stack(factors, axis=-1)[..., _GAPS + top]
    rho = v @ ((v.T @ rho0 @ v) * damping) @ v.T
    # Hermitian up to rounding; symmetrize away the residue.
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def fluctuation_series(t_grid, omega: float = 1.0):
    """The noiseless field's phase law (beta, s, chi) along a time grid: the
    field is eta = 1, so the phase at time t is omega * t, beta = s = 0 and
    chi(n) = exp(i n omega t) is the point mass of evolve_averaged."""
    if not 0.0 < omega < math.inf:  # nan fails too
        raise ValueError(f"omega must be positive and finite, got {omega}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid must be nonempty")
    if not (np.all(np.diff(t_grid) >= 0.0) and 0.0 <= t_grid.min() <= t_grid.max() < math.inf):
        raise ValueError("time grid must be sorted, nonnegative and finite, not nan")
    phase = omega * t_grid
    return np.zeros_like(phase), np.zeros_like(phase), lambda n: np.exp(1j * n * phase)
