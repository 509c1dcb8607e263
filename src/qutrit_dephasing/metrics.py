"""Purity and von Neumann entropy, as matrix functionals and closed forms.

For the fully polarized initial state (r=1, omega=1) the averaged matrix has
rank <= 2 with nonzero eigenvalues (3 +- sqrt(exp(-4 beta) + 8)) / 6, which
gives the closed forms implemented here; a partly mixed initial state (r < 1)
shifts and scales that spectrum.  Entropy uses the natural logarithm
throughout; the long-time saturation values are purity 17/18 and entropy
~0.1298.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import check_density_matrix

PURITY_SATURATION = 17.0 / 18.0

_LAMBDA_MINUS_INF = (3.0 - 2.0 * math.sqrt(2.0)) / 6.0
_LAMBDA_PLUS_INF = (3.0 + 2.0 * math.sqrt(2.0)) / 6.0
ENTROPY_SATURATION = -(
    _LAMBDA_MINUS_INF * math.log(_LAMBDA_MINUS_INF)
    + _LAMBDA_PLUS_INF * math.log(_LAMBDA_PLUS_INF)
)

_CLAMP_TOL = 1e-10


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); for Hermitian rho this is the squared Frobenius norm."""
    check_density_matrix(rho)
    return float(np.sum(np.abs(rho) ** 2))


def purity_closed(beta, r: float = 1.0):
    """(1-r^2)/3 + r^2 (17 + exp(-4 beta)) / 18 for the omega=1 averaged state
    from initial_state(r): averaging is linear and unital, so that state is
    (1-r)/3 * I + r * (the r=1 state).  beta may be a scalar (the result is a
    float) or an array."""
    beta = _nonnegative(beta)
    out = (1.0 - r * r) / 3.0 + r * r * (17.0 + np.exp(-4.0 * beta)) / 18.0
    return out if out.ndim else float(out)


def vn_entropy(rho: np.ndarray) -> float:
    """-Sum lambda ln lambda over the eigenvalues, with 0 ln 0 := 0."""
    check_density_matrix(rho)
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nonzero = eigs[eigs > _CLAMP_TOL]
    return max(float(-np.sum(nonzero * np.log(nonzero))), 0.0)


def vn_entropy_closed(beta, r: float = 1.0):
    """Entropy of the omega=1 averaged state started from initial_state(r).

    The r=1 state has eigenvalues (3 +- sqrt(exp(-4 beta) + 8)) / 6 and 0;
    mixing in (1-r)/3 * I maps each eigenvalue lam to (1-r)/3 + r * lam.
    Eigenvalues below the clamp tolerance contribute nothing.  beta may be a
    scalar (the result is a float) or an array.
    """
    beta = _nonnegative(beta)
    root = np.sqrt(np.exp(-4.0 * beta) + 8.0)
    spectrum = np.stack([3.0 + root, 3.0 - root, np.zeros_like(root)])
    lams = (1.0 - r) / 3.0 + r * spectrum / 6.0
    logs = np.log(np.where(lams > _CLAMP_TOL, lams, 1.0))
    out = np.maximum(-np.sum(lams * logs, axis=0), 0.0)
    return out if out.ndim else float(out)


def _nonnegative(beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < 0.0):
        raise ValueError("beta must be nonnegative")
    return beta
