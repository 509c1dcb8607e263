"""Purity and von Neumann entropy, as matrix functionals and closed forms.

The paper's initial state populates only the lambda = +-1 eigenstates of Sx,
so its averaged state depends on the noise only through chi2, the dephasing
factor of the gap-2 coherence (``noise.dephasing_factor(2, ...)`` for the
Gaussian phase), and its purity and entropy only through |chi2|; a complex
chi2 is taken by its modulus.  For r=1 that state has rank <= 2 with nonzero
eigenvalues (3 +- sqrt(|chi2|^2 + 8)) / 6, which gives the closed forms
implemented here; a partly mixed initial state (r < 1) shifts and scales that
spectrum.  Entropy uses the natural logarithm throughout; the saturation
values (chi2 = 0) are purity 17/18 and entropy ~0.1298.
"""

from __future__ import annotations

import numpy as np

from .dynamics import check_density_matrix, check_dephasing_factor, check_weight

_CLAMP_TOL = 1e-10


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); for Hermitian rho this is the squared Frobenius norm."""
    check_density_matrix(rho)
    return float(np.sum(np.abs(rho) ** 2))


def purity_closed(chi2, r: float = 1.0):
    """(1-r^2)/3 + r^2 (17 + chi2^2) / 18 for the averaged state from
    initial_state(r): averaging is linear and unital, so that state is
    (1-r)/3 * I + r * (the r=1 state).  chi2 may be a scalar (the result is a
    float) or an array."""
    chi2 = _checked(chi2, r)
    out = (1.0 - r * r) / 3.0 + r * r * (17.0 + chi2 * chi2) / 18.0
    return out if out.ndim else float(out)


def vn_entropy(rho: np.ndarray) -> float:
    """-Sum lambda ln lambda over the eigenvalues, with 0 ln 0 := 0."""
    check_density_matrix(rho)
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nonzero = eigs[eigs > _CLAMP_TOL]
    return max(float(-np.sum(nonzero * np.log(nonzero))), 0.0)


def vn_entropy_closed(chi2, r: float = 1.0):
    """Entropy of the averaged state started from initial_state(r).

    The r=1 state has eigenvalues (3 +- sqrt(chi2^2 + 8)) / 6 and 0; mixing
    in (1-r)/3 * I maps each eigenvalue lam to (1-r)/3 + r * lam.  The small
    one is written as (1-chi2)(1+chi2) / (6 (3 + sqrt(chi2^2 + 8))) and the
    log of the large one as log1p(-(sum of the other two)), so neither
    cancels as chi2 -> +-1; only an exact 0 counts as 0 ln 0.  chi2 may be a
    scalar (the result is a float) or an array.
    """
    chi2 = _checked(chi2, r)
    root = np.sqrt(chi2 * chi2 + 8.0)
    small = (1.0 - chi2) * (1.0 + chi2) / (6.0 * (3.0 + root))
    lams = (1.0 - r) / 3.0 + r * np.stack([small, np.zeros_like(root)])
    large = (1.0 - r) / 3.0 + r * (3.0 + root) / 6.0
    logs = np.log(np.where(lams > 0.0, lams, 1.0))
    out = -np.sum(lams * logs, axis=0) - large * np.log1p(-np.sum(lams, axis=0))
    return out if out.ndim else float(out)


def _checked(chi2, r: float) -> np.ndarray:
    """|chi2|, the only part of chi2 that purity and entropy depend on."""
    check_weight(r)
    return np.abs(check_dephasing_factor(chi2))


# The fully dephased levels, chi2 = 0, of the r=1 state.
PURITY_SATURATION = purity_closed(0.0)
ENTROPY_SATURATION = vn_entropy_closed(0.0)
