"""The independent references the suite checks the library against, each
written once, on numpy and mpmath alone.

The propagator comes from LAPACK's eigensolver applied to Sx, the trapezoid
phase from a running sum of panels, and beta and the averaged-state entropy
from 50-digit mpmath.  None of them calls the library or shares its code.
"""

import mpmath
import numpy as np

# spin-1 Sx, from its definition: <m+1| S+ |m> = sqrt(2) and Sx = (S+ + S-) / 2
SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
_EIGENVALUES, _EIGENVECTORS = np.linalg.eigh(SX)


def unitary(phi) -> np.ndarray:
    """exp(-i phi Sx) as V diag(exp(-i lambda phi)) V+, with V and lambda from
    ``numpy.linalg.eigh``.  phi is a scalar or an array; the result has shape
    phi.shape + (3, 3)."""
    phases = np.exp(-1j * np.multiply.outer(np.asarray(phi, dtype=float), _EIGENVALUES))
    return (_EIGENVECTORS * phases[..., None, :]) @ _EIGENVECTORS.T


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Running trapezoid integral of y over x along y's last axis, 0 at x[0]."""
    panels = np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0
    return np.concatenate([np.zeros(y.shape[:-1] + (1,)), np.cumsum(panels, axis=-1)], axis=-1)


def digits_below_one(value) -> int:
    """Decimal digits between a positive value and 1 (0 from 1 up, and for 0)."""
    return max(0, -int(mpmath.log10(value))) if value else 0


def beta_exact(spec, tau) -> mpmath.mpf:
    """beta of the NoiseSpec ``spec`` at tau (a float or an mpf) to 50 digits.

    With x = g*tau, each of gn, ou and pl cancels about twice the digits of x
    below 1 (pl's also those of alpha - 2), and pl's 1 + x needs them once
    more, so the working precision adds them.
    """
    with mpmath.workdps(50):
        tau = mpmath.mpf(tau)
        if spec.kind == "fgn":
            c = 2 * mpmath.mpf(spec.hurst) + 2
            return tau**c / c
        g = mpmath.mpf(spec.g)
        x = g * tau
    with mpmath.workdps(50 + 3 * digits_below_one(x) + digits_below_one(spec.alpha - 2)):
        if spec.kind == "gn":
            gb = (mpmath.exp(-x * x) - 1) / mpmath.sqrt(mpmath.pi) + x * mpmath.erf(x)
        elif spec.kind == "ou":
            gb = x + mpmath.exp(-x) - 1
        else:
            a = mpmath.mpf(spec.alpha)
            gb = (x * (a - 2) - 1 + (1 + x) ** (2 - a)) / (a - 2)
        return gb / g


def entropy_exact(s, r=1.0) -> mpmath.mpf:
    """von Neumann entropy of the averaged state at coherence loss s (a float
    or an mpf) from initial_state(r), to 50 digits.

    The eigenvalues are (1 - r)/3 + r (3 +- sqrt(9 - s)) / 6 and (1 - r)/3;
    3 - sqrt(9 - s) cancels the digits of s below 1, so the working precision
    adds them.
    """
    with mpmath.workdps(50 + digits_below_one(s)):
        s, r = mpmath.mpf(s), mpmath.mpf(r)
        root = mpmath.sqrt(9 - s)
        mixed = (1 - r) / 3
        lams = [mixed + r * (3 + root) / 6, mixed + r * (3 - root) / 6, mixed]
        return -sum(lam * mpmath.log(lam) for lam in lams if lam > 0)
