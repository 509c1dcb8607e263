"""Purity and von Neumann entropy in closed form.

The paper's initial state populates only the lambda = +-1 eigenstates of Sx,
so its averaged state depends on the noise only through chi2, the dephasing
factor of the gap-2 coherence, and its purity and entropy only through the
coherence loss s = 1 - |chi2|^2 (the s of ``noise.phase_law``, which knows
each family's law).  For r=1 that state has rank <= 2 with nonzero
eigenvalues (3 +- sqrt(9 - s)) / 6, which gives the closed forms implemented
here; a partly mixed initial state (r < 1) shifts and scales that spectrum.
Entropy uses the natural logarithm throughout; the saturation values (s = 1)
are purity 17/18 and entropy ~0.1298.
"""

from __future__ import annotations

import numpy as np

from .dynamics import check_weight


def purity_closed(s, r: float = 1.0):
    """(1-r^2)/3 + r^2 (1 - s/18) for the averaged state from initial_state(r)
    at coherence loss s: averaging is linear and unital, so that state is
    (1-r)/3 * I + r * (the r=1 state).  s may be a scalar (the result is a
    float) or an array."""
    s = _checked(s, r)
    out = (1.0 - r * r) / 3.0 + r * r * (1.0 - s / 18.0)
    return out if out.ndim else float(out)


def vn_entropy_closed(s, r: float = 1.0):
    """Entropy of the averaged state started from initial_state(r).

    The r=1 state has eigenvalues (3 +- sqrt(9 - s)) / 6 and 0; mixing in
    (1-r)/3 * I maps each eigenvalue lam to (1-r)/3 + r * lam.  The small one
    is written as s / (6 (3 + sqrt(9 - s))) and the log of the large one as
    log1p(-(sum of the other two)), so neither cancels as s -> 0; only an
    exact 0 counts as 0 ln 0.  s may be a scalar (the result is a float) or
    an array.
    """
    s = _checked(s, r)
    root = np.sqrt(9.0 - s)
    small = s / (6.0 * (3.0 + root))
    lams = (1.0 - r) / 3.0 + r * np.stack([small, np.zeros_like(root)])
    large = (1.0 - r) / 3.0 + r * (3.0 + root) / 6.0
    logs = np.log(np.where(lams > 0.0, lams, 1.0))
    out = -np.sum(lams * logs, axis=0) - large * np.log1p(-np.sum(lams, axis=0))
    return out if out.ndim else float(out)


def _checked(s, r: float) -> np.ndarray:
    """s as a float array; raise unless r and every s lie in [0, 1]."""
    check_weight(r)
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0.0) & (s <= 1.0)):  # nan fails both
        raise ValueError("coherence loss s must lie in [0, 1]")
    return s
