"""Gaussian noise families: phase-variance budgets and the phases' joint law.

Four zero-mean Gaussian processes are supported, each identified by a short
kind tag and reading the parameters ``PARAMETERS`` lists for it:

    "fgn" -- fractional Gaussian (fractional-Brownian-motion law, Hurst H)
    "gn"  -- Gaussian-correlated noise (rate g)
    "ou"  -- Ornstein-Uhlenbeck noise (rate g)
    "pl"  -- power-law noise (rate g, exponent alpha > 2)

All quantities are dimensionless: the physical rates have been absorbed into
the single parameter g and the scaled time tau.  The accumulated random phase
phi(tau) = omega * Integral eta(s) ds is Gaussian with variance
omega^2 * beta(tau), where beta is the double integral of the kernel over
[0, tau]^2.  ``beta_closed`` gives the analytic value, and
``phase_covariance`` the exact joint law of the phases at chosen times,
worked out from beta alone (the law the Monte-Carlo oracle samples).  Every
time read here must be nonnegative, and nan is rejected.  ``phase_law`` is
the one place that pairs a family with the law of one phase: beta, then the
Gaussian law at that beta (``coherence_loss`` and ``dephasing_factor``, which
read beta itself and so take any other beta too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# family -> the parameters it reads, in label order, each with its label tag
PARAMETERS = {
    "fgn": {"hurst": "H"},
    "gn": {"g": "g"},
    "ou": {"g": "g"},
    "pl": {"g": "g", "alpha": "a"},
}
KINDS = tuple(PARAMETERS)
_BOUNDS = {"hurst": (0.0, 1.0), "g": (0.0, math.inf), "alpha": (2.0, math.inf)}


@dataclass(frozen=True)
class NoiseSpec:
    """One noise family plus its dimensionless parameters.

    A parameter ``PARAMETERS[kind]`` names must lie in its interval; any other
    must keep its default, so ``NoiseSpec("ou", g=1, alpha=5)`` is a ValueError.
    """

    kind: str
    hurst: float = 0.5
    g: float = 1.0
    alpha: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in PARAMETERS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {KINDS}")
        for name, (low, high) in _BOUNDS.items():
            value = getattr(self, name)
            if name not in PARAMETERS[self.kind]:
                if value != getattr(NoiseSpec, name):  # the field's default
                    raise ValueError(f"{self.kind} does not read {name}")
            elif not low < value < high:
                raise ValueError(f"{name} must lie in ({low:g}, {high:g}), got {value}")

    def label(self) -> str:
        """Parameter tag used in filenames and reports: the kind, then the tag
        and value of each parameter it reads, joined by "_" ("pl_g1_a3")."""
        params = PARAMETERS[self.kind].items()
        return "_".join([self.kind] + [tag + _exact(getattr(self, name)) for name, tag in params])


def _exact(value: float) -> str:
    """``f"{value:g}"`` where that reads back as value, else the float's repr,
    so that specs with different parameters get different labels."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


# Below this (scaled) x the ou and pl forms lose digits to cancellation and
# are summed as their Taylor series instead; _SERIES_TERMS terms reach double
# precision there.  gn's form only cancels by half, and is summed as its
# series below _GN_SERIES_X, where three terms are exact to ~x^6/168.
_SERIES_X = 0.05
_SERIES_TERMS = 14
_GN_SERIES_X = 1e-4
_GN_SERIES = (1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 30.0)
_erf = np.vectorize(math.erf, otypes=[float])
_TINY = np.finfo(float).tiny  # the smallest normal float


def _ratio_series(e2: float, ratio) -> list[float]:
    """_SERIES_TERMS coefficients [e_2, e_3, ...], with e_{k+1} = e_k * ratio(k)."""
    coeffs = [e2]
    for k in range(2, _SERIES_TERMS + 1):
        coeffs.append(coeffs[-1] * ratio(k))
    return coeffs


def _series(tau, x, small, coeffs) -> np.ndarray:
    """tau * x * P(x) where small, else 0, with P's coefficients given from
    the constant term up.  Formed as tau * (x * P(x)), never as x * x / g, so
    it stays exact where x * x underflows but beta is a normal float."""
    x = np.where(small, x, 0.0)
    return np.where(small, tau, 0.0) * (x * np.polyval(coeffs[::-1], x))


def beta_closed(spec: NoiseSpec, tau):
    """Analytic double integral of the kernel over [0, tau]^2.

    tau may be a scalar (the result is a float) or an array.  With x = g*tau
    the gn, ou and pl forms are written with expm1/log1p, and at small x each
    is summed as its series tau * x * P(x) (pl's in y = (alpha-1) x), so beta
    keeps full relative precision as x -> 0, also where x * x underflows.
    Where x or a product with it overflows, beta is taken as tau plus its
    bounded tail, which stays finite.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0.0):  # nan fails too
        raise ValueError("tau must be nonnegative, not nan")
    if spec.kind == "fgn":
        # tau^(2H + 2) as tau^2H * tau * tau: the exponent 2H is exact, where
        # a rounded 2H + 2 would carry |ln tau| times its rounding
        with np.errstate(over="ignore"):  # past the float range beta is inf
            out = tau * (tau ** (2.0 * spec.hurst) * tau / (2.0 * spec.hurst + 2.0))
        return out if out.ndim else float(out)
    # At large x each form is tau + tail/g with a bounded tail (gn's erf(x) is
    # 1 there).  Where g*tau, gn's x*x or pl's x*(alpha-2) overflows, out is
    # inf and tau + tail/g replaces it.
    with np.errstate(over="ignore"):
        x = spec.g * tau
        if spec.kind == "gn":
            tail = np.expm1(-x * x) / math.sqrt(math.pi)
            small = x < _GN_SERIES_X
            series = _series(tau, x, small, _GN_SERIES) / math.sqrt(math.pi)
            direct = (tail + x * _erf(x)) / spec.g
        elif spec.kind == "ou":
            tail = np.expm1(-x)
            small = x < _SERIES_X
            series = _series(tau, x, small, _ratio_series(0.5, lambda k: -1.0 / (k + 1)))
            direct = (x + tail) / spec.g
        else:  # pl; alpha > 2 enforced at construction
            a = spec.alpha
            decay = np.expm1((2.0 - a) * np.log1p(x))
            tail = decay / (a - 2.0)
            # in y the coefficients stay bounded for any alpha; in x they
            # grow like alpha^k and overflow for huge alpha.  y is formed
            # without x, which underflows first where alpha is huge.
            y = (a - 1.0) * tau * spec.g
            small = y < _SERIES_X
            coeffs = _ratio_series(0.5, lambda k: (2.0 - a - k) / (a - 1.0) / (k + 1))
            series = _series(tau, y, small, coeffs)
            direct = (x * (a - 2.0) + decay) / (a - 2.0) / spec.g
        out = np.where(small, series, direct)
        out = np.where(np.isinf(out), tau + tail / spec.g, out)
    return out if out.ndim else float(out)


def phase_covariance(spec: NoiseSpec, taus) -> np.ndarray:
    """The exact joint covariance C of the phases (before omega) at ``taus``,
    from one ``beta_closed`` call on the times joined with their differences.

    With S = beta(a) + beta(b) - beta(|a - b|), entry (a, b) is S / 2 for the
    stationary gn, ou and pl.  fgn's kernel, the fBm covariance, is not
    stationary; with p = 2H its entry is (b a^(p+1) + a b^(p+1) - S) / (2(p+1)),
    formed with a b (a^p + b^p) so that no rounded exponent is raised.
    """
    taus = np.asarray(taus, dtype=float)
    a, b = taus[:, None], taus[None, :]
    beta = beta_closed(spec, np.vstack([taus, np.abs(a - b)]))  # beta(taus), then of the lags
    # past the float range C is inf or nan; the oracle's factor reports that C
    with np.errstate(over="ignore", invalid="ignore"):
        joint = beta[0, :, None] + beta[0] - beta[1:]
        if spec.kind == "fgn":
            p = 2.0 * spec.hurst
            return (a * b * (a**p + b**p) - joint) / (2.0 * (p + 1.0))
        return 0.5 * joint


def _half_exponent(n: int, beta, omega: float) -> np.ndarray:
    """n^2 omega^2 beta / 2, the exponent of the Gaussian law: 0 for n = 0
    even where beta is inf, and inf past the float range.

    Where n^2 omega^2 / 2 alone overflows (omega > ~9.5e153) or underflows
    past the normal floats (omega < ~1.5e-154), it is formed as
    (omega * sqrt(beta) * n)^2 / 2.  Where beta itself is inf, the exponent
    is only known to be inf if n^2 omega^2 * (float max) / 2 already makes
    exp(-exponent) 0; otherwise (tiny omega) the factor is not resolved and
    this raises ValueError.
    """
    if not 0.0 < omega < math.inf:  # nan fails too
        raise ValueError(f"omega must be positive and finite, got {omega}")
    beta = np.asarray(beta, dtype=float)
    if not np.all(beta >= 0.0):
        raise ValueError("beta must be nonnegative, not nan")
    if n == 0:
        return np.zeros_like(beta)
    with np.errstate(over="ignore"):  # past the float range the exponent is inf
        half = 0.5 * n * n * omega * omega
        if np.any(np.isinf(beta)) and np.exp(-half * np.finfo(float).max) > 0.0:
            raise ValueError(
                "beta overflows the float range before "
                f"exp(-n^2 omega^2 beta / 2) reaches 0 at n={n}, omega={omega:g}"
            )
        # Where n^2 omega^2 / 2 is not a normal float, form omega * sqrt(beta)
        # first: at a huge omega inf * 0 would be nan at beta = 0, and at a
        # tiny one a subnormal half would keep only a few bits.
        if not _TINY <= half < math.inf:
            return 0.5 * (omega * np.sqrt(beta) * n) ** 2
        return half * beta


def dephasing_factor(n: int, beta, omega: float = 1.0):
    """Expectation <exp(i n phi)> for a zero-mean Gaussian phase phi of
    variance omega^2 * beta, where beta is the phase variance budget
    (``beta_closed(spec, tau)`` for a noise spec at time tau).

    The expectation is exp(-n^2 omega^2 beta / 2).  This is the factor
    damping the coherence between Sx eigenstates whose eigenvalues differ by
    n in the averaged density matrix: ``evolve_averaged`` reads it through
    ``phase_law``'s chi.  Past the float range of omega^2 beta it is 0, the
    dephased state.  beta must be nonnegative and omega positive and finite;
    beta may be a scalar (the result is a float) or an array.
    """
    out = np.exp(-_half_exponent(n, beta, omega))
    return out if out.ndim else float(out)


def coherence_loss(n: int, beta, omega: float = 1.0):
    """s = 1 - dephasing_factor(n, beta, omega)^2 = -expm1(-n^2 omega^2 beta).

    The closed-form metrics take it for n = 2.  Written with expm1, it keeps
    full relative precision where omega^2 beta is tiny, which a float
    dephasing factor near 1 cannot.  beta may be a scalar (the result is a
    float) or an array.
    """
    with np.errstate(over="ignore"):  # past the float range s is 1
        out = -np.expm1(-2.0 * _half_exponent(n, beta, omega))
    return out if out.ndim else float(out)


def phase_law(spec: NoiseSpec, tau, omega: float = 1.0):
    """(beta, s, chi) of ``spec`` at tau: beta = ``beta_closed(spec, tau)``,
    s = ``coherence_loss(2, beta, omega)``, and ``chi(n)`` evaluates
    ``dephasing_factor(n, beta, omega)`` only when called, so a factor no
    caller reads cannot raise."""
    beta = beta_closed(spec, tau)
    return beta, coherence_loss(2, beta, omega), lambda n: dephasing_factor(n, beta, omega)
