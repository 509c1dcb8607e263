"""Gaussian noise families: autocorrelation kernels and phase-variance budgets.

Four zero-mean Gaussian processes are supported, each identified by a short
kind tag:

    "fgn" -- fractional Gaussian (fractional-Brownian-motion law, Hurst H)
    "gn"  -- Gaussian-correlated noise (rate g)
    "ou"  -- Ornstein-Uhlenbeck noise (rate g)
    "pl"  -- power-law noise (rate g, exponent alpha > 2)

All quantities are dimensionless: the physical rates have been absorbed into
the single parameter g and the scaled time tau.  The accumulated random phase
phi(tau) = omega * Integral eta(s) ds is Gaussian with variance
omega^2 * beta(tau), where beta is the double integral of the kernel over
[0, tau]^2.  ``beta_closed`` gives the analytic value, ``beta_quadrature`` an
independent numerical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("fgn", "gn", "ou", "pl")


@dataclass(frozen=True)
class NoiseSpec:
    """One noise family plus its dimensionless parameters.

    Only the parameters relevant to ``kind`` are meaningful: ``hurst`` for
    "fgn"; ``g`` for "gn"/"ou"/"pl"; ``alpha`` additionally for "pl".
    """

    kind: str
    hurst: float = 0.5
    g: float = 1.0
    alpha: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "fgn":
            if not 0.0 < self.hurst < 1.0:
                raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        else:
            if not self.g > 0.0:
                raise ValueError(f"g must be positive, got {self.g}")
        if self.kind == "pl" and not self.alpha > 2.0:
            raise ValueError(
                f"power-law exponent alpha must exceed 2, got {self.alpha}"
            )

    @classmethod
    def fgn(cls, hurst: float) -> "NoiseSpec":
        return cls("fgn", hurst=hurst)

    @classmethod
    def gn(cls, g: float) -> "NoiseSpec":
        return cls("gn", g=g)

    @classmethod
    def ou(cls, g: float) -> "NoiseSpec":
        return cls("ou", g=g)

    @classmethod
    def pl(cls, g: float, alpha: float) -> "NoiseSpec":
        return cls("pl", g=g, alpha=alpha)

    def label(self) -> str:
        """Human-readable parameter tag, used in filenames and reports."""
        if self.kind == "fgn":
            return f"fgn_H{self.hurst:g}"
        if self.kind == "pl":
            return f"pl_g{self.g:g}_a{self.alpha:g}"
        return f"{self.kind}_g{self.g:g}"


def autocorrelation(spec: NoiseSpec, s, s_prime):
    """Covariance K(s, s') of the noise process at two nonnegative times.

    The fgn kernel is genuinely two-argument (nonstationary); the other three
    depend only on u = s - s'.  Accepts scalars or broadcastable arrays.
    """
    s = np.asarray(s, dtype=float)
    sp = np.asarray(s_prime, dtype=float)
    if np.any(s < 0.0) or np.any(sp < 0.0):
        raise ValueError("autocorrelation times must be nonnegative")
    if spec.kind == "fgn":
        two_h = 2.0 * spec.hurst
        out = 0.5 * (np.abs(sp) ** two_h - np.abs(s - sp) ** two_h + np.abs(s) ** two_h)
    elif spec.kind == "gn":
        u = s - sp
        out = spec.g * np.exp(-spec.g ** 2 * u * u) / math.sqrt(math.pi)
    elif spec.kind == "ou":
        out = 0.5 * spec.g * np.exp(-spec.g * np.abs(s - sp))
    else:  # pl
        u = np.abs(s - sp)
        out = (spec.alpha - 1.0) * spec.g / (2.0 * (spec.g * u + 1.0) ** spec.alpha)
    return out if out.ndim else float(out)


# Below this (scaled) x the ou and pl forms lose digits to cancellation and
# are summed as their Taylor series from x^2 instead; _SERIES_TERMS terms
# reach double precision there.
_SERIES_X = 0.05
_SERIES_TERMS = 14
_erf = np.vectorize(math.erf, otypes=[float])


def _series(x, c2: float, ratio) -> np.ndarray:
    """Sum_{k>=2} c_k x^k with c_{k+1} = c_k * ratio(k)."""
    coeffs = [c2]
    for k in range(2, _SERIES_TERMS + 1):
        coeffs.append(coeffs[-1] * ratio(k))
    return x * x * np.polyval(coeffs[::-1], x)


def beta_closed(spec: NoiseSpec, tau):
    """Analytic double integral of the kernel over [0, tau]^2.

    tau may be a scalar (the result is a float) or an array.  With x = g*tau
    the gn, ou and pl forms are written with expm1/log1p, and ou and pl are
    summed as their series at small x, so beta keeps full relative precision
    as x -> 0.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be nonnegative")
    x = spec.g * tau
    if spec.kind == "fgn":
        h1 = spec.hurst + 1.0
        out = tau ** (2.0 * h1) / (2.0 * h1)
    elif spec.kind == "gn":
        out = (np.expm1(-x * x) / math.sqrt(math.pi) + x * _erf(x)) / spec.g
    elif spec.kind == "ou":
        small = x < _SERIES_X
        series = _series(np.where(small, x, 0.0), 0.5, lambda k: -1.0 / (k + 1))
        out = np.where(small, series, x + np.expm1(-x)) / spec.g
    else:  # pl; alpha > 2 enforced at construction
        a = spec.alpha
        small = (a - 1.0) * x < _SERIES_X
        series = _series(
            np.where(small, x, 0.0), 0.5 * (a - 1.0), lambda k: (2.0 - a - k) / (k + 1)
        )
        direct = (x * (a - 2.0) + np.expm1((2.0 - a) * np.log1p(x))) / (a - 2.0)
        out = np.where(small, series, direct) / spec.g
    return out if out.ndim else float(out)


def beta_quadrature(spec: NoiseSpec, tau: float, panels: int = 1024) -> float:
    """Independent oracle for ``beta_closed``: 2-D composite trapezoid over
    [0, tau]^2, Richardson-extrapolated from panel counts (panels/2, panels).

    The extrapolation cancels the leading h^2 error term, which plain
    trapezoid needs to resolve the |s - s'| kink of the ou/pl kernels; on the
    smooth gn kernel it is simply more accurate.  The fgn kernel is evaluated
    in its two-argument nonstationary form.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if panels < 8:
        raise ValueError("panels must be at least 8")
    if panels % 2:
        raise ValueError("panels must be even (Richardson halving)")
    if tau == 0.0:
        return 0.0
    coarse = _trapezoid_2d(spec, tau, panels // 2)
    fine = _trapezoid_2d(spec, tau, panels)
    return (4.0 * fine - coarse) / 3.0


def _trapezoid_2d(spec: NoiseSpec, tau: float, panels: int) -> float:
    x = np.linspace(0.0, tau, panels + 1)
    w = np.full(panels + 1, tau / panels)
    w[0] *= 0.5
    w[-1] *= 0.5
    grid_s, grid_sp = np.meshgrid(x, x, indexing="ij")
    values = autocorrelation(spec, grid_s, grid_sp)
    return float(np.einsum("i,j,ij->", w, w, values))


def dephasing_factor(n: int, spec: NoiseSpec, tau, omega: float = 1.0):
    """Expectation <exp(i n phi)> for the Gaussian phase at time tau.

    phi has zero mean and variance omega^2 * beta(tau), so the expectation is
    exp(-n^2 omega^2 beta / 2).  This is the factor damping the n-th Fourier
    component of the evolved density matrix.  tau may be a scalar (the
    result is a float) or an array.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    out = np.exp(-0.5 * n * n * omega * omega * beta_closed(spec, tau))
    return out if out.ndim else float(out)
