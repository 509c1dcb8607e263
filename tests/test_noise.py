"""Kernels, closed-form beta vs the quadrature oracle, dephasing factors."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_dephasing import (
    NoiseSpec,
    autocorrelation,
    beta_closed,
    beta_quadrature,
    dephasing_factor,
)

ALL_SPECS = [
    NoiseSpec.fgn(0.1),
    NoiseSpec.fgn(0.5),
    NoiseSpec.fgn(0.9),
    NoiseSpec.gn(1.0),
    NoiseSpec.gn(5.0),
    NoiseSpec.ou(1.0),
    NoiseSpec.ou(5.0),
    NoiseSpec.pl(1.0, 3.0),
    NoiseSpec.pl(5.0, 10.0),
]

# x = g*tau from deep in the cancellation region to far past the kernel scale.
SMALL_TO_LARGE_X = np.logspace(-12.0, 4.0, 161)


def beta_reference(kind: str, x: float, alpha: float) -> float:
    """g * beta at x = g*tau, evaluated in 50-digit arithmetic."""
    with mpmath.workdps(50):
        x, a = mpmath.mpf(x), mpmath.mpf(alpha)
        if kind == "gn":
            return float((mpmath.exp(-x * x) - 1) / mpmath.sqrt(mpmath.pi) + x * mpmath.erf(x))
        if kind == "ou":
            return float(x + mpmath.exp(-x) - 1)
        return float((x * (a - 2) - 1 + (1 + x) ** (2 - a)) / (a - 2))


class TestNoiseSpec:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError):
            NoiseSpec("telegraph")

    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.4])
    def test_hurst_range(self, hurst):
        with pytest.raises(ValueError):
            NoiseSpec.fgn(hurst)

    @pytest.mark.parametrize("g", [0.0, -1.0])
    def test_positive_rate(self, g):
        for kind in ("gn", "ou", "pl"):
            with pytest.raises(ValueError):
                NoiseSpec(kind, g=g)

    @pytest.mark.parametrize("alpha", [2.0, 1.5, -3.0])
    def test_power_law_exponent(self, alpha):
        with pytest.raises(ValueError):
            NoiseSpec.pl(1.0, alpha)


class TestAutocorrelation:
    def test_ou_at_zero_lag(self):
        assert autocorrelation(NoiseSpec.ou(1.0), 0.3, 0.3) == pytest.approx(0.5)

    def test_fgn_brownian_covariance(self):
        # H = 1/2 reduces to min(s, s')
        assert autocorrelation(NoiseSpec.fgn(0.5), 2.0, 1.0) == pytest.approx(1.0)
        assert autocorrelation(NoiseSpec.fgn(0.5), 0.7, 1.9) == pytest.approx(0.7)

    def test_power_law_kernel_value(self):
        assert autocorrelation(NoiseSpec.pl(1.0, 3.0), 1.0, 0.0) == pytest.approx(0.125)

    def test_gaussian_kernel_value(self):
        val = autocorrelation(NoiseSpec.gn(2.0), 1.5, 1.0)
        assert val == pytest.approx(2.0 * math.exp(-1.0) / math.sqrt(math.pi))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(NoiseSpec.ou(1.0), -0.1, 0.5)

    def test_stationary_kernels_symmetric(self):
        for spec in ALL_SPECS:
            a = autocorrelation(spec, 1.3, 0.4)
            b = autocorrelation(spec, 0.4, 1.3)
            assert a == pytest.approx(b, abs=1e-15)


class TestBetaClosed:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_at_zero(self, spec):
        assert beta_closed(spec, 0.0) == 0.0

    def test_ou_unit_values(self):
        assert beta_closed(NoiseSpec.ou(1.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_fgn_brownian(self):
        assert beta_closed(NoiseSpec.fgn(0.5), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_power_law_alpha3(self):
        # g tau - 1 + 1/(1 + g tau) at g=1, tau=1
        assert beta_closed(NoiseSpec.pl(1.0, 3.0), 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            beta_closed(NoiseSpec.ou(1.0), -0.5)
        with pytest.raises(ValueError):
            beta_closed(NoiseSpec.gn(1.0), np.array([0.0, 1.0, -1e-3]))

    def test_fgn_crossover_in_hurst(self):
        early = [beta_closed(NoiseSpec.fgn(h), 0.5) for h in (0.1, 0.5, 0.9)]
        late = [beta_closed(NoiseSpec.fgn(h), 2.0) for h in (0.1, 0.5, 0.9)]
        assert early[0] > early[1] > early[2]
        assert late[0] < late[1] < late[2]

    @pytest.mark.parametrize("kind", ["gn", "ou", "pl"])
    def test_increasing_in_g(self, kind):
        for tau in (0.3, 1.0, 2.5):
            betas = [beta_closed(NoiseSpec(kind, g=g), tau) for g in (0.5, 1.0, 3.0, 10.0)]
            assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec.gn(1.0), NoiseSpec.ou(1.0)]
        + [NoiseSpec.pl(1.0, a) for a in (2.001, 2.5, 3.0, 5.0, 10.0)],
        ids=lambda spec: spec.label(),
    )
    def test_relative_accuracy_small_to_large_x(self, spec):
        got = beta_closed(spec, SMALL_TO_LARGE_X)
        want = np.array([beta_reference(spec.kind, x, spec.alpha) for x in SMALL_TO_LARGE_X])
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_array_matches_scalar(self, spec):
        taus = np.array([0.0, 1e-9, 0.01, 0.3, 1.0, 2.5, 40.0])
        values = beta_closed(spec, taus)
        assert values.shape == taus.shape
        scalars = [beta_closed(spec, float(t)) for t in taus]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_nondecreasing_in_tau(self, spec):
        taus = np.linspace(0.0, 3.0, 40)
        betas = [beta_closed(spec, t) for t in taus]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))


class TestBetaQuadrature:
    def test_zero_at_zero(self):
        assert beta_quadrature(NoiseSpec.gn(1.0), 0.0) == 0.0

    def test_panel_floor(self):
        with pytest.raises(ValueError):
            beta_quadrature(NoiseSpec.gn(1.0), 1.0, panels=4)

    def test_gn_agreement(self):
        spec = NoiseSpec.gn(1.0)
        closed = beta_closed(spec, 2.0)
        quad = beta_quadrature(spec, 2.0, panels=512)
        assert abs(quad - closed) / closed <= 1e-6

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("tau", [0.25, 1.0, 2.0])
    def test_oracle_agreement_grid(self, spec, tau):
        closed = beta_closed(spec, tau)
        quad = beta_quadrature(spec, tau, panels=1024)
        assert abs(quad - closed) / max(closed, 1e-12) <= 1e-6


class TestDephasingFactor:
    def test_n_zero(self):
        assert dephasing_factor(0, NoiseSpec.ou(3.0), 5.0) == 1.0

    def test_tau_zero(self):
        assert dephasing_factor(2, NoiseSpec.gn(1.0), 0.0) == 1.0

    def test_ou_value(self):
        expected = math.exp(-2.0 * math.exp(-1.0))
        assert dephasing_factor(2, NoiseSpec.ou(1.0), 1.0, omega=1.0) == pytest.approx(
            expected, rel=1e-12
        )

    @given(
        tau=st.floats(0.0, 10.0),
        n=st.integers(-3, 3),
        omega=st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_in_unit_interval(self, tau, n, omega):
        value = dephasing_factor(n, NoiseSpec.ou(1.0), tau, omega)
        assert 0.0 < value <= 1.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_array_matches_scalar(self, n):
        spec = NoiseSpec.pl(2.0, 4.0)
        taus = np.linspace(0.0, 3.0, 13)
        values = dephasing_factor(n, spec, taus, omega=0.7)
        scalars = [dephasing_factor(n, spec, float(t), omega=0.7) for t in taus]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)

    def test_monotone_in_arguments(self):
        spec = NoiseSpec.gn(1.0)
        taus = np.linspace(0.0, 3.0, 20)
        series = [dephasing_factor(2, spec, t) for t in taus]
        assert all(b <= a for a, b in zip(series, series[1:]))
        by_n = [dephasing_factor(n, spec, 1.0) for n in (0, 1, 2)]
        assert by_n[0] >= by_n[1] >= by_n[2]
        by_omega = [dephasing_factor(2, spec, 1.0, w) for w in (0.5, 1.0, 2.0)]
        assert by_omega[0] >= by_omega[1] >= by_omega[2]
