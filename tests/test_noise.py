"""Kernels, closed-form beta vs the quadrature oracle, dephasing factors."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, target
from hypothesis import strategies as st

import qutrit_dephasing
from qutrit_dephasing import (
    NoiseSpec,
    beta_closed,
    coherence_loss,
    dephasing_factor,
    fluctuation_series,
    initial_state,
    mc_average_state,
    phase_covariance,
    phase_law,
    purity_closed,
    sample_trajectories,
    vn_entropy_closed,
)
from qutrit_dephasing import experiments, noise
from qutrit_dephasing.noise import KINDS
from references import (
    autocorrelation,
    beta_exact,
    beta_quadrature,
    entropy_exact,
    grid_covariance,
)

ALL_SPECS = [
    NoiseSpec("fgn", hurst=0.1),
    NoiseSpec("fgn", hurst=0.5),
    NoiseSpec("fgn", hurst=0.9),
    NoiseSpec("gn", g=1.0),
    NoiseSpec("gn", g=5.0),
    NoiseSpec("ou", g=1.0),
    NoiseSpec("ou", g=5.0),
    NoiseSpec("pl", g=1.0, alpha=3.0),
    NoiseSpec("pl", g=5.0, alpha=10.0),
]

# x = g*tau from deep in the cancellation region to far past the kernel scale.
SMALL_TO_LARGE_X = np.logspace(-12.0, 4.0, 161)


def relative_error(got: float, exact) -> float:
    return float(abs(got - exact) / exact)


class TestNoiseSpec:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError):
            NoiseSpec("telegraph")

    @pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.4])
    def test_hurst_range(self, hurst):
        with pytest.raises(ValueError):
            NoiseSpec("fgn", hurst=hurst)

    @pytest.mark.parametrize("g", [0.0, -1.0])
    def test_positive_rate(self, g):
        for kind in ("gn", "ou", "pl"):
            with pytest.raises(ValueError):
                NoiseSpec(kind, g=g)

    @pytest.mark.parametrize("alpha", [2.0, 1.5, -3.0])
    def test_power_law_exponent(self, alpha):
        with pytest.raises(ValueError):
            NoiseSpec("pl", g=1.0, alpha=alpha)

    @pytest.mark.parametrize(
        "kind, params, unread",
        [
            ("ou", {"g": 1.0, "alpha": 5.0}, "alpha"),
            ("fgn", {"g": 2.0}, "g"),
            ("gn", {"hurst": 0.3}, "hurst"),
            ("pl", {"hurst": math.nan}, "hurst"),
        ],
    )
    def test_unread_parameter_rejected(self, kind, params, unread):
        with pytest.raises(ValueError, match=f"^{kind} does not read {unread}$"):
            NoiseSpec(kind, **params)

    @pytest.mark.parametrize(
        "kind, params, default",
        [
            ("ou", {"g": 1.0}, {"alpha": 3.0}),
            ("fgn", {"hurst": 0.2}, {"g": 1.0, "alpha": 3}),
            ("pl", {"g": 2.0, "alpha": 4.0}, {"hurst": 0.5}),
        ],
    )
    def test_unread_parameter_at_its_default_is_the_same_spec(self, kind, params, default):
        given, bare = NoiseSpec(kind, **params, **default), NoiseSpec(kind, **params)
        assert given == bare
        assert hash(given) == hash(bare)
        assert given.label() == bare.label()


class TestAutocorrelation:
    def test_ou_at_zero_lag(self):
        assert autocorrelation(NoiseSpec("ou", g=1.0), 0.3, 0.3) == pytest.approx(0.5)

    def test_fgn_brownian_covariance(self):
        # H = 1/2 reduces to min(s, s')
        assert autocorrelation(NoiseSpec("fgn", hurst=0.5), 2.0, 1.0) == pytest.approx(1.0)
        assert autocorrelation(NoiseSpec("fgn", hurst=0.5), 0.7, 1.9) == pytest.approx(0.7)

    def test_power_law_kernel_value(self):
        assert autocorrelation(NoiseSpec("pl", g=1.0, alpha=3.0), 1.0, 0.0) == pytest.approx(0.125)

    def test_gaussian_kernel_value(self):
        val = autocorrelation(NoiseSpec("gn", g=2.0), 1.5, 1.0)
        assert val == pytest.approx(2.0 * math.exp(-1.0) / math.sqrt(math.pi))

    def test_gaussian_kernel_at_huge_rate(self):
        # g^2 alone overflows a Python float past g ~ 1.34e154; (g u)^2 is 0 at u = 0
        assert autocorrelation(NoiseSpec("gn", g=1e160), 1.0, 1.0) == 1e160 / math.sqrt(math.pi)

    def test_negative_times_rejected(self):
        message = "autocorrelation times must be nonnegative, not nan"
        for s, s_prime in [(-0.1, 0.5), (math.nan, 1.0), (1.0, [0.0, math.nan])]:
            with pytest.raises(ValueError, match=message):
                autocorrelation(NoiseSpec("ou", g=1.0), s, s_prime)

    def test_stationary_kernels_symmetric(self):
        for spec in ALL_SPECS:
            a = autocorrelation(spec, 1.3, 0.4)
            b = autocorrelation(spec, 0.4, 1.3)
            assert a == pytest.approx(b, abs=1e-15)

    @pytest.mark.parametrize(
        "spec", [NoiseSpec("gn", g=1.0), NoiseSpec("pl", g=1.0, alpha=3.0)], ids=NoiseSpec.label
    )
    def test_far_apart_is_zero_without_warning(self, spec):
        # the lag overflows u*u (gn) or (g*u + 1)**alpha (pl); the kernel is 0
        assert np.all(autocorrelation(spec, [1e200, 1.7e308], 0.0) == 0.0)


class TestBetaClosed:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_at_zero(self, spec):
        assert beta_closed(spec, 0.0) == 0.0

    def test_ou_unit_values(self):
        assert beta_closed(NoiseSpec("ou", g=1.0), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_fgn_brownian(self):
        assert beta_closed(NoiseSpec("fgn", hurst=0.5), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_power_law_alpha3(self):
        # g tau - 1 + 1/(1 + g tau) at g=1, tau=1
        assert beta_closed(NoiseSpec("pl", g=1.0, alpha=3.0), 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_negative_tau_rejected(self):
        message = "tau must be nonnegative, not nan"
        with pytest.raises(ValueError, match=message):
            beta_closed(NoiseSpec("ou", g=1.0), -0.5)
        with pytest.raises(ValueError, match=message):
            beta_closed(NoiseSpec("gn", g=1.0), np.array([0.0, 1.0, -1e-3]))
        with pytest.raises(ValueError, match=message):
            beta_closed(NoiseSpec("ou", g=1.0), math.nan)
        with pytest.raises(ValueError, match=message):
            beta_closed(NoiseSpec("pl", g=1.0), np.array([0.0, math.nan]))

    def test_fgn_crossover_in_hurst(self):
        early = [beta_closed(NoiseSpec("fgn", hurst=h), 0.5) for h in (0.1, 0.5, 0.9)]
        late = [beta_closed(NoiseSpec("fgn", hurst=h), 2.0) for h in (0.1, 0.5, 0.9)]
        assert early[0] > early[1] > early[2]
        assert late[0] < late[1] < late[2]

    @pytest.mark.parametrize("kind", ["gn", "ou", "pl"])
    def test_increasing_in_g(self, kind):
        for tau in (0.3, 1.0, 2.5):
            betas = [beta_closed(NoiseSpec(kind, g=g), tau) for g in (0.5, 1.0, 3.0, 10.0)]
            assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec("gn", g=1.0), NoiseSpec("ou", g=1.0)]
        + [NoiseSpec("pl", g=1.0, alpha=a) for a in (2.001, 2.5, 3.0, 5.0, 10.0)],
        ids=lambda spec: spec.label(),
    )
    def test_relative_accuracy_small_to_large_x(self, spec):
        got = beta_closed(spec, SMALL_TO_LARGE_X)
        want = np.array([float(beta_exact(spec, x)) for x in SMALL_TO_LARGE_X])
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("kind", ["gn", "ou"])
    def test_exact_where_x_squared_underflows(self, kind):
        # x = g*tau = 1e-160: x*x underflows, although beta ~ 5e-21 is a normal
        # float; a series written as x*x*P(x)/g read 4.99994e-21 for ou
        spec = NoiseSpec(kind, g=1e-300)
        assert relative_error(beta_closed(spec, 1e140), beta_exact(spec, 1e140)) <= 1e-15

    @pytest.mark.parametrize("alpha", [2.0 + 1e-7, 3.0, 1e8, 1e22, 1e23, 1e100])
    def test_pl_series_at_any_alpha(self, alpha):
        # in x the series coefficients grow like alpha^k: they overflowed at
        # alpha = 1e23, and beta(0) was nan
        spec = NoiseSpec("pl", g=1.0, alpha=alpha)
        y = np.array([0.0, 1e-3, 0.04, 0.06, 1.0])  # (alpha - 1) * x
        taus = np.append(y / (alpha - 1.0), 1e-100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = beta_closed(spec, taus)
        assert values[0] == 0.0
        for tau, value in zip(taus[1:], values[1:]):
            assert relative_error(value, beta_exact(spec, tau)) <= 1e-14, tau

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec("gn", g=10.0), NoiseSpec("ou", g=10.0)]
        + [NoiseSpec("pl", g=10.0, alpha=a) for a in (3.0, 5.0)],
        ids=lambda spec: spec.label(),
    )
    def test_finite_near_float_max(self, spec):
        # g*tau overflows at 1.7e308, gn's x*x already at 1e306 and pl's
        # x*(alpha-2) at 1e307 for alpha=5; beta is tau less O(1/g)
        taus = np.array([1e306, 1e307, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = beta_closed(spec, taus)
            last = beta_closed(spec, 1.7e308)
        assert np.array_equal(values, taus)
        assert last == 1.7e308

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
        # the degenerate [0, 0] grid has zero weights, so the pair is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(beta_quadrature(spec, 0.0) == 0.0 for spec in ALL_SPECS)

    def test_gn_agreement(self):
        spec = NoiseSpec("gn", g=1.0)
        closed = beta_closed(spec, 2.0)
        quad = beta_quadrature(spec, 2.0)
        assert abs(quad - closed) / closed <= 1e-6

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("tau", [0.25, 1.0, 2.0])
    def test_oracle_agreement_grid(self, spec, tau):
        closed = beta_closed(spec, tau)
        quad = beta_quadrature(spec, tau)
        assert abs(quad - closed) / max(closed, 1e-12) <= 1e-6


class TestPhaseCovariance:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=NoiseSpec.label)
    @pytest.mark.parametrize(
        "taus", [np.linspace(0.1, 2.0, 20), np.geomspace(1e-8, 1e8, 33)], ids=["linear", "log"]
    )
    def test_diagonal_is_beta_closed(self, spec, taus):
        # bit for bit where C = S / 2; fgn's form rounds differently, by a few ulp
        diagonal, beta = np.diag(phase_covariance(spec, taus)), beta_closed(spec, taus)
        if spec.kind == "fgn":
            assert np.all(np.abs(diagonal - beta) <= 4 * np.spacing(beta))
        else:
            assert np.array_equal(diagonal, beta)

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec("fgn", hurst=0.1),
            NoiseSpec("fgn", hurst=0.5),
            NoiseSpec("fgn", hurst=0.9),
            NoiseSpec("gn", g=1.0),
            NoiseSpec("gn", g=10.0),
            NoiseSpec("ou", g=1.0),
            NoiseSpec("pl", g=1.0, alpha=3.0),
        ],
        ids=NoiseSpec.label,
    )
    def test_grid_quadrature_converges_to_it(self, spec):
        # the trapezoid phases of kernel paths on an M-point grid have the law
        # W^T K W; at 20 times in (0, 2] it approaches C as O(h^2) when M goes
        # from 401 to 1601 (a 16-fold fall), and as O(h^1.2) (5.4-fold) for
        # fgn H = 0.1, whose kernel has the kink of s^0.2 at 0
        gain = 4.0 if spec == NoiseSpec("fgn", hurst=0.1) else 12.0
        taus = np.linspace(0.1, 2.0, 20)
        exact = phase_covariance(spec, taus)
        errors = []
        for points in (401, 1601):
            grid = np.linspace(0.0, 2.0, points)
            indices = np.rint(taus / grid[1]).astype(int)
            assert np.allclose(grid[indices], taus, rtol=1e-15, atol=0.0)
            errors.append(np.max(np.abs(grid_covariance(spec, grid, indices) - exact)))
        assert errors[0] >= gain * errors[1]


class TestDephasingFactor:
    def test_n_zero(self):
        assert dephasing_factor(0, beta_closed(NoiseSpec("ou", g=3.0), 5.0)) == 1.0

    def test_tau_zero(self):
        assert dephasing_factor(2, beta_closed(NoiseSpec("gn", g=1.0), 0.0)) == 1.0

    def test_ou_value(self):
        expected = math.exp(-2.0 * math.exp(-1.0))
        beta = beta_closed(NoiseSpec("ou", g=1.0), 1.0)
        assert dephasing_factor(2, beta, omega=1.0) == pytest.approx(expected, rel=1e-12)

    @seed(20212)
    @given(
        tau=st.floats(0.0, 10.0),
        n=st.integers(-3, 3),
        omega=st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None, database=None)
    def test_bounded_in_unit_interval(self, tau, n, omega):
        value = dephasing_factor(n, beta_closed(NoiseSpec("ou", g=1.0), tau), omega)
        assert 0.0 < value <= 1.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_array_matches_scalar(self, n):
        spec = NoiseSpec("pl", g=2.0, alpha=4.0)
        taus = np.linspace(0.0, 3.0, 13)
        values = dephasing_factor(n, beta_closed(spec, taus), omega=0.7)
        scalars = [dephasing_factor(n, beta_closed(spec, float(t)), omega=0.7) for t in taus]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)

    def test_zero_where_omega_squared_beta_overflows(self):
        taus = np.array([0.0, 1.7e308])
        values = dephasing_factor(2, beta_closed(NoiseSpec("ou", g=10.0), taus), omega=2.0)
        assert np.array_equal(values, [1.0, 0.0])

    def test_zero_order_is_one_where_beta_is_inf(self):
        spec = NoiseSpec("fgn", hurst=0.5)
        assert dephasing_factor(0, beta_closed(spec, 1e200)) == 1.0
        values = dephasing_factor(0, beta_closed(spec, np.array([0.0, 1e200])))
        assert np.array_equal(values, [1.0, 1.0])
        assert coherence_loss(0, beta_closed(spec, 1e200)) == 0.0

    @pytest.mark.parametrize("law", [dephasing_factor, coherence_loss])
    @pytest.mark.parametrize("omega", [1e-160, 1e-200])
    def test_overflowed_beta_at_tiny_omega_rejected(self, law, omega):
        # beta = tau^3 / 3 is inf, but n^2 omega^2 beta / 2 need not be: at
        # omega = 1e-200, omega^2 is 0 and 0 * inf would be nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the float range"):
                law(2, beta_closed(NoiseSpec("fgn", hurst=0.5), np.array([1.0, 1e200])), omega)

    @pytest.mark.parametrize("law", [dephasing_factor, coherence_loss])
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize(
        "beta", [-1e-300, math.nan, np.array([0.0, 1.0, -1.0]), np.array([math.nan, 1.0])]
    )
    def test_negative_or_nan_beta_rejected(self, law, n, beta):
        with pytest.raises(ValueError, match="beta must be nonnegative, not nan"):
            law(n, beta)

    def test_huge_omega(self):
        # past omega ~ 9.5e153, n^2 omega^2 / 2 overflows to inf: at beta = 0
        # the exponent is still 0, not inf * 0 = nan, and at a small beta it
        # stays finite
        assert dephasing_factor(2, 0.0, 1e200) == 1.0
        assert coherence_loss(2, np.array([0.0]), 1e200) == 0.0
        chi1 = dephasing_factor(1, 1e-307, 9.5e153)
        assert abs(chi1 / 0.010970998366931497 - 1.0) <= 1e-15
        for beta in (2.3e-308, 5e-308, 1e-307):
            for n in (1, 2):
                with mpmath.workdps(50):
                    x = n * n * mpmath.mpf(9.5e153) ** 2 * mpmath.mpf(beta) / 2
                    chi, s = float(mpmath.exp(-x)), float(-mpmath.expm1(-2 * x))
                # exp(-x) carries x times the relative error of x
                assert abs(dephasing_factor(n, beta, 9.5e153) - chi) <= 4e-16 * float(x) * chi
                assert abs(coherence_loss(n, beta, 9.5e153) - s) <= 4e-16 * s

    def test_one_beta_per_spec(self, monkeypatch):
        calls = []

        def counted(spec, tau):
            calls.append(spec)
            return beta_closed(spec, tau)

        # every caller outside noise reaches beta_closed through phase_law or
        # phase_covariance
        monkeypatch.setattr(noise, "beta_closed", counted)
        spec = NoiseSpec("pl", g=3.0, alpha=3.0)
        grid = np.linspace(0.0, 2.0, 21)
        experiments.sweep_rows(grid, noise.phase_law(spec, grid), with_matrix=True)
        assert calls == [spec]
        # at all twenty drawn times, one beta for the factor and one for the
        # analytic states
        ensemble = sample_trajectories(spec, grid[1:], 10, 0)
        mc_average_state(initial_state(1.0), ensemble, 1.0)
        assert calls == [spec, spec, spec]

    def test_phase_law_is_exported(self):
        assert phase_law is noise.phase_law
        assert "phase_law" in qutrit_dephasing.__all__

    def test_phase_law_is_the_gaussian_law_at_beta_closed(self):
        spec, tau = NoiseSpec("pl", g=3.0, alpha=3.0), np.linspace(0.0, 2.0, 21)
        beta, s, chi = noise.phase_law(spec, tau, 0.7)
        assert np.array_equal(beta, beta_closed(spec, tau))
        assert np.array_equal(s, coherence_loss(2, beta, 0.7))
        for n in (1, 2):
            assert np.array_equal(chi(n), dephasing_factor(n, beta, 0.7))

    def test_phase_law_harmonics_are_lazy(self):
        # at this tiny omega the overflowed beta leaves s saturated, but chi_1
        # is not resolved: it raises only when read
        beta, s, chi = noise.phase_law(NoiseSpec("fgn"), 1e110, 2e-153)
        assert beta == math.inf and s == 1.0
        with pytest.raises(ValueError, match="at n=1, omega=2e-153"):
            chi(1)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_nonpositive_omega_rejected(self, omega):
        # omega = inf once passed an omega > 0 check: at beta = 0 the law
        # returned nan with a RuntimeWarning
        message = f"omega must be positive and finite, got {omega}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law in (dephasing_factor, coherence_loss):
                for beta in (0.0, beta_closed(NoiseSpec("ou", g=1.0), 1.0)):
                    with pytest.raises(ValueError, match=message):
                        law(2, beta, omega)
            with pytest.raises(ValueError, match=message):
                fluctuation_series([0.0, 1.0], omega)

    def test_monotone_in_arguments(self):
        spec = NoiseSpec("gn", g=1.0)
        taus = np.linspace(0.0, 3.0, 20)
        series = [dephasing_factor(2, beta_closed(spec, t)) for t in taus]
        assert all(b <= a for a, b in zip(series, series[1:]))
        beta = beta_closed(spec, 1.0)
        by_n = [dephasing_factor(n, beta) for n in (0, 1, 2)]
        assert by_n[0] >= by_n[1] >= by_n[2]
        by_omega = [dephasing_factor(2, beta, w) for w in (0.5, 1.0, 2.0)]
        assert by_omega[0] >= by_omega[1] >= by_omega[2]


class TestCoherenceLoss:
    @pytest.mark.parametrize("g", [1e-3, 1.0, 10.0])
    @pytest.mark.parametrize("r", [0.5, 0.999, 1.0])
    def test_entropy_matches_exact_beta(self, g, r):
        # a float chi2 = exp(-2 beta) cannot resolve 1 - chi2 below ~1e-16,
        # so the entropy must come from s = -expm1(-4 beta) to stay exact at
        # tiny g*tau
        taus = np.logspace(-12.0, 1.0, 14)
        spec = NoiseSpec("ou", g=g)
        values = vn_entropy_closed(coherence_loss(2, beta_closed(spec, taus)), r)
        for tau, value in zip(taus, values):
            with mpmath.workdps(50):
                s = -mpmath.expm1(-4 * beta_exact(spec, tau))
            exact = float(entropy_exact(s, r))
            assert abs(value - exact) <= 4e-15 * exact, tau


# log10 of the smallest and the largest normal float, each moved inward a little
LOG_TINY, LOG_HUGE = -307.6, 308.2


def log_uniform(low: float = LOG_TINY, high: float = LOG_HUGE):
    return st.floats(low, high).map(lambda u: 10.0**u)


@st.composite
def domain_points(draw):
    """A spec, a tau and an omega, each parameter log-uniform over the normal
    floats it may take: H below 1, and alpha - 2 down to where 2 + it > 2."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "fgn":
        spec = NoiseSpec(kind, hurst=draw(log_uniform(high=-1e-15)))
    elif kind == "pl":
        alpha = 2.0 + draw(log_uniform(low=math.log10(4.5e-16)))
        spec = NoiseSpec(kind, g=draw(log_uniform()), alpha=alpha)
    else:
        spec = NoiseSpec(kind, g=draw(log_uniform()))
    return spec, draw(log_uniform()), draw(log_uniform())


def is_normal(exact) -> bool:
    return sys.float_info.min <= exact <= sys.float_info.max


def domain_errors(spec: NoiseSpec, tau: float, omega: float) -> list[tuple[float, str]]:
    """(relative error, quantity) of beta, chi1, s and the r = 1 purity and
    entropy against 50-digit mpmath, each through the library's own chain
    (beta_closed, then the law at its beta, then the metrics at its s).  A
    quantity is left out where its exact value, or that of one it is computed
    from, is not a normal float.  chi1 = exp(-x) carries x times the relative
    error of its exponent x, so its error is taken per unit of max(1, x)."""
    exact_beta = beta_exact(spec, tau)
    if not is_normal(exact_beta):
        return []
    beta = beta_closed(spec, tau)
    errors = [(relative_error(beta, exact_beta), "beta")]
    with mpmath.workdps(50):
        x = mpmath.mpf(omega) ** 2 * exact_beta / 2
        # s = 1 - chi2^2 = 1 - exp(-8 x); past x = 800, chi1 is far below the
        # normal floats and s is 1 to 50 digits
        chi1 = mpmath.exp(-x) if x < 800 else mpmath.mpf(0)
        s = -mpmath.expm1(-8 * x) if x < 800 else mpmath.mpf(1)
        purity = 1 - s / 18
    if is_normal(chi1):
        got = dephasing_factor(1, beta, omega)
        errors.append((relative_error(got, chi1) / max(1.0, float(x)), "chi1"))
    if not is_normal(s):
        return errors
    loss = coherence_loss(2, beta, omega)
    errors.append((relative_error(loss, s), "s"))
    errors.append((relative_error(purity_closed(loss), purity), "purity"))
    entropy = entropy_exact(s)
    if is_normal(entropy):
        errors.append((relative_error(vn_entropy_closed(loss), entropy), "entropy"))
    return errors


def test_whole_domain_accuracy():
    # ROADMAP aim 3: about 1e-13 relative over the whole parameter domain
    seen = []

    @seed(20211)
    @settings(max_examples=300, deadline=None, database=None)
    @given(domain_points())
    def sample(point):
        errors = domain_errors(*point)
        if errors:
            worst = max(errors)
            target(worst[0])
            seen.append((*worst, point))

    sample()
    error, quantity, (spec, tau, omega) = max(seen, key=lambda case: case[0])
    assert error <= 1e-13, f"{quantity} off by {error:.3g} at {spec}, tau={tau!r}, omega={omega!r}"
