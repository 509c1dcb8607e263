"""Propagator, noiseless evolution, and Gaussian-phase averaging."""

import numpy as np
import pytest
from scipy.linalg import expm

from qutrit_dephasing import (
    PhaseLaw,
    SystemParams,
    evolve_averaged,
    evolve_noiseless,
    fluctuation_series,
    fourier_components,
    initial_state,
    propagator,
    spin1_operators,
)

RNG = np.random.default_rng(20240817)


def random_state(rng):
    """Random 3x3 density matrix: normalized A A+ for complex Gaussian A."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestSpinOperators:
    def test_sz_eigenvalues(self):
        _, sz = spin1_operators()
        assert np.allclose(np.sort(np.linalg.eigvalsh(sz)), [-1.0, 0.0, 1.0])

    def test_exponential_matches_propagator(self):
        sx, _ = spin1_operators()
        phis = (0.0, 0.3, np.pi, 2.4)
        for phi, stacked in zip(phis, propagator(np.array(phis))):
            assert np.allclose(expm(-1j * phi * sx), propagator(phi), atol=1e-12)
            assert np.max(np.abs(stacked - propagator(phi))) < 1e-15

    def test_center_entry_at_pi(self):
        sx, _ = spin1_operators()
        assert expm(-1j * np.pi * sx)[1, 1] == pytest.approx(-1.0, abs=1e-12)


class TestPropagator:
    def test_identity_at_zero(self):
        assert np.allclose(propagator(0.0), np.eye(3), atol=1e-15)

    def test_identity_at_full_turn(self):
        assert np.allclose(propagator(2.0 * np.pi), np.eye(3), atol=1e-12)

    def test_unitarity(self):
        u = propagator(0.7)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_global_phase(self):
        u = propagator(0.4, eps0=2.0, t=1.5)
        assert np.allclose(u, np.exp(-1j * 3.0) * propagator(0.4), atol=1e-12)


class TestInitialState:
    def test_maximally_mixed(self):
        assert np.allclose(initial_state(0.0), np.eye(3) / 3.0)

    def test_pure_projector(self):
        assert np.allclose(initial_state(1.0), np.full((3, 3), 1.0 / 3.0))

    def test_half_mixture(self):
        rho = initial_state(0.5)
        assert np.allclose(np.diag(rho), 1.0 / 3.0)
        assert rho[0, 1] == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("r", [-0.1, 1.3])
    def test_range_check(self, r):
        with pytest.raises(ValueError):
            initial_state(r)


class TestEvolveNoiseless:
    def test_time_zero_identity(self):
        rho0 = initial_state(0.7)
        out = evolve_noiseless(rho0, SystemParams(), 0.0)
        assert np.allclose(out, rho0, atol=1e-15)

    def test_matches_closed_form_matrix(self):
        # r=1: entries (3 + cos 2phi)/12, (4 +- i sqrt2 sin 2phi)/12, (6 - 2 cos 2phi)/12
        params = SystemParams(omega=1.0, eta_const=1.0)
        for t in (0.3, np.pi / 2, 2.2):
            phi = t
            out = evolve_noiseless(initial_state(1.0), params, t)
            c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
            expected = (
                np.array(
                    [
                        [3 + c2, 4 + 1j * np.sqrt(2) * s2, 3 + c2],
                        [4 - 1j * np.sqrt(2) * s2, 6 - 2 * c2, 4 - 1j * np.sqrt(2) * s2],
                        [3 + c2, 4 + 1j * np.sqrt(2) * s2, 3 + c2],
                    ]
                )
                / 12.0
            )
            assert np.allclose(out, expected, atol=1e-12)

    def test_center_entry_at_half_pi(self):
        out = evolve_noiseless(initial_state(1.0), SystemParams(), np.pi / 2)
        assert out[1, 1].real == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_trace_and_spectrum_preserved(self):
        rho0 = initial_state(0.7)
        out = evolve_noiseless(rho0, SystemParams(), 3.2)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho0), atol=1e-10
        )

    def test_eps0_never_matters(self):
        rho0 = initial_state(0.4)
        a = evolve_noiseless(rho0, SystemParams(eps0=0.0), 1.7)
        b = evolve_noiseless(rho0, SystemParams(eps0=37.0), 1.7)
        assert np.allclose(a, b, atol=1e-12)


class TestFourierComponents:
    def test_reconstruction_random_pairs(self):
        for _ in range(20):
            rho0 = random_state(RNG)
            phi = RNG.uniform(-2.0 * np.pi, 2.0 * np.pi)
            coeffs = fourier_components(rho0)
            rebuilt = sum(
                coeffs[i] * np.exp(1j * n * phi) for i, n in enumerate(range(-2, 3))
            )
            u = propagator(phi)
            assert np.max(np.abs(rebuilt - u @ rho0 @ u.conj().T)) < 1e-10


class TestEvolveAveraged:
    def test_no_noise_limit(self):
        out = evolve_averaged(initial_state(1.0), SystemParams(), PhaseLaw(0.0))
        assert np.allclose(out, np.full((3, 3), 1.0 / 3.0), atol=1e-14)

    def test_no_noise_equals_noiseless_any_state(self):
        for _ in range(5):
            rho0 = random_state(RNG)
            averaged = evolve_averaged(rho0, SystemParams(), PhaseLaw(0.0))
            direct = evolve_noiseless(rho0, SystemParams(eta_const=0.0), 1.0)
            assert np.allclose(averaged, direct, atol=1e-12)

    def test_strong_noise_limit(self):
        out = evolve_averaged(initial_state(1.0), SystemParams(), PhaseLaw(1e4))
        expected = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        expected[0, 0] = expected[2, 2] = expected[0, 2] = expected[2, 0] = 0.25
        expected[1, 1] = 0.5
        expected[0, 1] = expected[1, 0] = expected[1, 2] = expected[2, 1] = 1.0 / 3.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_closed_form_matrix(self):
        beta = 0.5
        out = evolve_averaged(initial_state(1.0), SystemParams(), PhaseLaw(beta))
        corner = (3.0 + np.exp(-2.0 * beta)) / 12.0
        assert out[0, 0].real == pytest.approx(corner, abs=1e-13)
        assert out[1, 1].real == pytest.approx(0.5 - np.exp(-2.0 * beta) / 6.0, abs=1e-13)
        assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("variance", [0.0, 0.1, 1.0, 7.5, 100.0])
    def test_valid_state_out(self, variance):
        out = evolve_averaged(initial_state(1.0), SystemParams(), PhaseLaw(variance))
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-10

    @pytest.mark.parametrize("variance", [0.0, 0.3, 2.0, 40.0])
    def test_rank_two_null_vector(self, variance):
        out = evolve_averaged(initial_state(1.0), SystemParams(), PhaseLaw(variance))
        null = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert np.max(np.abs(out @ null)) < 1e-12

    def test_corner_deviation_shrinks_with_variance(self):
        limit = 0.25
        deviations = [
            abs(
                evolve_averaged(initial_state(1.0), SystemParams(), PhaseLaw(v))[0, 0]
                - limit
            )
            for v in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(b <= a for a, b in zip(deviations, deviations[1:]))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            PhaseLaw(-0.1)


class TestFluctuationSeries:
    def test_single_point_grid(self):
        series = fluctuation_series(SystemParams(r=0.6), [0.0])
        rho0 = initial_state(0.6)
        for i in range(3):
            for j in range(3):
                assert series[f"rho_re_{i}{j}"][0] == pytest.approx(rho0[i, j].real)

    def test_entry_period_pi(self):
        t = np.linspace(0.0, 3.0 * np.pi, 1000)
        series = fluctuation_series(SystemParams(omega=1.0, eta_const=1.0), t)
        corner = series["rho_re_00"]
        shifted = np.interp(t[t <= 2.0 * np.pi] + np.pi, t, corner)
        assert np.allclose(shifted, np.interp(t[t <= 2.0 * np.pi], t, corner), atol=1e-6)

    def test_zero_crossing_ratio(self):
        t = np.linspace(0.0, 15.0, 6000)
        counts = {}
        for omega in (0.5, 1.0):
            series = fluctuation_series(SystemParams(omega=omega), t)
            signal = series["rho_re_00"] - np.mean(series["rho_re_00"])
            counts[omega] = int(np.sum(np.diff(np.sign(signal)) != 0))
        assert counts[1.0] == pytest.approx(2 * counts[0.5], abs=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fluctuation_series(SystemParams(), [])
