"""Propagator, noiseless evolution, and phase averaging."""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from qutrit_dephasing import (
    dephasing_factor,
    evolve_averaged,
    fluctuation_series,
    initial_state,
    propagator,
)
from qutrit_dephasing.dynamics import SX_EIGENVALUES, SX_EIGENVECTORS
from qutrit_dephasing.metrics import purity_closed
from references import SX, purity, random_state, unitary

RNG = np.random.default_rng(20240817)


def noiseless_states(t_grid, omega=1.0, r=1.0):
    """The states from initial_state(r) under the noiseless field's phase law."""
    _, _, chi = fluctuation_series(t_grid, omega)
    return evolve_averaged(initial_state(r), chi)


def gaussian(var):
    """chi of a zero-mean Gaussian phase of variance var."""
    return lambda n: dephasing_factor(n, var)


def pair(chi1, chi2):
    """chi of a phase law given by its factors at n = 1, 2."""
    return {1: chi1, 2: chi2}.__getitem__


class TestSpinOperators:
    def test_exponential_matches_propagator(self):
        phis = (0.0, 0.3, np.pi, 2.4)
        for phi, stacked in zip(phis, propagator(np.array(phis))):
            assert np.allclose(unitary(phi), propagator(phi), atol=1e-12)
            assert np.max(np.abs(stacked - propagator(phi))) < 1e-15

    def test_center_entry_at_pi(self):
        assert unitary(np.pi)[1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert propagator(np.pi)[1, 1] == -1.0

    def test_sx_eigenbasis(self):
        v = SX_EIGENVECTORS
        assert np.max(np.abs(SX @ v - v @ np.diag(SX_EIGENVALUES))) <= 1e-15
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-15


class TestPropagator:
    def test_identity_at_zero(self):
        assert np.allclose(propagator(0.0), np.eye(3), atol=1e-15)

    def test_identity_at_full_turn(self):
        assert np.allclose(propagator(2.0 * np.pi), np.eye(3), atol=1e-12)

    def test_unitarity(self):
        u = propagator(0.7)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


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
    """Noiseless evolution, as the point-mass law of fluctuation_series gives it."""

    def test_time_zero_identity(self):
        rho0 = initial_state(0.7)
        out = noiseless_states([0.0], r=0.7)[0]
        assert np.max(np.abs(out - rho0)) <= 1e-15

    def test_matches_closed_form_matrix(self):
        # r=1: entries (3 + cos 2phi)/12, (4 +- i sqrt2 sin 2phi)/12, (6 - 2 cos 2phi)/12
        t = np.array([0.3, np.pi / 2, 2.2])
        for phi, out in zip(t, noiseless_states(t, omega=1.0)):
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
        out = noiseless_states([np.pi / 2])[0]
        assert out[1, 1].real == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_trace_and_spectrum_preserved(self):
        rho0 = initial_state(0.7)
        out = noiseless_states([3.2], r=0.7)[0]
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho0), atol=1e-10
        )


class TestEvolveAveraged:
    def test_no_noise_limit(self):
        out = evolve_averaged(initial_state(1.0), gaussian(0.0))
        assert np.allclose(out, np.full((3, 3), 1.0 / 3.0), atol=1e-14)

    def test_no_noise_equals_noiseless_any_state(self):
        for _ in range(5):
            rho0 = random_state(RNG)
            assert np.max(np.abs(evolve_averaged(rho0, gaussian(0.0)) - rho0)) <= 1e-15

    def test_matches_gauss_hermite_average(self):
        # phi = mu + sqrt(var) x with x ~ N(0, 1); 160 nodes integrate the
        # degree-2 trigonometric polynomial U rho0 U+ to rounding for var <= 50.
        # A mean shift mu multiplies chi_n by exp(i n mu).
        nodes, weights = hermegauss(160)
        weights = weights / weights.sum()
        for _ in range(5):
            rho0 = random_state(RNG)
            for var in (0.0, 1e-9, 0.3, 1.0, 5.0, 50.0):
                for mu in (0.0, 0.7, -2.5):
                    u = propagator(mu + np.sqrt(var) * nodes)
                    states = u @ rho0 @ u.conj().swapaxes(-1, -2)
                    reference = np.tensordot(weights, states, axes=1)
                    chi = gaussian(var)
                    if mu:  # mu = 0 keeps the real factors of a symmetric law
                        chi = pair(chi(1) * np.exp(1j * mu), chi(2) * np.exp(2j * mu))
                    assert np.max(np.abs(evolve_averaged(rho0, chi) - reference)) <= 1e-14

    def test_infinite_variance_keeps_sx_diagonal_part(self):
        out = evolve_averaged(initial_state(1.0), gaussian(np.inf))
        assert np.all(np.isfinite(out))
        assert purity(out) == pytest.approx(purity_closed(1.0), abs=1e-15)

    @pytest.mark.parametrize("r", [0.0, 0.4, 1.0])
    def test_real_state_stays_real(self, r):
        out = evolve_averaged(initial_state(r), gaussian(np.array([0.0, 0.3, 5.0, np.inf])))
        assert np.all(out.imag == 0.0)

    def test_strong_noise_limit(self):
        out = evolve_averaged(initial_state(1.0), gaussian(1e4))
        expected = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        expected[0, 0] = expected[2, 2] = expected[0, 2] = expected[2, 0] = 0.25
        expected[1, 1] = 0.5
        expected[0, 1] = expected[1, 0] = expected[1, 2] = expected[2, 1] = 1.0 / 3.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_closed_form_matrix(self):
        beta = 0.5
        out = evolve_averaged(initial_state(1.0), gaussian(beta))
        corner = (3.0 + np.exp(-2.0 * beta)) / 12.0
        assert out[0, 0].real == pytest.approx(corner, abs=1e-13)
        assert out[1, 1].real == pytest.approx(0.5 - np.exp(-2.0 * beta) / 6.0, abs=1e-13)
        assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("variance", [0.0, 0.1, 1.0, 7.5, 100.0])
    def test_valid_state_out(self, variance):
        out = evolve_averaged(initial_state(1.0), gaussian(variance))
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-10

    @pytest.mark.parametrize("variance", [0.0, 0.3, 2.0, 40.0])
    def test_rank_two_null_vector(self, variance):
        out = evolve_averaged(initial_state(1.0), gaussian(variance))
        null = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
        assert np.max(np.abs(out @ null)) < 1e-12

    def test_corner_deviation_shrinks_with_variance(self):
        limit = 0.25
        deviations = [
            abs(evolve_averaged(initial_state(1.0), gaussian(v))[0, 0] - limit)
            for v in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(b <= a for a, b in zip(deviations, deviations[1:]))

    def test_reads_chi_at_the_positive_gaps_only(self):
        # the Sx gaps are 1 and 2, so chi is called at n = 1 and n = 2, once each
        calls = []

        def chi(n):
            calls.append(n)
            return dephasing_factor(n, 0.5)

        out = evolve_averaged(initial_state(1.0), chi)
        assert sorted(calls) == [1, 2]
        assert np.array_equal(out, evolve_averaged(initial_state(1.0), gaussian(0.5)))

    def test_error_of_chi_passes_through(self):
        # a factor chi cannot resolve fails evolve_averaged with chi's own error
        def chi(n):
            raise ValueError(f"no factor at n={n}")

        with pytest.raises(ValueError, match="no factor at n=1"):
            evolve_averaged(initial_state(1.0), chi)

    def test_factor_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            evolve_averaged(initial_state(1.0), pair(1.1, 0.5))
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            evolve_averaged(initial_state(1.0), pair(0.5, np.array([0.0, -1.0, -1.0 - 1e-12])))

    def test_complex_factor_outside_unit_disc_rejected(self):
        with pytest.raises(ValueError, match=r"or the unit disc if complex"):
            evolve_averaged(initial_state(1.0), pair(0.5, (1.0 + 1e-12) * np.exp(0.3j)))

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(2) / 2.0, r"expected a 3x3 matrix, got shape \(2, 2\)"),
            (np.diag([0.5, 0.5, 0.0]) + np.triu(np.ones((3, 3)), 1), "is not Hermitian"),
            (np.eye(3) / 2.0, "trace differs from 1"),
            (np.diag([1.2, -0.2, 0.0]), "significantly negative eigenvalue"),
        ],
        ids=["shape", "hermitian", "trace", "negative"],
    )
    @pytest.mark.parametrize("call", [lambda rho: evolve_averaged(rho, pair(0.5, 0.25))])
    def test_invalid_density_matrix_rejected(self, call, rho, message):
        with pytest.raises(ValueError, match=message):
            call(rho)

    def test_array_matches_stacked_scalars(self):
        rho0 = random_state(np.random.default_rng(11))
        variances = np.array([[0.0, 1e-9, 0.2], [1.0, 7.5, 300.0]])
        out = evolve_averaged(rho0, gaussian(variances))
        assert out.shape == (2, 3, 3, 3)
        stacked = np.array(
            [[evolve_averaged(rho0, gaussian(v)) for v in row] for row in variances]
        )
        assert np.max(np.abs(out - stacked)) <= 1e-15


    @pytest.mark.parametrize("a", [1.0, 2.0, 2.5])
    def test_two_point_phase_law(self, a):
        # phi = +-a with equal weights: chi_n = cos(n a), negative for these a
        assert min(np.cos(a), np.cos(2.0 * a)) < 0.0
        u = propagator(np.array([a, -a]))
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho0 = random_state(rng)
            mean = np.mean(u @ rho0 @ u.conj().swapaxes(-1, -2), axis=0)
            out = evolve_averaged(rho0, lambda n: np.cos(n * a))
            assert np.max(np.abs(out - mean)) <= 1e-14

    @pytest.mark.parametrize("a, b, p", [(1.0, 0.4, 0.3), (2.5, 1.2, 0.5), (0.2, 3.0, 0.9)])
    def test_asymmetric_two_point_phase_law(self, a, b, p):
        # phi = a with weight p, -b with weight 1 - p: complex chi_n, and
        # entry (j, k) takes chi at the signed gap lambda_k - lambda_j
        u = propagator(np.array([a, -b]))
        chi1, chi2 = (p * np.exp(1j * n * a) + (1.0 - p) * np.exp(-1j * n * b) for n in (1, 2))
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho0 = random_state(rng)
            states = u @ rho0 @ u.conj().swapaxes(-1, -2)
            mean = p * states[0] + (1.0 - p) * states[1]
            # a Python complex scalar is taken as it is, not cast to float
            out = evolve_averaged(rho0, pair(complex(chi1), chi2))
            assert np.max(np.abs(out - mean)) <= 1e-15


class TestFluctuationSeries:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.7])
    def test_law_is_the_point_mass(self, omega):
        t = np.linspace(0.0, 15.0, 301)
        beta, s, chi = fluctuation_series(t, omega)
        assert np.array_equal(beta, np.zeros_like(t)) and np.array_equal(s, np.zeros_like(t))
        for n in (1, 2):
            assert np.array_equal(chi(n), np.exp(1j * n * omega * t))

    def test_single_point_grid(self):
        series = noiseless_states([0.0], r=0.6)
        rho0 = initial_state(0.6)
        for i in range(3):
            for j in range(3):
                assert series[0, i, j].real == pytest.approx(rho0[i, j].real)

    def test_entry_period_pi(self):
        t = np.linspace(0.0, 3.0 * np.pi, 1000)
        series = noiseless_states(t, omega=1.0)
        corner = series[:, 0, 0].real
        shifted = np.interp(t[t <= 2.0 * np.pi] + np.pi, t, corner)
        assert np.allclose(shifted, np.interp(t[t <= 2.0 * np.pi], t, corner), atol=1e-6)

    def test_zero_crossing_ratio(self):
        t = np.linspace(0.0, 15.0, 6000)
        counts = {}
        for omega in (0.5, 1.0):
            series = noiseless_states(t, omega=omega)
            signal = series[:, 0, 0].real - np.mean(series[:, 0, 0].real)
            counts[omega] = int(np.sum(np.diff(np.sign(signal)) != 0))
        assert counts[1.0] == pytest.approx(2 * counts[0.5], abs=1)

    @pytest.mark.parametrize("omega, r", [(1.0, 1.0), (0.5, 0.6)])
    def test_matches_noiseless_evolution(self, omega, r):
        t = np.linspace(0.0, 15.0, 301)
        series = noiseless_states(t, omega, r)
        assert series.shape == (t.size, 3, 3)
        rho0 = initial_state(r)
        u = unitary(omega * t)
        direct = u @ rho0 @ u.conj().transpose(0, 2, 1)
        assert np.max(np.abs(series - direct)) <= 1e-13

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fluctuation_series([])

    @pytest.mark.parametrize("grid", [[1.0, 0.5], [-1.0, 0.0], [0.0, np.nan], [0.0, np.inf]])
    def test_unsorted_negative_or_nan_grid_rejected(self, grid):
        # at inf the phases were nan, and evolve_averaged's factor check failed
        message = "time grid must be sorted, nonnegative and finite, not nan"
        with pytest.raises(ValueError, match=message):
            fluctuation_series(grid)
