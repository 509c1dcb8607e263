"""Purity and entropy: matrix functionals vs closed forms."""

import math

import numpy as np
import pytest

from qutrit_dephasing import (
    NoiseSpec,
    beta_closed,
    coherence_loss,
    evolve_averaged,
    initial_state,
    purity_closed,
    vn_entropy_closed,
)
from references import entropy_exact, gaussian_chi, propagated, purity, vn_entropy

BETAS = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]


def loss(var):
    """Coherence loss s = 1 - chi2^2 of a zero-mean Gaussian phase of variance var."""
    return coherence_loss(2, var)


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0)

    def test_pure_state(self):
        assert purity(np.full((3, 3), 1.0 / 3.0)) == pytest.approx(1.0)

    def test_averaged_state_value(self):
        rho = evolve_averaged(initial_state(1.0), gaussian_chi(0.5))
        assert purity(rho) == pytest.approx((17.0 + math.exp(-2.0)) / 18.0, abs=1e-12)


class TestPurityClosed:
    def test_zero_beta(self):
        assert purity_closed(loss(0.0)) == 1.0

    def test_saturation(self):
        assert purity_closed(loss(1e3)) == pytest.approx(17.0 / 18.0, abs=1e-15)
        assert purity_closed(1.0) == pytest.approx(0.9444444444444444)
        # -4 omega^2 beta would overflow near the float maximum
        dephased = coherence_loss(2, beta_closed(NoiseSpec("ou", g=1.0), 1.7e308))
        assert purity_closed(dephased) == purity_closed(loss(math.inf))

    def test_quarter_beta(self):
        assert purity_closed(loss(0.25)) == pytest.approx(
            (17.0 + math.exp(-1.0)) / 18.0
        )

    def test_factor_outside_unit_interval_rejected(self):
        for s in (1.1, np.array([0.5, -1e-300]), math.nan):
            with pytest.raises(ValueError, match=r"coherence loss s must lie in \[0, 1\]"):
                purity_closed(s, 0.5)


class TestVnEntropy:
    def test_pure_state_zero(self):
        assert vn_entropy(np.full((3, 3), 1.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert vn_entropy(np.eye(3) / 3.0) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_saturation_value(self):
        rho = evolve_averaged(initial_state(1.0), gaussian_chi(1e4))
        assert vn_entropy(rho) == pytest.approx(0.130, abs=1e-3)
        assert vn_entropy_closed(1.0) == pytest.approx(0.1298, abs=5e-4)


class TestVnEntropyClosed:
    def test_zero_beta(self):
        assert vn_entropy_closed(loss(0.0)) == 0.0

    def test_saturation(self):
        assert vn_entropy_closed(loss(1e3)) == pytest.approx(vn_entropy_closed(1.0), abs=1e-14)
        # -4 omega^2 beta would overflow near the float maximum
        dephased = coherence_loss(2, beta_closed(NoiseSpec("ou", g=1.0), 1.7e308))
        assert vn_entropy_closed(dephased) == vn_entropy_closed(loss(math.inf))

    def test_factor_outside_unit_interval_rejected(self):
        for s in (-1.5, np.array([0.5, 1.0 + 1e-9]), np.array([math.nan])):
            with pytest.raises(ValueError, match=r"coherence loss s must lie in \[0, 1\]"):
                vn_entropy_closed(s, 0.5)

    @pytest.mark.parametrize("beta", BETAS + [1e-10, 1e-12])
    def test_matches_eigensolver(self, beta):
        rho = evolve_averaged(initial_state(1.0), gaussian_chi(beta))
        closed = vn_entropy_closed(loss(beta))
        assert closed == pytest.approx(vn_entropy(rho), abs=1e-10)
        # at tiny beta the small eigenvalue, ~ s/36, sets the whole entropy
        assert closed == pytest.approx(vn_entropy(rho), rel=1e-3, abs=1e-14)

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.999, 1.0])
    def test_matches_50_digit_reference(self, r):
        # as s -> 0 the small eigenvalue (3 - sqrt(9 - s)) / 6 is a
        # difference of nearly equal numbers unless written without it
        rng = np.random.default_rng(11)
        losses = np.concatenate([np.logspace(-16.0, 0.0, 161), rng.uniform(0.0, 1.0, 200)])
        for s, value in zip(losses, vn_entropy_closed(losses, r)):
            exact = float(entropy_exact(s, r))
            assert abs(value - exact) <= 1e-15 * exact, s


@pytest.mark.parametrize("closed", [purity_closed, vn_entropy_closed])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_array_input_matches_scalar(closed, r):
    betas = np.array(BETAS + [1e-12, math.inf])
    values = closed(loss(betas), r)
    assert values.shape == betas.shape
    scalars = [closed(loss(b), r) for b in betas]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)


class TestConsistency:
    @pytest.mark.parametrize("beta", BETAS)
    def test_purity_closed_vs_matrix(self, beta):
        rho = evolve_averaged(initial_state(1.0), gaussian_chi(beta))
        assert abs(purity_closed(loss(beta)) - purity(rho)) <= 1e-10

    def test_monotone_in_beta(self):
        betas = np.linspace(0.0, 6.0, 80)
        purities = [purity_closed(loss(b)) for b in betas]
        entropies = [vn_entropy_closed(loss(b)) for b in betas]
        assert all(b < a for a, b in zip(purities, purities[1:]))
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_extrema_concordant_and_joint_saturation(self):
        betas = np.linspace(0.0, 10.0, 400)
        purities = np.array([purity_closed(loss(b)) for b in betas])
        entropies = np.array([vn_entropy_closed(loss(b)) for b in betas])
        assert betas[np.argmax(purities)] == 0.0
        assert betas[np.argmin(entropies)] == 0.0
        # both metrics approach saturation through the shared exp(-4 beta)
        # driver: the 1e-3 purity threshold maps to an ~1.874e-3 entropy gap
        # (slope 0.1039 per unit of exp(-4 beta) vs purity's 1/18), so the two
        # proximity conditions flip at the same beta.
        near_purity = purities - purity_closed(1.0) <= 1e-3
        near_entropy = vn_entropy_closed(1.0) - entropies <= 18.0 * 0.10387 * 1e-3
        assert np.array_equal(near_purity, near_entropy)

    def test_rank_deficiency_harmless(self):
        # zero eigenvalue contributes nothing at any beta
        for beta in BETAS:
            rho = evolve_averaged(initial_state(1.0), gaussian_chi(beta))
            eigs = np.linalg.eigvalsh(rho)
            assert abs(eigs[0]) < 1e-10
            nonzero = eigs[1:]
            manual = -np.sum(
                [lam * math.log(lam) for lam in nonzero if lam > 1e-10]
            )
            assert vn_entropy(rho) == pytest.approx(manual, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("a", [1.0, 2.0, 2.5])
    def test_two_point_phase_law(self, a, r):
        # phi = +-a with equal weights: chi_n = cos(n a), negative for these a,
        # so s = 1 - cos(2a)^2 = sin(2a)^2
        rho = np.mean(propagated(initial_state(r), np.array([a, -a])), axis=0)
        s = np.sin(2.0 * a) ** 2
        assert purity_closed(s, r) == pytest.approx(purity(rho), abs=1e-14)
        assert vn_entropy_closed(s, r) == pytest.approx(vn_entropy(rho), abs=1e-14)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("a, b, p", [(1.0, 0.4, 0.3), (2.5, 1.2, 0.5), (0.2, 3.0, 0.9)])
    def test_asymmetric_two_point_phase_law(self, a, b, p, r):
        # phi = a with weight p, -b with weight 1 - p: a complex chi2
        states = propagated(initial_state(r), np.array([a, -b]))
        rho = p * states[0] + (1.0 - p) * states[1]
        chi2 = p * np.exp(2j * a) + (1.0 - p) * np.exp(-2j * b)
        s = 1.0 - abs(chi2) ** 2
        assert purity_closed(s, r) == pytest.approx(purity(rho), abs=2e-15)
        assert vn_entropy_closed(s, r) == pytest.approx(vn_entropy(rho), abs=2e-15)


@pytest.mark.parametrize("closed", [purity_closed, vn_entropy_closed])
@pytest.mark.parametrize("r", [-0.1, 1.3, 3.0])
def test_r_outside_unit_interval_rejected(closed, r):
    with pytest.raises(ValueError, match=rf"r must lie in \[0, 1\], got {r}"):
        closed(0.0, r)
