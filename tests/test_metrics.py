"""Purity and entropy: matrix functionals vs closed forms."""

import math

import numpy as np
import pytest

from qutrit_dephasing import (
    ENTROPY_SATURATION,
    PURITY_SATURATION,
    evolve_averaged,
    initial_state,
    purity,
    purity_closed,
    vn_entropy,
    vn_entropy_closed,
)

BETAS = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0)

    def test_pure_state(self):
        assert purity(np.full((3, 3), 1.0 / 3.0)) == pytest.approx(1.0)

    def test_averaged_state_value(self):
        rho = evolve_averaged(initial_state(1.0), 0.5)
        assert purity(rho) == pytest.approx((17.0 + math.exp(-2.0)) / 18.0, abs=1e-12)


class TestPurityClosed:
    def test_zero_beta(self):
        assert purity_closed(0.0) == 1.0

    def test_saturation(self):
        assert purity_closed(1e3) == pytest.approx(17.0 / 18.0, abs=1e-15)
        assert PURITY_SATURATION == pytest.approx(0.9444444444444444)

    def test_quarter_beta(self):
        assert purity_closed(0.25) == pytest.approx((17.0 + math.exp(-1.0)) / 18.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            purity_closed(-0.1)
        with pytest.raises(ValueError):
            purity_closed(np.array([0.5, -1e-9]), 0.5)


class TestVnEntropy:
    def test_pure_state_zero(self):
        assert vn_entropy(np.full((3, 3), 1.0 / 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert vn_entropy(np.eye(3) / 3.0) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_saturation_value(self):
        rho = evolve_averaged(initial_state(1.0), 1e4)
        assert vn_entropy(rho) == pytest.approx(0.130, abs=1e-3)
        assert ENTROPY_SATURATION == pytest.approx(0.1298, abs=5e-4)


class TestVnEntropyClosed:
    def test_zero_beta(self):
        assert vn_entropy_closed(0.0) == 0.0

    def test_saturation(self):
        assert vn_entropy_closed(1e3) == pytest.approx(ENTROPY_SATURATION, abs=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vn_entropy_closed(-1.0)
        with pytest.raises(ValueError):
            vn_entropy_closed(np.array([0.5, -1e-9]), 0.5)

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_eigensolver(self, beta):
        rho = evolve_averaged(initial_state(1.0), beta)
        assert vn_entropy_closed(beta) == pytest.approx(vn_entropy(rho), abs=1e-10)


@pytest.mark.parametrize("closed", [purity_closed, vn_entropy_closed])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_array_input_matches_scalar(closed, r):
    betas = np.array(BETAS + [1e-12, math.inf])
    values = closed(betas, r)
    assert values.shape == betas.shape
    scalars = [closed(float(b), r) for b in betas]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)


class TestConsistency:
    @pytest.mark.parametrize("beta", BETAS)
    def test_purity_closed_vs_matrix(self, beta):
        rho = evolve_averaged(initial_state(1.0), beta)
        assert abs(purity_closed(beta) - purity(rho)) <= 1e-10

    def test_monotone_in_beta(self):
        betas = np.linspace(0.0, 6.0, 80)
        purities = [purity_closed(b) for b in betas]
        entropies = [vn_entropy_closed(b) for b in betas]
        assert all(b < a for a, b in zip(purities, purities[1:]))
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_extrema_concordant_and_joint_saturation(self):
        betas = np.linspace(0.0, 10.0, 400)
        purities = np.array([purity_closed(b) for b in betas])
        entropies = np.array([vn_entropy_closed(b) for b in betas])
        assert betas[np.argmax(purities)] == 0.0
        assert betas[np.argmin(entropies)] == 0.0
        # both metrics approach saturation through the shared exp(-4 beta)
        # driver: the 1e-3 purity threshold maps to an ~1.874e-3 entropy gap
        # (slope 0.1039 per unit of exp(-4 beta) vs purity's 1/18), so the two
        # proximity conditions flip at the same beta.
        near_purity = purities - PURITY_SATURATION <= 1e-3
        near_entropy = ENTROPY_SATURATION - entropies <= 18.0 * 0.10387 * 1e-3
        assert np.array_equal(near_purity, near_entropy)

    def test_rank_deficiency_harmless(self):
        # zero eigenvalue contributes nothing at any beta
        for beta in BETAS:
            rho = evolve_averaged(initial_state(1.0), beta)
            eigs = np.linalg.eigvalsh(rho)
            assert abs(eigs[0]) < 1e-10
            nonzero = eigs[1:]
            manual = -np.sum(
                [lam * math.log(lam) for lam in nonzero if lam > 1e-10]
            )
            assert vn_entropy(rho) == pytest.approx(manual, abs=1e-12)
