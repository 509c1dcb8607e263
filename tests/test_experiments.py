"""Input rejections in experiments: grids, sweeps, preservation times, figures."""

import math

import pytest

from qutrit_dephasing import NoiseSpec
from qutrit_dephasing.experiments import figure, preservation_time, run_sweep, tau_grid


@pytest.mark.parametrize("tau_max", [0.0, -1.0, math.nan, math.inf])
def test_tau_max_positive_and_finite(tau_max):
    # at inf numpy's linspace would warn and return [nan, inf, inf]
    with pytest.raises(ValueError, match=f"tau_max must be positive and finite, got {tau_max}"):
        tau_grid(tau_max, 3)


def test_empty_spec_list_rejected(tmp_path):
    # it once failed with an IndexError naming the plot script's family
    with pytest.raises(ValueError, match="the spec list is empty"):
        run_sweep([], tau_grid(1.0, 3), outputs=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "specs",
    [
        [NoiseSpec("ou"), NoiseSpec("ou")],
        # equal specs built two ways, not adjacent
        [NoiseSpec("ou", g=1.0), NoiseSpec("ou", g=3.0), NoiseSpec("ou")],
    ],
)
def test_repeated_spec_rejected_before_any_write(specs, tmp_path):
    # it once wrote sweep_ou_g1.csv twice and returned that path twice
    with pytest.raises(ValueError, match="the spec list repeats a spec"):
        run_sweep(specs, tau_grid(1.0, 3), outputs=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta", [0.0, -1e-3, math.nan])
def test_preservation_delta_positive(delta):
    with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
        preservation_time(NoiseSpec("ou", g=1.0), delta=delta)


def test_preservation_unknown_measure():
    with pytest.raises(ValueError, match="unknown measure 'coherence'"):
        preservation_time(NoiseSpec("ou", g=1.0), measure="coherence")


def test_unknown_figure(tmp_path):
    with pytest.raises(ValueError, match="unknown figure 'nope'; expected one of"):
        figure("nope", str(tmp_path))
    assert list(tmp_path.iterdir()) == []
