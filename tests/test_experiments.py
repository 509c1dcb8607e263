"""Input rejections in experiments (grids, sweeps, preservation times,
figures) and the columns of its CSV rows."""

import math

import pytest

from qutrit_dephasing import NoiseSpec, fluctuation_series, phase_law
from qutrit_dephasing.experiments import (
    CSV_HEADER,
    _MATRIX_COLUMNS,
    figure,
    preservation_time,
    run_sweep,
    sweep_rows,
    tau_grid,
)


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


@pytest.mark.parametrize("with_matrix", [False, True])
@pytest.mark.parametrize("noiseless", [False, True])
def test_sweep_rows_names_its_columns(noiseless, with_matrix):
    # every CSV header comes from sweep_rows, one name per column of its rows
    taus = tau_grid(2.0, 5)
    law = fluctuation_series(taus, 0.5) if noiseless else phase_law(NoiseSpec("pl", g=3.0), taus)
    header, rows = sweep_rows(taus, law, 0.5, with_matrix)
    assert header == CSV_HEADER + (_MATRIX_COLUMNS if with_matrix else [])
    assert len(header) == rows.shape[1]
    assert rows.shape[0] == taus.size


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
