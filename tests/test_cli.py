"""CLI surface: subcommands, config layering, CSV schema, exit codes."""

import argparse
import ast
import csv
import gc
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_dephasing
from qutrit_dephasing import cli, montecarlo
from qutrit_dephasing.experiments import FIGURES
from qutrit_dephasing.noise import PARAMETERS, NoiseSpec, beta_closed
from references import (
    beta_exact, gaussian_chi, preservation_time_exact, propagated, purity, vn_entropy
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


BASE = ["tau", "beta", "purity", "entropy"]
CELLS = [f"{i}{j}" for i in range(3) for j in range(3)]
MATRIX = [f"rho_{part}_{cell}" for cell in CELLS for part in ("re", "im")]


def sweep_outputs(labels, kind):
    return [(f"sweep_{label}.csv", BASE, 201) for label in labels] + [f"plot_sweep_{kind}.py"]


# Printed outputs of each figure, in order: (csv, header, rows) or a script name.
FIGURE_OUTPUTS = {
    "noiseless": [(f"noiseless_omega{w}.csv", BASE + MATRIX, 1501) for w in ("0.5", "1")]
    + ["plot_noiseless.py"],
    "noisephase": [
        (f"noisephase_{label}.csv", BASE + ["dephasing_n2"], 301)
        for label in ("fgn_H0.5", "gn_g1", "ou_g1", "pl_g1_a5")
    ]
    + ["plot_noisephase.py"],
    "fgn": sweep_outputs(["fgn_H0.1", "fgn_H0.5", "fgn_H0.9"], "fgn"),
    "gn": sweep_outputs(["gn_g1", "gn_g3", "gn_g10"], "gn"),
    "ou": sweep_outputs(["ou_g1", "ou_g3", "ou_g10"], "ou"),
    "pl": sweep_outputs(["pl_g1_a3", "pl_g3_a3", "pl_g10_a3"], "pl")
    + sweep_outputs(["pl_g0.5_a3", "pl_g0.5_a5", "pl_g0.5_a10"], "pl"),
    "joint": [
        (f"joint_{label}.csv", BASE, 501)
        for label in (
            "gn_g0.001", "ou_g0.001", "pl_g0.001_a3", "gn_g0.01", "ou_g0.01", "pl_g0.01_a3"
        )
    ]
    + ["plot_joint.py"],
}


def check_schema(path):
    rows = read_csv(path)
    assert rows, path
    header = list(rows[0].keys())
    assert header[:4] == ["tau", "beta", "purity", "entropy"]
    taus = [float(r["tau"]) for r in rows]
    assert all(b >= a for a, b in zip(taus, taus[1:]))
    for row in rows:
        for value in row.values():
            assert math.isfinite(float(value))
    return rows


class TestBeta:
    def test_stdout_table(self, capsys):
        assert run(["beta", "--noise", "ou", "--g", "1", "--tau-max", "1", "--tau-steps", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "tau,beta,purity,entropy"
        assert len(out) == 6

    def test_csv_emission(self, tmp_path):
        assert run(["beta", "--noise", "gn", "--out", str(tmp_path)]) == 0
        rows = check_schema(tmp_path / "beta_gn_g1.csv")
        assert float(rows[0]["purity"]) == 1.0
        assert float(rows[0]["entropy"]) == 0.0

    def test_missing_noise_is_usage_error(self):
        assert run(["beta"]) == 1

    def test_invalid_alpha_is_numerical_error(self):
        assert run(["beta", "--noise", "pl", "--alpha", "2"]) == 2

    def test_stdout_matches_file(self, tmp_path, capsys):
        argv = ["beta", "--noise", "gn", "--g", "2", "--r", "0.5", "--tau-steps", "51"]
        assert run(argv) == 0
        table = capsys.readouterr().out
        assert run(argv + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "beta_gn_g2.csv").read_text(encoding="utf-8") == table

    @pytest.mark.parametrize("flags", [["--tau-steps", "1"], ["--tau-max", "0"]])
    def test_degenerate_grid_is_numerical_error(self, flags, capsys):
        # the same grid rule as sweep and oracle: at least 2 points, tau_max > 0
        assert run(["beta", "--noise", "ou"] + flags) == 2
        assert capsys.readouterr().out == ""

    def test_file_mode_is_that_of_open(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert run(["beta", "--noise", "ou", "--out", str(tmp_path)]) == 0
            with open(tmp_path / "reference", "w"):
                pass
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "beta_ou_g1.csv").st_mode
        assert mode == os.stat(tmp_path / "reference").st_mode

    def test_trailing_slash_out(self, tmp_path, capsys):
        assert run(["beta", "--noise", "ou", "--out", f"{tmp_path}/"]) == 0
        path = capsys.readouterr().out.strip()
        assert path == os.path.join(str(tmp_path), "beta_ou_g1.csv")
        check_schema(path)

    def test_tiny_g_tau_stays_positive(self, capsys):
        # g*tau <= 1e-8: the closed forms cancel unless summed as a series,
        # and the entropy keeps its steps only through s = -expm1(-4 beta)
        argv = ["beta", "--noise", "pl", "--g", "1e-3", "--tau-max", "1e-5", "--tau-steps", "201"]
        assert run(argv) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
        assert all(float(row[1]) > 0.0 for row in rows)
        entropies = [float(row[3]) for row in rows]
        assert entropies[0] > 0.0
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_pl_at_huge_alpha(self, capsys):
        # the small-x series of pl once overflowed at alpha ~ 1e23, and beta(0)
        # was nan: exit 2 with "beta must be nonnegative, not nan"
        grid = ["--tau-max", "1e-24", "--tau-steps", "3"]
        assert run(["beta", "--noise", "pl", "--alpha", "1e23"] + grid) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert rows[0] == ["0", "0", "1", "0"]
        for row in rows[1:]:  # y = (alpha - 1) g tau is 0.05 and 0.1
            exact = beta_exact(NoiseSpec("pl", alpha=1e23), float(row[0]))
            assert abs(float(row[1]) / exact - 1) <= 1e-14

    def test_huge_omega_at_zero_beta(self, capsys):
        # past omega ~ 9.5e153, n^2 omega^2 / 2 overflows to inf; at beta = 0
        # the exponent is still 0, not inf * 0 = nan (a warning fails the test)
        assert run(["beta", "--noise", "ou", "--omega", "1e200", "--tau-steps", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1] == "0,0,1,0"


class TestSweep:
    def test_one_csv_per_value(self, tmp_path):
        assert run(
            ["sweep", "--noise", "ou", "--g", "1,3,10", "--out", str(tmp_path)]
        ) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "plot_sweep_ou.py",
            "sweep_ou_g1.csv",
            "sweep_ou_g10.csv",
            "sweep_ou_g3.csv",
        ]
        for name in names:
            if name.endswith(".csv"):
                check_schema(tmp_path / name)

    def test_tau_near_float_max(self, tmp_path, capsys):
        # at omega 2, omega^2 beta passes the float range: the saturated state
        for flags in ([], ["--omega", "2", "--with-matrix"]):
            argv = [
                "sweep", "--noise", "ou", "--g", "10", "--tau-max", "1.7e308",
                "--tau-steps", "3", "--out", str(tmp_path), *flags,
            ]
            assert run(argv) == 0
            assert capsys.readouterr().err == ""
            rows = check_schema(tmp_path / "sweep_ou_g10.csv")
            assert float(rows[-1]["beta"]) == 1.7e308

    def test_fgn_beta_past_float_max(self, tmp_path):
        # in a subprocess, so a RuntimeWarning would reach stderr
        out = python(
            ["-m", "qutrit_dephasing.cli", "sweep", "--noise", "fgn", "--hurst", "0.5",
             "--tau-max", "1e200", "--tau-steps", "3", "--out", str(tmp_path)]
        )
        assert out.returncode == 0 and out.stderr == "", out.stderr
        rows = read_csv(tmp_path / "sweep_fgn_H0.5.csv")
        assert float(rows[-1]["beta"]) == math.inf
        assert float(rows[-1]["purity"]) == pytest.approx(17.0 / 18.0, rel=1e-15)

    def test_g_ordering_of_purity(self, tmp_path):
        run(["sweep", "--noise", "gn", "--g", "1,3,10", "--out", str(tmp_path)])
        curves = {
            g: [float(r["purity"]) for r in read_csv(tmp_path / f"sweep_gn_g{g}.csv")]
            for g in (1, 3, 10)
        }
        for a, b in zip(curves[10], curves[3]):
            assert a <= b
        for a, b in zip(curves[3][1:], curves[1][1:]):
            assert a < b

    def test_fgn_saturation_at_tau2(self, tmp_path):
        run(["sweep", "--noise", "fgn", "--hurst", "0.1,0.9", "--out", str(tmp_path)])
        for h in ("0.1", "0.9"):
            rows = read_csv(tmp_path / f"sweep_fgn_H{h}.csv")
            assert float(rows[-1]["purity"]) - 17.0 / 18.0 < 2e-3

    def test_with_matrix_columns(self, tmp_path):
        run(
            ["sweep", "--noise", "ou", "--g", "1", "--with-matrix", "--tau-steps", "5",
             "--out", str(tmp_path)]
        )
        rows = read_csv(tmp_path / "sweep_ou_g1.csv")
        assert "rho_re_00" in rows[0]
        assert float(rows[0]["rho_re_00"]) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("r", ["0", "0.5", "1"])
    def test_metric_columns_match_row_matrix(self, r, tmp_path):
        argv = ["sweep", "--noise", "ou", "--r", r, "--tau-max", "50", "--with-matrix"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        for row in read_csv(tmp_path / "sweep_ou_g1.csv"):
            # matrix columns follow the stats as re, im pairs in row-major order
            parts = [float(v) for v in list(row.values())[4:]]
            rho = np.array(parts).view(complex).reshape(3, 3)
            assert float(row["purity"]) == pytest.approx(purity(rho), abs=1e-10)
            assert float(row["entropy"]) == pytest.approx(vn_entropy(rho), abs=1e-10)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--noise", "fgn", "--g", "1,3"],
            ["--noise", "ou", "--hurst", "0.1,0.2"],
            ["--noise", "gn", "--alpha", "3,5"],
            ["--noise", "pl", "--g", "1,3", "--alpha", "3,5"],
        ],
    )
    def test_list_on_a_parameter_it_does_not_sweep(self, flags, tmp_path, capsys):
        assert run(["sweep", *flags, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values", ["1,1", "2,3,2", "1,1.0"])
    def test_repeated_value_is_usage_error(self, values, tmp_path, capsys):
        assert run(["sweep", "--noise", "ou", "--g", values, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_close_values_get_their_own_files(self, tmp_path, capsys):
        # both values print as 1 in %g form
        argv = ["sweep", "--noise", "ou", "--g", "1.0000001,1.0000002", "--tau-steps", "3"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        names = ["sweep_ou_g1.0000001.csv", "sweep_ou_g1.0000002.csv", "plot_sweep_ou.py"]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / n) for n in names]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            run(["sweep", "--noise", "pl", "--g", "1,3", "--alpha", "3", "--out", str(out)])
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestPreservation:
    def test_reports_tau_star(self, capsys):
        assert run(
            ["preservation", "--noise", "ou", "--g", "0.001", "--delta", "1e-3"]
        ) == 0
        out = capsys.readouterr().out
        assert "tau_star=" in out
        tau_star = float(out.split("tau_star=")[1])
        assert 40.0 < tau_star < 50.0

    def test_oversized_delta_rejected(self):
        assert run(["preservation", "--noise", "ou", "--g", "1", "--delta", "1"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--delta", "1e-300"],
            ["--delta", "1e-300", "--measure", "entropy"],
            ["--delta", "1e-16"],
        ],
    )
    def test_delta_below_float_spacing_rejected(self, flags, capsys):
        # metric - saturation is 0 or at least one spacing of the saturation
        # level, so a smaller delta would return where the metric first
        # rounds to saturation (tau ~ 9.49 instead of ~173 for 1e-300)
        assert run(["preservation", "--noise", "ou", *flags]) == 2
        assert "below the float spacing" in capsys.readouterr().err

    def test_r_sets_the_saturation_gap(self, capsys):
        # purity - saturation = r^2 exp(-4 beta) / 18, so the crossing lies
        # at beta = -ln(18 delta / r^2) / 4
        r, delta = 0.5, 1e-3
        assert run(
            ["preservation", "--noise", "ou", "--g", "1e-3", "--delta", str(delta),
             "--r", str(r)]
        ) == 0
        tau_star = float(capsys.readouterr().out.split("tau_star=")[1])
        target = -math.log(18.0 * delta / r**2) / 4.0
        spec = NoiseSpec("ou", g=1e-3)
        # bisection stops at adjacent floats; the rounding of the purity gap
        # leaves about 1e-16 / delta of tau_star, relative
        assert beta_closed(spec, tau_star * (1.0 - 1e-12)) <= target
        assert beta_closed(spec, tau_star) >= target

    @pytest.mark.parametrize(
        "spec, delta, measure, r, omega",
        [
            (NoiseSpec("ou", g=1e-3), 1e-3, "purity", 1.0, 1.0),
            (NoiseSpec("gn", g=1e-3), 1e-3, "purity", 1.0, 1.0),
            (NoiseSpec("gn", g=10.0), 1e-3, "purity", 1.0, 1.0),
            (NoiseSpec("pl", g=1e-3, alpha=3.0), 1e-3, "purity", 1.0, 1.0),
            (NoiseSpec("fgn", hurst=0.5), 1e-3, "purity", 1.0, 1.0),
            (NoiseSpec("ou", g=1e-3), 1e-3, "entropy", 1.0, 1.0),
            (NoiseSpec("gn", g=1.0), 1e-6, "entropy", 0.5, 1.7),
            # crossings above 2**1023, where doubling and lo + hi overflow
            (NoiseSpec("ou", g=1.0), 1e-3, "purity", 1.0, 9.2e-155),
            (NoiseSpec("gn", g=1.0), 1e-3, "purity", 1.0, 9e-155),
        ],
        ids=lambda value: value.label() if isinstance(value, NoiseSpec) else None,
    )
    def test_tau_star_matches_mpmath(self, spec, delta, measure, r, omega, capsys):
        family = [f"--{name}={getattr(spec, name)!r}" for name in PARAMETERS[spec.kind]]
        assert run(
            ["preservation", "--noise", spec.kind, *family, "--delta", str(delta),
             "--measure", measure, "--r", str(r), "--omega", str(omega)]
        ) == 0
        tau_star = float(capsys.readouterr().out.split("tau_star=")[1])
        exact = preservation_time_exact(spec, delta, measure, r, omega)
        assert abs(tau_star / exact - 1.0) <= 1e-16 / delta

    def test_tiny_g_reaches_saturation(self, capsys):
        # ou's beta is g tau^2 / 2 to relative g tau ~ 1e-20 here, so tau* is
        # sqrt(2 beta* / g) with beta* = ln(1 / (18 delta)) / 4
        assert run(["preservation", "--noise", "ou", "--g", "1e-40"]) == 0
        tau_star = float(capsys.readouterr().out.split("tau_star=")[1])
        beta_star = math.log(1.0 / 18e-3) / 4.0
        assert tau_star == pytest.approx(math.sqrt(2.0 * beta_star / 1e-40), rel=1e-13)

    def test_saturation_out_of_float_range(self, capsys):
        # the crossing lies near tau = ln(1 / (18 delta)) / (4 omega^2) ~ 1e400;
        # in floats omega^2 underflows to 0, so chi2 stays 1 at every tau
        assert run(["preservation", "--noise", "ou", "--omega", "1e-200"]) == 2
        assert "saturation is not reached at any finite tau" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["1e-160", "1e-200"])
    def test_beta_overflow_before_dephasing_rejected(self, omega):
        # fgn's beta = tau^3 / 3 passes the float range before omega^2 beta
        # dephases (the exact crossing at 1e-160 is ~6.7e106); at 1e-200
        # omega^2 is 0, and 0 * inf must not become a nan.  In a subprocess,
        # so a RuntimeWarning would reach stderr.
        out = python(
            ["-m", "qutrit_dephasing.cli", "preservation", "--noise", "fgn", "--omega", omega]
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (
            "error: beta overflows the float range before "
            f"exp(-n^2 omega^2 beta / 2) reaches 0 at n=2, omega={omega}\n"
        )

    def test_unread_harmonic_does_not_fail(self, tmp_path):
        # at omega = 2e-153 fgn's beta overflows while s is already 1, but
        # chi_1 is not resolved: beta's columns need only s and succeed, and
        # the matrix, which reads chi_1, fails naming n=1.  In a subprocess,
        # so a RuntimeWarning would reach stderr.
        flags = ["--noise", "fgn", "--omega", "2e-153", "--tau-max", "1e110", "--tau-steps", "3"]
        cli_argv = ["-m", "qutrit_dephasing.cli"]
        out = python(cli_argv + ["beta", *flags])
        assert out.returncode == 0 and out.stderr == "", out.stderr
        saturated = "inf,0.94444444444444442,0.12982549552077366"
        assert [row.split(",", 1)[1] for row in out.stdout.splitlines()[-2:]] == [saturated] * 2
        out = python(cli_argv + ["sweep", *flags, "--with-matrix", "--out", str(tmp_path)])
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (
            "error: beta overflows the float range before "
            "exp(-n^2 omega^2 beta / 2) reaches 0 at n=1, omega=2e-153\n"
        )

    def test_tiny_omega_inside_float_range(self, capsys):
        # at omega = 1e-150 the crossing, ~1.44e100, keeps beta finite
        assert run(["preservation", "--noise", "fgn", "--omega", "1e-150"]) == 0
        tau_star = float(capsys.readouterr().out.split("tau_star=")[1])
        exact = preservation_time_exact(NoiseSpec("fgn"), 1e-3, "purity", 1.0, 1e-150)
        assert abs(tau_star / exact - 1.0) <= 1e-13

    def test_entropy_measure(self, capsys):
        assert run(
            ["preservation", "--noise", "gn", "--g", "1", "--delta", "1e-3",
             "--measure", "entropy"]
        ) == 0
        assert "measure=entropy" in capsys.readouterr().out

    @pytest.mark.parametrize("r", ["0", "1e-10"])
    def test_no_delta_resolves_a_tiny_r(self, r, capsys):
        # the purity's gap to saturation at tau = 0, r^2 / 18, is 0.0 in floats:
        # a delta from the saturation level's spacing up is met at tau = 0,
        # and a smaller one cannot be resolved
        assert run(["preservation", "--noise", "ou", "--r", r]) == 2
        assert "so no delta can resolve the crossing" in capsys.readouterr().err

    def test_small_r_resolves_above_the_spacing(self, capsys):
        assert run(["preservation", "--noise", "ou", "--r", "1e-7", "--delta", "1e-16"]) == 0
        out = capsys.readouterr().out
        assert out == "noise=ou_g1 measure=purity delta=1e-16 tau_star=1.1957660443143423\n"


class TestOracle:
    def test_report_file_and_determinism(self, tmp_path, capsys):
        argv = [
            "oracle", "--noise", "ou", "--g", "1", "--tau-max", "1",
            "--samples", "2000", "--seed", "42", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        first = (tmp_path / "oracle_ou_g1.txt").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "oracle_ou_g1.txt").read_bytes() == first
        assert b"rng_algorithm" in first
        assert b"within_bound = True" in first

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_writes_no_report(self, source, tmp_path, monkeypatch, capsys):
        # an empty --out is no --out, as for every other subcommand: the
        # summary line alone, and no report in the working directory
        config = tmp_path / "run.cfg"
        config.write_text("out =\n")
        flags = {"flag": ["--out", ""], "config": ["--config", str(config)]}[source]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run(["oracle", "--noise", "ou", "--samples", "10", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("max_abs_deviation=")
        assert list(cwd.iterdir()) == []

    def test_tau_steps_is_usage_error(self, tmp_path, capsys):
        # the oracle draws the exact law at --tau-max alone: it has no grid
        argv = ["oracle", "--noise", "ou", "--tau-steps", "51", "--samples", "10"]
        assert run(argv + ["--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --tau-steps 51" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_names_the_exact_value(self, tmp_path):
        argv = ["oracle", "--noise", "ou", "--g", "1.0000001", "--samples", "10"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        report = (tmp_path / "oracle_ou_g1.0000001.txt").read_text()
        assert report.startswith("noise = ou_g1.0000001\n")

    def test_report_names_omega_and_r(self, tmp_path):
        # 17 significant digits, so each value reads back as the same float
        omega, r = 0.1 + 0.2, 1.0 / 3.0
        argv = ["oracle", "--noise", "ou", "--samples", "10", "--omega", repr(omega)]
        assert run(argv + ["--r", repr(r), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "oracle_ou_g1.txt").read_text().split("\n\n")[0]
        header = dict(line.split(" = ", 1) for line in report.splitlines())
        assert list(header)[:4] == ["noise", "tau", "omega", "r"]
        assert float(header["omega"]) == omega and float(header["r"]) == r

    @pytest.fixture
    def rejected(self, tmp_path, monkeypatch, capsys):
        """The ensemble rejects an input out of its domain: exit 2 with its
        message, before any covariance is formed or any file written."""

        def no_covariance(*args):
            raise AssertionError("a covariance was formed")

        monkeypatch.setattr(montecarlo, "phase_covariance", no_covariance)

        def check(flags, message):
            argv = ["oracle", "--noise", "ou", "--tau-max", "1", *flags, "--out", str(tmp_path)]
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")
            assert list(tmp_path.iterdir()) == []

        return check

    def test_zero_samples_is_invalid_parameter(self, rejected):
        rejected(["--samples", "0"], "need at least one path, got 0")

    def test_negative_samples_is_invalid_parameter(self, rejected):
        rejected(["--samples", "-3"], "need at least one path, got -3")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_philox_keys_is_invalid_parameter(self, seed, rejected):
        flags = ["--samples", "10", "--seed", seed]
        rejected(flags, f"seed must lie in [0, 2**128), got {seed}")

    @pytest.mark.parametrize("tau", ["0", "-1"])
    def test_nonpositive_tau_max_is_invalid_parameter(self, tau, rejected):
        flags = ["--samples", "10", "--tau-max", tau]
        message = f"got {float(tau)} at index 0"
        rejected(flags, f"phase times must be positive, strictly increasing and finite, {message}")

    def test_largest_seed_runs(self, tmp_path):
        argv = ["oracle", "--noise", "ou", "--samples", "10", "--seed", str(2**128 - 1)]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        assert f"seed = {2**128 - 1}\n" in (tmp_path / "oracle_ou_g1.txt").read_text()

    def test_omega_squared_beta_past_float_range(self, tmp_path, capsys):
        # an infinite variance is the dephased state
        argv = ["oracle", "--noise", "ou", "--omega", "1e200", "--samples", "10"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert "within_bound = True\n" in (tmp_path / "oracle_ou_g1.txt").read_text()

    def test_gn_kernel_at_huge_rate(self, capsys):
        # g^2 of a Python float raises OverflowError past g ~ 1.34e154
        assert run(["oracle", "--noise", "gn", "--g", "1e160", "--samples", "10"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags, label",
        [
            (["--noise", "fgn", "--tau-max", "1e200"], "fgn_H0.5"),
            (["--noise", "fgn", "--hurst", "0.9", "--tau-max", "1e200"], "fgn_H0.9"),
        ],
    )
    def test_non_finite_covariance_is_numerical_error(self, flags, label, tmp_path):
        # in a subprocess, so a RuntimeWarning would reach stderr
        out = python(
            ["-m", "qutrit_dephasing.cli", "oracle", *flags, "--samples", "10",
             "--out", str(tmp_path)]
        )
        assert out.returncode == 2
        assert out.stderr == f"error: covariance for {label} is not finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_ou_at_huge_tau_is_dephased(self, tmp_path):
        # ou's beta at 1e200, about 1e200, is finite, so its phases are drawn;
        # chi is 0, and ten phasors average to the dephased state within
        # 3/sqrt(10).  In a subprocess, so a RuntimeWarning would reach stderr.
        out = python(
            ["-m", "qutrit_dephasing.cli", "oracle", "--noise", "ou", "--tau-max", "1e200",
             "--samples", "10", "--out", str(tmp_path)]
        )
        assert out.returncode == 0 and out.stderr == ""
        report = (tmp_path / "oracle_ou_g1.txt").read_text()
        assert "within_bound = True\n" in report
        analytic = report.split("analytic:\n", 1)[1].split("empirical:", 1)[0]
        dephased = np.full((3, 3), 1.0 / 3.0)
        dephased[[0, 0, 2, 2], [0, 2, 0, 2]] = 0.25
        dephased[1, 1] = 0.5
        rows = [[complex(cell) for cell in line.split()] for line in analytic.splitlines()]
        assert np.max(np.abs(np.array(rows) - dephased)) <= 1e-15

    def test_phase_overflow_is_numerical_error(self, tmp_path):
        # omega * phi overflows to inf, whose phasor is nan: not a bound
        # violation.  In a subprocess, so a RuntimeWarning would reach stderr.
        out = python(
            ["-m", "qutrit_dephasing.cli", "oracle", "--noise", "ou", "--omega", "1e308",
             "--tau-max", "2", "--samples", "1000", "--out", str(tmp_path)]
        )
        assert out.returncode == 2 and "RuntimeWarning" not in out.stderr
        assert out.stderr == (
            "error: the phases omega * phi overflow the float range at omega=1e+308\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_bound_violation_exits_3(self, monkeypatch, capsys):
        from qutrit_dephasing import initial_state, mc_average_state
        from qutrit_dephasing.montecarlo import TrajectoryEnsemble

        # a zero factor draws every phase as 0, so the empirical state stays
        # the initial one while the analytic state dephases
        ensemble = TrajectoryEnsemble(
            taus=[1.0], n_paths=10000, seed=0, spec=NoiseSpec("ou", g=1.0)
        )
        ensemble.__dict__["factor"] = np.zeros((1, 1))
        report = mc_average_state(initial_state(1.0), ensemble, 1.0)
        assert report.max_abs_deviation > report.stderr_bound == 0.03
        monkeypatch.setattr(cli, "run_oracle", lambda *a, **k: (report, None))
        assert run(["oracle", "--noise", "ou", "--tau-max", "1"]) == 3
        deviation = f"{report.max_abs_deviation:g}"
        assert capsys.readouterr().err == (
            f"oracle bound violated: deviation {deviation} exceeds bound 0.03\n"
        )


class TestFigure:
    @pytest.mark.parametrize("name", FIGURES)
    def test_emits_artifacts(self, name, tmp_path):
        assert run(["figure", name, "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert any(n.endswith(".csv") for n in names)
        assert any(n.startswith("plot_") and n.endswith(".py") for n in names)
        for n in names:
            if n.endswith(".csv"):
                check_schema(tmp_path / n)

    @pytest.mark.parametrize("name", FIGURES)
    def test_printed_outputs(self, name, tmp_path, capsys):
        assert run(["figure", name, "--out", str(tmp_path)]) == 0
        outputs = FIGURE_OUTPUTS[name]
        names = [item if isinstance(item, str) else item[0] for item in outputs]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / n) for n in names]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(set(names))
        for item in outputs:
            if isinstance(item, str):
                continue
            file_name, header, count = item
            rows = read_csv(tmp_path / file_name)
            assert list(rows[0]) == header and len(rows) == count, file_name
            if name == "noisephase":
                for row in rows:
                    expected = gaussian_chi(float(row["beta"]))(2)
                    assert abs(float(row["dephasing_n2"]) - expected) <= 1e-15

    def test_unknown_name(self):
        assert run(["figure", "fig9"]) == 1

    def test_joint_saturation(self, tmp_path):
        run(["figure", "joint", "--out", str(tmp_path)])
        csvs = [n for n in os.listdir(tmp_path) if n.endswith(".csv")]
        assert len(csvs) == 6
        for name in csvs:
            rows = read_csv(tmp_path / name)
            # curves with g=1e-2 saturate within tau=50; g=1e-3 get close
            assert float(rows[-1]["purity"]) - 17.0 / 18.0 < 2e-3 or "0.001" in name

    def test_noiseless_is_exact_unitary_evolution(self, tmp_path):
        run(["figure", "noiseless", "--out", str(tmp_path)])
        rho0 = np.full((3, 3), 1.0 / 3.0)
        for omega in (0.5, 1.0):
            rows = read_csv(tmp_path / f"noiseless_omega{omega:g}.csv")
            assert {(r["beta"], r["purity"], r["entropy"]) for r in rows} == {("0", "1", "0")}
            for row in rows:
                exact = propagated(rho0, omega * float(row["tau"])).ravel()
                rho = [complex(float(row[f"rho_re_{c}"]), float(row[f"rho_im_{c}"])) for c in CELLS]
                assert np.max(np.abs(np.array(rho) - exact)) <= 4e-15

    def test_noiseless_has_no_decay(self, tmp_path):
        run(["figure", "noiseless", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "noiseless_omega1.csv")
        corner = [float(r["rho_re_00"]) for r in rows]
        half = len(corner) // 2
        assert max(corner[half:]) - min(corner[half:]) == pytest.approx(
            max(corner[:half]) - min(corner[:half]), abs=1e-4
        )


class TestSystemParameters:
    COMMANDS = {
        "beta": ["beta", "--noise", "ou", "--tau-steps", "2"],
        "sweep": ["sweep", "--noise", "ou", "--tau-steps", "2"],
        "preservation": ["preservation", "--noise", "ou"],
        "oracle": ["oracle", "--noise", "ou", "--tau-max", "1", "--samples", "10"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "flags", [["--r", "3"], ["--r", "-0.5"], ["--omega", "0"], ["--omega", "-1"]]
    )
    def test_out_of_range_is_numerical_error(
        self, command, flags, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run(self.COMMANDS[command] + flags) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["beta", "--noise", "ou", "--tau-max", "nan"],
            ["sweep", "--noise", "ou", "--tau-max=-inf"],
            ["oracle", "--noise", "ou", "--tau-max", "inf", "--samples", "10"],
            ["beta", "--noise", "ou", "--g", "inf"],
            ["sweep", "--noise", "ou", "--g", "1,nan"],
            ["preservation", "--noise", "ou", "--omega", "nan"],
            ["oracle", "--noise", "ou", "--omega", "inf", "--samples", "10"],
            ["preservation", "--noise", "ou", "--delta", "inf"],
            # integers that do not parse
            ["oracle", "--noise", "ou", "--samples", "1e3"],
            ["oracle", "--noise", "ou", "--samples", "1.5"],
            ["oracle", "--noise", "ou", "--samples", "10", "--seed", "x"],
        ],
    )
    def test_non_finite_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not re.search(r"\b_\w", captured.err)  # names no private function
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["beta", "--noise", "ou", "--tau-steps", "abc"], "expected an integer, got 'abc'"),
            (["oracle", "--noise", "ou", "--samples", "abc"], "expected an integer, got 'abc'"),
            (["beta", "--noise", "ou", "--omega", "abc"], "expected a finite number, got 'abc'"),
        ],
    )
    def test_misspelt_number_quotes_the_text(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: {message}" in captured.err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["beta", "--noise", "ou"],
        ["sweep", "--noise", "ou", "--g", "1,3"],
        ["oracle", "--noise", "ou", "--tau-max", "1", "--samples", "10"],
        ["figure", "gn"],
    ],
)
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(argv + ["--out", str(blocker / "sub")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write outputs" in captured.err
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "out"
    assert run(["beta", "--noise", "ou", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write outputs: replace failed" in captured.err
    assert list(out.iterdir()) == []


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("noise = ou\ng = 5\ntau-max = 1\ntau-steps = 3\n")
        assert run(["beta", "--config", str(config), "--g", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # header + 3 rows from the config's tau-steps
        # final beta reflects g=1 (CLI value), not g=5
        assert float(out[-1].split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# an ou run\n\nnoise = ou  # g stays 1\n   \n# g = 5\ntau-max = 1\n")
        assert cli.config_flags(["--config", str(config)]) == ["--noise=ou", "--tau-max=1"]
        assert run(["beta", "--config", str(config), "--tau-steps", "3"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert float(last.split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("gg = 5\n")
        assert run(["beta", "--config", str(config), "--noise", "ou"]) == 1

    @pytest.mark.parametrize("name", ["missing.cfg", "directory", "binary.cfg"])
    def test_unreadable_config_is_usage_error(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("directory").mkdir()
        Path("binary.cfg").write_bytes(b"noise = ou\n\xff\xfe\n")
        assert run(["beta", "--noise", "ou", "--config", name]) == 1

    def test_malformed_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n")
        assert run(["beta", "--config", str(config), "--noise", "ou"]) == 1

    @pytest.mark.parametrize(
        "command, text",
        [
            ("beta", "tau_steps = 2.5\n"),
            ("beta", "noise = xyz\n"),
            ("preservation", "measure = bogus\n"),
            ("sweep", "with_matrix = maybe\n"),
            ("beta", "samples = 3\n"),
            ("figure", "g = 5\n"),
            ("beta", "config = other.cfg\n"),
            ("beta", "hurst = 0.3\n"),
        ],
    )
    def test_value_or_key_the_command_rejects(self, command, text, tmp_path, monkeypatch):
        # bad types, bad choices and keys the command does not read
        monkeypatch.chdir(tmp_path)
        Path("bad.cfg").write_text(text)
        argv = [command, "ou"] if command == "figure" else [command, "--noise", "ou"]
        assert run(argv + ["--config", "bad.cfg"]) == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.cfg"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["beta", "--noise", "ou", "--samples", "7"],
            ["sweep", "--noise", "ou", "--seed", "3"],
            ["preservation", "--noise", "ou", "--tau-max", "3"],
            ["oracle", "--noise", "ou", "--with-matrix"],
            ["figure", "ou", "--g", "5"],
            # abbreviations: of a flag, of --config itself, and of a config key
            ["beta", "--noise", "ou", "--om", "2"],
            ["beta", "--noise", "ou", "--conf", "../abbreviated.cfg"],
            ["sweep", "--noise", "ou", "--config", "../abbreviated.cfg"],
            # family flags the chosen noise does not read
            ["beta", "--noise", "fgn", "--g", "-3"],
            ["oracle", "--noise", "gn", "--alpha", "1", "--samples", "10"],
            ["preservation", "--noise", "pl", "--hurst", "0.3"],
            ["sweep", "--noise", "ou", "--hurst", "5"],
        ],
    )
    def test_flag_the_command_does_not_read(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "abbreviated.cfg").write_text("tau-m = 1\n")
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        assert run(argv) == 1
        assert capsys.readouterr().out == ""
        assert list((tmp_path / "run").iterdir()) == []

    def test_sweep_list_and_matrix_switch(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("noise = ou\ng = 1,3\nwith_matrix = true\ntau_steps = 3\n")
        assert run(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        for g in (1, 3):
            rows = read_csv(tmp_path / f"sweep_ou_g{g}.csv")
            assert len(rows) == 3
            assert "rho_re_00" in rows[0] and "rho_im_22" in rows[0]

    def test_explicit_switch_overrides_config(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("noise = ou\nwith-matrix = yes\n")
        argv = ["sweep", "--config", str(config), "--with-matrix", "false"]
        assert run(argv + ["--tau-steps", "2", "--out", str(tmp_path)]) == 0
        assert "rho_re_00" not in read_csv(tmp_path / "sweep_ou_g1.csv")[0]


def readme_commands() -> list[list[str]]:
    """Each ``sim ...`` line of README's CLI block, continuations joined."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sim ")]


def test_readme_cli_examples_run(tmp_path):
    commands = readme_commands()
    assert len(commands) == 5
    for argv in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        assert run(argv) == 0, argv


def readme_flag_table() -> dict[str, set[str]]:
    """Subcommand -> the long flags README's CLI table lists for it."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        match = re.match(r"\| `(\w+)` \|(.*)\|$", line)
        if match:
            table[match[1]] = set(re.findall(r"`(--[\w-]+)`", match[2]))
    return table


def test_readme_flag_table_matches_parser():
    subparsers = next(
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        name: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, parser in subparsers.items()
    }
    assert readme_flag_table() == declared


def test_readme_family_flags_match_parameters():
    # "Noise-family flags: `--hurst` (fgn, ...), `--g` (gn/ou/pl, ...), ..."
    text = README.read_text(encoding="utf-8").split("Noise-family flags:", 1)[1]
    sentence = re.split(r"\.\s", text, maxsplit=1)[0]
    pairs = re.findall(r"`--(\w+)` \(([\w/]+),", sentence)
    listed = {flag: set(kinds.split("/")) for flag, kinds in pairs}
    readers = {}
    for kind, params in PARAMETERS.items():
        for name in params:
            readers.setdefault(name, set()).add(kind)
    assert listed == readers


def python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package under test."""
    src = os.path.dirname(os.path.dirname(qutrit_dephasing.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_loads_numpy_only():
    # Beyond numpy, importing the CLI may load only the package and the
    # standard library: no scipy, no optional accelerator.
    code = (
        "import sys, numpy; before = set(sys.modules); import qutrit_dephasing.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'qutrit_dephasing'}))"
    )
    out = python(["-c", code])
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr


def test_runs_never_load_numpy_random(tmp_path):
    # the oracle draws its normals with the package's own Philox, so no run
    # loads numpy.random, nor the secrets and OpenSSL hashing it imports
    code = (
        "import sys\n"
        "from qutrit_dephasing import cli\n"
        "for argv in (\n"
        "    ['oracle', '--noise', 'fgn', '--tau-max', '2', '--samples', '5000'],\n"
        "    ['sweep', '--noise', 'pl', '--g', '1,3', '--tau-max', '2', '--with-matrix'],\n"
        "    ['figure', 'pl'],\n"
        "):\n"
        f"    assert cli.main([*argv, '--out', {str(tmp_path)!r}]) == 0, argv\n"
        "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))\n"
    )
    out = python(["-c", code])
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == "[]", out.stderr


def test_test_extra_is_what_the_suite_imports():
    # beyond numpy and the package, the third-party modules that the tests
    # and the benchmark import are exactly the test extra: none undeclared,
    # and none declared but unused
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as handle:
        extra = tomllib.load(handle)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", requirement)[0] for requirement in extra}
    imported = set()
    for directory in (ROOT / "tests", ROOT / "perfbench"):
        paths = list(directory.glob("*.py"))
        modules = set()
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules |= {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules.add(node.module.split(".")[0])
        imported |= modules - {path.stem for path in paths}  # less same-directory modules
    imported -= set(sys.stdlib_module_names) | {"numpy", "qutrit_dephasing"}
    assert imported == declared


def test_every_export_is_read_by_the_library():
    # the package exports only what it runs itself: each name in __all__ is
    # read by a module besides __init__, and the helpers only the suite uses
    # live in tests/references.py
    loaded = set()
    for path in Path(qutrit_dephasing.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(qutrit_dephasing.__all__) - loaded) == []


def test_references_import_nothing_from_the_library():
    # the references stay independent of the code they check: they import
    # numpy, mpmath and math alone, never qutrit_dephasing
    tree = ast.parse((ROOT / "tests" / "references.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules == {"math", "mpmath", "numpy"}


class TestEntryPoint:
    def test_run_freezes_the_import_heap(self, tmp_path):
        # run() moves the import-time heap to the permanent generation, so the
        # collections of interpreter shutdown skip it; its outputs are main()'s
        code = (
            "import atexit, gc, sys\n"
            "from qutrit_dephasing import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = ['sim', 'figure', 'fgn', '--out', {str(tmp_path / 'run')!r}]\n"
            "cli.run()\n"
        )
        out = python(["-c", code])
        assert out.returncode == 0, out.stderr
        assert int(out.stdout.splitlines()[-1].removeprefix("frozen ")) >= 10000
        assert run(["figure", "fgn", "--out", str(tmp_path / "main")]) == 0
        names = sorted(path.name for path in (tmp_path / "main").iterdir())
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == names
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()

    def test_main_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert run(["figure", "fgn", "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == before

    def test_sim_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"sim": "qutrit_dephasing.cli:run"}

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["beta", "--noise", "ou", "--tau-steps", "3"], 0),
            (["beta", "--noise", "ou", "--tau-steps", "x"], 1),
            (["beta", "--noise", "pl", "--alpha", "2"], 2),
            # a 7 PiB grid exceeds any x86-64 user address space
            (["beta", "--noise", "ou", "--tau-steps", "1000000000000000"], 2),
        ],
    )
    def test_exit_code_reaches_the_shell(self, argv, code):
        out = python(["-m", "qutrit_dephasing.cli", *argv])
        assert out.returncode == code, out.stderr
