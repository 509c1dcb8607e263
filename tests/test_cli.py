"""CLI surface: subcommands, config layering, CSV schema, exit codes."""

import csv
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_dephasing
from qutrit_dephasing import cli, metrics
from qutrit_dephasing.experiments import FIGURES
from qutrit_dephasing.noise import NoiseSpec, beta_closed

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


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

    def test_tiny_g_tau_stays_positive(self, capsys):
        # g*tau <= 1e-8: the closed forms cancel unless summed as a series
        assert run(["beta", "--noise", "pl", "--g", "1e-3", "--tau-max", "1e-5"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert all(float(row.split(",")[1]) > 0.0 for row in rows)


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
            assert float(row["purity"]) == pytest.approx(metrics.purity(rho), abs=1e-10)
            assert float(row["entropy"]) == pytest.approx(
                metrics.vn_entropy(rho), abs=1e-10
            )

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
        spec = NoiseSpec.ou(1e-3)
        # bisection stops once its bracket is within rel_tol = 1e-4 of tau_star
        assert beta_closed(spec, tau_star * (1.0 - 1e-4)) <= target
        assert beta_closed(spec, tau_star) >= target

    def test_entropy_measure(self, capsys):
        assert run(
            ["preservation", "--noise", "gn", "--g", "1", "--delta", "1e-3",
             "--measure", "entropy"]
        ) == 0
        assert "measure=entropy" in capsys.readouterr().out


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

    def test_tau_steps_sets_grid(self, tmp_path):
        argv = [
            "oracle", "--noise", "ou", "--tau-max", "1", "--tau-steps", "51",
            "--samples", "2000", "--out", str(tmp_path),
        ]
        assert run(argv) == 0
        report = (tmp_path / "oracle_ou_g1.txt").read_text().splitlines()
        (step,) = [line.split(" = ")[1] for line in report if line.startswith("grid_step")]
        assert float(step) == pytest.approx(0.02, rel=1e-12)

    def test_zero_samples_usage_error(self):
        assert run(["oracle", "--noise", "ou", "--samples", "0", "--tau-max", "1"]) == 1

    def test_bound_violation_exits_3(self, monkeypatch, capsys):
        from qutrit_dephasing.montecarlo import OracleReport
        from qutrit_dephasing.noise import NoiseSpec

        fake = OracleReport(
            analytic=np.eye(3) / 3,
            empirical=np.eye(3) / 3,
            max_abs_deviation=0.5,
            stderr_bound=0.01,
            n_samples=10,
            seed=0,
            tau=1.0,
            grid_step=0.005,
            spec=NoiseSpec.ou(1.0),
        )
        monkeypatch.setattr(cli, "run_oracle", lambda *a, **k: (fake, None))
        assert run(["oracle", "--noise", "ou", "--tau-max", "1"]) == 3


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

    def test_noiseless_has_no_decay(self, tmp_path):
        run(["figure", "noiseless", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "noiseless_omega1.csv")
        corner = [float(r["rho_re_00"]) for r in rows]
        half = len(corner) // 2
        assert max(corner[half:]) - min(corner[half:]) == pytest.approx(
            max(corner[:half]) - min(corner[:half]), abs=1e-4
        )


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("noise = ou\ng = 5\ntau-max = 1\ntau-steps = 3\n")
        assert run(["beta", "--config", str(config), "--g", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # header + 3 rows from the config's tau-steps
        # final beta reflects g=1 (CLI value), not g=5
        assert float(out[-1].split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("gg = 5\n")
        assert run(["beta", "--config", str(config), "--noise", "ou"]) == 1

    def test_malformed_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n")
        assert run(["beta", "--config", str(config), "--noise", "ou"]) == 1


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
            del argv[argv.index("--out") : argv.index("--out") + 2]
        assert run(argv + ["--out", str(tmp_path)]) == 0, argv


def test_import_loads_numpy_only():
    # Beyond numpy, importing the CLI may load only the package and the
    # standard library: no scipy, no optional accelerator.
    code = (
        "import sys, numpy; before = set(sys.modules); import qutrit_dephasing.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'qutrit_dephasing'}))"
    )
    src = os.path.dirname(os.path.dirname(qutrit_dephasing.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr
