"""Tests of the benchmark's own arithmetic, checks and tracer."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(HERE.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0, 10_000, -1, 100],
        ["b", 1_000, 4_000, 0, 200],
        ["c", 2_000, 3_000, 1, 300],
        ["b", 5_000, 6_000, 0, 150],
        ["a", 11_000, 12_000, -1, 120],
    ]
    assert tracer.self_times(spans) == [6_000, 2_000, 1_000, 1_000, 1_000]
    summary = tracer.summarise(spans)
    assert summary["a"] == {"calls": 2, "self_s": 7e-6, "rss_mb": 120 / 1024}
    assert summary["b"] == {"calls": 2, "self_s": 3e-6, "rss_mb": 200 / 1024}
    assert summary["c"]["self_s"] == 1e-6


def test_recorder_nests_spans():
    recorder = tracer.Recorder()
    inner = recorder.wrap("m.inner", lambda x: x + 1)
    outer = recorder.wrap("m.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (out_name, out_start, out_end, out_parent, _), (in_name, in_start, in_end, in_parent, _) = (
        recorder.spans
    )
    assert (out_name, out_parent) == ("m.outer", -1)
    assert (in_name, in_parent) == ("m.inner", 0)
    assert out_start <= in_start <= in_end <= out_end


def test_median_and_tail():
    assert run.median_and_tail([3.0, 1.0, 2.0]) == (2.0, None)
    assert run.median_and_tail([float(v) for v in range(1, 11)]) == (5.5, None)
    assert run.median_and_tail([float(v) for v in range(1, 12)]) == (6.0, (9, 1.0))
    assert run.median_and_tail([float(v) for v in range(20, 0, -1)]) == (10.5, (50, 10.0))
    values = [float(v) for v in range(1, 101)]
    mid, (pct, value) = run.median_and_tail(values)
    assert (mid, pct, value) == (50.5, 90, 90.0)
    assert sum(v > value for v in values) == 10


def test_import_times_reads_cumulative_per_layer():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1475 |      79326 |       numpy\n"
        "import time:      1836 |      81530 |     qutrit_dephasing._kernels\n"
        "import time:      3237 |     277792 |       qutrit_dephasing.noise\n"
        "import time:      3285 |     380061 | qutrit_dephasing.cli\n"
    )
    assert run.import_times(stderr) == {"kernels": 0.08153, "noise": 0.277792, "cli": 0.380061}


def test_layer_values():
    spans = {"noise.beta_closed": {"calls": 3, "self_s": 0.5, "rss_mb": 60.0}}
    names = ["noise.beta_closed.calls", "dynamics.evolve_averaged.self_s", "x.count"]
    assert run.layer_values(names, spans, {"x.count": 7}) == {
        "noise.beta_closed.calls": 3,
        "dynamics.evolve_averaged.self_s": 0,
        "x.count": 7,
    }
    with pytest.raises(KeyError):
        run.layer_values(["noise.beta_closed.median"], spans, {})


def _sim(tmp_path: Path, name: str, args: list[str], traced: bool) -> tuple[Path, str]:
    out = tmp_path / name
    if traced:
        prefix = [str(HERE / "tracer.py"), str(tmp_path / f"{name}.json")]
    else:
        prefix = ["-m", "qutrit_dephasing.cli"]
    done = subprocess.run(
        [sys.executable, *prefix, *args, "--out", str(out)],
        env=ENV, cwd=tmp_path, check=True, capture_output=True, text=True, timeout=120,
    )
    return out, done.stdout


@pytest.mark.parametrize(
    "args, expected_span",
    [
        (["sweep", "--noise", "pl", "--g", "1,3", "--tau-steps", "51", "--with-matrix"],
         "dynamics.evolve_averaged"),
        (["oracle", "--noise", "fgn", "--tau-max", "1", "--samples", "2000", "--seed", "5"],
         "montecarlo.sample_trajectories"),
        (["figure", "noiseless"], "dynamics.fluctuation_series"),
    ],
)
def test_traced_run_writes_identical_files(tmp_path, args, expected_span):
    plain, _ = _sim(tmp_path, "plain", args, traced=False)
    traced, _ = _sim(tmp_path, "traced", args, traced=True)
    assert os.listdir(plain)
    assert run.same_files(plain, traced)
    record = json.loads((tmp_path / "traced.json").read_text())
    assert expected_span in tracer.summarise(record["spans"])
    assert (record["cholesky_attempts"] > 0) == (args[0] == "oracle")


def test_sweep_check_accepts_output_and_catches_a_wrong_purity(tmp_path):
    (step,) = workloads.steps_for("sweep-matrix", seed=0)
    out, stdout = _sim(tmp_path, "sweep", list(step.args), traced=False)
    step.check(out, stdout)
    path = out / "sweep_pl_g3_a3.csv"
    lines = path.read_text().splitlines()
    cells = lines[500].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[500] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="purity"):
        step.check(out, stdout)
