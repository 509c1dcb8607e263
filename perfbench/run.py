"""Whole-run benchmark of the ``sim`` CLI, with a traced run for per-layer time.

    python3 perfbench/run.py --workload sweep-matrix --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout that holds ``src/qutrit_dephasing``; the
package need not be installed.  The load model is a closed loop with one
client: one ``sim`` process runs at a time, as ``python -m qutrit_dephasing.cli``
with ``PYTHONPATH=src``, and the next starts once it has exited.  Wall time and
peak RSS come from ``os.wait4``.  Every invocation's exit code and output files
are checked (``workloads.py``); a failed check counts as a failed invocation.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json, ``--trace 1``
the ``per_layer`` ones: each repetition then runs untraced and again under
``tracer.py``, and the two must write byte-identical files.  A human-readable
summary comes first; the last stdout line is one JSON object.  All output goes
to a temporary directory inside the checkout that is removed at exit.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Kill whatever still runs at this age, so the whole run ends within 180 s.
HARD_LIMIT_S = 170.0
# Set-up probes per run, at least; setup_s is their median.
MIN_SETUP_PROBES = 5
# -X importtime probes per traced run, at least.
MIN_IMPORT_PROBES = 3
SETUP_ARGV = ("-c", "import qutrit_dephasing.cli")


@dataclass
class Exit:
    """One finished process."""

    wall_s: float
    rss_mb: float
    code: int | None  # None when killed at the hard limit
    stdout: str
    stderr: str


@dataclass
class Repetition:
    """One pass over a workload's steps."""

    wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    outs: list[Path] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)


def median_and_tail(values: list[float]) -> tuple[float, tuple[int, float] | None]:
    """Median, and the highest whole percentile with at least ten samples above
    it (nearest rank) with its value; no percentile for fewer than 11 samples."""
    n = len(values)
    mid = statistics.median(values)
    if n < 11:
        return mid, None
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return mid, (pct, sorted(values)[rank - 1])


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per layer from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        name = name.strip()
        if name.startswith(tracer.PACKAGE + "."):
            out[tracer.layer_of(name)] = int(cumulative) / 1e6
    return out


def layer_values(
    names: list[str],
    spans: dict[str, dict[str, float]],
    counts: dict[str, float],
) -> dict[str, float]:
    """Per-layer metric values of one traced repetition.

    ``<layer>.<function>.<stat>`` reads the span summary (0 when the function
    never ran); other names must be in ``counts``.
    """
    out = {}
    for name in names:
        if name in counts:
            out[name] = counts[name]
            continue
        span, _, stat = name.rpartition(".")
        if stat not in ("calls", "self_s", "rss_mb"):
            raise KeyError(f"no source for per-layer metric {name!r}")
        out[name] = spans.get(span, {}).get(stat, 0)
    return out


class Bench:
    """Spawns and checks the processes of one benchmark run."""

    def __init__(self, scratch: Path, started: float) -> None:
        self.scratch = scratch
        self.started = started
        self.count = 0
        self.env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
        }

    def _next(self, stem: str) -> Path:
        self.count += 1
        return self.scratch / f"{stem}{self.count}"

    def spawn(self, argv: list[str]) -> Exit:
        base = self._next("proc")
        limit = max(HARD_LIMIT_S - (time.perf_counter() - self.started), 1.0)
        killed = threading.Event()
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.scratch, env=self.env, stdout=out, stderr=err
            )

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(limit, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=None if killed.is_set() else proc.returncode,
            stdout=Path(f"{base}.out").read_text(encoding="utf-8", errors="replace"),
            stderr=Path(f"{base}.err").read_text(encoding="utf-8", errors="replace"),
        )

    def probe(self, *flags: str) -> Exit:
        """A fresh interpreter that imports the CLI and exits."""
        result = self.spawn([*flags, *SETUP_ARGV])
        if result.code != 0:
            raise RuntimeError(f"importing the CLI failed ({result.code}):\n{result.stderr}")
        return result

    def repetition(self, steps: list[workloads.Step], traced: bool) -> Repetition:
        rep = Repetition()
        for step in steps:
            out = self._next("out")
            out.mkdir()
            args = [*step.args, "--out", str(out)]
            if traced:
                spans = self._next("spans").with_suffix(".json")
                argv = [str(HERE / "tracer.py"), str(spans), *args]
                rep.spans.append(spans)
            else:
                argv = ["-m", "qutrit_dephasing.cli", *args]
            result = self.spawn(argv)
            rep.wall_s += result.wall_s
            rep.rss_mb = max(rep.rss_mb, result.rss_mb)
            rep.attempted += 1
            rep.outs.append(out)
            error = None
            if result.code != 0:
                error = "killed at the time limit" if result.code is None else f"exit {result.code}"
            else:
                try:
                    step.check(out, result.stdout)
                except workloads.CheckFailed as exc:
                    error = str(exc)
            if error:
                rep.failed += 1
                print(f"perfbench: {step.label} failed: {error}", file=sys.stderr)
                print(result.stderr[-2000:], file=sys.stderr)
        return rep

    def discard(self, rep: Repetition) -> None:
        for path in rep.outs:
            shutil.rmtree(path, ignore_errors=True)
        for path in rep.spans:
            path.unlink(missing_ok=True)


def same_files(left: Path, right: Path) -> bool:
    """Both directories hold the same file names with byte-identical contents."""
    names = sorted(os.listdir(left))
    if names != sorted(os.listdir(right)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(left, right, names, shallow=False)
    return not mismatch and not errors


def measure_end_to_end(bench, steps, deadline):
    """Alternate a set-up probe and a repetition until the next would overrun."""
    setup, walls, rss = [], [], []
    attempted = failed = 0
    while True:
        begin = time.perf_counter()
        setup.append(bench.probe().wall_s)
        rep = bench.repetition(steps, traced=False)
        bench.discard(rep)
        walls.append(rep.wall_s)
        rss.append(rep.rss_mb)
        attempted += rep.attempted
        failed += rep.failed
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(bench.probe().wall_s)
    samples = {"setup_s": setup, "wall_s": walls}
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(rss),
    }
    return values, samples, attempted, failed


def layer_record(plain: Repetition, traced: Repetition) -> tuple[dict, dict]:
    """Span summary and counts of one traced repetition, summed over its steps.

    A traced step whose files differ from its untraced twin counts as failed.
    """
    summary: dict[str, dict[str, float]] = {}
    counts = dict.fromkeys(
        ("montecarlo.cholesky_attempts", "experiments.rows_written", "experiments.bytes_written"), 0
    )
    for out, twin, spans in zip(traced.outs, plain.outs, traced.spans):
        if not same_files(out, twin):
            traced.failed += 1
            print(f"perfbench: traced output in {out.name} differs from untraced", file=sys.stderr)
        rows, size = workloads.written(out)
        counts["experiments.rows_written"] += rows
        counts["experiments.bytes_written"] += size
        if not spans.exists():  # the traced process failed; already counted
            continue
        record = json.loads(spans.read_text(encoding="utf-8"))
        counts["montecarlo.cholesky_attempts"] += record["cholesky_attempts"]
        for name, stats in tracer.summarise(record["spans"]).items():
            total = summary.setdefault(name, {"calls": 0, "self_s": 0.0, "rss_mb": 0.0})
            total["calls"] += stats["calls"]
            total["self_s"] += stats["self_s"]
            total["rss_mb"] = max(total["rss_mb"], stats["rss_mb"])
    return summary, counts


def measure_per_layer(bench, steps, deadline, names):
    """Alternate untraced and traced repetitions until the next pair would overrun."""
    span_names = [n for n in names if not n.endswith(".import_s") and n != "trace.overhead_s"]
    imports, plain_walls, traced_walls, per_pair = [], [], [], []
    attempted = failed = 0
    while True:
        begin = time.perf_counter()
        imports.append(import_times(bench.probe("-X", "importtime").stderr))
        plain = bench.repetition(steps, traced=False)
        traced = bench.repetition(steps, traced=True)
        per_pair.append(layer_values(span_names, *layer_record(plain, traced)))
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        for rep in (plain, traced):
            attempted += rep.attempted
            failed += rep.failed
            bench.discard(rep)
        now = time.perf_counter()
        if now + (now - begin) > deadline:
            break
    while len(imports) < MIN_IMPORT_PROBES:
        imports.append(import_times(bench.probe("-X", "importtime").stderr))
    values = {}
    for name in names:
        if name.endswith(".import_s"):
            layer = name[: -len(".import_s")]
            values[name] = statistics.median(probe.get(layer, 0.0) for probe in imports)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(traced_walls) - statistics.median(plain_walls)
        else:
            values[name] = statistics.median(pair[name] for pair in per_pair)
    samples = {"traced wall_s": traced_walls, "untraced wall_s": plain_walls}
    return values, samples, attempted, failed


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return result.stdout.strip() or "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "qutrit_dephasing" / "cli.py").is_file():
        print(f"perfbench: no src/qutrit_dephasing under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    steps = workloads.steps_for(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bench = Bench(Path(tmp), started)
        warm = bench.spawn([str(HERE / "stamp.py")])
        if warm.code != 0:
            print(f"perfbench: the program does not import:\n{warm.stderr}", file=sys.stderr)
            return 3
        stamp = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(),
            **json.loads(warm.stdout),
            "nproc": len(os.sched_getaffinity(0)),
            "argv": [" ".join(("sim", *step.args, "--out", "DIR")) for step in steps],
        }
        deadline = min(time.perf_counter() + args.seconds, started + HARD_LIMIT_S)
        if args.trace:
            measured = measure_per_layer(bench, steps, deadline, list(units))
        else:
            measured = measure_end_to_end(bench, steps, deadline)
    values, samples, attempted, failed = measured
    print("stamp " + json.dumps(stamp))
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:<14.6g} {unit}")
    for name, values_seen in samples.items():
        mid, tail = median_and_tail(values_seen)
        tail_text = f"p{tail[0]} {tail[1]:.6g} s" if tail else "no tail percentile (n < 11)"
        print(f"  {name}: median {mid:.6g} s over {len(values_seen)} samples; {tail_text}")
        print("    samples: " + " ".join(f"{v:.4g}" for v in values_seen))
    rate = failed / attempted
    print(f"{'error_rate':<40} {rate:<14.6g} share ({failed} of {attempted} invocations failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
