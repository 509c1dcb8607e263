"""Run the ``sim`` CLI in-process with spans recorded at layer boundaries.

    PYTHONPATH=src python perfbench/tracer.py SPANS.json sweep --noise ou --out DIR

The layers are the modules of ``qutrit_dephasing``.  A public function is
wrapped wherever another module has bound it: names brought in with
``from .x import f`` are replaced in the importing module, and functions
reached as ``module.f`` attributes (``cli`` calls ``experiments.figure``) are
replaced in their own module.  Calls between functions of one module are not
traced, so per-row helpers such as ``experiments.fmt`` add no cost.

Each span is ``[name, start_ns, end_ns, parent, maxrss_kb]``; ``parent``
indexes the enclosing span or is -1.  Spans stay in memory and are written as
JSON when the command returns, together with the number of
``numpy.linalg.cholesky`` calls (the oracle's factorisation attempts, retries
included).  The exit code is the CLI's.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json
import resource
import sys
from time import perf_counter_ns
from types import FunctionType, ModuleType

PACKAGE = "qutrit_dephasing"


def layer_of(module_name: str) -> str:
    """Layer name of a package module: ``qutrit_dephasing._kernels`` -> ``kernels``."""
    return module_name.rpartition(".")[2].lstrip("_")


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns.

    Spans come from one thread, so children never overlap one another and
    their summed durations are the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarise(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s`` and the largest ``rss_mb``."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        stats = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "rss_mb": 0.0})
        stats["calls"] += 1
        stats["self_s"] += own / 1e9
        stats["rss_mb"] = max(stats["rss_mb"], span[4] / 1024.0)
    return out


class Recorder:
    """Collects spans from the wrappers it makes."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                spans[index] = [name, start, end, parent, rss]

        return wrapper


def _public_function(value, modules) -> bool:
    return (
        isinstance(value, FunctionType)
        and value.__module__ in modules
        and not value.__name__.startswith("_")
    )


def boundary_bindings(modules: dict[str, ModuleType]):
    """Yield ``(namespace, name, function)`` for each boundary binding."""
    for holder in modules.values():
        namespace = vars(holder)
        for name, value in list(namespace.items()):
            if _public_function(value, modules) and value.__module__ != holder.__name__:
                yield holder, name, value
        tree = ast.parse(inspect.getsource(holder))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                continue
            target = namespace.get(node.value.id)
            if isinstance(target, ModuleType) and target.__name__ in modules:
                value = getattr(target, node.attr, None)
                if _public_function(value, modules) and value.__module__ == target.__name__:
                    yield target, node.attr, value


def install(recorder: Recorder) -> None:
    """Replace every boundary binding of the imported package with a wrapper."""
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }
    wrappers = {}
    for namespace, name, func in list(boundary_bindings(modules)):
        if func not in wrappers:
            wrappers[func] = recorder.wrap(f"{layer_of(func.__module__)}.{func.__name__}", func)
        setattr(namespace, name, wrappers[func])


def main(argv: list[str]) -> int:
    spans_path, sim_args = argv[0], argv[1:]
    import numpy.linalg

    from qutrit_dephasing import cli

    recorder = Recorder()
    install(recorder)
    cholesky = numpy.linalg.cholesky
    attempts = 0

    def counted_cholesky(*args, **kwargs):
        nonlocal attempts
        attempts += 1
        return cholesky(*args, **kwargs)

    numpy.linalg.cholesky = counted_cholesky
    try:
        code = cli.main(sim_args)
    finally:
        numpy.linalg.cholesky = cholesky
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "cholesky_attempts": attempts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
