"""Span and count recorder for one benchmark operation.

`install` wraps stableinfer's public functions from outside the package:
every binding of a public function, in its own module and in each module
that imported it by name, is replaced by a wrapper that records a span
(name, parent, start, end).  The Fourier-inversion density is reached
through an object that `stable` hands out, so its class is wrapped too,
and `scipy.integrate.quad` is wrapped where `stable` looks it up, to count
calls and IntegrationWarnings instead of printing them.  Spans stay in
memory; `summary` reduces them to self time per span name and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

LAYERS = ("rng", "stable", "sequences", "series", "metrics", "bayes", "ensemble_io", "cli")


def _add_size(key):
    def count(counts, args, result):
        counts[key] += int(np.size(result))
    return count


def _add_file_size(key):
    def count(counts, args, result):
        counts[key] += os.path.getsize(args[0])
    return count


def _count_coefficients(counts, args, result):
    counts["series.coefficients"] += int(result.coefficients.size)


def _count_posterior(counts, args, result):
    counts["bayes.posteriors"] += 1
    counts["bayes.posterior.rows"] += int(result.measure.weights.size)


# counts taken from the arguments or result of one wrapped function
COUNTERS = {
    "rng.uniform_rows": _add_size("rng.uniforms"),
    "stable.standard_stable_from_uniforms": _add_size("stable.cms.draws"),
    "series.sample_coefficients": _count_coefficients,
    "series.synthesize": _add_size("series.grid_values"),
    "bayes.evaluate_misfit_batch": _add_size("bayes.misfit.rows"),
    "bayes.posterior": _count_posterior,
    "ensemble_io.write_matrix_csv": _add_file_size("ensemble_io.csv.bytes"),
    "ensemble_io.write_sfe1": _add_file_size("ensemble_io.sfe1.bytes"),
}


class Tracer:
    """Spans of one operation; the operation name is their request id."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0]
            spans.append(span)
            open_.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def count_calls(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Self time (span duration minus its direct children) per name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            self_s[name] += end - start - child
        return {"request_id": self.request_id, "n_spans": len(self.spans),
                "self_s": dict(self_s), "counts": dict(self.counts)}


class _QuadCounter:
    """Stands in for the `scipy.integrate` module inside `stableinfer.stable`."""

    def __init__(self, module, counts):
        self._module = module
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        self._counts["stable.quad.calls"] += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self._module.IntegrationWarning)
            result = self._module.quad(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, self._module.IntegrationWarning):
                self._counts["stable.quad.warnings"] += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer wherever they are bound."""
    modules = {name: importlib.import_module(f"stableinfer.{name}") for name in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                span = f"{layer}.{name}"
                wrapped[id(fn)] = (fn, tracer.wrap(span, fn, COUNTERS.get(span)))
    consumers = [m for name, m in sys.modules.items()
                 if name == "stableinfer" or name.startswith("stableinfer.")]
    for module in consumers:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    stable, cli = modules["stable"], modules["cli"]
    density = stable._StandardNumericDensity
    density.__call__ = tracer.wrap("stable.density", density.__call__)
    density._point = tracer.count_calls("stable.density.points", density._point)
    stable.integrate = _QuadCounter(stable.integrate, tracer.counts)
    for kind, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[kind] = tracer.wrap("cli.runner", runner)


def import_times(stderr_text: str) -> dict:
    """Cumulative seconds of `import stableinfer...` and of every scipy
    module not nested inside another, from `python -X importtime` output."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    out = {"import.stableinfer.s": 0.0, "import.scipy.s": 0.0}
    ancestors: list[str] = []
    # importtime prints a module after its children; reversed, parents lead
    for depth, cumulative, name in reversed(rows):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in ("stableinfer", "scipy") and not any(a.split(".")[0] == top for a in ancestors):
            out[f"import.{top}.s"] += cumulative * 1e-6
        ancestors.append(name)
    return out
