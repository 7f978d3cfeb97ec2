"""Span tracer that wraps hybridspec's public functions from outside the
package.

A function is wrapped wherever the package binds it: in its defining module
and in every module that imported the name (``estimate.mhom_response``,
``fitting.damped_least_squares``, ...).  Spans are kept in memory and
written out once the workload has ended.  A name that no longer exists is
reported as absent; it is not an error.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _iterations(args, outcome):
    if isinstance(outcome, Exception):  # NotConverged carries (x, cost, n)
        best = getattr(outcome, "best", None)
        return best[2] if best else 0
    if hasattr(outcome, "n_iterations"):  # LorentzianFitResult
        return outcome.n_iterations
    return outcome[2]  # damped_least_squares: (x, cost, n_iter, converged)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# traced function -> counter(args, result or exception) summed into its
# spans, or None
SPANS = {
    "master_eq.me_spectrum": None,
    "master_eq.build_rotating_hamiltonian": None,
    "master_eq.build_liouvillian": None,
    "master_eq.steady_state": None,
    "master_eq.qubit_excitation": None,
    "mhom.sample_ensemble": None,
    "mhom.mhom_response": None,
    "mhom.locate_peak": None,
    "numerics.golden_section_max": None,
    "numerics.damped_least_squares": _iterations,
    "estimate.estimate_separation": None,
    "estimate.estimate_ratio": None,
    "estimate.fit_gammas": None,
    "estimate.run_pipeline": None,
    "thom.thom_excitation": None,
    "fitting.fit_lorentzian": _iterations,
    "eigen.eigen_numeric": None,
    "cli.cmd_simulate": None,
    "cli.cmd_sweep": None,
    "cli.cmd_eigen": None,
    "cli.cmd_fit_lorentzian": lambda args, _: _file_size(args[0].input),
}

# functions that only count, without a span, so that their time stays in
# the caller's self time (formatting and writing are the CLI's own work)
COUNTERS = {
    "cli._atomic_write": lambda args, _: _file_size(args[0]),
    "cli.load_config": lambda args, _: _file_size(args[0]),
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans = []    # [label, start, end, parent index, count, op]
        self.counts = defaultdict(int)
        self.absent = []
        self.op = None     # the workload operation now running
        self._stack = []

    def _span_wrapper(self, label, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0, self.op]
            spans.append(span)
            stack.append(idx)
            outcome = None
            span[1] = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if count:
                    span[4] = count(args, outcome)

        return wrapper

    def _count_wrapper(self, label, fn, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                counts[label] += count(args, None)

        return wrapper

    @staticmethod
    def _modules(package):
        prefix = package.__name__ + "."
        return [m for name, m in list(sys.modules.items()) if m is not None
                and (name == package.__name__ or name.startswith(prefix))]

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every traced name in ``package``'s modules for the duration
        of the block, then restore the originals."""
        restore = []
        targets = [(label, self._span_wrapper, c)
                   for label, c in SPANS.items()]
        targets += [(label, self._count_wrapper, c)
                    for label, c in COUNTERS.items()]
        for label, make, counter in targets:
            modname, fname = label.split(".")
            try:
                home = importlib.import_module(f"{package.__name__}.{modname}")
            except ImportError:
                home = None
            original = getattr(home, fname, None)
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = make(label, original, counter)
            for module in self._modules(package):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def summary(self):
        """Per label: calls, wall time, self time (wall minus the time its
        child spans cover) and the summed counter."""
        out = {label: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "count": 0}
               for label in SPANS}
        for label, n in self.counts.items():
            out[label] = {"count": n}
        child = [0.0] * len(self.spans)
        for label, start, end, parent, count, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (label, start, end, _, count, _) in enumerate(self.spans):
            s = out[label]
            s["calls"] += 1
            s["wall_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["count"] += count
        return out

    def write(self, path):
        """Write every span as one JSON line, then the absent names."""
        with open(path, "w") as fh:
            for label, start, end, parent, count, op in self.spans:
                fh.write(json.dumps({"name": label, "start": start,
                                     "end": end, "parent": parent,
                                     "count": count, "op": op}) + "\n")
            fh.write(json.dumps({"absent": self.absent,
                                 "counts": dict(self.counts)}) + "\n")



# metric name stem -> traced labels, where the stem is not the label
ALIASES = {
    "estimate.separation": ("estimate.estimate_separation",),
    "estimate.ratio": ("estimate.estimate_ratio",),
    "cli.simulate": ("cli.cmd_simulate",),
    "cli.sweep": ("cli.cmd_sweep",),
    "cli.eigen": ("cli.cmd_eigen",),
    "cli.fit_lorentzian": ("cli.cmd_fit_lorentzian",),
    "cli.bytes_written": ("cli._atomic_write",),
    "cli.bytes_read": ("cli.load_config", "cli.cmd_fit_lorentzian"),
}
# summary field behind each metric name's last part
FIELDS = {"calls": "calls", "self_s": "self_s", "wall_s": "wall_s",
          "iterations": "count", "bytes_written": "count",
          "bytes_read": "count"}


def layer_metric(summary, name):
    """A per-layer metric such as ``mhom.mhom_response.calls`` from a
    Tracer summary; the labels it sums are ALIASES[stem] or the stem itself,
    and an absent label reads 0."""
    stem, last = name.rsplit(".", 1)
    labels = ALIASES.get(name) or ALIASES.get(stem, (stem,))
    return sum(summary.get(label, {}).get(FIELDS[last], 0)
               for label in labels)
