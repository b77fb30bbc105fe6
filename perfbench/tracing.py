"""Per-module spans around citkit's public functions, recorded from outside.

The tracer swaps module attributes for timing wrappers while it is active and
puts the originals back afterwards, so the package itself is untouched.  A
wrapper is installed on the name the *caller* looks up: ``ecit`` calls
``run_cit`` and ``combine_stable`` through ``citkit.ensemble``, ``kcit`` calls
the permnull functions through ``citkit.cit``, and so on.  A name that no
longer exists is reported as an absent layer instead of failing the run.

Spans are kept in memory as (layer, start, end, parent) and written out once
by the caller.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (layer, module that holds the name the caller looks up, attribute)
LAYERS = (
    ("cli.main", "citkit.cli", "main"),
    ("bench.load_csv", "citkit.cli", "load_csv"),
    ("discovery.query", "citkit.cli", "make_ensemble_tester"),
    ("ensemble.ecit", "citkit.ensemble", "ecit"),
    ("ensemble.partition", "citkit.ensemble", "partition"),
    ("ensemble.subtest", "citkit.ensemble", "run_cit"),
    ("combine.combine_stable", "citkit.ensemble", "combine_stable"),
    ("stable.stable_quantile", "citkit.combine", "stable_quantile"),
    ("stable.stable_cdf", "citkit.combine", "stable_cdf"),
    ("cit.kcit", "citkit.cit", "kcit"),
    ("cit.rcit", "citkit.cit", "rcit"),
    ("permnull.dense_invariants", "citkit.cit", "dense_invariants"),
    ("permnull.feature_invariants", "citkit.cit", "feature_invariants"),
    ("permnull.permutation_cumulants", "citkit.cit", "permutation_cumulants"),
    ("permnull.trace_null_sf", "citkit.cit", "trace_null_sf"),
)
SELF_TIME_LAYERS = ("ensemble.ecit", "cit.kcit", "cit.rcit")
# call counts keep the layer's name plus "_calls", except these two
COUNT_NAMES = {"ensemble.subtest": "ensemble.subtests",
               "discovery.query": "discovery.ci_queries"}


def per_layer_metric_names():
    """(name, unit) of every metric :meth:`Tracer.metrics` reports."""
    names = []
    for layer, _, _ in LAYERS:
        names.append((f"{layer}_s", "s"))
        if layer in SELF_TIME_LAYERS:
            names.append((f"{layer}_self_s", "s"))
        names.append((COUNT_NAMES.get(layer, f"{layer}_calls"), "count"))
    names += [("cit.moment_fallback_share", "share"),
              ("discovery.repeat_cond_set_share", "share"),
              # measured by the benchmark itself, outside the wrappers
              ("import.citkit_s", "s"), ("stable.first_call_s", "s"),
              ("trace.overhead_s", "s"), ("trace.overhead_share", "share")]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []
        self.absent = []
        self.subtests = 0
        self.moment_fallbacks = 0
        self.queries = 0
        self.repeat_queries = 0

    def _span(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index] = (layer, start, time.perf_counter(), parent)
                self._open.pop()
        return wrapper

    def _counting_subtest(self, run_cit):
        @functools.wraps(run_cit)
        def wrapper(*args, **kwargs):
            out = run_cit(*args, **kwargs)
            self.subtests += 1
            self.moment_fallbacks += "moment_fallback" in out.flags
            return out
        return wrapper

    def _tester_factory(self, factory):
        """Wrap each tester the factory makes: one span per CI query, and a
        record of which conditioning sets that PC run has already tested."""
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            timed = self._span("discovery.query", factory(*args, **kwargs))
            tested = set()

            def tester(i, j, S):
                key = frozenset(S)
                self.queries += 1
                self.repeat_queries += key in tested
                tested.add(key)
                return timed(i, j, S)
            return tester
        return wrapper

    def _wrap(self, layer, fn):
        if layer == "discovery.query":
            return self._tester_factory(fn)
        if layer == "ensemble.subtest":
            fn = self._counting_subtest(fn)
        return self._span(layer, fn)

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        absent = []
        for layer, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                absent.append(layer)
                continue
            setattr(module, attr, self._wrap(layer, original))
            self._saved.append((module, attr, original))
        self.absent = absent
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def metrics(self, rounds):
        """Per-layer totals per round of the workload, over the traced rounds.

        Layers that made no call report 0; absent layers are listed in
        :attr:`absent` and also report 0.
        """
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (layer, start, end, _) in enumerate(self.spans):
            total[layer] += end - start
            own[layer] += end - start - child_time[index]
            calls[layer] += 1
        out = {}
        for layer, _, _ in LAYERS:
            out[f"{layer}_s"] = total[layer] / rounds
            if layer in SELF_TIME_LAYERS:
                out[f"{layer}_self_s"] = own[layer] / rounds
            out[COUNT_NAMES.get(layer, f"{layer}_calls")] = calls[layer] / rounds
        out["cit.moment_fallback_share"] = self.moment_fallbacks / max(self.subtests, 1)
        out["discovery.repeat_cond_set_share"] = self.repeat_queries / max(self.queries, 1)
        return out
