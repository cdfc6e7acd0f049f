"""Spans and counters recorded around calls into potbet's public functions.

The tracer patches each wrapped function in every potbet module that binds
it (``from .potmodel import sample_model`` makes a second binding), records
one span per call in memory, and restores the originals on ``uninstall``.
A layer's self time is the time its spans cover minus the time their child
spans cover; the program is single-threaded, so children nest strictly.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from time import perf_counter

MODULES = ("potbet", "potbet.ingest", "potbet.reduce", "potbet.potmodel",
           "potbet.betting", "potbet.estimate", "potbet.cli")


# (module, function, span name or None for a counter only, counter hook)
# A hook gets (counts, args, kwargs, result) after the call returns.
WRAPPED = (
    ("potbet.ingest", "generate_synthetic", "ingest.generate", None),
    ("potbet.ingest", "load_dataset", "ingest.load",
     lambda c, a, k, r: c.update({"ingest.load_rows": r.n_total})),
    ("potbet.ingest", "write_dataset", "ingest.write", None),
    ("potbet.reduce", "reduce_target", "reduce", None),
    ("potbet.reduce", "count_events", "reduce", None),
    ("potbet.reduce", "angular_diagnostic", "reduce.angular", None),
    ("potbet.potmodel", "fit_pot_model", "potmodel.fit",
     lambda c, a, k, r: c.update({"potmodel.fits": 1})),
    ("potbet.potmodel", "sample_model", "potmodel.sample",
     lambda c, a, k, r: c.update({"potmodel.sample_calls": 1,
                                  "potmodel.draws": len(r)})),
    ("potbet.betting", "select_level", "betting.select",
     lambda c, a, k, r: c.update({"betting.level_failures": len(r.failures)})),
    ("potbet.betting", "null_calibration", "betting.calibration", None),
    ("potbet.betting", "run_rounds", None,
     lambda c, a, k, r: c.update({"betting.games": 1,
                                  "betting.rounds": len(r.wealth_path)})),
    ("potbet.estimate", "estimate_frequency", "estimate", None),
    ("potbet.estimate", "poisson_interval", "estimate.poisson_interval",
     lambda c, a, k, r: c.update({"estimate.poisson_interval_calls": 1})),
    ("potbet.cli", "main", "cli.run", None),
)

SPAN_NAMES = sorted({w[2] for w in WRAPPED if w[2]})


class Tracer:
    """In-memory span log: [name, parent index, start, end] per call."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else None, perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result

        return traced if name else counted

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, name, hook in WRAPPED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict:
        """Self seconds per span name (span minus its direct children)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def covered(self) -> float:
        """Seconds inside top-level spans."""
        return sum(end - start for _, parent, start, end in self.spans
                   if parent is None)


def median_by_key(samples: list) -> dict:
    """Per-key median of a list of dicts with the same keys."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
