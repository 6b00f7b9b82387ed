"""Spans around calls into the ``aesf`` layers, and their self-time arithmetic.

A span is ``(name, parent, start, end)``: ``parent`` is the index of the
enclosing span in the same list, or -1 for a root. A span's self time is its
duration minus the part of its interval that its child spans cover; children
may nest or overlap (spans recorded from several threads), so the covered
part is the length of the union of the children's intervals, clipped to the
parent's.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

#: The public functions timed in a traced run, by module of ``aesf``.
TRACED = {
    "cli": ("main",),
    "sensitivity": ("esf_mc", "convergence_study", "sf"),
    "models": ("derive_seed", "sample", "x_expectation_rule", "expect_y_prime",
               "conditional_survival"),
    "estimators": ("estimate",),
    "numerics": ("bvn_cdf", "hermite_rule"),
    "closedform": ("aesf", "esf_exact"),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Self time of each span, in the order given."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (_, _, start, end) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per-layer metrics from one traced run: ``F.calls`` and ``F.self_s`` for
    every traced function, and the latency profile of ``closedform.aesf``."""
    out = {f"{name}.{key}": 0 for name in TRACED_NAMES for key in ("calls", "self_s")}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
    aesf_spans = [end - start for name, _, start, end in spans if name == "closedform.aesf"]
    out["closedform.aesf.first_s"] = aesf_spans[0] if aesf_spans else 0.0
    if len(aesf_spans) >= 2:
        deciles = statistics.quantiles(aesf_spans, n=10)
        out["closedform.aesf.p50_us"] = deciles[4] * 1e6
        out["closedform.aesf.p90_us"] = deciles[8] * 1e6
    else:
        out["closedform.aesf.p50_us"] = out["closedform.aesf.p90_us"] = 0.0
    return out


class Tracer:
    """Records a span for every call of the traced ``aesf`` functions.

    ``aesf`` modules bind each other's functions by name (``from .models
    import sample``), so each wrapper replaces the original in every loaded
    ``aesf`` module namespace that holds it. Spans are kept in memory; the
    parent stack is not per-thread, so trace only single-threaded runs.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "aesf" or key.startswith("aesf."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"aesf.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
