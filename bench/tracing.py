"""Spans recorded from outside the program, and the per-layer metrics derived from them.

The tracer wraps, in the benchmark process only, the functions that
``sylvester.cli`` imports from ``moments`` and ``montecarlo`` plus
``PiPolynomial.to_decimal``, ``sign`` and ``evaluate_interval``.  Each call
records a span (id, parent id, operation id, name, start, end, attribute).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import Counter, defaultdict
from statistics import fmean
from time import perf_counter_ns
from typing import NamedTuple

LAYER_MODULES = {"sylvester.moments": "moments", "sylvester.montecarlo": "montecarlo"}
EXACTNUM_METHODS = ("to_decimal", "sign", "evaluate_interval")
MAIN = "cli.main"


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int | None
    name: str
    start_ns: int
    end_ns: int
    attr: int | None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr_arg: int | None = None):
        """``fn`` recording one span per call; ``attr_arg`` names a positional
        argument whose value is kept on the span (the working precision)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                attr = args[attr_arg] if attr_arg is not None and len(args) > attr_arg else None
                tracer.spans.append(Span(span_id, parent, tracer.op, name, start, end, attr))

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, cli, pi_class) -> None:
        """Patch the layer boundaries below ``cli``; undone by :meth:`uninstall`."""
        for name, obj in list(vars(cli).items()):
            layer = LAYER_MODULES.get(getattr(obj, "__module__", None))
            if layer and inspect.isfunction(obj):
                self._patch(cli, name, f"{layer}.{name}")
        for method in EXACTNUM_METHODS:
            # evaluate_interval(self, digits): keep the precision it was asked for
            self._patch(pi_class, method, f"exactnum.{method}",
                        attr_arg=1 if method == "evaluate_interval" else None)

    def _patch(self, owner, attr: str, name: str, attr_arg: int | None = None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attr_arg))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus the time its child spans cover;
    children run one after another on the caller's thread, so that is the sum
    of their durations.  ``sign`` is reported as a call count, not a mean
    time: no CLI command calls it, so a time would have no samples.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.ns
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def mean_ns(group: list[Span]) -> float:
        return fmean(s.ns for s in group) if group else 0.0

    moments = [s for s in spans if s.name.startswith("moments.")]
    evals = by_name["exactnum.evaluate_interval"]
    # each to_decimal/sign needs one evaluation; every further one is an escalation
    evals_per_parent = Counter(s.parent for s in evals)
    escalations = sum(
        max(0, evals_per_parent[s.id] - 1)
        for s in by_name["exactnum.to_decimal"] + by_name["exactnum.sign"]
    )
    return {
        "cli.self_ms": fmean(s.ns - child_ns[s.id] for s in by_name[MAIN]) / 1e6,
        "moments.closed_form_us": mean_ns(moments) / 1e3,
        "moments.calls": len(moments),
        "exactnum.to_decimal_us": mean_ns(by_name["exactnum.to_decimal"]) / 1e3,
        "exactnum.sign_calls": len(by_name["exactnum.sign"]),
        "exactnum.evaluate_interval_calls": len(evals),
        "exactnum.escalations": escalations,
        "exactnum.max_digits": max((s.attr for s in evals if s.attr is not None), default=0),
    }
