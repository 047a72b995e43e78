"""In-memory span tracing of twowave's public functions, installed from outside.

While a ``Tracer`` is installed, each wrapped module attribute records a span
(name, parent, start, end, attributes) around every call. Spans stay in
memory and are written out when the benchmark ends. Nothing in the program
is edited: the wrappers replace module attributes at run time and the
original functions are put back on exit, so untraced operations run the
program exactly as shipped.

A span's self time is its duration minus the durations of its direct
children. Calls are sequential, so children never overlap and the self
times of one operation's spans add up to its root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


# Attribute extractors run when the call ends; ``result`` is None when the
# call raised, and then only the arguments are described.


def _cumulative_attrs(args, kwargs, result):
    # Bytes computed from array sizes: the samples read plus the running
    # integrals written. Cache misses are not counted.
    return {} if result is None else {"bytes": args[0].nbytes + result.nbytes}


def _solve_picard_attrs(args, kwargs, result):
    return {"order": args[3] if len(args) > 3 else kwargs["order"]}


def _green_attrs(args, kwargs, result):
    return {} if result is None else {"sweeps": len(result[1])}


def _read_profile_attrs(args, kwargs, result):
    return {} if result is None else {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attribute extractor). eval_f1/eval_f2 are
# wrapped both where fixedpoint imported them and where model.residual looks
# them up.
TARGETS = (
    ("quadrature", "cumulative", "quadrature.cumulative", _cumulative_attrs),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("model", "eval_f1", "model.eval_f", None),
    ("model", "eval_f2", "model.eval_f", None),
    ("model", "residual", "model.residual", None),
    ("fixedpoint", "eval_f1", "model.eval_f", None),
    ("fixedpoint", "eval_f2", "model.eval_f", None),
    ("closed_form", "sample_closed_form", "closed_form.sample_closed_form", None),
    ("fixedpoint", "picard_step", "fixedpoint.picard_step", None),
    ("fixedpoint", "solve_picard", "fixedpoint.solve_picard", _solve_picard_attrs),
    ("fixedpoint", "green_kernel_iterate", "fixedpoint.green_kernel_iterate", _green_attrs),
    ("analysis", "energy_identity_residual", "analysis", None),
    ("analysis", "norm_ordering", "analysis", None),
    ("analysis", "certify", "analysis", None),
    ("cli", "read_profile", "cli.read_profile", _read_profile_attrs),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; ``op`` opens one root span per operation."""

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets = [
            (modules[mod], attr, name, extract)
            for mod, attr, name, extract in TARGETS
            if mod in modules
        ]

    def _wrap(self, fn, name, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(idx)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if extract is not None:
                    span.attrs = extract(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, label: str):
        """Install the wrappers and open a root span for one operation."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in self._targets]
        for mod, attr, name, extract in self._targets:
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, extract))
        idx = len(self.spans)
        span = Span("op", -1, 0.0, attrs={"case": label})
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.parent, s.start, s.end, s.attrs]) + "\n")


def layer_totals(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer totals over all traced operations, plus accounting errors.

    Each operation's span self times must add up to its root span's
    duration, and every child must lie inside its parent.
    """
    spans = tracer.spans
    own = tracer.self_times()
    tot: dict[str, float] = {}
    errors: list[str] = []
    root_sum: dict[int, float] = {}
    root_of = [0] * len(spans)
    steps: dict[int, int] = {}
    for i, s in enumerate(spans):
        root_of[i] = i if s.parent < 0 else root_of[s.parent]
        root_sum[root_of[i]] = root_sum.get(root_of[i], 0.0) + own[i]
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) lies outside its parent")
        if s.name == "op":
            continue
        tot[s.name + ".calls"] = tot.get(s.name + ".calls", 0) + 1
        tot[s.name + ".self_s"] = tot.get(s.name + ".self_s", 0.0) + own[i]
        if "bytes" in s.attrs:
            tot[s.name + ".bytes"] = tot.get(s.name + ".bytes", 0) + s.attrs["bytes"]
        if s.name == "fixedpoint.green_kernel_iterate":
            tot["fixedpoint.green_sweeps"] = tot.get("fixedpoint.green_sweeps", 0) + s.attrs["sweeps"]
        if s.name == "fixedpoint.solve_picard":
            steps[i] = 0
        if s.name == "fixedpoint.picard_step":
            j = s.parent
            while j >= 0 and spans[j].name != "fixedpoint.solve_picard":
                j = spans[j].parent
            if j >= 0:
                steps[j] += 1
    for i, total in root_sum.items():
        dur = spans[i].end - spans[i].start
        if abs(total - dur) > 1e-9 * max(dur, 1.0):
            errors.append(f"op span {i}: self times sum to {total!r}, duration {dur!r}")
    # A forward solve is one full run of `order` Picard steps.
    solves = sum(n // spans[j].attrs["order"] for j, n in steps.items())
    tot["fixedpoint.forward_solves"] = solves / len(steps) if steps else 0.0
    return tot, errors
