"""Spans and counters around divbound's public functions, installed from outside.

``instrument(tracer)`` replaces each traced function or method by a wrapper
under every name a divbound module calls it by, so calls made inside the
package are traced as well as the benchmark's own; the function it returns
puts the originals back.  A span records
(id, parent id, name, start, end); its self time is its duration minus
the time its child spans cover.  Per-element helpers (``phi``,
``Generator.__call__``, ``format_extended``) are only counted, or timed
in aggregate, so that tracing them does not dominate the run.  Spans stay
in memory, up to SPAN_CAP of them, and are written out by ``dump``.
"""

from __future__ import annotations

import functools
import json
import os
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_seconds[name] += duration - frame[1]
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent[1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], -1 if parent is None else parent[0], name, start, end))
            else:
                self.dropped += 1

    def span(self, name: str, fn, measure=None):
        """Wrapper of ``fn`` that opens a span; ``measure(args, result)`` adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if measure is not None:
                for key, amount in measure(args, result).items():
                    self.counts[f"{name}.{key}"] += amount
            return result

        return wrapper

    def timed_leaf(self, name: str, fn):
        """Wrapper that adds ``fn``'s time and calls to ``name`` without storing spans."""
        self_seconds = self.self_seconds
        counts = self.counts
        stack = self._stack
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_seconds[name] += duration
                counts[calls] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def counted(self, name: str, fn):
        """Wrapper that only counts calls of ``fn``."""
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the stored spans as JSON lines, after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(f'{{"id": {span_id}, "parent": {parent}, "name": "{name}", '
                          f'"start": {start!r}, "end": {end!r}}}\n')


# Every span and counter the instrumentation can produce, so that a metric
# name that matches none of them is an error rather than a silent zero.
SPAN_NAMES = (
    "measure.read", "measure.construct", "measure.align", "measure.tv_distance",
    "measure.hahn_jordan", "generator.eval_array", "divergence.d_f", "bounds.invert",
    "bounds.check_monotone", "bounds.lower_bound", "bounds.encode", "jointrange.random_pair",
    "jointrange.verify_bound", "jointrange.scan_binary", "jointrange.scan_to_csv",
    "jointrange.tightness_gap", "extreal.format_extended", "cli.output",
    "cli.compute", "cli.decompose", "cli.verify", "cli.scan", "cli.invert",
)
COUNTER_NAMES = tuple(f"{name}.calls" for name in SPAN_NAMES) + (
    "measure.read.bytes", "measure.align.atoms", "generator.eval_array.elements",
    "generator.scalar.calls", "bounds.phi.calls", "jointrange.scan_binary.records",
    "jointrange.scan_to_csv.bytes",
)


def instrument(tracer: Tracer):
    """Wrap divbound's public functions in place; returns a function that unwraps them."""
    from divbound import bounds, cli, divergence, extreal, generator, jointrange, measure
    import divbound

    modules = (divbound, measure, generator, divergence, bounds, jointrange, extreal, cli)
    undo: list[tuple[object, str, object]] = []

    def set_attribute(owner, attr, value) -> None:
        undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def replace(original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    set_attribute(module, key, wrapper)

    def wrap_function(module, attr, name, measure_fn=None) -> None:
        original = getattr(module, attr)
        replace(original, tracer.span(name, original, measure_fn))

    read_bytes = lambda args, result: {"bytes": os.path.getsize(args[0])}
    wrap_function(measure, "read_probability_measure", "measure.read", read_bytes)
    wrap_function(measure, "read_signed_measure", "measure.read", read_bytes)
    wrap_function(measure, "align", "measure.align", lambda args, result: {"atoms": len(result[0])})
    wrap_function(measure, "tv_distance", "measure.tv_distance")
    wrap_function(measure, "hahn_jordan", "measure.hahn_jordan")
    wrap_function(divergence, "d_f", "divergence.d_f")
    wrap_function(bounds, "invert", "bounds.invert")
    wrap_function(bounds, "check_monotone", "bounds.check_monotone")
    wrap_function(bounds, "lower_bound", "bounds.lower_bound")
    wrap_function(jointrange, "random_pair", "jointrange.random_pair")
    wrap_function(jointrange, "verify_bound", "jointrange.verify_bound")
    wrap_function(jointrange, "scan_binary", "jointrange.scan_binary",
                  lambda args, result: {"records": len(result)})
    wrap_function(jointrange, "tightness_gap", "jointrange.tightness_gap")

    scan_to_csv = jointrange.scan_to_csv

    def scan_to_csv_counted(records, stream, *rest, **kwargs):
        before = stream.tell()
        result = scan_to_csv(records, stream, *rest, **kwargs)
        tracer.counts["jointrange.scan_to_csv.bytes"] += stream.tell() - before
        return result

    replace(scan_to_csv, tracer.span("jointrange.scan_to_csv", scan_to_csv_counted))
    replace(bounds.phi, tracer.counted("bounds.phi", bounds.phi))
    replace(extreal.format_extended, tracer.timed_leaf("extreal.format_extended", extreal.format_extended))

    for cls in (measure.SignedMeasure, measure.ProbabilityMeasure):
        set_attribute(cls, "__init__", tracer.span("measure.construct", cls.__dict__["__init__"]))
    set_attribute(measure.SignedMeasure, "to_json_dict",
                  tracer.span("cli.output", measure.SignedMeasure.to_json_dict))
    Generator = generator.Generator
    set_attribute(Generator, "eval_array", tracer.span(
        "generator.eval_array", Generator.eval_array,
        lambda args, result: {"elements": int(result.size)}))
    set_attribute(Generator, "__call__", tracer.counted("generator.scalar", Generator.__call__))
    set_attribute(bounds.TvCertificate, "to_json_dict",
                  tracer.span("bounds.encode", bounds.TvCertificate.to_json_dict))

    # JSON encoding and printing of the CLI, under the names cli.py calls them by
    set_attribute(cli, "json", types.SimpleNamespace(dumps=tracer.span("cli.output", cli.json.dumps)))
    set_attribute(cli, "print", tracer.span("cli.output", print))

    def uninstrument() -> None:
        for owner, attr, value in reversed(undo):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    return uninstrument
