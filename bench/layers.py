"""In-process tracing of the spincorr layers, from outside the package.

``traced(tracer)`` swaps timing wrappers into the module namespaces that
look the names up (``cli.run_series`` and ``harness.run_series`` are wrapped
separately, each around the original function), and restores the originals
on exit.  Generators returned by ``streams.substream`` are wrapped too, so
draw time is taken on the generator itself.

A span is ``[id, name, parent, thread, start, end, count]``.  Its parent is
the span open on the same thread when it began, except chunk work handed to
a thread pool, whose parent is the ``harness.map_chunks`` span that
submitted it.  Self time is a span's duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

ID, NAME, PARENT, THREAD, START, END, COUNT = range(7)


class Tracer:
    """Keeps spans in memory; one tracer per traced command."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][ID]
        span = [next(self._ids), name, parent, threading.current_thread().name, perf_counter(), None, 0]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack().pop()

    def write(self, path) -> None:
        keys = ("id", "name", "parent", "thread", "start", "end", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _timed(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span[COUNT] = count(args, result)
        return result

    return wrapper


class TimedGenerator:
    """Forwards to a numpy Generator, timing and counting its uniform draws."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        span = self._tracer.open("streams.draw")
        try:
            out = self._rng.random(size, *args, **kwargs)
        finally:
            self._tracer.close(span)
        span[COUNT] = getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


@contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from spincorr import cli, harness
    from spincorr.quantum import BlochDirection

    def substream(fn):
        inner = _timed(tracer, "streams.substream", fn)
        return lambda *args, **kwargs: TimedGenerator(inner(*args, **kwargs), tracer)

    def map_chunks(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            span = tracer.open("harness.map_chunks")
            chunk_fn = args[-1]

            def chunk(lo, hi):
                child = tracer.open("harness.chunk", parent=span[ID])
                child[COUNT] = hi - lo
                try:
                    return chunk_fn(lo, hi)
                finally:
                    tracer.close(child)

            try:
                return fn(*args[:-1], chunk)
            finally:
                tracer.close(span)

        return wrapper

    def timed(name, count=None):
        return lambda fn: _timed(tracer, name, fn, count)

    patches = [
        (cli, "main", timed("cli.main")),
        (cli, "config_from_args", timed("cli.config_from_args")),
        (cli, "render_csv", timed("cli.render")),
        (cli, "render_json", timed("cli.render")),
        (cli, "run_chsh", timed("harness.run_chsh")),
        (cli, "run_series", timed("harness.run_series")),
        (cli, "run_transfer_baseline", timed("harness.run_transfer_baseline")),
        (cli, "estimate_correlation", timed("harness.estimate_correlation")),
        (cli, "correlation_exact", timed("quantum.correlation_exact")),
        (cli, "singlet_correlation_analytic", timed("hidden.singlet_correlation_analytic")),
        (harness, "run_series", timed("harness.run_series")),
        (harness, "estimate_correlation", timed("harness.estimate_correlation")),
        (harness, "correlation_exact", timed("quantum.correlation_exact")),
        (harness, "_map_chunks", map_chunks),
        (harness, "chunk_bounds", timed("streams.chunk_bounds", lambda args, out: len(out))),
        (harness, "substream", substream),
        (harness, "sample_singlet_batch", timed("hidden.sample_singlet_batch", lambda args, out: len(out))),
        (BlochDirection, "angle_to", timed("quantum.angle_to")),
    ]
    # A name the program no longer defines is left out; its metrics read 0.
    patches = [p for p in patches if p[1] in vars(p[0])]
    commands = dict(cli.COMMANDS)
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrap in patches:
            setattr(owner, name, wrap(vars(owner)[name]))
        for name, fn in commands.items():
            cli.COMMANDS[name] = _timed(tracer, "cli.command", fn)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
        cli.COMMANDS.update(commands)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span[ID], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[ID]] = (end - start) - covered
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced command, keyed by metric name."""
    own = self_times(spans)
    m = dict.fromkeys((
        "cli.config_from_args_s", "cli.command_s", "cli.render_s", "cli.self_s",
        "harness.self_s", "harness.trials", "harness.run_series_calls",
        "harness.estimate_correlation_s",
        "streams.draw_s", "streams.draws", "streams.substream_calls", "streams.chunks",
        "hidden.self_s", "hidden.sample_singlet_batch_calls", "hidden.trials",
        "quantum.correlation_exact_s", "quantum.correlation_exact_calls",
        "quantum.angle_to_s", "quantum.angle_to_calls",
    ), 0)
    inclusive = {
        "cli.config_from_args": "cli.config_from_args_s",
        "cli.command": "cli.command_s",
        "cli.render": "cli.render_s",
        "harness.estimate_correlation": "harness.estimate_correlation_s",
        "streams.draw": "streams.draw_s",
        "quantum.correlation_exact": "quantum.correlation_exact_s",
        "quantum.angle_to": "quantum.angle_to_s",
    }
    calls = {
        "harness.run_series": "harness.run_series_calls",
        "streams.substream": "streams.substream_calls",
        "hidden.sample_singlet_batch": "hidden.sample_singlet_batch_calls",
        "quantum.correlation_exact": "quantum.correlation_exact_calls",
        "quantum.angle_to": "quantum.angle_to_calls",
    }
    counted = {
        "harness.chunk": "harness.trials",
        "streams.draw": "streams.draws",
        "streams.chunk_bounds": "streams.chunks",
        "hidden.sample_singlet_batch": "hidden.trials",
    }
    for span in spans:
        name = span[NAME]
        layer = name.partition(".")[0]
        if layer in ("cli", "harness", "hidden"):
            m[f"{layer}.self_s"] += own[span[ID]]
        if name in inclusive:
            m[inclusive[name]] += span[END] - span[START]
        if name in calls:
            m[calls[name]] += 1
        if name in counted:
            m[counted[name]] += span[COUNT]
    m["harness.threads"] = len({span[THREAD] for span in spans})
    return m
