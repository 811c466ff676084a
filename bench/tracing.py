"""Layer spans recorded from outside the program, and the arithmetic on them.

The tracer replaces the public functions of the qwalk modules with wrappers
that open a span around each call.  A span holds its name
(``<layer>.<function>``), start and end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), the id of the
span it was opened in, and the job it belongs to.  Spans stay in memory until
the benchmark writes them out.

The functions that run once per hop (``adaptive_update``, ``bs_route``,
``pbs_route``) are left unwrapped: a span per hop would cost more than the
hop.  They are timed by the core microbenchmarks in layers.py instead.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

QWALK_MODULES = ("qwalk", "qwalk.core", "qwalk.network", "qwalk.theory",
                 "qwalk.leggett_garg", "qwalk.cli")

#: (defining module, function) wrapped in every module that binds it
TRACED = (
    ("qwalk.core", "derive_seed"),
    ("qwalk.network", "build_jeong"),
    ("qwalk.network", "build_robens"),
    ("qwalk.network", "run"),
    ("qwalk.theory", "jeong_evolve"),
    ("qwalk.theory", "hadamard_walk"),
    ("qwalk.theory", "table1_closed_form"),
    ("qwalk.theory", "total_variation"),
    ("qwalk.leggett_garg", "run_protocol"),
    ("qwalk.leggett_garg", "three_run_replicate"),
    ("qwalk.leggett_garg", "single_run_replicate"),
    ("qwalk.leggett_garg", "k_three_run"),
    ("qwalk.leggett_garg", "k_single_run"),
    ("qwalk.leggett_garg", "replicate_stats"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    job: str | None
    attrs: dict

    @property
    def layer(self) -> str:
        """The module the span's time belongs to; the job span is the CLI's."""
        return "cli" if self.name == "job" else self.name.split(".")[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; the body may add to ``attrs``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.job, attrs))

    def adopt(self, spans: list[dict], parent: int, job: str) -> None:
        """Take in spans recorded by another process under span ``parent``."""
        ids = {s["id"]: self._next_id + i for i, s in enumerate(spans)}
        self._next_id += len(spans)
        for s in spans:
            p = parent if s["parent"] is None else ids[s["parent"]]
            self.spans.append(Span(ids[s["id"]], s["name"], s["start"], s["end"],
                                   p, job, s["attrs"]))


def adaptive_hops(net, detected: int, removed: int) -> int:
    """Adaptive-unit passes of one run, counted from its outcome.

    A Jeong mesh of L levels puts every particle through L beam splitters.
    In the Robens network a detected particle passes 8 PBSs (a split and a
    merge per jump, 4 jumps); one absorbed at t2 passed 2.
    """
    if "t2" in net.cut_points:
        return 8 * detected + 2 * removed
    return (len(net.detector_sites) - 1) * detected


def _run_attrs(args, kwargs, result) -> dict:
    net = args[0] if args else kwargs["net"]
    detected = sum(result.counts.values())
    return {"particles": detected + result.removed, "removed": result.removed,
            "hops": adaptive_hops(net, detected, result.removed)}


def _build_attrs(args, kwargs, result) -> dict:
    return {"units": len(result.units)}


ANNOTATE = {"run": _run_attrs, "build_jeong": _build_attrs,
            "build_robens": _build_attrs}


def _wrap(tracer: Tracer, name: str, fn, annotate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs.update(annotate(args, kwargs, result))
            return result
    return traced


def install(tracer: Tracer):
    """Wrap every TRACED function wherever a qwalk module binds it.

    Returns a function that puts the originals back.
    """
    modules = [sys.modules[m] for m in QWALK_MODULES if m in sys.modules]
    patched = []
    for home, attr in TRACED:
        original = getattr(sys.modules[home], attr)
        layer = home.split(".")[1]
        wrapper = _wrap(tracer, f"{layer}.{attr}", original, ANNOTATE.get(attr))
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))

    def restore():
        for module, attr, original in patched:
            setattr(module, attr, original)
    return restore


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, kids: dict[int, list[Span]]) -> int:
    """The span's duration minus the part of it its child spans cover."""
    return span.duration - covered(
        [(c.start, c.end) for c in kids.get(span.id, ())], span.start, span.end)


def self_time_by_layer(spans: list[Span]) -> dict[str, int]:
    kids = children_of(spans)
    out: dict[str, int] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0) + self_time(s, kids)
    return out


def to_json(spans: list[Span]) -> list[dict]:
    return [s._asdict() for s in spans]
