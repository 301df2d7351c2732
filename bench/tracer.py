"""Span recorder, and the wrappers that put it around the package's functions.

A span is (name, start, end, parent id, op id).  Spans stay in memory and
are written out when the run ends.  The wrappers are installed from
outside the package: each target function is replaced at every module
attribute of ``dsss_stego`` that refers to it, so whichever module a caller
imported the function into, its own name lookup reaches the wrapper.  A
method is replaced on its class.

Counters are read from the wrapped function's return value (and, for the
expected flip count, its arguments), never from the program's internals,
so they keep their meaning across refactors of the code inside a layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "dsss_stego"
NO_PARENT = -1


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = NO_PARENT
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")


@dataclass
class LayerTotals:
    """Busy time, self time and call count of each span name over some ops."""

    busy: Counter
    self_time: Counter
    calls: Counter


def totals(rec: SpanRecorder, ops: set[int]) -> LayerTotals:
    """Self time is a span's duration minus the durations of its children."""
    child = defaultdict(float)
    for name, start, end, parent, op in rec.spans:
        if parent != NO_PARENT and op in ops:
            child[parent] += end - start
    busy, self_time, calls = Counter(), Counter(), Counter()
    for sid, (name, start, end, parent, op) in enumerate(rec.spans):
        if op not in ops:
            continue
        busy[name] += end - start
        self_time[name] += end - start - child[sid]
        calls[name] += 1
    return LayerTotals(busy, self_time, calls)


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    count: Callable | None = None  # (recorder, bound arguments, result) -> None


def _count_despread(rec, args, result):
    rec.count("chipmap.despread_symbols", len(result))


def _count_transmit(rec, args, result):
    received, flips = result
    rec.count("channel.flips", flips)
    rec.count("channel.expected_flips", received.size * args["params"].p_chip)


def _count_schedule(rec, args, mask):
    rec.count("pipeline.slots", int(mask.sum()))
    rec.count("pipeline.schedule_symbols", mask.size)
    rec.count("pipeline.requested_slots", args["embed_rate"] * mask.size)


def _count_decode(rec, args, decoded):
    for slot in decoded.slots:
        rec.count("pipeline.extract_exact" if slot.exact else "pipeline.extract_fallback")
        rec.count(f"pipeline.diff_weight.{weight_bucket(slot.weight)}")


def _count_file_bytes(rec, args, result):
    rec.count("fileio.bytes", os.path.getsize(args["path"]))


def _count_points(rec, args, points):
    rec.count("analysis.points", len(points))


DIFF_WEIGHT_TOP = 16


def weight_bucket(weight: int) -> str:
    return str(weight) if weight < DIFF_WEIGHT_TOP else f"ge{DIFF_WEIGHT_TOP}"


_P = PACKAGE
# Encode and decode spans give the end-to-end MB/s on the simulation
# workloads, so they stay on when tracing is off; two spans per call cost
# microseconds against operations of tenths of a second.
E2E_TARGETS = (
    Target("pipeline.encode_stream", f"{_P}.pipeline", "encode_stream"),
    Target("pipeline.decode_stream", f"{_P}.pipeline", "decode_stream"),
)
ALL_TARGETS = (
    E2E_TARGETS[0],
    Target("pipeline.decode_stream", f"{_P}.pipeline", "decode_stream", _count_decode),
    Target("cli.main", f"{_P}.cli", "main"),
    Target("pipeline.run_simulation", f"{_P}.pipeline", "run_simulation"),
    Target("pipeline.embedding_schedule", f"{_P}.pipeline", "embedding_schedule", _count_schedule),
    Target("chipmap.despread", f"{_P}.pipeline", "despread_stream", _count_despread),
    Target("channel.transmit", f"{_P}.channel", "transmit_stream", _count_transmit),
    Target("stego.permutation", f"{_P}.stego", "KeySchedule.permutation"),
    Target("fileio.read", f"{_P}.fileio", "read_chip_stream", _count_file_bytes),
    Target("fileio.write", f"{_P}.fileio", "write_chip_stream", _count_file_bytes),
    Target("analysis.curve", f"{_P}.analysis", "sensitivity_curve", _count_points),
)


def _wrap(rec: SpanRecorder, target: Target, fn: Callable) -> Callable:
    hook = target.count
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if hook is not None:
            hook(rec, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


class Instrumentation:
    """Context manager: wrap the targets on entry, restore the originals on exit."""

    def __init__(self, rec: SpanRecorder, targets: tuple[Target, ...]):
        self.rec = rec
        self.targets = targets
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in self.targets:
            home = sys.modules[target.module]
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                owner = getattr(home, cls_name)
                self._set(owner, method, _wrap(self.rec, target, owner.__dict__[method]))
                continue
            original = getattr(home, target.attr)
            wrapper = _wrap(self.rec, target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)
        return False
