"""Spans around the public functions of the pcm2pwm modules.

The tracer replaces every public function of the traced modules with a
wrapper that records a span: name, start, end, parent span and job id.
Nothing inside the program changes; the wrapper sits in the module
namespace, so calls through ``module.function`` and calls between
functions of one module both pass through it.  Spans stay in memory and
are written out when the run ends.

A span's self time is its duration minus the time its child spans cover
and minus the time the tracer spent counting inside it.  With ``memory``
on (tracemalloc running), each span also records the peak of traced
allocations above what was live when it started.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import tracemalloc

# Called once per evaluated mapping (2^n times per explore); a span each
# would cost more than the call.  Mapping counts come from the result of
# enumerate_partitions instead.
UNTRACED = {"dse.evaluate"}

# Behavior of each traced chain stage; upsample2 serves S1-S3.
STAGE_BEHAVIOR = {"chain.s0_condition": "S0", "chain.linearize": "LINE",
                  "chain.noise_shape": "MOLD"}


def _upsample_behavior(args, kwargs):
    return kwargs.get("behavior", args[3] if len(args) > 3 else "S1")


TAGS = {"chain.upsample2": _upsample_behavior}


def _samples_out(args, kwargs, ret):
    return {"samples_out": len(ret)}


def _bitstream(args, kwargs, ret):
    return {"samples_out": len(ret), "bitstream_bytes": ret.bits.nbytes}


def _pwm_file(args, kwargs, ret):
    return {"bytes": os.path.getsize(args[1])}


def _bits_in(args, kwargs, ret):
    return {"bits_in": len(args[0])}


def _mappings(args, kwargs, ret):
    return {"mappings": len(ret), "feasible": sum(1 for o in ret if o.feasible)}


COUNTERS = {
    "chain.s0_condition": _samples_out,
    "chain.upsample2": _samples_out,
    "chain.linearize": _samples_out,
    "chain.noise_shape": _samples_out,
    "chain.generate_pwm": _bitstream,
    "audio_io.write_pwm": _pwm_file,
    "verification.demodulate": _bits_in,
    "dse.enumerate_partitions": _mappings,
}


class Span:
    __slots__ = ("id", "name", "tag", "job", "parent", "start", "end",
                 "child_s", "pause_s", "counts", "mem0", "peak", "peak_mb")

    def __init__(self, sid, name, tag, job, parent):
        self.id, self.name, self.tag, self.job = sid, name, tag, job
        self.parent = parent.id if parent is not None else None
        self.child_s = self.pause_s = 0.0
        self.counts = None
        self.mem0 = self.peak = 0
        self.peak_mb = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s - self.pause_s

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "tag": self.tag,
                "job": self.job, "parent": self.parent, "start": self.start,
                "end": self.end, "self_s": self.self_s, "counts": self.counts,
                "peak_mb": self.peak_mb}


class Tracer:
    """install() puts the wrappers in place, uninstall() the originals; both
    are cheap, so a run can switch tracing per job.  Spans are recorded while
    `job` is set."""

    def __init__(self, modules):
        self.spans = []
        self.job = None
        self.memory = False
        self._stack = []
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                wrapped[fn] = self._wrap(name, fn)
        # rebind every reference, including `from .chain import ...` copies
        self._bindings = [(mod, attr, obj, wrapped[obj]) for mod in modules
                          for attr, obj in vars(mod).items()
                          if inspect.isfunction(obj) and obj in wrapped]

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def _wrap(self, name, fn):
        tag = TAGS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, tag(args, kwargs) if tag else None,
                              counter, args, kwargs)
        return wrapper

    def _call(self, name, fn, tag, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, tag, self.job, parent)
        self.spans.append(span)
        if self.memory:
            if parent is not None:
                parent.peak = max(parent.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            span.mem0 = tracemalloc.get_traced_memory()[0]
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            ret = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
                span.peak_mb = (span.peak - span.mem0) / 1e6
            if parent is not None:
                parent.child_s += span.end - span.start
        if counter is not None:
            t = time.perf_counter()
            span.counts = counter(args, kwargs, ret)
            if parent is not None:
                parent.pause_s += time.perf_counter() - t
        return ret

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")


def summarize(spans) -> dict:
    """Per function name: inclusive and self seconds, summed counts, largest
    peak.  Per layer (module): summed self seconds under "<layer>"."""
    out = {}
    for s in spans:
        for key in (s.name, s.name.split(".", 1)[0]):
            agg = out.setdefault(key, {"s": 0.0, "self_s": 0.0, "counts": {},
                                       "peak_mb": None})
            agg["s"] += s.end - s.start
            agg["self_s"] += s.self_s
            for k, v in (s.counts or {}).items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
            if s.peak_mb is not None:
                agg["peak_mb"] = max(agg["peak_mb"] or 0.0, s.peak_mb)
    return out


def behavior_self_s(spans) -> dict:
    """Self seconds of each chain behavior (S0, S1-S3, LINE, MOLD)."""
    out = {}
    for s in spans:
        b = STAGE_BEHAVIOR.get(s.name) or (
            s.tag if s.name == "chain.upsample2" else None)
        if b:
            out[b] = out.get(b, 0.0) + s.self_s
    return out
