"""Spans, call counters and per-call memory peaks for the traced run.

A disabled `Tracer` turns `Tracer.call` into a plain call and records
nothing, so an untraced run measures the program alone.  Everything a traced
run records stays in memory until `Tracer.dump` writes it at the end.
"""

from __future__ import annotations

import json
import os
import resource
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# Counted functions of the low layers.  The projgeom ones are wrapped at every
# module that binds them at import time, so that calls from inside projgeom
# (span -> rref) and from the modules above it are all seen.
GF2N_COUNTED = ("mul", "inv")
PROJGEOM_COUNTED = ("line_points", "rref", "normalize_tuple", "null_space")
PROJGEOM_IMPORTERS = ("projgeom", "quadric", "ovoid", "figures", "subf2")


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records one span per call from the benchmark into a layer.

    A span holds ``name`` (``<module>.<function>``), an optional ``label``,
    ``start`` and ``end`` in seconds since the tracer was made, the id of its
    ``parent`` span and the id of the operation (``op``) it belongs to.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._parent: Optional[int] = None
        self._op: Optional[int] = None
        self._t0 = time.perf_counter()

    def _open(self, name: str, label: Optional[str]) -> dict:
        span = {"id": len(self.spans), "name": name, "label": label,
                "op": self._op, "parent": self._parent,
                "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(span)
        return span

    @contextmanager
    def scope(self, name: str, op: Optional[int] = None):
        """Root span of set-up (``op`` None) or of one timed operation."""
        if not self.enabled:
            yield
            return
        self._op = op
        span = self._open(name, None)
        self._parent = span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._parent = self._op = None

    def call(self, name: str, fn: Callable, *args, label: Optional[str] = None,
             mem: Optional[str] = None, **kwargs):
        """Call ``fn``; when tracing, record its span and its memory peak.

        ``mem="heap"``: peak of what the call allocated; tracemalloc runs only
        inside the call.  ``mem="rss"``: how far the call raised the process's
        resident high-water mark above the resident size at its start.  That
        is the call's own peak when nothing before it went higher, which holds
        for the set-up builds at the start of a traced pass; tracemalloc
        would slow those pure-Python builds about fourfold.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name, label)
        if mem == "heap":
            tracemalloc.start()
        elif mem == "rss":
            rss0 = _rss_mb()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name.split(".")[0]] += 1
            raise
        finally:
            span["end"] = time.perf_counter() - self._t0
            if mem == "heap":
                span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            elif mem == "rss":
                span["peak_mb"] = max(0.0, _maxrss_mb() - rss0)

    def fail(self, layer: str) -> None:
        """A check on a layer's output failed."""
        if self.enabled:
            self.failed[layer] += 1

    def add(self, key: str, n: int) -> None:
        if self.enabled:
            self.counts[key] += n

    def sample(self, key: str, value: float) -> None:
        if self.enabled:
            self.samples[key].append(value)

    # -- call counters ----------------------------------------------------------

    def _counting(self, layer: str, fname: str, fn: Callable) -> Callable:
        key = f"{layer}.{fname}_calls"
        counts, failed = self.counts, self.failed

        def counted(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[layer] += 1
                raise

        return counted

    @contextmanager
    def counters(self):
        """Count the gf2n and projgeom calls made while the block runs."""
        import importlib

        from quadcover import gf2n, projgeom

        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for meth in GF2N_COUNTED:
            patch(gf2n.FieldCtx, meth,
                  self._counting("gf2n", meth, gf2n.FieldCtx.__dict__[meth]))
        modules = [importlib.import_module(f"quadcover.{m}") for m in PROJGEOM_IMPORTERS]
        for fname in PROJGEOM_COUNTED:
            wrapper = self._counting("projgeom", fname, getattr(projgeom, fname))
            for mod in modules:
                if fname in mod.__dict__:
                    patch(mod, fname, wrapper)
        try:
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- reading the spans ------------------------------------------------------

    def durations(self, name: str, label: Optional[str] = None) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (label is None or s["label"] == label)]

    def busy(self, layer: str) -> float:
        """Seconds spent in calls from the benchmark into ``layer``."""
        prefix = layer + "."
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"].startswith(prefix))

    def peak_mb(self, name: str) -> float:
        return max((s.get("peak_mb", 0.0) for s in self.spans if s["name"] == name),
                   default=0.0)

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "counts": dict(self.counts),
                       "failed": dict(self.failed), "spans": self.spans}, fh)
