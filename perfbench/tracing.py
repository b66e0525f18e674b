"""Span tracing installed from outside the package, at run time.

`Tracer.install` wraps every public function of the given modules (plus the
constructors and methods named by the caller) and rebinds each wrapper in
every module that holds the original by name, so a call such as
`collapse.link` or `reduction.order_complex` is traced as well as
`complexes.link`.  Each call records one span (id, parent id, name, start,
end) in flat arrays; a generator function records one span per resumption.
Self time is computed afterwards from the spans: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._stack = [-1]
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans and call counts (names are kept)."""
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def wrap(self, name: str, fn):
        """A traced stand-in for `fn`, recording spans under `name`."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def record(sid, parent, t0, t1):
            tracer.span_id.append(sid)
            tracer.parent.append(parent)
            tracer.name.append(nid)
            tracer.start.append(t0)
            tracer.end.append(t1)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    sid = tracer._next_id
                    tracer._next_id += 1
                    parent = stack[-1]
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        record(sid, parent, t0, t1)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record(sid, parent, t0, t1)

        return traced

    def install(self, modules, methods=()) -> list[str]:
        """Trace the public functions defined in `modules` and the given
        `(module, class_name, attribute, span_name)` methods; attribute
        `__init__` traces the constructor.  Returns the traced names."""
        replaced: dict[int, object] = {}
        traced: list[str] = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = (obj, self.wrap(name, obj))
                traced.append(name)
        for mod, cls_name, attr, span_name in methods:
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._installed.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span_name, original))
            traced.append(span_name)
        if len(set(traced)) != len(traced):
            raise ValueError("two traced callables share a span name")
        # rebind in every module that imported the function by name
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def n_spans(self) -> int:
        return len(self.span_id)

    def self_times(self) -> dict[str, float]:
        """Self time per name over the recorded spans: each span's duration,
        minus the durations of its direct children."""
        n_names = len(self.names)
        total = [0.0] * n_names
        if self.span_id:
            # ids are handed out in call order, so the recorded ones form a
            # range; a parent outside it (or still open) has no name here
            base = min(self.span_id)
            name_of = array("l", [-1]) * (max(self.span_id) - base + 1)
            for sid, nid in zip(self.span_id, self.name):
                name_of[sid - base] = nid
            for nid, parent, t0, t1 in zip(self.name, self.parent, self.start, self.end):
                d = t1 - t0
                total[nid] += d
                if parent >= base and name_of[parent - base] >= 0:
                    total[name_of[parent - base]] -= d
        return {self.names[i]: total[i] for i in range(n_names)}

    def call_counts(self) -> dict[str, int]:
        return {self.names[i]: self.calls[i] for i in range(len(self.names))}

    def write(self, path: Path) -> None:
        """Write the spans to `<path>.bin` as five arrays in native byte
        order (id, parent, name, start, end), and the span count, names
        and array types to `<path>.json`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_id, self.parent, self.name, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": self.n_spans(),
            "names": self.names,
            "arrays": ["id:q", "parent:q", "name:l", "start:d", "end:d"],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
