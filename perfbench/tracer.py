"""Outside-in tracer: spans recorded around the program's functions.

The tracer changes no file of the program. It replaces a function at the
name its caller looks it up by (a module attribute) with a wrapper that
records a span, and restores the original on exit. A name that no longer
exists is an error, never a silent zero: a layer metric that reads 0 because
a function moved would look like a speed-up.

Spans stay in memory and are written once, when the run ends. A span's self
time is its duration minus the time its child spans cover; calls are
single-threaded, so children nest and never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class TraceTargetMissing(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    children_s: float = 0.0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


# Builds a span's `info` from the call's arguments and return value. It must
# be cheap and do no I/O: it runs inside the caller's span.
Info = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records spans for one run id at a time."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # --------------------------------------------------------- wrapping

    def wrap(self, module_name: str, attr: str, span_name: str,
             info: Info | None = None) -> None:
        """Replace `module_name.attr` by a spanning wrapper until `restore`."""
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise TraceTargetMissing(
                f"cannot trace {module_name}.{attr}: the name no longer exists; "
                "update the benchmark's trace targets")
        original = getattr(module, attr)
        if not callable(original):
            raise TraceTargetMissing(f"cannot trace {module_name}.{attr}: not callable")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if info is not None:
                tracer.spans[index].info = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def restore(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------- summaries

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_s
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent,
                                         "run": s.run_id}) + "\n")
