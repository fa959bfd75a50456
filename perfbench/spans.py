"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into pfsm's public functions by replacing
each function at the module attribute where its caller looks it up, for
example `pfsm.compile.parse_regex` for `compile_pattern`'s parse step. The
recorder keeps one stack, so it assumes calls run on one thread, which is
what the default serial executor does.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span
    run: int                # id of the benchmark operation it belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_kind: dict[int, str] = {}
        self.scale: dict[int, float] = {}   # run id -> time scale (clock.py)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._run = 0

    @contextmanager
    def span(self, name: str):
        sp = Span(name, perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self._run)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """One benchmark operation: a root span with a fresh run id."""
        self._run += 1
        self.op_kind[self._run] = kind
        with self.span("op." + kind) as sp:
            yield sp

    def wrap(self, module, attr: str, name: str, observe=None):
        """Record a span named `name` around every call of module.attr.
        observe(attrs, args, kwargs, result) adds counts to the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    sp.attrs["error"] = type(exc).__name__
                    raise
                if observe is not None:
                    observe(sp.attrs, args, kwargs, result)
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent,
                                     "run": sp.run, "kind": self.op_kind.get(sp.run),
                                     "scale": self.scale.get(sp.run, 1.0),
                                     "attrs": sp.attrs}) + "\n")
