"""Per-module tracing from outside the program.

``Tracer.install`` replaces every public function of the traced cellseq
modules with a wrapper that records one span per call: the function's name,
the span that was open when it was called (its parent), and start and end
times. Functions that other modules imported by name (``models`` holds its
own reference to ``nncore.lstm_step_cached``, ``evaluation`` to
``models.generate_batch``, ``metrics`` to ``tokens.strip_virtual``, ...) are
patched in those modules too, so no call escapes the trace.

Spans are kept in flat arrays while a section runs and reduced to per-name
call counts, self time (duration minus the time covered by child spans) and
inclusive time when the section ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = (
    "synthworld", "cellspace", "corpus", "tokens", "nncore",
    "models", "metrics", "evaluation", "hypersearch",
)
OBSERVER_SPAN = "trace.observer"


@dataclass
class SectionStats:
    """Per-name totals for one traced section."""

    calls: dict[str, int]
    self_s: dict[str, float]
    incl_s: dict[str, float]

    def get_calls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def get_self(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def get_incl(self, *names: str) -> float:
        return sum(self.incl_s.get(n, 0.0) for n in names)


class Tracer:
    """Wraps the traced modules' public functions and records their spans.

    ``observers`` maps a qualified name such as ``"models.train"`` to a
    callable ``(args, kwargs, result)`` run after each call; its time is
    recorded as an ``trace.observer`` span, so it is not charged to the
    caller's self time.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _wrap(self, qualname: str, fn):
        tracer = self
        nid = self._name_id(qualname)
        obs_id = self._name_id(OBSERVER_SPAN)
        observer = self.observers.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names, parents, starts, ends = tracer._name, tracer._parent, tracer._start, tracer._end
            stack = tracer._stack
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observer is not None:
                oidx = len(starts)
                names.append(obs_id)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(clock())
                observer(args, kwargs, result)
                ends[oidx] = clock()
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"cellseq.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "cellseq" and not modname.startswith("cellseq."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._reset()

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def take_section(self) -> SectionStats:
        """Reduce the spans recorded since the last call and drop them."""
        if len(self._stack) != 1:
            raise RuntimeError("section ended inside an open span")
        names = np.frombuffer(self._name, dtype=np.int64) if len(self._name) else np.zeros(0, np.int64)
        parents = np.frombuffer(self._parent, dtype=np.int64) if len(self._parent) else np.zeros(0, np.int64)
        dur = (np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
               if len(self._start) else np.zeros(0))
        n_names = len(self._names)
        has_parent = parents >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parents[has_parent], dur[has_parent])
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=dur - child, minlength=n_names)
        incl_s = np.bincount(names, weights=dur, minlength=n_names)
        stats = SectionStats(
            calls={n: int(calls[i]) for i, n in enumerate(self._names) if calls[i]},
            self_s={n: float(self_s[i]) for i, n in enumerate(self._names) if calls[i]},
            incl_s={n: float(incl_s[i]) for i, n in enumerate(self._names) if calls[i]},
        )
        self._reset()
        return stats
