"""Span recorder that traces vsglab from outside the package.

A `Tracer` replaces functions by timing wrappers in the namespaces where
the program looks them up (``vsglab.ann.cho_factor``,
``vsglab.cli.run_scenario``, ``OnlineEstimator.push_sample`` ...), keeps
every span in flat in-memory lists, and puts the originals back on
`restore`.  The program itself carries no tracing code.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# package modules that are traced layers, in reporting order
LAYERS = ("ann", "grid", "sim", "estimator", "smallsignal", "report", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []   # index of the enclosing span, -1 at the top
        self.starts: list[int] = []    # perf_counter_ns
        self.ends: list[int] = []
        self.notes: dict[str, list] = defaultdict(list)  # span name -> note hook values
        self.errors: Counter = Counter()                  # span name -> calls that raised
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None):
        """Timing wrapper; `note(args, kwargs, result)` is kept per call if given."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns
        notes = self.notes[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes.append(note(args, kwargs, result))
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, note=None, namespaces=None):
        """Trace `module.attr` in every vsglab namespace that binds the same object."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, note)
        if namespaces is None:
            namespaces = [m for key, m in sorted(sys.modules.items())
                          if key == "vsglab" or key.startswith("vsglab.")]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, key, traced)

    def patch_method(self, cls, attr, name, note=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, note)))
        else:
            self._set(cls, attr, self.wrap(name, raw, note))

    def restore(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------------

    def durations_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_ns(self) -> list[int]:
        dur = self.durations_ns()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, dur, own in zip(self.names, self.durations_ns(), self.self_ns()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur * 1e-9
            row["self_s"] += own * 1e-9
        return out

    def subtree_self_s(self, root_name: str) -> float:
        """Sum of the self times of every span at or below a `root_name` span."""
        inside = [False] * len(self.names)
        total = 0
        for i, (name, p, own) in enumerate(zip(self.names, self.parents, self.self_ns())):
            # parents precede children, so the flag of the parent is final here
            inside[i] = name == root_name or (p >= 0 and inside[p])
            if inside[i]:
                total += own
        return total * 1e-9

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            w.writerows(zip(range(len(self.names)), self.parents, self.names,
                            self.starts, self.ends))


def span_cost_ns(n: int = 200_000) -> float:
    """Time one traced call of an empty function adds over a plain call, in ns."""
    def empty():
        return None

    traced = Tracer().wrap("calibration", empty)
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(n):
        traced()
    t1 = clock()
    for _ in range(n):
        empty()
    t2 = clock()
    return ((t1 - t0) - (t2 - t1)) / n


def public_functions(module):
    """Module-level functions defined in `module` whose names have no underscore prefix."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]
