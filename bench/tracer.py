"""In-memory span recorder for calls into harrisproc, installed from outside.

``Tracer.install`` replaces a function in every harrisproc module that looks
it up by name (its own module included) with a wrapper that records a span
around each call; ``uninstall`` puts the originals back.  Nothing in the
package is edited.

A span is (name, start, end, parent, run): the parent is the span that was
open when the call began, and the run is the pass it belongs to.  Spans are
kept in flat arrays and written out once, at the end of a run.
"""

from __future__ import annotations

import csv
import sys
import time
from array import array
from collections import defaultdict

HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.run_id = 0
        self._open = [-1]
        self._patched = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open_span(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(index)
        return index

    def _close_span(self, index: int, start: float, end: float) -> None:
        self._open.pop()
        self.start[index] = start
        self.end[index] = end

    def wrap(self, span: str, fn, after=None):
        """fn, recording a span per call; after(counts, result) runs untimed.

        The after-hook runs in a span of its own, so counting what a call
        returned is excluded from the caller's self time.
        """
        tracer = self
        name_id = self._name_id(span)
        hook_id = self._name_id(HOOK_SPAN)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = tracer._open_span(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(index, start, clock())
            if after is not None:
                hook = tracer._open_span(hook_id)
                hook_start = clock()
                after(tracer.counts, result)
                tracer._close_span(hook, hook_start, clock())
            return result

        return traced

    def install(self, targets) -> None:
        """Rebind each (module, attribute, span, after) target package-wide."""
        modules = [module for name, module in sys.modules.items()
                   if module is not None and name.split(".")[0] == "harrisproc"]
        for module_name, attribute, span, after in targets:
            original = getattr(sys.modules[module_name], attribute)
            wrapped = self.wrap(span, original, after)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts = defaultdict(int)

    def summary(self, run_id: int) -> dict:
        """Per span name: calls, total and self seconds, and each duration.

        Self time is a span's duration minus the durations of the spans it
        directly caused.
        """
        children = defaultdict(float)
        indices = [i for i in range(len(self.start)) if self.run[i] == run_id]
        for i in indices:
            if self.parent[i] >= 0:
                children[self.parent[i]] += self.end[i] - self.start[i]
        out = {}
        for i in indices:
            entry = out.setdefault(self.names[self.name[i]],
                                   {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "durations": []})
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - children[i]
            entry["durations"].append(duration)
        return out

    def write_csv(self, path) -> None:
        origin = min(self.start, default=0.0)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("run", "id", "parent", "name", "start_s", "end_s"))
            for i in range(len(self.start)):
                writer.writerow((self.run[i], i, self.parent[i],
                                 self.names[self.name[i]],
                                 repr(self.start[i] - origin),
                                 repr(self.end[i] - origin)))
