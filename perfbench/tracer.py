"""Spans around the calls into each module of the package.

The tracer wraps selected public functions from outside the package: every
module attribute that names the original function is replaced for the
duration of a `with Tracer(...)` block and restored afterwards.  Calls with
the same name, parent span and run id fold into one span that counts them,
so a loop of 200k solver calls under one residue_table call is one span.
Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# module -> function wrapped -> counters taken from its result (outside the
# timed interval).  Hot inner helpers (kappa, stopping_time) are measured by
# separate probes instead: wrapping them would dominate the trace.
TRACED = {
    "triangle": {"build_triangle": None},
    "ptree": {
        "vset_levels": lambda levels: {"vectors": sum(map(len, levels.values()))},
        "generate_vset": None,
        "phn_counts": None,
        "lex_tuples": lambda tuples: {"tuples": len(tuples)},
    },
    "diophantine": {"solve_vector": lambda sol: {"members": int(sol.member)}},
    "verify": {
        "residue_table": None,
        "sieve": lambda recs: {"records": len(recs), "survivors": sum(r.surviving for r in recs)},
        "verify_range": lambda rep: {"beyond_table": rep.beyond_table, "mismatches": len(rep.mismatches)},
    },
    "cli": {"main": None},
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self.run = None
        self._stack: list[dict] = []
        self._folded: dict[tuple, dict] = {}
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    def _span(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        key = (name, parent, self.run)
        span = self._folded.get(key)
        if span is None:
            now = time.perf_counter() - self._t0
            span = {"id": len(self.spans), "name": name, "parent": parent, "run": self.run,
                    "start": now, "end": now, "calls": 0, "busy_s": 0.0}
            self._folded[key] = span
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, calls: int = 1):
        """Time a block as `calls` calls of name."""
        span = self._span(name)
        self._stack.append(span)
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            span["calls"] += calls
            span["busy_s"] += t1 - t0
            span["end"] = t1 - self._t0

    def _wrap(self, name: str, fn, counters):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = tracer._span(name)
            tracer._stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                span["calls"] += 1
                span["busy_s"] += t1 - t0
                span["end"] = t1 - tracer._t0
            if counters is not None:
                for key, value in counters(result).items():
                    span[key] = span.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{m}") for m in TRACED
        ]
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"{self.package.__name__}.{mod_name}")
            for fname, counters in names.items():
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig, counters)
                for mod in modules:
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapper)
                        self._patched.append((mod, fname, orig))
        return self

    def __exit__(self, *exc):
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()
        return False

    # Queries over the recorded spans.

    def select(self, name: str, run=None, parent_name: str | None = None) -> list[dict]:
        by_id = {s["id"]: s for s in self.spans}
        out = []
        for s in self.spans:
            if s["name"] != name or (run is not None and s["run"] != run):
                continue
            if parent_name is not None:
                parent = by_id.get(s["parent"])
                if parent is None or parent["name"] != parent_name:
                    continue
            out.append(s)
        return out

    def busy(self, name: str, run=None, parent_name: str | None = None) -> float:
        return sum(s["busy_s"] for s in self.select(name, run, parent_name))

    def calls(self, name: str, run=None) -> int:
        return sum(s["calls"] for s in self.select(name, run))

    def count(self, key: str, name: str, run=None) -> int:
        return sum(s.get(key, 0) for s in self.select(name, run))

    def self_time(self, name: str, run=None) -> float:
        """Busy time of name's spans minus the busy time of their children."""
        ids = {s["id"] for s in self.select(name, run)}
        children = sum(s["busy_s"] for s in self.spans if s["parent"] in ids)
        return self.busy(name, run) - children
