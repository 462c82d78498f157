"""Span tracer that wraps the package's public functions from outside.

Nothing in the package changes.  ``Tracer.install`` replaces every public
module-level function of ``nlclt`` in every ``nlclt.*`` namespace that binds
it (a module that imports a function by name keeps its own binding), so a
call records a span whichever module makes it.  Spans live in memory and are
written out by the caller when the run ends.

Parent links use a per-thread span stack.  A span that opens on a thread
with an empty stack (a worker of the figures thread pool) takes as parent
the innermost open span of the thread that installed the tracer, which is
the span waiting for it.
"""
from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "nlclt"

# Scalar helpers called once per array element or CSV cell.  A span each
# would dwarf the work; their time stays in the caller's self time.
PER_ELEMENT = frozenset({
    "csvio.format_value",
    "numerics.std_normal_cdf",
    "numerics.erfcx",
})


def _size(name):
    return lambda args, result: {"elements": int(np.size(args[name]))}


def _dp_counts(args, result):
    policy = result[1].controls
    return {"cells": int(policy.size) * len(result[1].control_values),
            "policy_bytes": int(policy.nbytes)}


# work counts taken at the boundary: (bound arguments, result) -> counts
COUNTERS = {
    "numerics.std_normal_cdf_arr": _size("x"),
    "numerics.erfcx_arr": _size("x"),
    "densities.chen_epstein_pdf": _size("y"),
    "densities.cez_pdf": _size("y"),
    "numerics.quad_integrate": lambda a, r: {"evals": r.evaluations},
    "sublinear.solve_g_heat": lambda a, r: {"grid_points": len(r.x)},
    "sublinear.solve_g_expectation": lambda a, r: {"grid_points": len(r.x)},
    # two controls per step on every lattice point
    "sublinear.tree_value_oracle": lambda a, r: {
        "cell_steps": a["steps"] * a["grid_points"] * 2},
    "measure_dp.sup_expectation_dp": _dp_counts,
    "measure_dp.policy_simulate": lambda a, r: {"path_steps": a["reps"] * a["model"].n},
    "csvio.render_csv": lambda a, r: {"bytes": len(r)},  # ASCII text
    "csvio.write_csv_atomic": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "cli.main": lambda a, r: {"failures": int(r != 0)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into the span list, -1 for a root
    thread: int   # 0 for the installing thread, then 1, 2, ... by first use


def public_functions(package: str = PACKAGE):
    """(module, attribute, function, span name) for every binding of a
    public function defined in the package, across all its modules."""
    out = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in sorted(vars(module).items()):
            if (inspect.isfunction(value) and value.__module__.startswith(package + ".")
                    and not value.__name__.startswith("_")):
                span = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if span not in PER_ELEMENT:
                    out.append((module, attr, value, span))
    return out


class Tracer:
    """Records ``Span`` objects and per-function counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict = {}
        self._patched: list = []
        self._owner_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                tail = self._owner_stack[-1:]
                parent = tail[0] if tail else -1
            ident = threading.get_ident()
            with self._lock:
                thread = self._threads.setdefault(ident, len(self._threads))
                index = len(self.spans)
                span = Span(name, time.perf_counter(), 0.0, parent, thread)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            counts = {"calls": 1}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            with self._lock:
                total = self.counts.setdefault(name, {})
                for key, value in counts.items():
                    total[key] = total.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._threads[threading.get_ident()] = 0
        self._local.stack = self._owner_stack
        wrappers = {}
        for module, attr, fn, name in public_functions():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
            setattr(module, attr, wrappers[fn])
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)
        self._patched = []


def self_times(spans):
    """Exclusive time of every span, and the wall time spans cover.

    At each instant the time goes to the spans that are open and have no
    open child (on any thread); when k such spans run at once, each gets
    1/k of it.  On one thread this is a span's duration minus the part of
    it that its children cover.  The self times sum to the covered time.
    """
    events = []
    for i, s in enumerate(spans):
        if s.end > s.start:
            events.append((s.start, 1, i))
            events.append((s.end, 0, -i))  # ends first; inner spans end first
    events.sort()
    own = [0.0] * len(spans)
    open_children = [0] * len(spans)
    active, leaves = set(), set()
    covered = 0.0
    previous = None
    for t, kind, key in events:
        if leaves:
            share = (t - previous) / len(leaves)
            for i in leaves:
                own[i] += share
            covered += t - previous
        previous = t
        i = key if kind else -key
        parent = spans[i].parent
        if kind:
            active.add(i)
            leaves.add(i)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(i)
            leaves.discard(i)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own, covered
