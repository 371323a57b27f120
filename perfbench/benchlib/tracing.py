"""An in-memory span tracer that wraps layer entry points from outside.

The benchmark never edits the program to trace it.  :meth:`Tracer.wrap`
replaces a class attribute (a method) or a module attribute (a function)
with a wrapper that records one span per call, and :meth:`Tracer.remove`
puts every original back.  :meth:`Tracer.span` times a call the benchmark
makes itself, such as ``run_round``.

Each span has a name, start, end, parent span and trace id (the round
number on the simulated workloads, the publish period on UDP).  A span's
self time is its duration minus the time its child spans cover.  Totals
per name are kept for every span; about the first :data:`SPAN_CAP` spans
(threads race on the count) are also kept whole and can be written out
with :meth:`Tracer.dump` when the run ends.  Each thread keeps its own span stack and totals, so the UDP
runtime's receive and timer threads trace without sharing mutable state.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Spans kept whole for :meth:`Tracer.dump`; later spans count only in the
#: totals.
SPAN_CAP = 50_000


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "thread")

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, list] = {}
        self.spans: List[tuple] = []
        self.thread = threading.current_thread().name


class Tracer:
    def __init__(self) -> None:
        self.trace_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)
        self._kept = 0

    # -- recording -------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self) -> tuple:
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [time.perf_counter(), 0.0, next(self._ids)]
        stack.append(frame)
        return state, frame, parent

    def _exit(self, name: str, state: _ThreadState, frame: list,
              parent: Optional[list]) -> None:
        end = time.perf_counter()
        state.stack.pop()
        start, child, span_id = frame
        duration = end - start
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child
        if parent is not None:
            parent[1] += duration
        if self._kept < SPAN_CAP:
            self._kept += 1
            state.spans.append((span_id, parent[2] if parent else 0, name,
                                start, end, self.trace_id))

    @contextmanager
    def span(self, name: str):
        """Time a call the benchmark itself makes."""
        state, frame, parent = self._enter()
        try:
            yield
        finally:
            self._exit(name, state, frame, parent)

    # -- wrapping ----------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class's method or a module's function)
        with a span-recording wrapper.  ``observe(args, start)`` runs on
        entry, for per-call facts a span does not hold (e.g. which node)."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        enter, leave = self._enter, self._exit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state, frame, parent = enter()
            if observe is not None:
                observe(args, frame[0])
            try:
                return original(*args, **kwargs)
            finally:
                leave(name, state, frame, parent)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        """``{name: [calls, seconds, self seconds]}`` over every thread."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return merged

    def dump(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        written = 0
        with open(path, "w") as handle:
            for state in self._states:
                for span_id, parent, name, start, end, trace in state.spans:
                    handle.write(json.dumps({
                        "id": span_id, "parent": parent, "name": name,
                        "start": start, "end": end, "trace": trace,
                        "thread": state.thread}) + "\n")
                    written += 1
        return written
