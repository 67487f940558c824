"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps, from outside the package, the names through which one
layer calls the next (``cuckoo.core.evaluate``, ``cuckoo.core.sample_levy_vector``
and so on) and a problem's objective and constraint callables.  Every call
through a wrapped name is a span: a name, a start, an end and the span that
was open when it started.  A span that starts while no other span is open
begins a new trial, so all spans of one trial share that trial's id.

Self time (a span's duration minus the time its child spans cover) is summed
per trial and per span name as each span closes, so memory stays constant
however many evaluations a run makes.  The full span list is kept only for
the first ``KEPT_TRIALS`` trials; :meth:`Tracer.dump` writes it out with the
per-trial totals.  :meth:`Tracer.check_trials` compares each trial's summed
self times with a wall time measured by the traced program itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

KEPT_TRIALS = 2


class Tracer:
    def __init__(self) -> None:
        # one dict per trial: root name, root duration, and per span name the
        # summed self time, summed duration and call count
        self.trials: list[dict] = []
        self.spans: list[list] = []  # [trial, parent, name, start, end] for kept trials
        self._stack: list[list] = []  # open spans: [name, start, child_time, span_index]

    def wrap(self, name: str, fn):
        """``fn`` recording one span called ``name`` per call."""
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                self._start_trial(name)
            keep = len(self.trials) <= KEPT_TRIALS
            index = -1
            if keep:
                parent = stack[-1][3] if stack else -1
                index = len(self.spans)
                self.spans.append([len(self.trials) - 1, parent, name, 0.0, 0.0])
            frame = [name, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)

        traced.__wrapped__ = fn
        return traced

    def _start_trial(self, root: str) -> None:
        self.trials.append({"root": root, "wall": 0.0, "self": {}, "total": {}, "calls": {}})

    def _close(self, frame: list, end: float) -> None:
        name, start, child_time, index = frame
        duration = end - start
        trial = self.trials[-1]
        trial["self"][name] = trial["self"].get(name, 0.0) + duration - child_time
        trial["total"][name] = trial["total"].get(name, 0.0) + duration
        trial["calls"][name] = trial["calls"].get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            trial["wall"] = duration
        if index >= 0:
            self.spans[index][3] = start
            self.spans[index][4] = end

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(module, attribute, span_name)``; restore on exit.

        A missing attribute raises ``AttributeError``: a renamed layer
        function must fail the traced run, not lose its span unnoticed.
        """
        saved = []
        try:
            for module, attribute, span_name in targets:
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(span_name, original))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def check_trials(self, root: str, walls: list[float], tolerance_s: float) -> list[str]:
        """Failures of the traced trials against independently timed walls.

        ``walls`` are the trials' wall times as the traced program measured
        them, in the order the trials ran.  There must be one traced trial
        per wall, each rooted at a span called ``root``, and each trial's
        self times summed over its span names must be within
        ``tolerance_s`` of its wall.
        """
        if len(self.trials) != len(walls):
            return [f"{len(self.trials)} traced trials for {len(walls)} timed ones"]
        failures = []
        for i, (trial, wall) in enumerate(zip(self.trials, walls)):
            if trial["root"] != root:
                failures.append(f"traced trial {i} is rooted at {trial['root']}, not {root}")
            covered = sum(trial["self"].values())
            if abs(covered - wall) > tolerance_s:
                failures.append(f"traced trial {i}: self times sum to {covered:.6f} s, "
                                f"its wall is {wall:.6f} s")
        return failures

    def dump(self, path) -> None:
        """Write the kept spans and every trial's per-name totals as JSON."""
        payload = {
            "span_fields": ["trial", "parent", "name", "start", "end"],
            "spans": self.spans,
            "trials": self.trials,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
