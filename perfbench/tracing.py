"""In-memory span recorder for the traced benchmark run.

A span wraps one call the benchmark makes into the library (or one of the
benchmark's own op/bring-up bodies). It holds the call's name
(`<module>.<function>`), its start and end (`time.perf_counter_ns`), the
index of the enclosing span, the id of the op it belongs to, the minor page
faults the process took while it ran (`getrusage(RUSAGE_SELF)`, the
process's own counters) and a tag: `first` for a transform call that builds
its plan, `miss` for a cache lookup that found nothing.

When the tracer is disabled `call` is a plain function call, so the untraced
run executes the same code path with no recording.
"""
from __future__ import annotations

import json
import resource
import time
from dataclasses import asdict, dataclass
from typing import Optional


def minflt():
    """Minor page faults taken so far by this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    op: str
    minflt: int
    tag: str = ""

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans while `enabled`; `op` labels every span it records."""

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.op = ""
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, tag=""):
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        f0 = minflt()
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            f1 = minflt()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent, self.op, f1 - f0, tag)

    def tag_last(self, tag):
        """Re-tag the most recent span (the caller learns a lookup missed
        only after it returns)."""
        if self.enabled and self.spans:
            self.spans[-1].tag = tag


def self_times(spans):
    """Per span: (self time in ns, self minor faults).

    Self time is the duration minus the time covered by child spans. The
    benchmark has one caller thread, so the children of a span run one
    after another inside it and their durations can simply be summed.
    """
    child_ns = [0] * len(spans)
    child_flt = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.duration_ns
            child_flt[s.parent] += s.minflt
    return [
        (s.duration_ns - c_ns, s.minflt - c_flt)
        for s, c_ns, c_flt in zip(spans, child_ns, child_flt)
    ]


def write_spans(path, spans):
    """Write spans as JSON lines, with their self time and self faults."""
    with open(path, "w", encoding="utf-8") as f:
        for i, (s, (self_ns, self_flt)) in enumerate(zip(spans, self_times(spans))):
            rec = asdict(s)
            rec.update(id=i, self_ns=self_ns, self_minflt=self_flt)
            f.write(json.dumps(rec) + "\n")
