"""Span recording around calls into the conduel library.

A span is recorded by replacing the name a caller looks up (a module-level
function in the caller's module, or a method on a class) with a timing
wrapper, and restoring it afterwards.  Nothing inside ``src/`` changes.

Spans stay in memory and are written out once, when the run ends.  Pool
workers forked while a tracer is active inherit its wrappers; each worker
keeps its own spans and writes them to the spill directory when it exits,
and the parent merges those files after the pool has shut down.  All
processes stamp spans with ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so worker spans share the parent's timeline.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import time
from multiprocessing import util as mp_util

# span tuple fields
LAYER, START, END, PARENT, VALUE, PID = range(6)


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``owner.name = value`` for each (owner, name, value)."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


class Tracer:
    """Records (layer, start, end, parent, value, pid) spans in memory."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.spans: list = []
        self._stack: list = []
        self._pid = os.getpid()
        self._spill_pending = False
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a forked worker starts with an empty buffer; the exit hook can only
        # be registered once multiprocessing has finished its own child setup
        self.spans = []
        self._stack = []
        self._pid = os.getpid()
        self._spill_pending = self.active

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def wrapper(self, func, layer: str, value=None):
        """Timing wrapper around ``func``; ``value(result, args)`` adds a number."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            nonlocal spans, stack
            if spans is not self.spans:  # rebound after a fork
                spans, stack = self.spans, self._stack
                if self._spill_pending:
                    self._spill_pending = False
                    mp_util.Finalize(None, self._spill, exitpriority=0)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, None, self._pid)
            if value is not None:
                spans[idx] = (layer, start, end, parent, value(out, args), self._pid)
            return out

        return traced

    @contextlib.contextmanager
    def tracing(self, targets):
        """Wrap every (owner, name, layer, value) target while the block runs."""
        repl = [
            (owner, name, self.wrapper(getattr(owner, name), layer, value))
            for owner, name, layer, value in targets
        ]
        self.active = True
        try:
            with patched(repl):
                yield
        finally:
            self.active = False

    def collect_workers(self) -> None:
        """Merge span files that exited workers left in the spill directory."""
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                worker = json.load(fh)
            os.remove(path)
            base = len(self.spans)
            for s in worker:
                parent = s[PARENT] + base if s[PARENT] >= 0 else -1
                self.spans.append((s[LAYER], s[START], s[END], parent, s[VALUE], s[PID]))

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (times in microseconds)."""
        if not self.spans:
            return
        t0 = min(s[START] for s in self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tlayer\tstart_us\tend_us\tparent\tpid\tvalue\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i}\t{s[LAYER]}\t{(s[START] - t0) * 1e6:.1f}\t{(s[END] - t0) * 1e6:.1f}"
                    f"\t{s[PARENT]}\t{s[PID]}\t{json.dumps(s[VALUE])}\n"
                )


def layer_totals(spans, lo: int, hi: int) -> dict:
    """Per layer over spans[lo:hi]: calls, inclusive and self seconds, values.

    Self time is a span's duration minus the durations of its direct
    children, so wrapped calls nested inside a layer are charged to their
    own layers.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        s = spans[i]
        if s[PARENT] >= lo:
            child[s[PARENT] - lo] += s[END] - s[START]
    out: dict = {}
    for i in range(lo, hi):
        s = spans[i]
        rec = out.setdefault(s[LAYER], {"calls": 0, "incl": 0.0, "self": 0.0, "values": []})
        dur = s[END] - s[START]
        rec["calls"] += 1
        rec["incl"] += dur
        rec["self"] += dur - child[i - lo]
        if s[VALUE] is not None:
            rec["values"].append(s[VALUE])
    return out
