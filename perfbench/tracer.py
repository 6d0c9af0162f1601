"""In-memory span tracer with self-time accounting.

A Tracer wraps functions. Each call of a wrapped function records a span:
its name, start, end and the span that was open on the same thread when it
started (its parent). Spans stay in memory and are written out when the run
ends.

Very hot functions are *folded*: their calls are not kept one by one but
added to a counter keyed by (nearest kept ancestor, name), which holds the
call count, self time and inclusive time. A folded function may call only
folded functions, so the time a kept span spends in folded calls is simply
the sum of their durations.

Self time of a kept span is its duration minus the part of its interval
covered by its child spans (the union of their intervals, clipped to the
parent) minus the time spent in folded calls made directly from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# span record layout: kept spans have an integer id; folded frames have
# id None and carry the id of their nearest kept ancestor in PARENT
ID, PARENT, NAME, START, END, FOLDED = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # kept span records, in completion order
        self._ids = itertools.count(1)
        self._local = threading.local()
        # one {(anchor id, name): [calls, self, incl]} table per thread
        self._folded_tables = []
        self._restore = []         # (owner, attribute, original value)

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table = defaultdict(lambda: [0, 0.0, 0.0])
            state = self._local.state = ([], table)
            self._folded_tables.append(table)
        return state

    def wrap(self, name, fn, fold=False, when=None):
        """Return fn wrapped in a span called `name`.

        `name` may be a callable taking the call's arguments and returning
        the span name. `when`, if given, is a predicate on the arguments; a
        call for which it is false runs untraced.
        """
        clock = self.clock
        ids = self._ids
        spans = self.spans
        state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            stack, folded = state()
            parent = stack[-1] if stack else None
            span_name = name(*args, **kwargs) if callable(name) else name
            if fold:
                anchor = None
                if parent is not None:
                    anchor = parent[ID] if parent[ID] is not None else parent[PARENT]
                rec = [None, anchor, span_name, 0.0, 0.0, 0.0]
            else:
                rec = [next(ids), None if parent is None else parent[ID],
                       span_name, 0.0, 0.0, 0.0]
            stack.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                duration = end - rec[START]
                if fold:
                    row = folded[(rec[PARENT], span_name)]
                    row[0] += 1
                    row[1] += duration - rec[FOLDED]
                    row[2] += duration
                    if parent is not None:
                        parent[FOLDED] += duration
                else:
                    spans.append(rec)
        return wrapper

    def patch(self, owner, attribute, wrapper):
        """Set owner.attribute = wrapper, remembering the old value."""
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def unpatch(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def folded(self):
        """Merged folded counters: {(anchor id, name): [calls, self, incl]}."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        for table in self._folded_tables:
            for key, row in list(table.items()):
                out = merged[key]
                for i in range(3):
                    out[i] += row[i]
        return merged

    def stats(self):
        """{name: [calls, self seconds, inclusive seconds]} over all calls."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        selfs = self_times(self.spans)
        for rec in self.spans:
            row = out[rec[NAME]]
            row[0] += 1
            row[1] += selfs[rec[ID]]
            row[2] += rec[END] - rec[START]
        for (_, name), (calls, self_s, incl) in self.folded().items():
            row = out[name]
            row[0] += calls
            row[1] += self_s
            row[2] += incl
        return out

    def write(self, path):
        """Write kept spans and folded counters as JSON lines."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"id": rec[ID], "parent": rec[PARENT],
                                     "name": rec[NAME], "start": rec[START],
                                     "end": rec[END],
                                     "folded_s": rec[FOLDED]}) + "\n")
            for (anchor, name), (calls, self_s, incl) in self.folded().items():
                fh.write(json.dumps({"folded": name, "parent": anchor,
                                     "calls": calls, "self_s": self_s,
                                     "incl_s": incl}) + "\n")


def covered_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration - child coverage - folded time} for kept spans."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return {rec[ID]: (rec[END] - rec[START]
                      - covered_length(children[rec[ID]], rec[START], rec[END])
                      - rec[FOLDED])
            for rec in spans}
