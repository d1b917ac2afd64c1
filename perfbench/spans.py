"""In-memory span recording for the traced benchmark rounds.

A span is one call into a wrapped layer function: its name, its start and
end on ``time.perf_counter`` and the span that was open when it began.
Spans are appended in start order, so a parent always precedes its
children; ``self_times`` relies on that.  Counters tally calls (or an
amount per call) of functions whose cost is already inside a span, keyed by
the name of the innermost open span.
"""

import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = {}      # (counter name, enclosing span name) -> total
        self.missing = []     # wrap targets that no longer exist
        self._stack = []

    def open_name(self):
        return self.names[self._stack[-1]] if self._stack else None

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def counter(self, name, fn, amount=None):
        """Wrap ``fn`` so that each call adds ``amount(*args)`` (default 1)
        to the counter ``name`` under the innermost open span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.open_name())
            counts[key] = counts.get(key, 0) + (
                1 if amount is None else amount(*args))
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name, under=None):
        """Total of counter ``name``; only under spans named ``under`` if
        given."""
        return sum(v for (n, u), v in self.counts.items()
                   if n == name and (under is None or u == under))

    def write(self, path):
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (n, s, e, p) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{n},{s!r},{e!r},{p}\n")


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.  Spans must be listed in start order.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)      # end of the covered prefix of each span
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def summarize(tracer, within="solver.step"):
    """Per span name: call count, calls nested (at any depth) inside a span
    named ``within``, summed self time and summed duration."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    inside = [False] * len(tracer.names)
    out = {}
    for i, name in enumerate(tracer.names):
        p = tracer.parents[i]
        inside[i] = name == within or (p >= 0 and inside[p])
        row = out.setdefault(name, {"calls": 0, "calls_within": 0,
                                    "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["calls_within"] += inside[i] and name != within
        row["self_s"] += selfs[i]
        row["total_s"] += tracer.ends[i] - tracer.starts[i]
    return out


def install(tracer, targets):
    """Replace each ``(owner, attribute)`` target by its wrapped version.

    ``targets`` holds ``(label, owner, attribute, wrap)`` with ``wrap`` a
    callable taking the original function.  A target whose attribute is gone
    is recorded in ``tracer.missing`` and left alone, so that a refactor of
    the program shows up as a missing layer instead of a crash.
    """
    for label, owner, attr, wrap in targets:
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            tracer.missing.append(label)
            continue
        setattr(owner, attr, wrap(fn))
