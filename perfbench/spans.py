"""In-memory span tracer that wraps functions from outside the program.

A wrapped call records one span: its id, the id of the span that caused
it, its name, start and end (perf_counter seconds), the thread it ran on,
the exception type it raised, if any, and optional counts taken from its
arguments and result. Spans stay in a list until the caller writes them
out. Worker-thread spans keep their parent because the wrapped
`ordered_map` hands the submitting span's id to each task it runs.
"""

import functools
import itertools
import math
import statistics
import threading
import time
from dataclasses import asdict, dataclass

# Counter value that marks a parallel map, which gets the worker-thread wrapper.
POOL = "pool"
# Tail percentiles, highest first; the guide's tail is the highest one with
# at least ten samples beyond it.
_TAIL_LADDER = (0.999, 0.99, 0.9)


@dataclass(slots=True)
class Span:
    sid: int
    parent: int
    name: str
    thread: int
    start: float = 0.0
    end: float = 0.0
    error: str = None
    counts: dict = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from the wrappers it makes; not reentrant across runs."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, counter=None):
        """Return `fn` wrapped so each call records a span named `name`.

        `counter(args, kwargs, result)` may return a dict of counts; it runs
        after the span has closed, so its cost is not charged to the call.
        """
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "sid", 0)
            span = Span(next(ids), parent, name, threading.get_ident())
            local.sid = span.sid
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                local.sid = parent
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.traced_original = fn
        return traced

    def wrap_pool(self, name, ordered_map):
        """Wrap a parallel map so tasks on worker threads record the map's
        span as their parent."""
        local = self._local

        def submit_under_parent(fn, items):
            parent = getattr(local, "sid", 0)

            def run(item):
                previous = getattr(local, "sid", 0)
                local.sid = parent
                try:
                    return fn(item)
                finally:
                    local.sid = previous

            return ordered_map(run, items)

        traced = self.wrap(name, submit_under_parent)
        traced.traced_original = ordered_map
        return traced

    def take(self):
        """Remove and return the spans recorded so far."""
        taken = list(self.spans)
        del self.spans[: len(taken)]
        return taken


class Patch:
    """Installs wrappers on module attributes and puts the originals back.

    `targets` holds (module, attribute, span name, counter) rows; a row
    whose counter is POOL gets the worker-thread wrapper.
    """

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self._saved = []

    def __enter__(self):
        try:
            for module, attr, name, counter in self.targets:
                original = getattr(module, attr)
                if hasattr(original, "traced_original"):
                    raise RuntimeError(f"{module.__name__}.{attr} is already wrapped")
                if counter == POOL:
                    wrapper = self.tracer.wrap_pool(name, original)
                else:
                    wrapper = self.tracer.wrap(name, original, counter)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def assert_unwrapped(targets):
    """Raise if any target attribute still holds a tracing wrapper."""
    for module, attr, _, _ in targets:
        if hasattr(getattr(module, attr), "traced_original"):
            raise RuntimeError(f"{module.__name__}.{attr} was left wrapped")


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals,
    clipped to the span. Children on parallel threads may overlap, so the
    union (not the sum) is subtracted."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = s.duration - covered
    return out


def summarize(values):
    """Median, the highest ladder percentile with at least ten samples
    beyond it (nearest rank), and the sample count."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None, "tail": None}
    for p in _TAIL_LADDER:
        if n * (1.0 - p) >= 10:
            out["tail"] = {"p": p, "value": vals[math.ceil(p * n) - 1]}
            break
    return out


def spans_to_json(spans):
    return [asdict(s) for s in spans]
