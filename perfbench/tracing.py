"""In-memory spans around the public calls of each layer.

The tracer patches module attributes and class methods of the program
for the duration of a traced phase and restores them afterwards; the
program itself carries no tracing code. A span records its name, start,
end, parent span and the job it belongs to; spans stay in memory and are
written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # sid of the enclosing span, -1 at the root
    job: str
    nbytes: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _blob_len(args, out) -> int:
    return len(args[0])


def _out_len(args, out) -> int:
    return len(out)


class Tracer:
    """Collects spans for the job that is current when a patched call runs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._job: Optional[str] = None
        self._paused = False

    def call(self, name: str, fn: Callable, args, kwargs, size=None):
        if self._job is None or self._paused:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        # Reserve the slot so span ids follow call order.
        self.spans.append(None)  # type: ignore[arg-type]
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
        nbytes = size(args, out) if size is not None else 0
        self.spans[sid] = Span(sid, name, t0, t1, parent, self._job, nbytes)
        return out

    @contextlib.contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Root span ``job`` for everything called inside the block."""
        sid = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._job = job_id
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._job = None
            self.spans[sid] = Span(sid, "job", t0, t1, -1, job_id)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run benchmark-side work (gates, probes) without recording it."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def of_job(self, job_id: str) -> List[Span]:
        return [s for s in self.spans if s is not None and s.job == job_id]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans if s is not None], fh)


def _wrap(tracer: Tracer, name: str, fn: Callable, size=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, size)

    return traced


def patch_points(spark_classes=()) -> List[tuple]:
    """(owner, attribute, span name, size function) for every traced call.

    Owners are the program's modules and classes; ``spark_classes`` adds
    the DataFrame and SparkSession classes of the running session so the
    Spark jobs a call starts get their own spans.
    """
    from repro.core import serde
    from repro.core.compactor import RelativeCompactor
    from repro.core.req_sketch import ReqSketch
    from repro.spark import aggregate, udaf

    points = [
        (aggregate, "build_sketch", "aggregate.build_sketch", None),
        (aggregate, "partition_sketches", "aggregate.partition_sketches", None),
        (aggregate, "merge_balanced", "aggregate.merge_balanced", None),
        (udaf, "group_quantiles", "udaf.group_quantiles", None),
        (udaf, "group_sketches", "udaf.group_sketches", None),
        (udaf, "merge_group_sketches", "udaf.merge_group_sketches", None),
        (serde, "to_bytes", "serde.encode", _out_len),
        (serde, "from_bytes", "serde.decode", _blob_len),
        (ReqSketch, "update", "req_sketch.update", None),
        (ReqSketch, "merge", "req_sketch.merge", None),
        (ReqSketch, "copy", "req_sketch.copy", None),
        (RelativeCompactor, "compact", "compactor.compact", None),
        (RelativeCompactor, "sorted_values", "compactor.sort", None),
    ]
    for meth in ("rank", "ranks", "quantile", "quantiles", "cdf"):
        points.append((ReqSketch, meth, "estimator.query", None))
    for df_cls, session_cls in spark_classes:
        points.append((df_cls, "collect", "spark.collect", None))
        points.append((session_cls, "createDataFrame", "spark.createDataFrame", None))
    return points


@contextlib.contextmanager
def installed(tracer: Tracer, points: List[tuple]) -> Iterator[Tracer]:
    """Patch every point for the block's duration, then restore it."""
    saved = []
    try:
        for owner, attr, name, size in points:
            own = vars(owner)
            saved.append((owner, attr, own.get(attr), attr in own))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), size))
        yield tracer
    finally:
        for owner, attr, orig, had in reversed(saved):
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)


# --------------------------------------------------------------- span sums


def children(spans: List[Span], parent: int) -> List[Span]:
    return [s for s in spans if s.parent == parent]


def total(spans: List[Span], name: str, parent_name: Optional[str] = None) -> float:
    """Seconds in spans called ``name`` (optionally only under a parent
    span called ``parent_name``). Nested spans of the same name, such as
    a merge inside a merge, are counted once, at the outermost."""
    by_id: Dict[int, Span] = {s.sid: s for s in spans}
    out = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        if parent_name is not None and (p is None or p.name != parent_name):
            continue
        if _has_ancestor(s, name, by_id):
            continue
        out += s.seconds
    return out


def count(spans: List[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def nbytes(spans: List[Span], name: str) -> int:
    return sum(s.nbytes for s in spans if s.name == name)


def _has_ancestor(s: Span, name: str, by_id: Dict[int, Span]) -> bool:
    p = by_id.get(s.parent)
    while p is not None:
        if p.name == name:
            return True
        p = by_id.get(p.parent)
    return False
