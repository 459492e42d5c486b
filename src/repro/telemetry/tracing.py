"""Hierarchical wall-clock spans for the host-side execution layer.

The event bus (:mod:`repro.telemetry.events`) watches *simulated* cycles;
this module watches the *host* — where the wall-clock of a sweep actually
goes.  A :class:`SpanTracer` records a tree of timed spans::

    sweep
    └── experiment:fig4
        ├── attempt#1            (failed: TransientFault, retried)
        └── attempt#2
            ├── cache_lookup:compress
            ├── trace_build:compress
            ├── simulate:compress  × N configurations
            └── ...
    checkpoint                    (manifest writes, parent side)

and exports it as Chrome trace-event JSON (:meth:`SpanTracer.to_chrome`),
which Perfetto / ``chrome://tracing`` render as a zoomable timeline, or
as a text tree with self/total time (:func:`render_span_tree`, surfaced
by ``aurora-sim spans``).

Crossing the process pool.  Spans recorded inside a
``ProcessPoolExecutor`` worker cannot share the parent's clock or id
space, so workers run their own tracer (correlated by the sweep's
``trace_id``), return :meth:`~SpanTracer.finished_records` in the result
envelope, and the parent grafts them under the experiment's attempt span
(:meth:`~SpanTracer.graft`): ids are re-prefixed to stay unique across
worker reuse, worker-relative times are rebased onto the attempt's
window, and orphan roots are re-parented onto the attempt.  The merged
trace is one file; every span carries the sweep's correlation id.

Zero overhead when off.  Nothing in this module runs unless a tracer is
installed: probe sites ask :func:`current_tracer` (one module-global
read) and skip span construction entirely when it returns ``None`` —
the same contract the cycle-level probes obey.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Iterable, Iterator


class SpanError(ValueError):
    """A span record or span-trace file is malformed; names the reason."""


class Span:
    """One timed interval: name, category, parentage and annotations.

    ``start``/``end`` are seconds relative to the owning tracer's origin
    (monotonic); ``track`` selects the Perfetto row the span renders on
    (0 is the sweep row, experiments get their own rows so parallel
    experiments do not visually nest into each other).
    """

    __slots__ = (
        "name", "category", "span_id", "parent_id", "start", "end",
        "track", "args",
    )

    def __init__(
        self,
        name: str,
        category: str,
        span_id: str,
        parent_id: str | None,
        start: float,
        track: int = 0,
        **args,
    ) -> None:
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.track = track
        self.args = args

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def annotate(self, **args) -> None:
        """Attach key/value annotations (retry causes, statuses, ...)."""
        self.args.update(args)

    def to_record(self) -> dict:
        """Picklable dict form — what workers ship back to the parent."""
        return {
            "name": self.name,
            "cat": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "track": self.track,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.start:.6f}..{self.end}, "
            f"args={self.args!r})"
        )


class SpanTracer:
    """Records a tree of spans against one monotonic origin.

    Thread-aware: each thread nests spans on its own stack, and a worker
    thread can join an existing lineage with :meth:`adopt` (the runner's
    in-process attempts do this so ``simulate`` spans stay under their
    ``attempt``, whichever thread runs them).
    """

    def __init__(
        self,
        trace_id: str | None = None,
        *,
        clock=time.perf_counter,
    ) -> None:
        #: Correlation id: shared by parent and worker tracers of a sweep.
        self.trace_id = trace_id or uuid.uuid4().hex[:12]
        self._clock = clock
        self.origin = clock()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._count = 0
        self._local = threading.local()

    # ----------------------------------------------------------- plumbing

    def now(self) -> float:
        """Seconds since this tracer's origin."""
        return self._clock() - self.origin

    def _next_id(self) -> str:
        with self._lock:
            self._count += 1
            return f"{os.getpid()}-{self._count}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """Innermost open span on the calling thread (or None)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------ recording

    def begin(
        self,
        name: str,
        category: str = "span",
        *,
        parent: "Span | str | None" = None,
        track: int | None = None,
        start: float | None = None,
        **args,
    ) -> Span:
        """Open a span without touching the thread stack (manual mode).

        The runner's event loop opens experiment/attempt spans
        this way because their lifetimes interleave rather than nest.
        """
        if isinstance(parent, Span):
            parent_id = parent.span_id
            if track is None:
                track = parent.track
        else:
            parent_id = parent
        return Span(
            name,
            category,
            self._next_id(),
            parent_id,
            self.now() if start is None else start,
            track if track is not None else 0,
            **args,
        )

    def finish(self, span: Span, end: float | None = None) -> Span:
        """Close a manually opened span and record it."""
        span.end = self.now() if end is None else end
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "span",
        *,
        track: int | None = None,
        **args,
    ) -> Iterator[Span]:
        """Record one span around a ``with`` body, nesting per thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        opened = self.begin(
            name, category, parent=parent, track=track, **args
        )
        stack.append(opened)
        try:
            yield opened
        finally:
            stack.pop()
            self.finish(opened)

    @contextmanager
    def adopt(self, anchor: Span) -> Iterator[None]:
        """Parent the calling thread's spans under ``anchor``.

        The anchor itself is not re-recorded; it only seeds the stack so
        spans opened on this thread nest correctly.
        """
        stack = self._stack()
        stack.append(anchor)
        try:
            yield
        finally:
            stack.pop()

    # ------------------------------------------------------- merge / export

    def finished_records(self) -> list[dict]:
        """Every recorded span as picklable dicts (worker -> parent)."""
        with self._lock:
            return [span.to_record() for span in self._spans]

    def graft(
        self,
        records: Iterable[dict],
        *,
        parent: Span,
        offset: float,
        prefix: str,
    ) -> int:
        """Adopt worker-side span records under ``parent``.

        ``offset`` rebases worker-relative times onto this tracer's
        timeline (the attempt span's start); ``prefix`` keeps ids unique
        across reused worker processes.  Returns the number grafted.
        """
        grafted = 0
        for record in records:
            span = Span(
                record["name"],
                record["cat"],
                f"{prefix}/{record['id']}",
                (
                    f"{prefix}/{record['parent']}"
                    if record.get("parent")
                    else parent.span_id
                ),
                offset + record["start"],
                parent.track,
                **record.get("args", {}),
            )
            span.end = offset + record["end"]
            with self._lock:
                self._spans.append(span)
            grafted += 1
        return grafted

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON document (loads in Perfetto)."""
        return spans_to_chrome(self.spans(), trace_id=self.trace_id)

    def write_chrome(self, path: str | pathlib.Path) -> pathlib.Path:
        """Atomically export the Chrome trace-event JSON to ``path``."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_chrome(), indent=1) + "\n")
        tmp.replace(path)
        return path


# --------------------------------------------------------- module current


_current: SpanTracer | None = None


def current_tracer() -> SpanTracer | None:
    """The installed tracer, or None — probe sites check this and bail."""
    return _current


def set_tracer(tracer: SpanTracer | None) -> None:
    global _current
    _current = tracer


@contextmanager
def use_tracer(tracer: SpanTracer | None) -> Iterator[SpanTracer | None]:
    """Install ``tracer`` for the duration of a ``with`` body."""
    previous = _current
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def span(name: str, category: str = "span", **args) -> Iterator[Span | None]:
    """Probe-site helper: a span when a tracer is installed, else a no-op.

    Used at the coarse-grained sites (trace build, cache lookup,
    simulation, checkpoint writes) — each fires at most a few hundred
    times per experiment, so the disabled cost is one global read.
    """
    tracer = _current
    if tracer is None:
        yield None
        return
    with tracer.span(name, category, **args) as opened:
        yield opened


# ------------------------------------------------------------ chrome I/O


def spans_to_chrome(spans: Iterable[Span], *, trace_id: str = "") -> dict:
    """Spans -> Chrome trace-event JSON ("X" complete events).

    Durations are exported in microseconds.  Each span's ``track``
    becomes a tid so parallel experiments land on separate Perfetto
    rows; hierarchy survives round-trips through ``args.span_id`` /
    ``args.parent_id``.
    """
    pid = os.getpid()
    events: list[dict] = []
    tracks: dict[int, str] = {}
    for span_obj in spans:
        args = {
            "span_id": span_obj.span_id,
            "trace_id": trace_id,
        }
        if span_obj.parent_id:
            args["parent_id"] = span_obj.parent_id
        args.update(span_obj.args)
        events.append(
            {
                "name": span_obj.name,
                "cat": span_obj.category,
                "ph": "X",
                "ts": round(span_obj.start * 1e6, 3),
                "dur": round(max(span_obj.duration, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": span_obj.track,
                "args": args,
            }
        )
        if span_obj.track not in tracks:
            tracks[span_obj.track] = (
                "sweep" if span_obj.track == 0 else span_obj.name
            )
    for track, label in sorted(tracks.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": track,
                "args": {"name": label if track else "sweep"},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "producer": "aurora-sim"},
    }


def load_chrome_trace(path: str | pathlib.Path) -> list[Span]:
    """Rebuild spans from a Chrome trace-event JSON file.

    Only the "X" events this module wrote are restored (metadata events
    are skipped); raises :class:`SpanError` on documents that are not a
    span trace.
    """
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SpanError(f"{path}: unreadable span trace ({error})") from None
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise SpanError(
            f"{path}: not a Chrome trace-event document "
            "(missing 'traceEvents')"
        )
    spans: list[Span] = []
    for index, event in enumerate(document["traceEvents"]):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        span_id = args.pop("span_id", None)
        if not span_id:
            raise SpanError(
                f"{path}: traceEvents[{index}] has no args.span_id "
                "(not written by aurora-sim)"
            )
        parent_id = args.pop("parent_id", None)
        args.pop("trace_id", None)
        restored = Span(
            str(event.get("name", "?")),
            str(event.get("cat", "span")),
            span_id,
            parent_id,
            float(event.get("ts", 0.0)) / 1e6,
            int(event.get("tid", 0)),
            **args,
        )
        restored.end = restored.start + float(event.get("dur", 0.0)) / 1e6
        spans.append(restored)
    return spans


# ------------------------------------------------------------- tree view


def render_span_tree(
    spans: Iterable[Span], *, min_duration: float = 0.0
) -> str:
    """Text tree with total and self time per span (``aurora-sim spans``).

    ``total`` is the span's own duration; ``self`` subtracts direct
    children, which is where to look for unattributed time.  Spans
    shorter than ``min_duration`` seconds are folded into their parent's
    self time (their own children are folded too).
    """
    spans = list(spans)
    by_id = {span_obj.span_id: span_obj for span_obj in spans}
    children: dict[str | None, list[Span]] = {}
    for span_obj in spans:
        parent = (
            span_obj.parent_id if span_obj.parent_id in by_id else None
        )
        children.setdefault(parent, []).append(span_obj)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))

    lines: list[str] = []

    def visit(span_obj: Span, depth: int) -> None:
        kids = children.get(span_obj.span_id, [])
        self_time = span_obj.duration - sum(k.duration for k in kids)
        label = "  " * depth + span_obj.name
        notes = ", ".join(
            f"{key}={value}"
            for key, value in sorted(span_obj.args.items())
            if key in ("status", "error", "quarantine", "worker", "hit")
        )
        if notes:
            label += f"  [{notes}]"
        lines.append(
            f"{label:<56} total {span_obj.duration * 1e3:>10.2f}ms  "
            f"self {max(self_time, 0.0) * 1e3:>10.2f}ms"
        )
        for kid in kids:
            if kid.duration >= min_duration:
                visit(kid, depth + 1)

    for root in children.get(None, []):
        if root.duration >= min_duration:
            visit(root, 0)
    if not lines:
        return "(no spans)"
    return "\n".join(lines)
