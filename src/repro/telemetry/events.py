"""The event bus: typed cycle-level probes with pluggable sinks.

The timing model is timestamp-based, so "a cycle-level trace" here means
a stream of *events*, each stamped with the cycle it describes, emitted
at every decision point the model takes: stall attribution, front-end
redirects, MSHR allocate/release, write-cache evictions, FPU queue
enqueue/issue/dequeue, prefetch hits and misses, and BIU transactions.
Replaying the stream in cycle order reconstructs the run as a timeline.

Zero overhead when off: instrumented structures hold a ``telemetry``
attribute that defaults to ``None``, and every probe site is guarded by
a single falsy check (``if self.telemetry: ...`` in the structures; in
the processor hot loop, one local flag set once per run).  An
:class:`EventBus` with no sinks is falsy too, so a dangling bus costs
one truth test per site and emits nothing.  The overhead gate in
``benchmarks/test_bench_telemetry_overhead.py`` enforces this.

Sinks receive :class:`Event` objects via ``record(event)``:

* :class:`RingBufferSink` — bounded (or unbounded) in-memory buffer; the
  analysis layer consumes its ``events``.
* :class:`NDJSONSink` — streams one JSON object per line to a file; the
  schema is ``{"cycle": int, "source": str, "kind": str, **fields}`` and
  :func:`load_ndjson` validates and parses it back.
"""

from __future__ import annotations

import gzip
import io
import json
import pathlib
from collections import deque
from enum import Enum
from typing import Iterable, Iterator


class TelemetryError(ValueError):
    """A telemetry stream or event is malformed; names line and reason."""


class EventKind(Enum):
    """Every probe point the instrumented simulator can report."""

    #: I-cache miss at fetch (fields: pc, index, arrival).
    FETCH_STALL = "fetch_stall"
    #: Taken-branch front-end redirect registered (fields: index, floor, pc).
    REDIRECT = "redirect"
    #: Issue-stall attribution — mirrors every ``SimStats.stall_cycles``
    #: increment exactly (fields: stall, cycles, index, pc).
    STALL = "stall"
    #: One instruction retired (fields: index, issue); cycle = retire time.
    RETIRE = "retire"
    #: MSHR entry reserved (fields: slot, requested, wait); cycle = grant.
    MSHR_ALLOC = "mshr_alloc"
    #: MSHR entry freed (fields: slot); cycle = effective release time.
    MSHR_RELEASE = "mshr_release"
    #: Store processed by the write cache (fields: line, hit, allocated).
    WC_STORE = "wc_store"
    #: Dirty write-cache line left the chip (fields: line, done).
    WC_EVICT = "wc_evict"
    #: FPU queue entry taken (fields: queue in {"iq", "lq", "sq"}).
    FPQ_ENQUEUE = "fpq_enqueue"
    #: FPU instruction issued into a functional unit (fields: unit).
    FPQ_ISSUE = "fpq_issue"
    #: FPU queue entry freed (fields: queue).
    FPQ_DEQUEUE = "fpq_dequeue"
    #: Primary miss hit a stream buffer (fields: stream, line, arrival).
    PREFETCH_HIT = "prefetch_hit"
    #: Primary miss missed the pool too (fields: stream, line).
    PREFETCH_MISS = "prefetch_miss"
    #: Bus transaction granted (fields: txn, requested, arrival).
    BIU_TXN = "biu_txn"


_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}


class Event:
    """One telemetry event: a cycle stamp, a source, a kind, and fields."""

    __slots__ = ("cycle", "source", "kind", "fields")

    def __init__(
        self, cycle: int, source: str, kind: EventKind, **fields
    ) -> None:
        self.cycle = cycle
        self.source = source
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> dict:
        payload = {
            "cycle": self.cycle,
            "source": self.source,
            "kind": self.kind.value,
        }
        payload.update(self.fields)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(cycle={self.cycle}, source={self.source!r}, "
            f"kind={self.kind.value}, fields={self.fields!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.cycle == other.cycle
            and self.source == other.source
            and self.kind is other.kind
            and self.fields == other.fields
        )


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory.

    ``capacity=None`` keeps everything (what the analysis layer wants for
    exact reconstruction); a bounded ring records how many events it
    dropped so downstream cross-checks can refuse to run on a partial
    stream instead of reporting a bogus mismatch.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"ring capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, event: Event) -> None:
        self._events.append(event)
        self.recorded += 1

    @property
    def events(self) -> list[Event]:
        return list(self._events)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def close(self) -> None:
        pass


class NDJSONSink:
    """Stream events to a file, one JSON object per line.

    A path ending in ``.gz`` writes gzip transparently (and
    :func:`load_ndjson` reads it back the same way).  The sink is a
    context manager — ``with NDJSONSink(path) as sink: ...`` closes and
    flushes on exit — and because every event is one complete line, a
    stream that is cut short (crash, abandoned worker) and then closed
    still validates: it just holds fewer events.
    """

    def __init__(self, target: str | pathlib.Path | io.TextIOBase) -> None:
        if isinstance(target, (str, pathlib.Path)):
            name = str(target)
            if name.endswith(".gz"):
                self._file = gzip.open(name, "wt", encoding="utf-8")
            else:
                self._file = open(name, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self.recorded = 0

    def record(self, event: Event) -> None:
        json.dump(event.to_dict(), self._file, separators=(",", ":"))
        self._file.write("\n")
        self.recorded += 1

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if self._owns and not self._file.closed:
            self._file.close()
        elif not self._owns and not self._file.closed:
            self._file.flush()

    def __enter__(self) -> "NDJSONSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventBus:
    """Fans ``emit`` calls out to the attached sinks.

    A bus with no sinks is *falsy*, which is what lets probe sites guard
    with a single truth test and skip building the event entirely.
    """

    def __init__(self, *sinks) -> None:
        self._sinks: list = []
        for sink in sinks:
            self.attach(sink)

    def attach(self, sink) -> None:
        if not callable(getattr(sink, "record", None)):
            raise TypeError(
                f"sink {type(sink).__name__} has no record(event) method"
            )
        self._sinks.append(sink)

    def detach(self, sink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple:
        """The attached sinks (read-only view; health reporting)."""
        return tuple(self._sinks)

    def __bool__(self) -> bool:
        return bool(self._sinks)

    def emit(self, cycle: int, source: str, kind: EventKind, **fields) -> None:
        event = Event(cycle, source, kind, **fields)
        for sink in self._sinks:
            sink.record(event)

    def close(self) -> None:
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


# ------------------------------------------------------------- NDJSON I/O


def event_from_dict(payload: object, *, where: str = "event") -> Event:
    """Validate and build one :class:`Event` from a decoded JSON object."""
    if not isinstance(payload, dict):
        raise TelemetryError(
            f"{where}: expected a JSON object, got {type(payload).__name__}"
        )
    cycle = payload.get("cycle")
    if not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0:
        raise TelemetryError(
            f"{where}: 'cycle' must be a non-negative int, got {cycle!r}"
        )
    source = payload.get("source")
    if not isinstance(source, str) or not source:
        raise TelemetryError(
            f"{where}: 'source' must be a non-empty string, got {source!r}"
        )
    kind_value = payload.get("kind")
    kind = _KIND_BY_VALUE.get(kind_value)
    if kind is None:
        known = ", ".join(sorted(_KIND_BY_VALUE))
        raise TelemetryError(
            f"{where}: unknown event kind {kind_value!r}; known: {known}"
        )
    fields = {
        key: value
        for key, value in payload.items()
        if key not in ("cycle", "source", "kind")
    }
    return Event(cycle, source, kind, **fields)


def iter_ndjson(lines: Iterable[str], *, where: str = "stream") -> Iterator[Event]:
    """Parse and validate an NDJSON event stream, line by line."""
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise TelemetryError(
                f"{where} line {number}: invalid JSON ({error.msg})"
            ) from None
        yield event_from_dict(payload, where=f"{where} line {number}")


def load_ndjson(path: str | pathlib.Path) -> list[Event]:
    """Load a validated event list from an NDJSON trace file.

    ``.gz`` paths are decompressed transparently, matching what
    :class:`NDJSONSink` writes for them.
    """
    path = pathlib.Path(path)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return list(iter_ndjson(handle, where=str(path)))
