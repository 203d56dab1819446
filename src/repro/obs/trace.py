"""Virtual-time tracer: per-query span trees with exportable timelines.

Spans open and close at *simulator* timestamps (the tracer is handed a
clock callable, usually ``lambda: sim.now``), carry a parent link and
free-form ``key: value`` attributes, and nest into a tree per root. The
tree exports two ways:

* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON (complete
  ``"ph": "X"`` events, microsecond timestamps) loadable in
  ``chrome://tracing`` or Perfetto; each root span gets its own track
  (``tid``) so concurrent queries render as separate lanes.
* :meth:`Span.tree` — nested dicts, used by the golden-file span-tree
  pin in the tests.

Instrumented code guards every call site with ``if tracer is not None``
so the disabled path costs a single predictable branch. For scale runs,
``Tracer(sample_every=N)`` applies head sampling — every Nth root trace
is kept in full, the rest are absorbed by a shared null span — which is
how production tracers bound their overhead without losing per-trace
detail.
"""

from __future__ import annotations

import json
from typing import Any, Callable

#: keys every Chrome trace_event complete event must carry
_CHROME_REQUIRED = ("name", "ph", "ts", "dur", "pid", "tid")


def _zero_clock() -> float:
    return 0.0


class Span:
    """One timed node in a trace tree.

    Usable as a context manager for synchronous sections; long-lived
    virtual-time spans (a query race, an in-flight batch) are finished
    explicitly from the callback that ends them. ``finish`` is
    idempotent — the first close wins, so an error path may close a span
    defensively without clobbering the recorded end time.
    """

    __slots__ = ("name", "span_id", "parent", "start", "end", "_attrs", "_children", "_tracer")

    #: False only on the shared null span absorbing unsampled traces
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent: "Span | None",
        start: float,
    ):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.end: float | None = None
        # Containers are created lazily: most spans in a scale run are
        # closed leaves (batch shipments, instant events) that never grow
        # children, and skipping the two allocations keeps the per-span
        # cost inside the tracing-on overhead budget.
        self._attrs: dict[str, Any] | None = None
        self._children: list[Span] | None = None
        self._tracer = tracer

    @property
    def attrs(self) -> dict[str, Any]:
        if self._attrs is None:
            self._attrs = {}
        return self._attrs

    @property
    def children(self) -> "list[Span]":
        if self._children is None:
            self._children = []
        return self._children

    def child(self, name: str, at: float | None = None, **attrs: Any) -> "Span":
        """Open a child span under this one."""
        return self._tracer.begin(name, parent=self, at=at, **attrs)

    def event(self, name: str, at: float | None = None, **attrs: Any) -> "Span":
        """Record an instant (zero-duration) child marker."""
        return self._tracer.complete(name, self, at, at, attrs or None)

    def complete(
        self,
        name: str,
        start: float | None = None,
        end: float | None = None,
        **attrs: Any,
    ) -> "Span":
        """Record an already-closed child in one call (hot-path helper)."""
        return self._tracer.complete(name, self, start, end, attrs or None)

    def finish(self, at: float | None = None, **attrs: Any) -> "Span":
        """Close the span at ``at`` (default: the tracer's clock now)."""
        if attrs:
            if self._attrs is None:
                self._attrs = attrs
            else:
                self._attrs.update(attrs)
        if self.end is None:
            self.end = self._tracer._clock() if at is None else at
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def tree(self) -> dict[str, Any]:
        """Nested dict of this span and its descendants (golden-pin shape)."""
        attrs = self._attrs or {}
        return {
            "name": self.name,
            "start": round(self.start, 6),
            "end": round(self.end, 6) if self.end is not None else None,
            "attrs": {key: attrs[key] for key in sorted(attrs)},
            "children": [child.tree() for child in (self._children or ())],
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, start={self.start}, end={self.end})"


class _NullSpan(Span):
    """Absorbs every operation on an unsampled trace, recording nothing.

    Head sampling hands this shared sink out in place of a real root;
    call sites keep their ``span is not None`` guards and never notice.
    Sites on per-batch hot paths can additionally check ``span.recording``
    to skip building attribute dicts for traces that were never kept.
    """

    __slots__ = ()
    recording = False

    def child(self, name: str, at: float | None = None, **attrs: Any) -> "Span":
        return self

    def event(self, name: str, at: float | None = None, **attrs: Any) -> "Span":
        return self

    def complete(
        self,
        name: str,
        start: float | None = None,
        end: float | None = None,
        **attrs: Any,
    ) -> "Span":
        return self

    def finish(self, at: float | None = None, **attrs: Any) -> "Span":
        return self


class Tracer:
    """Records spans against a virtual clock.

    >>> tracer = Tracer()
    >>> with tracer.begin("query", strategy="SEMI_JOIN") as root:
    ...     root.event("first_answer")
    Span('first_answer', ...)
    >>> [span.name for span in tracer.spans]
    ['query', 'first_answer']
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sample_every: int = 1,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self._clock = clock if clock is not None else _zero_clock
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._next_id = 1
        #: head sampling: keep every Nth root trace in full, absorb the
        #: rest (the standard way production tracers bound their cost);
        #: 1 records everything
        self.sample_every = sample_every
        self._root_count = 0
        self._null = _NullSpan(self, "unsampled", 0, None, 0.0)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Swap the time source (e.g. once the simulator exists)."""
        self._clock = clock

    def begin(
        self,
        name: str,
        parent: Span | None = None,
        at: float | None = None,
        **attrs: Any,
    ) -> Span:
        if parent is None:
            if self.sample_every != 1:
                self._root_count += 1
                if (self._root_count - 1) % self.sample_every:
                    return self._null
        elif not parent.recording:
            return parent
        start = self._clock() if at is None else at
        span = Span(self, name, self._next_id, parent, start)
        self._next_id += 1
        if attrs:
            span._attrs = attrs
        if parent is None:
            self.roots.append(span)
        elif parent._children is None:
            parent._children = [span]
        else:
            parent._children.append(span)
        self.spans.append(span)
        return span

    def complete(
        self,
        name: str,
        parent: Span | None = None,
        start: float | None = None,
        end: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> Span:
        """Record a span whose whole lifetime is already known.

        One call instead of ``begin(...).finish(...)``, with ``attrs``
        passed as a plain dict (positional-friendly, no kwargs repacking)
        — per-batch hot paths use this to keep tracing-on overhead inside
        its budget.
        """
        if parent is None:
            if self.sample_every != 1:
                self._root_count += 1
                if (self._root_count - 1) % self.sample_every:
                    return self._null
        elif not parent.recording:
            return parent
        span = Span(
            self,
            name,
            self._next_id,
            parent,
            self._clock() if start is None else start,
        )
        self._next_id += 1
        span.end = span.start if end is None else end
        if attrs:
            span._attrs = attrs
        if parent is None:
            self.roots.append(span)
        elif parent._children is None:
            parent._children = [span]
        else:
            parent._children.append(span)
        self.spans.append(span)
        return span

    def finish_open(self, at: float | None = None) -> int:
        """Close every still-open span (export hygiene); returns how many."""
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.finish(at=at)
                closed += 1
        return closed

    def __len__(self) -> int:
        return len(self.spans)

    # -- exports -----------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome ``trace_event`` JSON: one complete event per span.

        Virtual time units map to trace seconds (``ts`` is microseconds);
        each root span and its subtree share a ``tid`` so concurrent
        queries land on separate tracks.
        """
        events: list[dict[str, Any]] = []
        track: dict[int, int] = {}
        for span in self.spans:
            root = span
            while root.parent is not None:
                root = root.parent
            tid = track.setdefault(root.span_id, len(track) + 1)
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round(span.start * 1_000_000, 3),
                    "dur": round((end - span.start) * 1_000_000, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": _jsonable(span._attrs or {}),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(attrs: dict[str, Any]) -> dict[str, Any]:
    """Attrs coerced to JSON-safe values (enums/objects become strings)."""
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [item if isinstance(item, (str, int, float, bool)) else str(item) for item in value]
        else:
            out[key] = str(value)
    return out


def validate_chrome_trace(document: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is valid trace_event JSON.

    Checks the JSON-object form: a ``traceEvents`` array whose entries
    carry the complete-event required keys with correctly typed values.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("trace document must be an object with a traceEvents array")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be an array")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for key in _CHROME_REQUIRED:
            if key not in event:
                raise ValueError(f"traceEvents[{index}] missing required key {key!r}")
        if event["ph"] not in {"X", "B", "E", "i", "I", "C", "M"}:
            raise ValueError(f"traceEvents[{index}] has unknown phase {event['ph']!r}")
        for key in ("ts", "dur"):
            if not isinstance(event[key], (int, float)):
                raise ValueError(f"traceEvents[{index}].{key} must be numeric")
        if event["ph"] == "X" and event["dur"] < 0:
            raise ValueError(f"traceEvents[{index}] has negative duration")
        if "args" in event:
            json.dumps(event["args"])  # must be serialisable
