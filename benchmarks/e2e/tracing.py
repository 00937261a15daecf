"""Span recorder for the traced benchmark run.

The benchmark measures layers from the outside: it replaces a public function
or method of a layer with a wrapper that records one span per call, and puts
the original back when the traced op ends.  Nothing inside ``src/`` is
changed.

Each span carries a name, start/end ``perf_counter_ns``, the recording
thread, its parent span (the enclosing span on the same thread) and a few
attributes (``layer``, ``section``, ``rank`` and the benchmark's op index).
Self time -- a span's duration minus the time its children cover -- is
aggregated as spans close, so attribution needs no second pass; the raw spans
go into a bounded list that :meth:`Tracer.chrome_trace` exports as Chrome
trace-event JSON (opens in Perfetto / ``chrome://tracing``).

Attribution of one op (a training step or a serving batch):

* single-threaded ops: the op's root span is the budget; the root's own self
  time is the part no child explains (``unattributed``);
* ops whose work runs on worker threads (the data-parallel trainer): each
  worker thread is a lane whose extent runs from its first to its last
  top-level span in the op; the budget is the sum of lane extents and the
  gaps between top-level spans are ``unattributed``.  The root thread only
  dispatches and waits, so its root span is not part of the budget.

Either way the per-span self times plus ``unattributed`` sum to the budget;
:meth:`OpAttribution.residual_frac` measures how far an op is from that.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Aggregation key of a span: (name, layer, section).
SpanKey = Tuple[str, Optional[int], Optional[str]]
AttrsFn = Callable[[tuple, dict], Dict[str, Any]]
#: Raw spans kept per thread for the Chrome trace; later ones are only counted.
MAX_SPANS = 100_000


class _ThreadState:
    """Per-thread span stack, self-time aggregates and lane bookkeeping."""

    __slots__ = ("tid", "name", "stack", "self_ns", "calls", "first", "last", "top_ns", "spans")

    def __init__(self) -> None:
        self.tid = threading.get_ident()
        self.name = threading.current_thread().name
        self.stack: List[List[int]] = []  # frames: [span_id, child_ns]
        self.self_ns: Dict[SpanKey, int] = defaultdict(int)
        self.calls: Dict[SpanKey, int] = defaultdict(int)
        # Lane extent of the current op: first/last top-level span bounds
        # and the summed duration of top-level spans.
        self.first: Optional[int] = None
        self.last = 0
        self.top_ns = 0
        self.spans: List[tuple] = []

    def reset_lane(self) -> None:
        self.first = None
        self.last = 0
        self.top_ns = 0


@dataclass
class OpAttribution:
    """Where one op's time went."""

    root_ns: int
    budget_ns: int
    unattributed_ns: int
    #: Self time per (name, layer, section) inside the op, root excluded.
    self_ns: Dict[SpanKey, int] = field(default_factory=dict)
    calls: Dict[SpanKey, int] = field(default_factory=dict)
    lanes: int = 1

    def residual_frac(self, explained_ns: float = 0.0) -> float:
        """How far self times + unattributed are from the budget (0 when sound).

        ``explained_ns`` is time a program timer assigns to part of the
        unattributed remainder; it may not exceed that remainder.
        """
        rest = max(self.unattributed_ns - explained_ns, 0.0)
        total = sum(self.self_ns.values()) + explained_ns + rest
        return abs(self.budget_ns - total) / self.budget_ns if self.budget_ns else 0.0


class Tracer:
    """Records spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.dropped = 0
        self.op_attrs: Dict[str, Any] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Any, str, bool, Any]] = []
        self._origin_ns = time.perf_counter_ns()
        self._op_start: Tuple[Dict[SpanKey, int], Dict[SpanKey, int]] = ({}, {})

    # -- recording ---------------------------------------------------------------

    def _open(self) -> Tuple[_ThreadState, List[int], Optional[int]]:
        try:
            state = self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        stack = state.stack
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), 0]
        stack.append(frame)
        return state, frame, parent

    def _close(
        self,
        state: _ThreadState,
        frame: List[int],
        parent: Optional[int],
        name: str,
        attrs: Optional[Dict[str, Any]],
        start: int,
        end: int,
    ) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        else:
            if state.first is None:
                state.first = start
            state.last = end
            state.top_ns += duration
        key = (name, attrs.get("layer"), attrs.get("section")) if attrs else (name, None, None)
        state.self_ns[key] += duration - frame[1]
        state.calls[key] += 1
        if len(state.spans) < MAX_SPANS:
            # op_attrs is replaced, never mutated, so sharing it is safe.
            state.spans.append((name, start, end, frame[0], parent, attrs, self.op_attrs))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, name: str, attrs_fn: Optional[AttrsFn] = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state, frame, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
                self._close(state, frame, parent, name, attrs, start, end)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record a span around a block (the benchmark's own root spans)."""
        state, frame, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(state, frame, parent, name, attrs or None, start, time.perf_counter_ns())

    # -- patching ------------------------------------------------------------------

    def install(self, targets: Sequence[Tuple[Any, str, str, Optional[AttrsFn]]]) -> None:
        """Wrap ``getattr(owner, attr)`` for every ``(owner, attr, span, attrs_fn)``.

        :meth:`uninstall` puts back what ``owner.__dict__`` held, or deletes
        the wrapper when the attribute came from the class, so each object
        is left exactly as it was found.
        """
        for owner, attr, name, attrs_fn in targets:
            own = attr in getattr(owner, "__dict__", {})
            saved = owner.__dict__[attr] if own else None
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs_fn))
            self._installed.append((owner, attr, own, saved))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, own, saved = self._installed.pop()
            if own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # -- per-op attribution ------------------------------------------------------------

    def _totals(self) -> Tuple[Dict[SpanKey, int], Dict[SpanKey, int]]:
        self_ns: Dict[SpanKey, int] = defaultdict(int)
        calls: Dict[SpanKey, int] = defaultdict(int)
        with self._lock:
            states = list(self._threads)
        for state in states:
            for key, value in list(state.self_ns.items()):
                self_ns[key] += value
            for key, value in list(state.calls.items()):
                calls[key] += value
        return self_ns, calls

    def begin_op(self, **attrs: Any) -> None:
        """Mark the start of one op, on the thread that will run its root span."""
        self.op_attrs = attrs
        with self._lock:
            states = list(self._threads)
        for state in states:
            state.reset_lane()
        self._op_start = self._totals()

    def end_op(self, root_name: str) -> OpAttribution:
        """Attribute the op whose root span ``root_name`` just closed.

        Call only once every worker thread has finished the op's work (the
        data-parallel trainer joins its ranks before ``train_step`` returns).
        """
        before_self, before_calls = self._op_start
        after_self, after_calls = self._totals()
        delta = {k: v - before_self.get(k, 0) for k, v in after_self.items()}
        calls = {k: v - before_calls.get(k, 0) for k, v in after_calls.items()}
        root_self = 0
        for key in [k for k in delta if k[0] == root_name]:
            root_self += delta.pop(key)
            calls.pop(key, None)
        me = self._local.state
        with self._lock:
            workers = [s for s in self._threads if s is not me and s.first is not None]
        if workers:
            budget = sum(s.last - s.first for s in workers)
            unattributed = budget - sum(s.top_ns for s in workers)
        else:
            budget, unattributed = me.top_ns, root_self
        self.op_attrs = {}
        return OpAttribution(
            root_ns=me.top_ns,
            budget_ns=budget,
            unattributed_ns=unattributed,
            self_ns={k: v for k, v in delta.items() if v or calls.get(k)},
            calls={k: v for k, v in calls.items() if v},
            lanes=max(len(workers), 1),
        )

    # -- export --------------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """Every retained span as Chrome trace-event JSON (``ph: "X"``, microseconds)."""
        events: List[Dict[str, Any]] = []
        with self._lock:
            states = list(self._threads)
        for state in states:
            events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": state.tid,
                "args": {"name": state.name},
            })
            for name, start, end, span_id, parent, attrs, op in state.spans:
                args: Dict[str, Any] = {"id": span_id, "parent": parent, **op, **(attrs or {})}
                events.append({
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - self._origin_ns) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": state.tid,
                    "args": args,
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }
