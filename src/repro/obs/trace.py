"""Structured tracing over the simulation kernel's virtual clock.

A :class:`Tracer` is attached to a :class:`~repro.kernel.sim.Simulator`
and records typed span events from every layer of the stack: kernel
RPC/channel blocking, minidb lock waits, WAL forces,
DLFM forward operations, phase-1 prepare, each phase-2 attempt (with its
``TransactionAborted`` cause on failure) and daemon passes.

Design rules:

* **Zero cost when disabled.** The default tracer on every simulator is
  :data:`NULL_TRACER`; its ``span`` calls allocate nothing and record
  nothing, so instrumented hot paths (lock manager, channels) pay
  only a method call.
* **Deterministic.** Events carry *virtual* timestamps and process
  names; span ids come from a per-tracer counter. The same seed produces
  a byte-identical JSON dump (:meth:`Tracer.to_json`).
* **Self-contained.** This module imports nothing from the kernel — the
  simulator *binds itself* to the tracer (``tracer.bind(sim)``), which
  keeps ``repro.kernel.sim`` free to import us.

Span taxonomy (see DESIGN.md §Observability):

========================  ====================================================
``rpc.call``              one synchronous RPC (request type, channel)
``channel.send``/``recv`` time blocked on a rendezvous/bounded channel
``lock.wait``             time a lock request spent queued (resource, mode,
                          outcome: granted | deadlock | timeout)
``wal.force``             a physical log force (db, flushed lsn)
``dlfm.<Request>``        one DLFM child-agent request, end to end
``dlfm.phase2``           one phase-2 commit/abort attempt (verb, attempt
                          number, outcome, abort cause)
``daemon.*``              one pass of a service daemon
========================  ====================================================
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Optional

from repro.obs.metrics import Histogram


def _jsonable(value: Any):
    """Coerce an attribute value into something JSON-stable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class _NullSpan:
    """Shared do-nothing span used by the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every call is a no-op (the default everywhere)."""

    enabled = False

    def bind(self, sim) -> None:  # pragma: no cover - trivial
        pass

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN


#: Shared disabled tracer; ``Simulator`` uses it unless given a real one.
NULL_TRACER = NullTracer()


class _Span:
    """Context manager recording one ``span_start``/``span_end`` pair.

    Works naturally around ``yield from`` in kernel generators: the
    virtual clock only advances while the body is suspended, so the
    timestamps at ``__enter__``/``__exit__`` bracket the traced work.
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "process", "start_ts")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes; they land on the end event."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self.tracer._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = type(exc).__name__
        self.tracer._end(self)
        return False


class Tracer(NullTracer):
    """Recording tracer. Attach via ``Simulator(seed, tracer=Tracer())``.

    Every finished span's duration is also recorded into the histogram
    ``span.<name>`` of :attr:`histograms`, so per-operation latency
    percentiles come for free.
    """

    enabled = True

    def __init__(self):
        self.events: list[dict] = []
        self.histograms: dict[str, Histogram] = {}
        self._ids = itertools.count(1)
        self._stacks: dict[str, list[int]] = {}
        self._sim = None

    # ------------------------------------------------------------------ binding

    def bind(self, sim) -> None:
        """Called by the simulator that owns this tracer."""
        self._sim = sim

    def _clock(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    def _proc_name(self) -> str:
        return self._sim.process_name if self._sim is not None else "kernel"

    # ------------------------------------------------------------------ recording

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name``, created empty on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    def _start(self, span: _Span) -> None:
        process = self._proc_name()
        stack = self._stacks.setdefault(process, [])
        span.span_id = next(self._ids)
        span.parent_id = stack[-1] if stack else None
        span.process = process
        span.start_ts = self._clock()
        stack.append(span.span_id)
        self._record("span_start", span.name, span.span_id, span.parent_id,
                     process, span.attrs)

    def _end(self, span: _Span) -> None:
        stack = self._stacks.get(span.process, [])
        if stack and stack[-1] == span.span_id:
            stack.pop()
        else:  # out-of-order exit (exception unwinding through spans)
            try:
                stack.remove(span.span_id)
            except ValueError:
                pass
        duration = self._clock() - span.start_ts
        attrs = dict(span.attrs)
        attrs["duration"] = round(duration, 9)
        self._record("span_end", span.name, span.span_id, span.parent_id,
                     span.process, attrs)
        self.histogram(f"span.{span.name}").record(duration)

    def _record(self, kind: str, name: str, span_id: int,
                parent_id: Optional[int], process: str, attrs: dict) -> None:
        self.events.append({
            "kind": kind,
            "ts": round(self._clock(), 9),
            "span": span_id,
            "parent": parent_id,
            "name": name,
            "process": process,
            "attrs": {k: _jsonable(v) for k, v in sorted(attrs.items())},
        })

    # ------------------------------------------------------------------ queries

    def completed_spans(self) -> list[dict]:
        """Pair up start/end events → one dict per finished span.

        Each dict has ``name``, ``process``, ``span``, ``parent``,
        ``start``, ``end``, ``duration`` and the merged ``attrs``.
        """
        starts: dict[int, dict] = {}
        spans: list[dict] = []
        for ev in self.events:
            if ev["kind"] == "span_start":
                starts[ev["span"]] = ev
            elif ev["kind"] == "span_end":
                start = starts.pop(ev["span"], None)
                if start is None:
                    continue
                attrs = dict(start["attrs"])
                attrs.update(ev["attrs"])
                spans.append({
                    "name": ev["name"],
                    "process": ev["process"],
                    "span": ev["span"],
                    "parent": ev["parent"],
                    "start": start["ts"],
                    "end": ev["ts"],
                    "duration": attrs.pop("duration", ev["ts"] - start["ts"]),
                    "attrs": attrs,
                })
        return spans

    # ------------------------------------------------------------------ export

    def to_json(self, **meta) -> str:
        """Serialize the whole trace; byte-identical for identical runs."""
        doc = {
            "meta": {k: _jsonable(v) for k, v in sorted(meta.items())},
            "events": self.events,
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)
