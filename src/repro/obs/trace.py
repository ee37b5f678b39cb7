"""Structured span/event tracer with a context-local handle.

The tracer is the unified timeline for a federated run: round/wave/phase
spans, per-client ``local_update`` spans, per-edge ingest/summary events,
comm send/retry/backoff/dead-letter events, fault injections, store
materialize/evict spans, and checkpoint capture/restore spans all land in
one ordered record list with both monotonic wall-clock timestamps and
(where the caller has one) simulated virtual-clock timestamps.

Design constraints, enforced here and regression-tested in
``tests/test_obs.py``:

* **Disabled is free.**  Library code never takes a tracer parameter; it
  calls :func:`current_tracer` (one ``ContextVar.get`` + ``None`` check)
  and skips all emission when no tracer is armed.
* **Observational only.**  The tracer never consumes run RNG, never
  reorders events, and never branches run behaviour — a traced run is
  bitwise identical to an untraced one.
* **Single-threaded emission.**  Spans for work done inside thread pools
  are timed in the worker via :func:`timed_call` and *emitted* from the
  orchestration thread afterwards, so record order is deterministic.

Exports: JSONL (one record per line) and Chrome/Perfetto ``trace_event``
JSON (load at https://ui.perfetto.dev or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .export import json_default

__all__ = [
    "Tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "timed_call",
    "records_to_perfetto",
]

_TRACER: ContextVar[Optional["Tracer"]] = ContextVar("repro_tracer", default=None)


def current_tracer() -> Optional["Tracer"]:
    """The tracer armed for the current context, or ``None``."""
    return _TRACER.get()


def set_tracer(tracer: Optional["Tracer"]):
    """Arm ``tracer`` for the current context; returns the reset token."""
    return _TRACER.set(tracer)


@contextmanager
def use_tracer(tracer: Optional["Tracer"]) -> Iterator[Optional["Tracer"]]:
    """Arm ``tracer`` for the duration of the ``with`` block."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def timed_call(fn: Callable, *args, **kwargs) -> Tuple[Any, float, float]:
    """Run ``fn(*args, **kwargs)`` and return ``(result, t0, t1)``.

    Used to time work executed inside thread-pool workers without
    emitting from the worker: the caller emits the span afterwards (see
    ``LocalExecutor.update``), keeping record order
    deterministic while the timestamps stay honest.
    """
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, t0, time.perf_counter()


class Tracer:
    """Collects spans and point events on a monotonic timeline.

    All timestamps are seconds relative to the tracer's construction
    (``time.perf_counter`` deltas); ``vt``/``vt0``/``vt1`` carry the
    simulated virtual clock when the emitting site has one.

    Records are plain JSON-able dicts:

    * span  — ``{"type": "span", "name", "cat", "lane", "t0", "t1", ...}``
    * event — ``{"type": "event", "name", "cat", "lane", "t", ...}``

    plus any extra labels the emitting site passed (client id, edge id,
    endpoint, nbytes, fault kind, ...).
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._records: List[Dict[str, Any]] = []

    # ------------------------------------------------------------ recording
    @property
    def records(self) -> List[Dict[str, Any]]:
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def emit_span(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        lane: str = "main",
        vt0: Optional[float] = None,
        vt1: Optional[float] = None,
        **labels: Any,
    ) -> None:
        """Record a completed span timed by the caller.

        ``t0``/``t1`` are raw ``time.perf_counter`` readings — the tracer
        rebases them onto its own origin, so call sites can reuse timing
        ticks they already take for ``phase_seconds`` accounting.
        """
        rec: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "cat": cat,
            "lane": lane,
            "t0": t0 - self._origin,
            "t1": t1 - self._origin,
        }
        if vt0 is not None:
            rec["vt0"] = vt0
        if vt1 is not None:
            rec["vt1"] = vt1
        if labels:
            rec.update(labels)
        self._records.append(rec)

    @contextmanager
    def span(self, name: str, cat: str = "run", lane: str = "main", **labels: Any):
        """Context manager form of :meth:`emit_span`."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.emit_span(name, cat, t0, time.perf_counter(), lane=lane, **labels)

    def event(
        self,
        name: str,
        cat: str = "run",
        lane: str = "main",
        vt: Optional[float] = None,
        **labels: Any,
    ) -> None:
        """Record an instantaneous point event stamped now."""
        rec: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "cat": cat,
            "lane": lane,
            "t": self._now(),
        }
        if vt is not None:
            rec["vt"] = vt
        if labels:
            rec.update(labels)
        self._records.append(rec)

    # -------------------------------------------------------------- exports
    def to_jsonl(self) -> str:
        """One JSON object per line, in emission order."""
        return "\n".join(
            json.dumps(rec, sort_keys=True, default=json_default)
            for rec in self._records
        )

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl() + ("\n" if self._records else ""))
        return path

    def to_perfetto(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON — see :func:`records_to_perfetto`."""
        return records_to_perfetto(self._records)

    def write_perfetto(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_perfetto(), default=json_default))
        return path


def records_to_perfetto(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert trace records (live or loaded from JSONL) to Chrome
    ``trace_event`` JSON (Perfetto-compatible).

    Spans become ``"X"`` complete events (``ts``/``dur`` in microseconds),
    point events become ``"i"`` instant events, and each lane gets its own
    ``tid`` named via an ``"M"`` metadata event so Perfetto renders one
    track per lane.  Module-level so ``obsreport --perfetto`` can convert
    a saved JSONL trace without rerunning anything.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_for(lane: str) -> int:
        tid = tids.get(lane)
        if tid is None:
            tid = tids[lane] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        return tid

    reserved = {"type", "name", "cat", "lane", "t", "t0", "t1"}
    for rec in records:
        tid = tid_for(rec.get("lane", "main"))
        args = {k: v for k, v in rec.items() if k not in reserved}
        base = {
            "name": rec["name"],
            "cat": rec["cat"],
            "pid": 1,
            "tid": tid,
            "args": args,
        }
        if rec["type"] == "span":
            base["ph"] = "X"
            base["ts"] = rec["t0"] * 1e6
            base["dur"] = max(0.0, (rec["t1"] - rec["t0"]) * 1e6)
        else:
            base["ph"] = "i"
            base["ts"] = rec["t"] * 1e6
            base["s"] = "t"
        events.append(base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
