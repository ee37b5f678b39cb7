"""In-memory span recorder the traced run wraps around public class methods.

The benchmark may not edit ``src/``, so every layer boundary is recorded from
outside: :meth:`SpanRecorder.wrap` replaces a public method *on its class*
with a thin timing shim (lookup happens at call time, so every caller sees
it).  A span is ``(name, start, end, parent, round)``; spans stay in memory
and are written out once, when the run has ended.

A layer's *self time* is its span's duration minus the part of that interval
its direct child spans cover, so self times of all spans partition the time
covered by top-level spans — which is what lets the time budget close.

The recorder keeps one call stack: every workload drives the program from a
single thread (the process backend's workers are separate processes and are
not traced), so no locking is needed.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (name, start, end, parent index or -1, round index)
Span = Tuple[str, float, float, int, int]
NAN = float("nan")


class SpanRecorder:
    """Records nested spans and per-round counters for one traced run.

    While the run is on, a span is five numbers in five parallel typed arrays:
    no per-span Python object stays alive, so hundreds of thousands of spans
    neither feed the garbage collector nor interleave with the program's own
    objects on the heap.  (With one tuple per span the traced
    ``longrun_monitored`` measured 9-16% slower than the untraced run, although
    the shim itself cost under 2%; with arrays, about 1.5%.)
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")  # NaN until the span closes
        self._parent = array("l")
        self._round = array("l")
        #: ``(counter name, round) -> accumulated value``
        self.counters: Dict[Tuple[str, int], float] = defaultdict(float)
        #: instances and maxima noted by ``observe`` hooks (e.g. the client store)
        self.objects: Dict[str, Any] = {}
        #: round the next span belongs to; the harness advances it per callback
        self.round = 0
        self._stack: List[int] = []

    # ------------------------------------------------------------ recording
    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        observe: Optional[Callable[["SpanRecorder", tuple, dict, Any], None]] = None,
    ) -> None:
        """Time every call of ``cls.attr`` as a span called ``name``.

        ``observe(recorder, args, kwargs, result)`` runs after the span has
        closed (outside the timed interval) to record counts at the same
        boundary.
        """
        original = getattr(cls, attr)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends = self._name, self._start, self._end
        parents, rounds, stack, clock = self._parent, self._round, self._stack, time.perf_counter

        @functools.wraps(original)
        def shim(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round)
            ends.append(NAN)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(cls, attr, shim)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(name, self.round)] += value

    # ------------------------------------------------------------- analysis
    @property
    def spans(self) -> List[Optional[Span]]:
        """Every span as ``(name, start, end, parent, round)``, in start order;
        ``None`` for one that never closed."""
        return [
            None if end != end else (self.names[name], start, end, parent, rnd)
            for name, start, end, parent, rnd in zip(
                self._name, self._start, self._end, self._parent, self._round
            )
        ]


def write_jsonl(spans: Sequence[Optional[Span]], path) -> int:
    """One JSON object per closed span; returns the number written.  Formatted
    by hand (span names are the harness's own dotted identifiers): a traced
    ``scale_store`` run holds ~400k spans and ``json.dumps`` takes seconds."""
    row = '{"id": %d, "name": "%s", "start": %r, "end": %r, "parent": %d, "round": %d}\n'
    lines = [
        row % (index, span[0], span[1], span[2], span[3], span[4])
        for index, span in enumerate(spans) if span is not None
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def self_times(spans: Sequence[Optional[Span]]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations."""
    out = [0.0 if s is None else s[2] - s[1] for s in spans]
    for span in spans:
        if span is not None and span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


def per_round(
    spans: Sequence[Optional[Span]], rounds: Sequence[int]
) -> Tuple[Dict[str, List[float]], Dict[str, List[float]], Dict[str, List[int]]]:
    """Aggregate spans by name over the given round indices.

    Returns ``(self_seconds, total_seconds, calls)``: for each span name one
    value per round in ``rounds`` (0 where the name did not occur).
    """
    position = {r: i for i, r in enumerate(rounds)}
    n = len(rounds)
    selfs: Dict[str, List[float]] = defaultdict(lambda: [0.0] * n)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0] * n)
    calls: Dict[str, List[int]] = defaultdict(lambda: [0] * n)
    for span, own in zip(spans, self_times(spans)):
        if span is None:
            continue
        slot = position.get(span[4])
        if slot is None:
            continue
        name = span[0]
        selfs[name][slot] += own
        totals[name][slot] += span[2] - span[1]
        calls[name][slot] += 1
    return dict(selfs), dict(totals), dict(calls)
