"""Structured timing records produced by the communication simulators.

Every simulated transfer appends a :class:`CommRecord`; the experiment
harnesses aggregate these into the per-client cumulative times (Figure 4a),
per-round distributions (Figure 4b), and gather-percentage series (Figure 3b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = ["CommRecord", "DeadLetter", "CommLog"]


@dataclass(frozen=True)
class CommRecord:
    """One simulated communication event.

    With fault injection active (:mod:`repro.faults`) a logical transfer may
    produce several records: one per failed attempt (``fault`` set, charged
    its timeout or wire time), one per backoff wait (``op="backoff"``), and —
    if any attempt succeeds — one clean record.  ``attempt`` is the 0-based
    retry index; fault-free runs only ever emit ``attempt=0, fault=None``
    records, so every pre-existing aggregation is unchanged.
    """

    round: int
    endpoint: str  # e.g. "client:17" or "server"
    op: str  # "send", "recv", "gather", "bcast", ...
    nbytes: int
    seconds: float
    #: 0-based attempt index of this transfer (retries bump it)
    attempt: int = 0
    #: the injected fault this attempt suffered ("drop"/"timeout"/"corrupt"/
    #: "crash"), or ``None`` for a successful attempt
    fault: Optional[str] = None


@dataclass(frozen=True)
class DeadLetter:
    """A transfer abandoned after exhausting its retry budget (or because
    its sender crashed) — the undeliverable-message record real message
    brokers keep, here feeding the failed-cohort accounting of the runners."""

    round: int
    endpoint: str
    op: str
    nbytes: int
    attempts: int
    reason: str  # "max_attempts" or "crash"


@dataclass
class CommLog:
    """Append-only log of communication events with aggregation helpers.

    ``records`` is the complete list (the Figure 3/4 harnesses read it), but
    the whole-log totals the runners and the monitor ask for every round —
    :meth:`total_bytes`, :meth:`total_seconds`, :meth:`failed_attempts` with
    no filter — are running sums kept by :meth:`add` / :meth:`extend`, so
    they cost the same at round 10,000 as at round 1.  Grow the log through
    those two methods only.  The float total adds record by record in log
    order, which is bitwise what ``sum()`` over the records gives.
    """

    records: List[CommRecord] = field(default_factory=list)
    dead_letters: List[DeadLetter] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: bumped by :meth:`clear`, so a reader that remembers how far into
        #: ``records`` it got can tell its position no longer means anything
        self.epoch = 0
        self._bytes, self._seconds, self._faulted = 0, 0.0, 0
        self._tally(self.records)

    def _tally(self, records: Iterable[CommRecord]) -> None:
        for r in records:
            self._bytes += r.nbytes
            self._seconds += r.seconds
            if r.fault is not None:
                self._faulted += 1

    def add(self, record: CommRecord) -> None:
        self.records.append(record)
        self._tally((record,))

    def extend(self, records: Iterable[CommRecord]) -> None:
        start = len(self.records)
        self.records.extend(records)
        self._tally(self.records[start:])

    def add_dead_letter(self, letter: DeadLetter) -> None:
        self.dead_letters.append(letter)

    def __len__(self) -> int:
        return len(self.records)

    def failed_attempts(self, rounds: Optional[Iterable[int]] = None) -> int:
        """Number of faulted transfer attempts (each implies a retry or a
        dead letter), optionally restricted to the given rounds."""
        if rounds is None:
            return self._faulted
        keep = set(rounds)
        return sum(1 for r in self.records if r.fault is not None and r.round in keep)

    # ------------------------------------------------------------ aggregation
    def total_seconds(self, endpoint: Optional[str] = None, skip_rounds: Iterable[int] = ()) -> float:
        """Total simulated communication seconds, optionally for one endpoint."""
        skip = set(skip_rounds)
        if endpoint is None and not skip:
            return float(self._seconds)
        return float(
            sum(
                r.seconds
                for r in self.records
                if (endpoint is None or r.endpoint == endpoint) and r.round not in skip
            )
        )

    def total_bytes(self, endpoint: Optional[str] = None) -> int:
        """Total simulated bytes transferred, optionally for one endpoint."""
        if endpoint is None:
            return int(self._bytes)
        return int(sum(r.nbytes for r in self.records if r.endpoint == endpoint))

    def per_round_seconds(self, endpoint: str) -> Dict[int, float]:
        """Map round -> summed seconds for one endpoint."""
        out: Dict[int, float] = {}
        for r in self.records:
            if r.endpoint == endpoint:
                out[r.round] = out.get(r.round, 0.0) + r.seconds
        return out

    def cumulative_seconds(self, endpoint: str, skip_rounds: Iterable[int] = ()) -> np.ndarray:
        """Cumulative per-round seconds for one endpoint (sorted by round)."""
        per_round = self.per_round_seconds(endpoint)
        skip = set(skip_rounds)
        values = [s for rnd, s in sorted(per_round.items()) if rnd not in skip]
        return np.cumsum(values) if values else np.zeros(0)

    def round_times(self, endpoint: str, skip_rounds: Iterable[int] = ()) -> np.ndarray:
        """Per-round seconds for one endpoint as an array (sorted by round)."""
        per_round = self.per_round_seconds(endpoint)
        skip = set(skip_rounds)
        return np.array([s for rnd, s in sorted(per_round.items()) if rnd not in skip])

    def endpoints(self) -> List[str]:
        """Distinct endpoints seen, sorted."""
        return sorted({r.endpoint for r in self.records})

    def clear(self) -> None:
        """Forget every record and dead letter; totals restart from zero."""
        self.records.clear()
        self.dead_letters.clear()
        self.epoch += 1
        self._bytes, self._seconds, self._faulted = 0, 0.0, 0
