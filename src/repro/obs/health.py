"""Health watchdogs: live run monitoring at round/wave boundaries.

:class:`RunMonitor` is the obs layer's live counterpart to the tracer.
Runners call three context-local hooks (``current_monitor()`` mirrors
``current_tracer()`` — disabled costs one ``ContextVar.get``):

* :meth:`RunMonitor.on_round` after each completed round — advance the
  monitor's one live :class:`MetricsRegistry` by what the runner logged
  since the last sample (:meth:`MetricsRegistry.absorb_runner`, the same
  call a post-hoc absorb makes), stream a JSONL time-series sample,
  publish to the live endpoint, and evaluate every watchdog;
* :meth:`RunMonitor.on_wave` at virtual wave boundaries — a cheap
  memory-watermark-only check (waves can outnumber rounds by orders of
  magnitude);
* :meth:`RunMonitor.observe_local_update` with each client update's
  wall-clock seconds, feeding the straggler detector.

Watchdogs read a :class:`HealthSample` (history + cumulative snapshot +
per-interval delta) and return :class:`Alert`\\ s; what they remember
between samples (the convergence watchdog's best / rolling-window losses)
is only a cache of the history they were shown, so their verdicts are a
function of the sample and a check costs the same at any run length.  They
never touch the run itself, so a monitored run stays bitwise identical to
an unmonitored one.  Alerts land in a :class:`HealthReport`
(summarized by ``obsreport`` and the chaos harness) and as structured
``alert`` trace events when a tracer is armed.  A watchdog that raises
is reported as its own alert rather than ever killing the run.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from .export import MetricsServer, MetricsStream
from .metrics import MetricsRegistry
from .trace import current_tracer

__all__ = [
    "Alert",
    "HealthReport",
    "HealthSample",
    "HealthMonitor",
    "ConvergenceWatchdog",
    "StragglerWatchdog",
    "RetryWatchdog",
    "MemoryWatchdog",
    "RunMonitor",
    "current_monitor",
    "set_monitor",
    "use_monitor",
    "default_monitors",
]

_MONITOR: ContextVar[Optional["RunMonitor"]] = ContextVar("repro_monitor", default=None)


def current_monitor() -> Optional["RunMonitor"]:
    """The monitor armed for the current context, or ``None``."""
    return _MONITOR.get()


def set_monitor(monitor: Optional["RunMonitor"]):
    """Arm ``monitor`` for the current context; returns the reset token."""
    return _MONITOR.set(monitor)


@contextmanager
def use_monitor(monitor: Optional["RunMonitor"]) -> Iterator[Optional["RunMonitor"]]:
    """Arm ``monitor`` for the duration of the ``with`` block."""
    token = _MONITOR.set(monitor)
    try:
        yield monitor
    finally:
        _MONITOR.reset(token)


def rss_bytes() -> int:
    """Resident set size of this process in bytes (0 when unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return int(usage) * (1 if usage > 1 << 32 else 1024)
    except Exception:
        return 0


# ---------------------------------------------------------------------------
# Alerts and the report they accumulate into
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """One structured watchdog finding."""

    monitor: str
    severity: str  # "warning" | "critical"
    message: str
    round: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "monitor": self.monitor,
            "severity": self.severity,
            "message": self.message,
        }
        if self.round is not None:
            out["round"] = self.round
        if self.details:
            out["details"] = dict(self.details)
        return out


class HealthReport:
    """Everything the watchdogs concluded about a run."""

    def __init__(self) -> None:
        self.alerts: List[Alert] = []
        self.samples = 0
        self.waves = 0
        #: cumulative wall-clock seconds spent inside :meth:`RunMonitor.on_round`
        #: — what watching the run cost it
        self.sample_seconds = 0.0
        self.checks: Dict[str, int] = {}

    def record_check(self, monitor_name: str) -> None:
        self.checks[monitor_name] = self.checks.get(monitor_name, 0) + 1

    def add(self, alert: Alert) -> None:
        self.alerts.append(alert)

    @property
    def ok(self) -> bool:
        return not self.alerts

    @property
    def status(self) -> str:
        if any(a.severity == "critical" for a in self.alerts):
            return "critical"
        if self.alerts:
            return "warning"
        return "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "samples": self.samples,
            "waves": self.waves,
            "sample_seconds": self.sample_seconds,
            "checks": dict(self.checks),
            "alerts": [a.to_dict() for a in self.alerts],
        }

    def render(self) -> str:
        lines = [
            f"health: {self.status} "
            f"({self.samples} samples in {self.sample_seconds:.3g}s, "
            f"{self.waves} waves, {len(self.alerts)} alerts)"
        ]
        by_key: Dict[tuple, int] = {}
        first: Dict[tuple, Alert] = {}
        for alert in self.alerts:
            key = (alert.monitor, alert.severity, alert.message)
            by_key[key] = by_key.get(key, 0) + 1
            first.setdefault(key, alert)
        for key in sorted(by_key):
            alert = first[key]
            count = by_key[key]
            suffix = f" (x{count})" if count > 1 else ""
            where = f" [round {alert.round}]" if alert.round is not None else ""
            lines.append(
                f"  {alert.severity.upper():8s} {alert.monitor}: "
                f"{alert.message}{where}{suffix}"
            )
        return "\n".join(lines)


@dataclass
class HealthSample:
    """What one monitoring boundary hands to every watchdog."""

    runner: Any
    history: Any
    result: Any
    snapshot: Mapping[str, Any]
    delta: Mapping[str, Any]
    round: Optional[int]


def _sum_counters(sample: HealthSample, prefix: str, *, delta: bool = True) -> float:
    source = sample.delta if delta else sample.snapshot
    return float(
        sum(
            v
            for k, v in (source.get("counters") or {}).items()
            if k == prefix or k.startswith(prefix + "{")
        )
    )


# ---------------------------------------------------------------------------
# Watchdogs
# ---------------------------------------------------------------------------


class HealthMonitor:
    """Base interface: inspect one :class:`HealthSample`, return alerts."""

    name = "monitor"

    def check(self, sample: HealthSample) -> List[Alert]:  # pragma: no cover
        raise NotImplementedError


class ConvergenceWatchdog(HealthMonitor):
    """Divergence and convergence-stall detection over the loss history.

    Divergence is a *critical* alert: the latest test loss is non-finite,
    or exceeds the best loss so far by both a multiplicative factor and an
    absolute rise (the two-sided guard keeps near-zero best losses from
    tripping on noise).  A stall is a *warning*: across the last
    ``window`` rounds the best loss never improved on the pre-window best
    by at least ``min_improvement``.  Runs shorter than ``window + 1``
    rounds cannot stall, so short healthy runs stay silent.
    """

    name = "convergence"

    def __init__(
        self,
        window: int = 8,
        min_improvement: float = 1e-4,
        divergence_factor: float = 2.0,
        min_rise: float = 0.25,
    ) -> None:
        self.window = int(window)
        self.min_improvement = float(min_improvement)
        self.divergence_factor = float(divergence_factor)
        self.min_rise = float(min_rise)
        self._follow(None)

    def _follow(self, history: Any) -> None:
        """Start reading ``history`` from its first round."""
        self._history = history
        self._read = 0
        #: the last recorded loss (finite or not), how many finite ones came
        #: before it, their minimum, the last ``window`` of them, and the
        #: minimum of those that have left that window
        self._latest: Optional[float] = None
        self._finite = 0
        self._best = math.inf
        self._recent: Deque[float] = deque(maxlen=self.window)
        self._prior_best = math.inf

    def _advance(self, history: Any) -> None:
        """Read the rounds ``history`` gained since the last check (all of
        them for another history object, or one that got shorter)."""
        rounds = getattr(history, "rounds", [])
        if history is not self._history or len(rounds) < self._read:
            self._follow(history)
        for result in rounds[self._read :]:
            loss = getattr(result, "test_loss", None)
            if loss is None:
                continue
            self._latest = loss = float(loss)
            if not math.isfinite(loss):
                continue
            if len(self._recent) == self.window:
                self._prior_best = min(self._prior_best, self._recent[0])
            self._recent.append(loss)
            self._finite += 1
            self._best = min(self._best, loss)
        self._read = len(rounds)

    def check(self, sample: HealthSample) -> List[Alert]:
        self._advance(sample.history)
        latest = self._latest
        if latest is None:
            return []
        alerts: List[Alert] = []
        if not math.isfinite(latest):
            return [
                Alert(
                    self.name,
                    "critical",
                    "test loss is non-finite",
                    round=sample.round,
                    details={"loss": repr(latest)},
                )
            ]
        best = self._best
        if (
            self._finite >= 2
            and latest > best * self.divergence_factor
            and latest > best + self.min_rise
        ):
            alerts.append(
                Alert(
                    self.name,
                    "critical",
                    f"loss diverging: {latest:.4g} vs best {best:.4g}",
                    round=sample.round,
                    details={"loss": latest, "best": best},
                )
            )
        if self._finite >= self.window + 1:
            prior_best = self._prior_best
            recent_best = min(self._recent)
            if recent_best > prior_best - self.min_improvement:
                alerts.append(
                    Alert(
                        self.name,
                        "warning",
                        f"no loss improvement in last {self.window} rounds "
                        f"(best {recent_best:.4g} vs prior {prior_best:.4g})",
                        round=sample.round,
                        details={"recent_best": recent_best, "prior_best": prior_best},
                    )
                )
        return alerts


class StragglerWatchdog(HealthMonitor):
    """Client local-update skew: p99/p50 of real wall-clock update time.

    Fires a *warning* when the tail is both relatively extreme
    (``p99 > ratio * p50``) and absolutely slow (``p99 >
    min_p99_seconds``) with at least ``min_samples`` observations — the
    absolute floor keeps microsecond-scale toy updates from alerting on
    scheduler jitter.
    """

    name = "stragglers"

    def __init__(
        self,
        ratio: float = 16.0,
        min_samples: int = 64,
        min_p99_seconds: float = 0.25,
        metric: str = "local_update_seconds{tier=run}",
    ) -> None:
        self.ratio = float(ratio)
        self.min_samples = int(min_samples)
        self.min_p99_seconds = float(min_p99_seconds)
        self.metric = metric

    def check(self, sample: HealthSample) -> List[Alert]:
        summ = (sample.snapshot.get("histograms") or {}).get(self.metric)
        if not summ or summ.get("count", 0) < self.min_samples:
            return []
        p50, p99 = summ.get("p50"), summ.get("p99")
        if not p50 or p99 is None or p50 <= 0:
            return []
        if p99 > self.ratio * p50 and p99 > self.min_p99_seconds:
            return [
                Alert(
                    self.name,
                    "warning",
                    f"straggler skew: local_update p99 {p99:.3g}s "
                    f"vs p50 {p50:.3g}s (>{self.ratio:g}x)",
                    round=sample.round,
                    details={"p50": p50, "p99": p99, "count": summ["count"]},
                )
            ]
        return []


class RetryWatchdog(HealthMonitor):
    """Retry and dead-letter rate alarms over per-interval deltas.

    Any dead letter in an interval is a *warning* (lost client data);
    retries alert only past ``max_retries_per_sample`` — retry storms,
    not routine self-healing.
    """

    name = "retries"

    def __init__(
        self, max_dead_letters_per_sample: int = 0, max_retries_per_sample: int = 50
    ) -> None:
        self.max_dead_letters = int(max_dead_letters_per_sample)
        self.max_retries = int(max_retries_per_sample)

    def check(self, sample: HealthSample) -> List[Alert]:
        alerts: List[Alert] = []
        dead = max(
            _sum_counters(sample, "comm_dead_letters"),
            _sum_counters(sample, "faults_dead_letters"),
        )
        if dead > self.max_dead_letters:
            alerts.append(
                Alert(
                    self.name,
                    "warning",
                    f"{int(dead)} dead-lettered transfer(s) since last sample",
                    round=sample.round,
                    details={"dead_letters": dead},
                )
            )
        retries = _sum_counters(sample, "comm_retries") + _sum_counters(
            sample, "faults_retries"
        )
        if retries > self.max_retries:
            alerts.append(
                Alert(
                    self.name,
                    "warning",
                    f"retry storm: {int(retries)} retries since last sample",
                    round=sample.round,
                    details={"retries": retries},
                )
            )
        return alerts


class MemoryWatchdog(HealthMonitor):
    """Memory watermarks: parent RSS, shm arena bytes, store bytes.

    All limits default to ``None`` (off); set them to byte counts to arm.
    Exceeding a watermark is *critical* — the next allocation may take
    the run down.  Also consulted at wave boundaries via
    :meth:`RunMonitor.on_wave`, where only these gauges are refreshed.
    """

    name = "memory"

    def __init__(
        self,
        max_rss_bytes: Optional[int] = None,
        max_shm_bytes: Optional[int] = None,
        max_store_bytes: Optional[int] = None,
    ) -> None:
        self.max_rss_bytes = max_rss_bytes
        self.max_shm_bytes = max_shm_bytes
        self.max_store_bytes = max_store_bytes

    def check(self, sample: HealthSample) -> List[Alert]:
        gauges = sample.snapshot.get("gauges") or {}
        alerts: List[Alert] = []

        def watermark(kind: str, observed: float, limit: Optional[int]) -> None:
            if limit is not None and observed > limit:
                alerts.append(
                    Alert(
                        self.name,
                        "critical",
                        f"{kind} {observed / 1e6:.1f} MB above watermark "
                        f"{limit / 1e6:.1f} MB",
                        round=sample.round,
                        details={"kind": kind, "observed": observed, "limit": limit},
                    )
                )

        watermark("rss", float(gauges.get("process_rss_bytes", 0.0)), self.max_rss_bytes)
        watermark(
            "shm arena", float(gauges.get("shm_live_bytes", 0.0)), self.max_shm_bytes
        )
        store_bytes = sum(
            v
            for k, v in gauges.items()
            if k == "store_nbytes" or k.startswith("store_nbytes{")
        )
        watermark("client store", float(store_bytes), self.max_store_bytes)
        return alerts


def default_monitors(
    max_rss_bytes: Optional[int] = None,
    max_shm_bytes: Optional[int] = None,
    max_store_bytes: Optional[int] = None,
) -> List[HealthMonitor]:
    """The standard watchdog set (memory watermarks off unless given)."""
    return [
        ConvergenceWatchdog(),
        StragglerWatchdog(),
        RetryWatchdog(),
        MemoryWatchdog(
            max_rss_bytes=max_rss_bytes,
            max_shm_bytes=max_shm_bytes,
            max_store_bytes=max_store_bytes,
        ),
    ]


# ---------------------------------------------------------------------------
# The monitor itself
# ---------------------------------------------------------------------------


class RunMonitor:
    """Live monitoring harness: sample, stream, serve, and check health.

    Arm with :func:`use_monitor` around ``runner.run(...)``.  Strictly
    observational: the monitor owns one live :attr:`registry` that each
    sample *advances* from the runner's own accounting surfaces with
    :meth:`MetricsRegistry.absorb_runner` — the records and rounds appended
    since the last sample, plus the runner's running totals — so a sample
    costs what the interval did, not what the run has done so far, and its
    snapshot is bitwise what absorbing the finished run into a fresh
    registry gives.  (Monitor-local timings fed through
    :meth:`observe_local_update` and the memory gauges ride in the same
    registry.)  The run's RNG streams, ordering, and numerics are untouched.
    """

    def __init__(
        self,
        monitors: Optional[Sequence[HealthMonitor]] = None,
        stream: Union[MetricsStream, str, Path, None] = None,
        serve: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        interval_rounds: int = 1,
        tag: Optional[str] = None,
        **labels: Any,
    ) -> None:
        self.monitors: List[HealthMonitor] = (
            list(monitors) if monitors is not None else default_monitors()
        )
        if isinstance(stream, (str, Path)):
            stream = MetricsStream(stream)
        self.stream = stream
        self.server = MetricsServer(host=host, port=port) if serve else None
        self.report = HealthReport()
        self.interval_rounds = max(1, int(interval_rounds))
        self.tag = tag
        self.labels = labels
        self.registry = MetricsRegistry(**labels)
        self._memory_monitors = [m for m in self.monitors if isinstance(m, MemoryWatchdog)]
        self._prev_snapshot: Optional[Dict[str, Any]] = None
        self._rounds_seen = 0

    # ------------------------------------------------------------------ hooks
    def observe_local_update(self, seconds: float, client: Optional[int] = None) -> None:
        """Record one client update's real wall-clock duration."""
        self.registry.histogram("local_update_seconds", tier="run").observe(seconds)

    def on_wave(self, runner: Any, owner: Any, round_index: int, wave_index: int) -> None:
        """Cheap wave-boundary check: memory watermarks only, over every
        client population of ``runner`` — or ``owner``'s alone, when an edge
        round runs without a runner."""
        self.report.waves += 1
        memory = self._memory_monitors
        if not any(
            m.max_rss_bytes or m.max_shm_bytes or m.max_store_bytes for m in memory
        ):
            return
        reg = MetricsRegistry(**self.labels)
        self._memory_gauges(reg)
        if runner is None:
            runner, history, populations = owner, None, [("flat", owner.population)]
        else:
            history, populations = runner.history, runner.populations()
        for tier, population in populations:
            if population.stats is not None:
                reg.absorb_store(population, tier=tier)
        snapshot = reg.snapshot()
        sample = HealthSample(
            runner=runner,
            history=history,
            result=None,
            snapshot=snapshot,
            delta={"counters": {}, "gauges": snapshot["gauges"], "histograms": {}},
            round=round_index,
        )
        for monitor in memory:
            self._run_check(monitor, sample)

    def on_round(self, runner: Any, result: Any = None) -> None:
        """Full sample at a round boundary: stream, serve, evaluate."""
        self._rounds_seen += 1
        if (self._rounds_seen - 1) % self.interval_rounds:
            return
        started = time.perf_counter()
        snapshot, delta = self.sample_registry(runner)
        self.report.samples += 1
        round_index = getattr(result, "round", None)
        if self.stream is not None:
            meta: Dict[str, Any] = {}
            if round_index is not None:
                meta["round"] = round_index
            if self.tag is not None:
                meta["tag"] = self.tag
            self.stream.append(snapshot, delta, **meta)
        sample = HealthSample(
            runner=runner,
            history=runner.history,
            result=result,
            snapshot=snapshot,
            delta=delta,
            round=round_index,
        )
        for monitor in self.monitors:
            self._run_check(monitor, sample)
        if self.server is not None:
            self.server.publish(snapshot, self.report.to_dict())
        self._prev_snapshot = snapshot
        self.report.sample_seconds += time.perf_counter() - started

    # -------------------------------------------------------------- internals
    def _run_check(self, monitor: HealthMonitor, sample: HealthSample) -> None:
        self.report.record_check(monitor.name)
        try:
            alerts = monitor.check(sample) or []
        except Exception as exc:  # a broken watchdog must never kill the run
            alerts = [
                Alert(
                    monitor.name,
                    "warning",
                    f"watchdog error: {type(exc).__name__}: {exc}",
                    round=sample.round,
                )
            ]
        tracer = current_tracer()
        for alert in alerts:
            self.report.add(alert)
            if tracer is not None:
                labels: Dict[str, Any] = {
                    "monitor": alert.monitor,
                    "severity": alert.severity,
                    "message": alert.message,
                }
                if alert.round is not None:
                    labels["round"] = alert.round
                if alert.details:
                    labels["details"] = dict(alert.details)
                tracer.event("alert", "health", lane="health", **labels)

    def _memory_gauges(self, reg: MetricsRegistry) -> None:
        reg.gauge("process_rss_bytes").set(float(rss_bytes()))
        try:
            from ..mp.shm import live_arena_stats

            arena = live_arena_stats()
            reg.gauge("shm_live_bytes").set(float(arena["bytes"]))
            reg.gauge("shm_live_segments").set(float(arena["segments"]))
        except ImportError:  # pragma: no cover
            pass

    def sample_registry(self, runner: Any):
        """Cumulative snapshot + delta-vs-previous for ``runner`` now."""
        reg = self.registry.absorb_runner(runner)
        self._memory_gauges(reg)
        snapshot = reg.snapshot()
        delta = reg.diff(self._prev_snapshot)
        return snapshot, delta

    # ------------------------------------------------------------------ wrap
    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
        if self.server is not None:
            self.server.close()

    def __enter__(self) -> "RunMonitor":
        self._token = set_monitor(self)
        return self

    def __exit__(self, *exc) -> None:
        _MONITOR.reset(self._token)
        self.close()
