"""Metrics registry: counters / gauges / histograms behind one ``snapshot()``.

The registry absorbs the accounting that previously lived in separate
corners of the codebase — ``phase_seconds`` dicts, :class:`CommLog` byte
counts, :class:`FaultStats`, :class:`StoreStats`, and the per-client ε of
the :class:`PrivacyAccountant` — into one labelled namespace with a
single machine-readable export.

:meth:`MetricsRegistry.absorb_runner` is the one path from a runner to
metrics, whether called once after the run or by a live
:class:`~repro.obs.health.RunMonitor` after every round.  The registry
remembers how far into each append-only source (a comm log's records and
dead letters, the round history) it has read, folds in only the tail, and
*sets* what the runner already keeps as running totals — so advancing a
registry costs what happened since the last call, at any run length, and
gives bitwise the snapshot a fresh registry would.  A source that was
cleared, replaced or swapped for another runner's makes the registry clear
itself and read from the start instead of counting anything twice.

Histograms estimate streaming p50/p95/p99 with fixed-size reservoirs.
The reservoir uses a *private* ``random.Random`` instance so observing a
value can never perturb any run RNG stream (the same bitwise-determinism
contract the tracer keeps).

All absorb helpers duck-type their argument, so one
:meth:`MetricsRegistry.absorb_runner` call works for ``FederatedRunner``,
``AsyncRunner``, ``HierRunner``, and ``HierAsyncRunner`` alike.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metric_key"]

_RESERVOIR_SIZE = 512
_RESERVOIR_SEED = 0xC0FFEE


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming distribution: exact count/sum/min/max plus quantile
    estimates from a fixed-size uniform reservoir."""

    __slots__ = ("count", "total", "min", "max", "_samples", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._rng = random.Random(_RESERVOIR_SEED)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < _RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < _RESERVOIR_SIZE:
                self._samples[j] = value

    def percentile(self, p: float) -> Optional[float]:
        """Estimate the ``p``-th percentile (0..100) from the reservoir.

        Exact whenever ``count <= _RESERVOIR_SIZE`` (the reservoir then
        holds every observation); a uniform-sample estimate beyond that.
        """
        return self._percentiles(p)[0]

    def _percentiles(self, *ps: float) -> List[Optional[float]]:
        """Several percentiles off one sort of the reservoir."""
        if not self._samples:
            return [None] * len(ps)
        ordered = sorted(self._samples)
        last = len(ordered) - 1
        return [ordered[min(last, max(0, round(p / 100.0 * last)))] for p in ps]

    def summary(self) -> Dict[str, Optional[float]]:
        p50, p95, p99 = self._percentiles(50, 95, 99)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "samples": len(self._samples),
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    # ------------------------------------------------------------- merge/state
    def state_dict(self) -> Dict[str, Any]:
        """Full mergeable state (exact aggregates + reservoir contents)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "samples": list(self._samples),
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state_dict` into this one.

        Exact aggregates (count/sum/min/max) merge exactly.  Reservoirs
        concatenate; past capacity the combined pool is sorted and
        evenly strided down to ``_RESERVOIR_SIZE`` — a deterministic
        quantile-preserving sketch, so merging worker deltas in a fixed
        order always yields the identical reservoir (no RNG involved).
        """
        self.count += int(state["count"])
        self.total += float(state["total"])
        for bound in (state["min"], state["max"]):
            if bound is not None:
                bound = float(bound)
                if self.min is None or bound < self.min:
                    self.min = bound
                if self.max is None or bound > self.max:
                    self.max = bound
        combined = self._samples + [float(v) for v in state["samples"]]
        if len(combined) > _RESERVOIR_SIZE:
            combined.sort()
            n = len(combined)
            combined = [
                combined[(i * n) // _RESERVOIR_SIZE] for i in range(_RESERVOIR_SIZE)
            ]
        self._samples = combined

    def merge(self, other: "Histogram") -> None:
        self.merge_state(other.state_dict())


def _records_feed(log, tier: str) -> Tuple[str, Any, int, List]:
    """A comm log's records as a cursor feed: ``(key, source, epoch, items)``."""
    return (f"comm_records:{tier}", log, log.epoch, log.records)


def _history_feed(history) -> Tuple[str, Any, int, List]:
    """A training history's rounds as a cursor feed (never cleared: epoch 0)."""
    return ("history", history, 0, history.rounds)


class MetricsRegistry:
    """Labelled metrics with one JSON-able :meth:`snapshot`.

    Registry-level labels (typically ``algorithm=``/``codec=``) apply to
    the whole snapshot; per-metric labels (``tier=``, ``phase=``, ...)
    key individual series.
    """

    def __init__(self, **labels: Any) -> None:
        self.labels = {k: v for k, v in labels.items() if v is not None}
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: read positions in the append-only sources absorbed so far, as
        #: ``key -> (source, its epoch, entries read)`` — see :meth:`_unread`
        self._cursors: Dict[str, Tuple[Any, int, int]] = {}

    # ------------------------------------------------------------- accessors
    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict export of every metric, ready for ``json.dumps``."""
        return {
            "labels": dict(self.labels),
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.summary() for k, h in sorted(self._histograms.items())},
        }

    def write_snapshot(self, path: Union[str, Path]) -> Path:
        from .export import json_default

        path = Path(path)
        path.write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True, default=json_default)
        )
        return path

    # ----------------------------------------------------------- merge / diff
    def dump_state(self) -> Dict[str, Any]:
        """Full mergeable state — unlike :meth:`snapshot`, histograms ship
        their reservoir contents so a peer registry can fold them in
        exactly (the worker → parent telemetry channel)."""
        return {
            "labels": dict(self.labels),
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.state_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, other: Union["MetricsRegistry", Dict[str, Any]]) -> "MetricsRegistry":
        """Fold another registry (or its :meth:`dump_state`) into this one.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge their reservoirs deterministically.  Merging a
        fixed sequence of states in a fixed order is fully deterministic,
        which is what the process pool relies on when combining worker
        deltas in worker-index order.
        """
        state = other.dump_state() if isinstance(other, MetricsRegistry) else other
        for key, value in (state.get("counters") or {}).items():
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            metric.inc(value)
        for key, value in (state.get("gauges") or {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set(value)
        for key, hstate in (state.get("histograms") or {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.merge_state(hstate)
        return self

    def diff(self, previous: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Delta of the current state against a previous :meth:`snapshot`.

        Counters and histogram count/sum become per-interval deltas
        (``previous=None`` means everything is new); gauges report their
        current value — a delta of a last-written value has no meaning.
        """
        current = self.snapshot()
        prev_counters = (previous or {}).get("counters") or {}
        prev_hists = (previous or {}).get("histograms") or {}
        counters = {
            k: v - prev_counters.get(k, 0) for k, v in current["counters"].items()
        }
        histograms: Dict[str, Any] = {}
        for k, summ in current["histograms"].items():
            prev = prev_hists.get(k)
            entry = dict(summ)
            if prev is not None:
                entry["count"] = summ["count"] - prev.get("count", 0)
                entry["sum"] = summ["sum"] - prev.get("sum", 0.0)
            histograms[k] = entry
        return {
            "labels": current["labels"],
            "counters": counters,
            "gauges": current["gauges"],
            "histograms": histograms,
        }

    # --------------------------------------------------------------- absorbs
    def clear(self) -> None:
        """Drop every metric and read position (the labels stay)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._cursors.clear()

    def _position(self, key: str, source: Any, epoch: int, items: List) -> Optional[int]:
        """How many entries of ``items`` — an append-only list owned by
        ``source`` — are already folded in under ``key``.  ``None`` when the
        position kept there no longer points into ``items``: another
        ``source`` object, a cleared one (``epoch``), or fewer entries than
        were read."""
        cursor = self._cursors.get(key)
        if cursor is None:
            return 0
        kept_source, kept_epoch, read = cursor
        if kept_source is source and kept_epoch == epoch and read <= len(items):
            return read
        return None

    def _unread(self, key: str, source: Any, epoch: int, items: List) -> List:
        """The entries of ``items`` not yet folded in under ``key`` — however
        many rounds' worth that is — marking them read.  A position that no
        longer points into ``items`` restarts at 0."""
        start = self._position(key, source, epoch, items) or 0
        self._cursors[key] = (source, epoch, len(items))
        return items[start:]

    def absorb_phase_seconds(self, phase_seconds: Dict[str, float], tier: str) -> None:
        for phase, seconds in phase_seconds.items():
            self.gauge("phase_seconds", phase=phase, tier=tier).set(float(seconds))

    def absorb_comm_log(self, log, tier: str) -> None:
        """Fold what a :class:`repro.comm.records.CommLog` gained since this
        registry last read it into the per-tier series, in log order (so the
        histogram's seeded reservoir sees one sequence, however it is cut
        into calls)."""
        bytes_c = self.counter("comm_bytes", tier=tier)
        secs_c = self.counter("comm_sim_seconds", tier=tier)
        retries = self.counter("comm_retries", tier=tier)
        backoff = self.counter("comm_backoff_seconds", tier=tier)
        faults = self.counter("comm_faulted_attempts", tier=tier)
        hist = self.histogram("comm_transfer_seconds", tier=tier)
        for rec in self._unread(*_records_feed(log, tier)):
            if rec.op == "backoff":
                backoff.inc(rec.seconds)
                continue
            bytes_c.inc(rec.nbytes)
            secs_c.inc(rec.seconds)
            hist.observe(rec.seconds)
            if rec.fault is not None:
                faults.inc()
            if rec.attempt > 0 and rec.fault is None:
                retries.inc(rec.attempt)
        dead = self._unread(f"comm_dead_letters:{tier}", log, log.epoch, log.dead_letters)
        self.counter("comm_dead_letters", tier=tier).inc(len(dead))

    def absorb_fault_stats(self, stats) -> None:
        """Mirror a :class:`repro.faults.injector.FaultStats` (running totals
        already) into counters."""
        for name, value in stats.as_dict().items():
            self.counter(f"faults_{name}").value = value

    def absorb_store(self, store, tier: str) -> None:
        """Fold :class:`ClientStateStore` gauges (one store per tier/edge)."""
        stats = store.stats
        for name in ("materializations", "restores", "evictions", "hits"):
            self.gauge(f"store_{name}", tier=tier).set(getattr(stats, name))
        self.gauge("store_peak_live", tier=tier).set(stats.peak_live)
        self.gauge("store_materialize_us", tier=tier).set(stats.materialize_us)
        self.gauge("store_evict_us", tier=tier).set(stats.evict_us)
        self.gauge("store_nbytes", tier=tier).set(store.store_nbytes)
        self.gauge("store_peak_nbytes", tier=tier).set(stats.peak_store_bytes)
        self.gauge("store_live_count", tier=tier).set(store.live_count)

    def absorb_accountant(self, accountant, tier: str = "client") -> None:
        """Per-client ε from a :class:`PrivacyAccountant`: the distribution
        over clients as it stands now (not a stream), so the histogram is
        rebuilt from the accountant's running per-client sums."""
        summary = accountant.summary()
        hist = self._histograms[metric_key("privacy_epsilon", {"tier": tier})] = Histogram()
        for entry in summary.values():
            hist.observe(entry["epsilon"])
        self.gauge("privacy_max_epsilon", tier=tier).set(accountant.max_epsilon_spent())
        self.gauge("privacy_clients_charged", tier=tier).set(len(summary))

    def absorb_worker_telemetry(self, executors) -> None:
        """The process-backend worker metrics that the runner's and edges'
        :class:`~repro.core.executor.LocalExecutor` objects hold — per executor
        the deltas banked when pools retired, then the live pool's
        parent-merged registry.  Those registries are cumulative, so their
        merge *replaces* the ``worker_*`` series here."""
        workers = MetricsRegistry()
        for executor in executors:
            for registry in executor.worker_telemetry():
                workers.merge(registry)
        self._counters.update(workers._counters)
        self._gauges.update(workers._gauges)
        self._histograms.update(workers._histograms)

    def absorb_history(self, history) -> None:
        """Fold the :class:`RoundResult` entries recorded since this registry last
        read ``history`` into the per-round aggregates."""
        self.gauge("rounds_completed").set(len(history.rounds))
        wall = self.histogram("round_wall_clock_seconds")
        for result in self._unread(*_history_feed(history)):
            self.counter("history_comm_bytes").inc(result.comm_bytes)
            if result.wall_clock_seconds is not None:
                wall.observe(result.wall_clock_seconds)
            if result.retries is not None:
                self.counter("history_retries").inc(result.retries)
            if result.failed_clients:
                self.counter("history_failed_clients").inc(len(result.failed_clients))
            if result.recovered_edges:
                self.counter("history_recovered_edges").inc(len(result.recovered_edges))
            if result.comm_bytes_by_tier:
                for tier, nbytes in result.comm_bytes_by_tier.items():
                    self.counter("history_comm_bytes", tier=tier).inc(nbytes)

    def absorb_runner(self, runner) -> "MetricsRegistry":
        """Bring this registry up to date with any of the four runner types.

        The one path from a runner's accounting to metrics, live or after
        the fact: a fresh registry reads everything, a registry that has
        absorbed this runner before reads only what was appended since — the
        comm-log records and round results past its read positions, in
        order — and *sets* everything the runner already keeps as a running
        total, so a call costs what happened since the last one and the
        result is bitwise a fresh registry's.  Should a position no longer
        resume — another runner, a cleared log, a history restored from a
        checkpoint — the registry clears itself and reads from 0 rather than
        count anything twice.

        Reads only the :class:`repro.core.phases.Runner` surface: the
        ledger's wire tiers (communicator logs, or the bytes a virtual
        timeline charged), ``phase_seconds`` and ``client_steps``, the fault
        ``injector``, the store statistics of :meth:`~repro.core.phases.
        Runner.populations`, the :meth:`~repro.core.phases.Runner.executors`'
        worker telemetry, the privacy ``accountant``, the server's and edges'
        aggregation counts, and the training history.
        """
        ledger, history = runner.ledger, runner.history
        tiers = ledger.tiers
        feeds = [_records_feed(comm.log, tier) for tier, comm in tiers.items() if comm is not None]
        feeds.append(_history_feed(history))
        if any(self._position(*feed) is None for feed in feeds):
            self.clear()

        phases = runner.phase_seconds
        self.absorb_phase_seconds(phases, tier="run")

        # Local-update throughput: client optimizer steps per wall-clock
        # second of the local_update phase (both runner execution paths count
        # steps; see repro.core.batched.count_client_steps).
        steps = runner.client_steps
        local_seconds = phases.get("local_update", 0.0)
        if steps and local_seconds > 0:
            self.gauge("client_steps_per_sec", tier="run").set(steps / local_seconds)

        # The runner's ledger names its wire tiers: a tier with a communicator
        # reports through that log, a virtual timeline's through the bytes it
        # charged as packets were sent.
        for tier, comm in tiers.items():
            if comm is not None:
                self.absorb_comm_log(comm.log, tier=tier)
        for tier, nbytes in ledger.wire_bytes_by_tier().items():
            self.counter("comm_bytes", tier=tier).value = nbytes

        if runner.injector is not None:
            self.absorb_fault_stats(runner.injector.stats)

        # Client populations (only a store keeps statistics).
        for tier, population in runner.populations():
            if population.stats is not None:
                self.absorb_store(population, tier=tier)

        # Worker-side telemetry from the process backend, and the updates
        # that ran per client although cohorts were requested, by reason.
        executors = runner.executors()
        self.absorb_worker_telemetry(executors)
        fallbacks: Dict[str, int] = {}
        for executor in executors:
            for reason, count in executor.cohort_fallbacks.items():
                fallbacks[reason] = fallbacks.get(reason, 0) + count
        for reason, count in fallbacks.items():
            self.counter("cohort_fallback_total", reason=reason).value = count

        self.absorb_accountant(runner.accountant)

        # Which path each ADMMServer.aggregate_global took and why (flat runs
        # only), and how long the exact sum it rounded was — on a hier run, each
        # edge's latest summary (what sets the root hop's bytes).
        server = runner.server
        for (mode, reason), count in server.aggregate_counts.items():
            self.counter("server_aggregate_total", mode=mode, reason=reason).value = count
        if server.aggregate_counts:
            self.gauge("server_partial_components").set(server.partial_components)
        for edge in runner.edges:
            if edge.summary_components:
                self.gauge("server_partial_components", tier=f"edge:{edge.edge_id}").set(
                    edge.summary_components
                )

        self.absorb_history(history)
        return self
