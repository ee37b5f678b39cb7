"""How a set of clients gets its local updates run: :class:`LocalExecutor`.

Every synchronous round body (:class:`~repro.core.runner.FederatedRunner`,
:class:`~repro.hier.edge.EdgeAggregator`) hands its population's clients to
one executor, which picks between four interchangeable — bitwise identical —
ways of running ``client.update``:

* **serial** — in line, in client order;
* **thread** — on a persistent, grow-only thread pool (each client owns its
  model, buffers, loader and RNG, and the heavy numpy kernels release the
  GIL);
* **cohort** — as stacked ``(B, dim)`` kernels via
  :func:`~repro.core.batched.run_batched_updates`, with per-client fallback
  for members without a batched kernel (counted by reason in
  :attr:`LocalExecutor.cohort_fallbacks`);
* **process** — :meth:`LocalExecutor.update_pooled` runs a whole cohort on a
  :class:`~repro.mp.pool.ProcessWorkerPool` whose workers own the client
  state between rounds.  The pool is built over the population, whatever
  its kind (:mod:`repro.core.population`), so nothing is checked out
  parent-side.

The in-process ways share :meth:`LocalExecutor.update` (to add one, add a
branch there).  The executor also owns what the paths share: the process
pool's lifecycle (lazy build, retire, state traffic for checkpoints,
telemetry banking), pending/settled client-step accounting, and
``local_update`` span and monitor emission.  Nothing in the runners knows
how updates execute.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence

from ..obs import MetricsRegistry, current_monitor, current_tracer, timed_call
from .base import BaseClient
from .batched import count_client_steps, fallback_reason, run_batched_updates
from .config import FLConfig
from .exchange import PacketExchange

__all__ = ["GrowOnlyThreads", "LocalExecutor", "resolve_workers"]


def resolve_workers(requested: int) -> int:
    """Resolve a ``parallel_clients``-style worker request to a pool width.

    One convention everywhere: ``1`` is serial, ``N > 1`` caps the pool at
    ``N``, and ``0`` means one worker per CPU core.  Negative values raise
    ``ValueError`` — they are a caller bug that per-runner copies of this
    used to clamp to 1 silently.
    """
    requested = int(requested)
    if requested < 0:
        raise ValueError(
            f"worker count must be >= 0 (0 = one worker per core), got {requested}"
        )
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, requested)


class GrowOnlyThreads:
    """A lazily built thread pool that only ever widens.

    Callers size it by the work actually in hand (this wave's participants,
    the async runner's concurrency) rather than the population — under
    sampling or degraded rounds the population over-provisions.  A smaller
    request reuses the existing (idle) threads.
    """

    def __init__(self, name: str):
        self.name = name
        self.pool: Optional[ThreadPoolExecutor] = None
        self.width = 0

    def at_least(self, width: int) -> ThreadPoolExecutor:
        if self.pool is None or self.width < width:
            self.close()
            self.pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix=self.name)
            self.width = width
        return self.pool

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
            self.width = 0


class LocalExecutor:
    """Runs local updates for one population (a runner's, or one edge's shard).

    Parameters
    ----------
    config:
        Supplies ``execution_backend``, ``parallel_clients`` and
        ``client_batch``.
    exchange:
        The hop the uploads will cross: a lossy stack is rejected on the
        process backend (its reconcile step needs parent-side client state).
    population / ids:
        The population a process pool is built over (``ids`` narrows one
        addressed by global ids to one edge's shard).
    max_workers:
        Overrides ``config.parallel_clients``.
    name:
        Thread-name prefix.
    labels:
        Extra attributes on every ``local_update`` span (an edge's id).
    """

    def __init__(
        self,
        config: FLConfig,
        exchange: PacketExchange,
        population,
        ids: Optional[Sequence[int]] = None,
        max_workers: Optional[int] = None,
        name: str = "fl-client",
        labels: Optional[Mapping[str, object]] = None,
    ):
        self.backend = config.execution_backend
        if self.backend == "process" and exchange.lossy:
            raise ValueError(
                f"execution_backend='process' requires a lossless codec stack; "
                f"{exchange.spec!r} is lossy and its reconcile step needs "
                f"parent-side client state"
            )
        self.max_workers = resolve_workers(
            config.parallel_clients if max_workers is None else max_workers
        )
        self.client_batch = config.client_batch
        self.population = population
        self._ids = ids
        self._labels = dict(labels or {})
        self._threads = GrowOnlyThreads(name)
        self._pool = None  # ProcessWorkerPool, built on first pooled call
        self._banked = None  # MetricsRegistry of retired pools' worker metrics
        #: steps computed by the latest update, per client; settle() folds in
        #: the survivors only.
        self._pending: Mapping[int, int] = {}
        #: cumulative client optimizer steps whose upload was gathered — with
        #: ``phase_seconds["local_update"]`` the client_steps_per_sec metric.
        self.client_steps = 0
        #: updates that ran per client although ``client_batch`` asked for
        #: cohorts, by :func:`~repro.core.batched.fallback_reason`
        self.cohort_fallbacks: Counter = Counter()

    # ---------------------------------------------------------------- updates
    def update(
        self, clients: Sequence[BaseClient], payloads: Mapping[int, Mapping]
    ) -> Dict[int, Mapping]:
        """Run the given live clients' updates in this process; uploads come
        back in client order whatever path (or thread completion order)
        produced them.  With ``client_batch > 1``, groups of same-shaped
        batchable clients run as stacked cohorts and the rest per client.
        """
        uploads = None
        if self.client_batch > 1:
            batched = None
            if len(clients) > 1:
                batched = run_batched_updates(
                    clients, payloads, self.client_batch, tracer=current_tracer()
                )
            leftover = clients if batched is None else batched[1]
            self.cohort_fallbacks.update(fallback_reason(c) for c in leftover)
            if batched is not None:
                cohort_uploads = batched[0]
                if leftover:
                    cohort_uploads.update(self._update_each(leftover, payloads))
                uploads = {c.client_id: cohort_uploads[c.client_id] for c in clients}
        if uploads is None:
            uploads = self._update_each(clients, payloads)
        # Cohort members share config and loader geometry, so the per-client
        # count is exact on both paths.
        self._pending = {c.client_id: count_client_steps(c) for c in clients}
        return uploads

    def update_pooled(self, ids: Sequence[int], payload: Mapping) -> Dict[int, Mapping]:
        """Run ``ids`` on the process pool (built over the population on
        first use) against ``payload``, the round's one decoded dispatch: the
        pool ships it once through shared memory and every client gets its
        own copy worker-side."""
        if self._pool is None:
            from ..mp.pool import ProcessWorkerPool

            self._pool = ProcessWorkerPool(
                self.population, self.max_workers, client_batch=self.client_batch, ids=self._ids
            )
        uploads, steps, timings = self._pool.run_round(ids, payload)
        self._pending = steps
        # Worker-side timestamps; cohort members carry none (as on the
        # threaded path, one batched call covered them).
        tracer, monitor = current_tracer(), current_monitor()
        if tracer is not None or monitor is not None:
            for cid in ids:
                if cid in timings:
                    self._observe(tracer, monitor, cid, *timings[cid], backend="process")
        return {cid: uploads[cid] for cid in ids}

    def _update_each(self, clients, payloads) -> Dict[int, Mapping]:
        """Per-client updates, threaded when allowed.  With a tracer or
        monitor armed each update is timed in place (inside the worker
        thread) and its span emitted from this thread in client order —
        observing never changes execution order or results."""
        tracer, monitor = current_tracer(), current_monitor()
        observed = tracer is not None or monitor is not None
        if self.backend != "serial" and self.max_workers > 1 and len(clients) > 1:
            threads = self._threads.at_least(min(self.max_workers, len(clients)))
            if not observed:
                results = list(threads.map(lambda c: c.update(payloads[c.client_id]), clients))
                return {c.client_id: r for c, r in zip(clients, results)}
            timed = list(
                threads.map(lambda c: timed_call(c.update, payloads[c.client_id]), clients)
            )
        elif not observed:
            return {c.client_id: c.update(payloads[c.client_id]) for c in clients}
        else:
            # Lazy: each serial update's span lands right after it ran.
            timed = (timed_call(c.update, payloads[c.client_id]) for c in clients)
        uploads = {}
        for client, (upload, t0, t1) in zip(clients, timed):
            self._observe(tracer, monitor, client.client_id, t0, t1)
            uploads[client.client_id] = upload
        return uploads

    def _observe(self, tracer, monitor, cid, t0, t1, **extra) -> None:
        if tracer is not None:
            tracer.emit_span(
                "local_update", "client", t0, t1,
                lane=f"client:{cid}", client=cid, **self._labels, **extra,
            )
        if monitor is not None:
            monitor.observe_local_update(t1 - t0, client=cid)

    def settle(self, gathered) -> None:
        """Fold the latest update's step counts into :attr:`client_steps` for
        the *surviving* clients — those whose upload was gathered.  Clients
        dead-lettered on the uplink did compute, but the throughput metric
        counts aggregated work only."""
        self.client_steps += sum(self._pending.get(cid, 0) for cid in gathered)
        self._pending = {}

    # ------------------------------------------------------------ process pool
    def retire_pool(self) -> None:
        """Pull the workers' authoritative state home and discard the pool
        (:meth:`close`); the next pooled round rebuilds it from parent state.
        The retired workers' telemetry stays banked."""
        if self._pool is None:
            return
        try:
            self._pool.sync_parent()
        finally:
            if self._pool.telemetry.snapshot()["counters"]:
                if self._banked is None:
                    self._banked = MetricsRegistry()
                self._banked.merge(self._pool.telemetry)
            self._pool.close()
            self._pool = None

    def sync_parent(self) -> None:
        """Copy live workers' client state into the parent-side population
        (checkpoint capture); a no-op without a live pool."""
        if self._pool is not None:
            self._pool.sync_parent()

    def push_from_parent(self) -> None:
        """Copy parent-side client state into live workers (checkpoint
        restore); a no-op without a live pool."""
        if self._pool is not None:
            self._pool.push_from_parent()

    def worker_telemetry(self) -> List:
        """Worker-shipped metrics registries: what retired pools banked, then
        the live pool's.  Worker-labelled, so merging is collision-free."""
        live = self._pool.telemetry if self._pool is not None else None
        return [reg for reg in (self._banked, live) if reg is not None]

    def close(self) -> None:
        """Release the pools (rebuilt lazily if needed again).  Worker state
        is pulled home first, so a later round continues bitwise where this
        one stopped — exactly like the thread path."""
        self.retire_pool()
        self._threads.close()
