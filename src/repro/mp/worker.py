"""Child-process entry point for :class:`~repro.mp.pool.ProcessWorkerPool`.

Each worker owns one contiguous shard of a client population — whatever
population's ``shard()`` it was handed at init (:mod:`repro.core.population`)
— and speaks a small message protocol over a duplex pipe:

========================  =====================================================
parent → worker           worker → parent
========================  =====================================================
``("init", spec)``        ``("ready",)``
``("round", ids, name,    ``("done", arena_name, manifest, scalars, steps,
manifest, scalars)``      timings, telemetry)``
``("pull",)``             ``("snapshot", population.snapshot())``
``("push", rows)``        ``("ok",)`` after ``population.restore(rows)``
``("stop",)``             *(exits)*
========================  =====================================================

``telemetry`` is this round's worker-side metrics delta — a
``MetricsRegistry.dump_state()`` labelled ``worker=<id>`` (CPU seconds,
peak RSS, shm attach/arena-generation counts, kernel-call counters, a
``local_update`` duration histogram) plus, when the spec opted in with
``profile=True``, the round's collapsed-stack ``cProfile`` capture of the
local-update section.  The parent merges deltas in worker-index order
(:class:`~repro.mp.pool.ProcessWorkerPool` holds the merged registry), so
the combined telemetry is deterministic for a deterministic schedule.

Any handler failure replies ``("err", traceback_str)`` and keeps the loop
alive so the parent can decide what to do.

The worker mirrors the runners' round exactly: it checks its clients out in
waves of its population's ``live_cap`` (one wave for an eager shard), and with
``client_batch > 1`` eligible clients run as stacked cohorts through
:func:`repro.core.batched.run_batched_updates` (untraced — cohort spans are
a documented loss of the process backend), and everything else runs the
per-client path under :func:`repro.obs.timed_call` so the parent can emit
``local_update`` spans with honest worker-side timestamps.

Broadcast payloads arrive as read-only views of the parent's shared segment;
each client receives its own fresh copy, matching the per-client isolation
:meth:`~repro.comm.exchange.PacketExchange.open_dispatch` provides on the
serial path.  Uploads go back through the worker-owned arena — arrays are
packed under ``"{cid}|{key}"`` keys (no packet key contains ``"|"``), and
non-array payload entries travel over the pipe in ``scalars``.
"""

from __future__ import annotations

import copy
import cProfile
import time
import traceback
from typing import Dict, List, Tuple

import numpy as np

from ..core.batched import count_client_steps, run_batched_updates
from ..nn.functional import kernel_call_counts
from ..obs import timed_call
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import collapse_profile
from .shm import ShmArena, ShmAttachment, live_arena_stats

__all__ = ["worker_main"]


def _peak_rss_bytes() -> int:
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return int(usage) * (1 if usage > 1 << 32 else 1024)
    except Exception:  # pragma: no cover - resource is POSIX-only
        return 0


class _WorkerState:
    """Everything one worker holds between messages."""

    def __init__(self, spec: Dict[str, object], worker_id: int = 0):
        self.worker_id = int(worker_id)
        self.client_batch = int(spec.get("client_batch", 1))
        self.profile = bool(spec.get("profile", False))
        self.arena = ShmArena(str(spec["prefix"]))
        self.attachment = ShmAttachment()
        self.population = spec["population"]

    # ------------------------------------------------------------- execution
    def _run_clients(self, clients, received, uploads, steps, timings):
        """The runners' shared gate, replayed worker-side."""
        remaining = list(clients)
        if self.client_batch > 1 and len(remaining) > 1:
            batched = run_batched_updates(
                remaining, received, self.client_batch, tracer=None
            )
            if batched is not None:
                cohort_uploads, leftover, _total = batched
                uploads.update(cohort_uploads)
                remaining = leftover
        for client in remaining:
            upload, t0, t1 = timed_call(client.update, received[client.client_id])
            uploads[client.client_id] = upload
            timings[client.client_id] = (t0, t1)
        for client in clients:
            steps[client.client_id] = count_client_steps(client)

    def run_round(self, ids, bcast_name, bcast_manifest, bcast_scalars):
        cpu0 = time.process_time()
        kernels0 = kernel_call_counts()
        shm0 = live_arena_stats()
        generation0 = self.arena.generation
        template = self.attachment.view(bcast_name, bcast_manifest, copy=False)
        # Fresh per-client copies, matching open_dispatch's per-client
        # isolation on the serial path.
        received = {
            cid: {
                **{k: np.array(v, copy=True) for k, v in template.items()},
                **copy.deepcopy(bcast_scalars),
            }
            for cid in ids
        }
        uploads: Dict[int, Dict[str, object]] = {}
        steps: Dict[int, int] = {}
        timings: Dict[int, Tuple[float, float]] = {}
        profile = cProfile.Profile() if self.profile else None
        if profile is not None:
            profile.enable()
        try:
            # Wave through the shard at this worker's live_cap, exactly as
            # the parent's round would through the population.
            population = self.population
            cap = population.live_cap
            for start in range(0, len(ids), cap):
                wave = list(ids[start : start + cap])
                clients = [population.checkout(cid) for cid in wave]
                try:
                    self._run_clients(clients, received, uploads, steps, timings)
                finally:
                    for cid in wave:
                        population.release(cid)
        finally:
            if profile is not None:
                profile.disable()

        arrays: List[Tuple[str, np.ndarray]] = []
        scalars: Dict[int, Dict[str, object]] = {}
        for cid in ids:
            for key, value in uploads[cid].items():
                if isinstance(value, np.ndarray):
                    arrays.append((f"{cid}|{key}", value))
                else:
                    scalars.setdefault(cid, {})[key] = value
        name, manifest = self.arena.pack(arrays)
        telemetry = self._round_telemetry(
            ids, steps, timings, cpu0, kernels0, shm0, generation0, profile
        )
        return name, manifest, scalars, steps, timings, telemetry

    def _round_telemetry(
        self, ids, steps, timings, cpu0, kernels0, shm0, generation0, profile
    ) -> Dict[str, object]:
        """This round's worker-side metrics delta (see module docstring)."""
        reg = MetricsRegistry()
        label = {"worker": self.worker_id}
        reg.counter("worker_cpu_seconds", **label).inc(time.process_time() - cpu0)
        reg.counter("worker_rounds", **label).inc(1)
        reg.counter("worker_client_updates", **label).inc(len(ids))
        reg.counter("worker_client_steps", **label).inc(sum(steps.values()))
        shm1 = live_arena_stats()
        reg.counter("worker_shm_attaches", **label).inc(
            shm1["attaches"] - shm0["attaches"]
        )
        reg.counter("worker_arena_generations", **label).inc(
            self.arena.generation - generation0
        )
        reg.gauge("worker_shm_bytes", **label).set(float(shm1["bytes"]))
        reg.gauge("worker_peak_rss_bytes", **label).set(float(_peak_rss_bytes()))
        for kernel, count in sorted(kernel_call_counts().items()):
            delta = count - kernels0.get(kernel, 0)
            if delta:
                reg.counter("worker_kernel_calls", kernel=kernel, **label).inc(delta)
        hist = reg.histogram("worker_local_update_seconds", **label)
        for t0, t1 in timings.values():
            hist.observe(t1 - t0)
        folded = collapse_profile(profile) if profile is not None else None
        return {"state": reg.dump_state(), "profile": folded}

    def close(self) -> None:
        self.attachment.close()
        self.arena.close()


def worker_main(conn, worker_id: int) -> None:
    """Blocking message loop; runs until ``("stop",)`` or EOF."""
    state: _WorkerState | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            try:
                if op == "init":
                    state = _WorkerState(msg[1], worker_id)
                    conn.send(("ready",))
                elif op == "round":
                    assert state is not None
                    conn.send(
                        ("done",) + state.run_round(msg[1], msg[2], msg[3], msg[4])
                    )
                elif op == "pull":
                    assert state is not None
                    conn.send(("snapshot", state.population.snapshot()))
                elif op == "push":
                    assert state is not None
                    state.population.restore(msg[1])
                    conn.send(("ok",))
                elif op == "stop":
                    conn.send(("ok",))
                    break
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    finally:
        if state is not None:
            state.close()
        conn.close()
