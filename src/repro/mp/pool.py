"""Parent side of the process execution backend: :class:`ProcessWorkerPool`.

The pool owns ``num_workers`` spawn-context child processes, each holding one
contiguous shard of a client population (cut by
:func:`repro.hier.topology.contiguous_shards` — the same ``np.array_split``
blocking as edge sharding).  Per round, the parent packs the broadcast
payload **once** into a shared-memory arena, every worker maps it read-only,
runs its shard's local updates (per-client or as stacked cohorts, mirroring
the runners' ``client_batch`` gate), and writes upload arrays into its own
arena slot; the parent maps them back as zero-copy read-only views.

Because each client's ``update()`` is a deterministic function of its own
state and the (bitwise-shared) broadcast vector, and because the caller
folds uploads through :class:`~repro.core.partial.ExactPartial`, the
grouping into processes is invisible: a process run is bitwise identical to
the serial run.  The pool guarantees the state side of that contract through
the population interface (:mod:`repro.core.population`), whatever the
population's kind: each worker receives the population's
``shard(ids, num_workers)`` at init, and :meth:`sync_parent` /
:meth:`push_from_parent` move ``snapshot()`` rows across the boundary
bit-exactly for checkpoints, inspection, and shutdown.

Everything shipped at init must pickle: an eager shard travels as
``(type, model, dataset, config, cid, client_state())`` tuples (the flat
engine re-homes parameters on reconstruction, so view aliasing survives the
trip), a store shard as its factory and blobs.  Closure factories and lambda
``model_fn``s don't pickle — :class:`repro.scale.virtual.ClientFactory` and
:class:`repro.core.models.SeededModelFn` are the picklable equivalents.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hier.topology import contiguous_shards
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import current_profiler
from .shm import ShmArena, ShmAttachment

__all__ = ["ProcessWorkerPool"]

#: Monotone pool counter — keeps arena names unique when one process builds
#: several pools (runner + edges, or sequential runs).
_POOL_SEQ = 0


class ProcessWorkerPool:
    """A pool of spawn-context worker processes owning shards of one
    population.

    ``ids`` (default: the population's) are split into ``num_workers``
    contiguous shards — an edge narrows its store's global ids to its own.
    Drive with :meth:`run_round`; keep the parent authoritative with
    :meth:`sync_parent` (workers → parent) and :meth:`push_from_parent`
    (parent → workers); :meth:`close` tears everything down (arenas
    unlinked, children joined).
    """

    def __init__(self, population, num_workers: int, client_batch: int = 1, ids=None):
        global _POOL_SEQ
        _POOL_SEQ += 1
        self.population = population
        self.shards: Tuple[Tuple[int, ...], ...] = contiguous_shards(
            population.ids if ids is None else ids, num_workers
        )
        self.num_workers = len(self.shards)
        # Workers inherit the context profiler's local-update opt-in; their
        # folded stacks come back through the result channel.
        profiler = current_profiler()
        specs = [
            {
                "client_batch": int(client_batch),
                "profile": profiler is not None and profiler.wants("local_update"),
                "population": population.shard(shard, self.num_workers),
            }
            for shard in self.shards
        ]
        #: Worker-shipped metrics deltas, merged in worker-index order each
        #: round — deterministic for a deterministic schedule.
        self.telemetry = MetricsRegistry()
        self._prefix = f"rpmp{os.getpid()}x{_POOL_SEQ}"
        self._bcast = ShmArena(f"{self._prefix}b")
        self._attachment = ShmAttachment()
        self._ctx = mp.get_context("spawn")
        self._procs = []
        self._conns = []
        try:
            from .worker import worker_main

            for w, spec in enumerate(specs):
                spec["prefix"] = f"{self._prefix}w{w}"
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=worker_main, args=(child_conn, w), daemon=True,
                    name=f"repro-mp-{w}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for w, spec in enumerate(specs):
                try:
                    self._conns[w].send(("init", spec))
                except Exception as exc:
                    raise RuntimeError(
                        "could not ship worker init state to a spawned process — "
                        "everything the process backend ships must be picklable "
                        "(use repro.scale.virtual.ClientFactory / "
                        "repro.core.models.SeededModelFn instead of closures "
                        f"or lambdas): {exc}"
                    ) from exc
            for w in range(len(specs)):
                self._expect(w, "ready")
        except BaseException:
            self.close()
            raise

    # --------------------------------------------------------------- messaging
    def _expect(self, w: int, op: str):
        try:
            reply = self._conns[w].recv()
        except EOFError:
            raise RuntimeError(
                f"process worker {w} died (pipe closed); check stderr for the "
                f"child traceback"
            ) from None
        if reply[0] == "err":
            raise RuntimeError(f"process worker {w} failed:\n{reply[1]}")
        if reply[0] != op:
            raise RuntimeError(f"process worker {w}: expected {op!r}, got {reply[0]!r}")
        return reply[1:]

    # ---------------------------------------------------------------- rounds
    def run_round(self, ids: Sequence[int], payload: Mapping[str, object]):
        """Run one round's local updates for ``ids`` across the workers.

        ``payload`` is the round's one decoded dispatch, shipped once through
        shared memory; each worker hands every client its own fresh copy.
        Returns ``(uploads, steps, timings)`` keyed by client id — upload
        arrays are read-only shared-memory views valid until the next
        ``run_round``/``close``; ``timings`` holds worker-side ``(t0, t1)``
        perf-counter pairs for per-client-path updates (cohort members have
        no per-client span, as on the threaded path they share one
        ``cohort_step``).
        """
        arrays = [(k, v) for k, v in payload.items() if isinstance(v, np.ndarray)]
        scalars = {k: v for k, v in payload.items() if not isinstance(v, np.ndarray)}
        name, manifest = self._bcast.pack(arrays)

        members = [set(shard) for shard in self.shards]
        sent: List[int] = []
        for w in range(self.num_workers):
            worker_ids = [cid for cid in ids if cid in members[w]]
            if worker_ids:
                self._conns[w].send(("round", worker_ids, name, manifest, scalars))
                sent.append(w)
        uploads: Dict[int, Dict[str, object]] = {}
        steps: Dict[int, int] = {}
        timings: Dict[int, Tuple[float, float]] = {}
        for w in sent:
            up_name, up_manifest, up_scalars, w_steps, w_timings, w_telemetry = (
                self._expect(w, "done")
            )
            self._absorb_telemetry(w, w_telemetry)
            views = self._attachment.view(up_name, up_manifest, copy=False)
            for flat_key, arr in views.items():
                cid_str, key = flat_key.split("|", 1)
                uploads.setdefault(int(cid_str), {})[key] = arr
            for cid, extra in up_scalars.items():
                uploads.setdefault(cid, {}).update(extra)
            steps.update(w_steps)
            timings.update(w_timings)
        missing = [cid for cid in ids if cid not in uploads]
        if missing:
            raise RuntimeError(f"process workers returned no upload for clients {missing}")
        return uploads, steps, timings

    def _absorb_telemetry(self, w: int, telemetry: Optional[Mapping]) -> None:
        """Fold one worker's round delta into the pool registry/profiler.

        Called in worker-index order from :meth:`run_round`; registry
        merging is order-deterministic, so two identical runs produce the
        identical merged telemetry.
        """
        if not telemetry:
            return
        state = telemetry.get("state")
        if state:
            self.telemetry.merge(state)
        folded = telemetry.get("profile")
        if folded:
            profiler = current_profiler()
            if profiler is not None:
                profiler.add_folded("local_update", folded, root=f"worker:{w}")

    # ----------------------------------------------------------- state traffic
    def sync_parent(self) -> None:
        """Pull authoritative state out of the workers into the parent-side
        population (checkpoint capture, shutdown, inspection): the workers'
        snapshot rows together cover every pooled client."""
        for conn in self._conns:
            conn.send(("pull",))
        merged: Dict[str, Dict[int, object]] = {}
        for w in range(self.num_workers):
            (snapshot,) = self._expect(w, "snapshot")
            for table, rows in snapshot.items():
                merged.setdefault(table, {}).update(rows)
        self.population.restore(merged)

    def push_from_parent(self) -> None:
        """Push parent-side state down into the workers (checkpoint restore):
        each worker restores its shard's rows of the population snapshot."""
        snapshot = self.population.snapshot()
        for w, shard in enumerate(self.shards):
            members = set(shard)
            rows = {
                table: {cid: row for cid, row in table_rows.items() if cid in members}
                for table, table_rows in snapshot.items()
            }
            self._conns[w].send(("push", rows))
        for w in range(self.num_workers):
            self._expect(w, "ok")

    # ----------------------------------------------------------------- teardown
    def close(self) -> None:
        """Stop the workers, join them, and release every shared segment."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._attachment.close()
        self._bcast.close()
        self._procs = []
        self._conns = []
