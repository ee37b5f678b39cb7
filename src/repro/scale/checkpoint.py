"""Deterministic checkpoint/resume for federated runs.

:class:`RunCheckpoint` snapshots *everything* a run's future depends on —
server state (global vector, ADMM primal/dual replicas, ρ), every client's
persistent state (the population's ``checkpoint_state()``: the
:class:`~repro.scale.store.ClientStateStore` snapshot for virtual
populations, per-client :meth:`~repro.core.base.BaseClient.client_state`
trees for eager ones — see :mod:`repro.core.population`), the
privacy-accountant ledger, the recorded history, and — for event-driven runs
— the sampler RNG, the strategy's buffered uploads, the
:class:`~repro.asyncfl.events.EventLoop` clock/sequence/pending events, and
the runner's in-flight bookkeeping.  A run killed at round *k* (synchronous)
or after an arbitrary number of timeline events (asynchronous) and resumed
from its checkpoint produces a history **bitwise identical** to the
uninterrupted run (``tests/test_checkpoint.py``).

Hierarchical runs (:class:`repro.hier.runner.HierRunner`) checkpoint between
rounds as kind ``"hier"``: the root's state plus, per edge, the shard
server's state (dual replicas, ρ) and its client population (eager states or
the per-edge store snapshot) — resumed runs are bitwise identical too
(``tests/test_hier.py``).

Two invariants make the asynchronous case exact:

* before capture the runner is :meth:`~repro.asyncfl.runner.AsyncRunner.
  quiesce`\\ d — every pending ``compute_done`` event's local update is forced
  to completion and its result attached to the event, which is bit-identical
  to running it at pop time because client updates depend only on the
  dispatched payload snapshot and the client's own state (the eager
  thread-pool argument of PR 2);
* pending events keep their original ``(time, seq)`` pairs, so tie-breaking
  after resume is exactly the uninterrupted order.

Wall-clock ``phase_seconds`` are restored for reporting continuity but are
real-time measurements and naturally differ between runs; every *simulated*
quantity (virtual clock, comm bytes/seconds, round metrics) is exact.

The on-disk format is one :func:`repro.comm.serialization.encode_state_blob`
tree — the same machinery the store's eviction blobs use.
"""

from __future__ import annotations

import time
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional, Union

from ..comm.serialization import decode_state_blob, encode_state_blob
from ..core.phases import RoundResult, Runner, TrainingHistory
from ..obs import current_tracer

__all__ = [
    "RunCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "edge_slice_state",
    "restore_edge_slice",
]

_FORMAT = 1


def _history_state(history: TrainingHistory) -> list:
    names = [f.name for f in fields(RoundResult)]
    return [{name: getattr(r, name) for name in names} for r in history.rounds]


def _load_history(state) -> TrainingHistory:
    history = TrainingHistory()
    for row in state:
        row = dict(row)
        for field in ("participating_clients", "failed_clients", "recovered_edges"):
            if row.get(field) is not None:
                row[field] = tuple(int(c) for c in row[field])
        history.add(RoundResult(**row))
    return history


def _clients_state(owner, executors) -> Dict[str, object]:
    """Client-population state of a runner *or* a hier EdgeAggregator (both
    hold a ``population``).  ``executors`` are the owner's local-update
    executors (the event-driven runner has none): under
    execution_backend="process" their workers hold the authoritative client
    state between rounds — pulled home first so the snapshot covers what
    actually ran."""
    for executor in executors:
        executor.sync_parent()
    return owner.population.checkpoint_state()


def _restore_clients(owner, state, executors) -> None:
    owner.population.load_checkpoint_state(state)
    # Mirror the restored state back into any live process workers, so the
    # next pooled round resumes from the checkpoint bitwise.
    for executor in executors:
        executor.push_from_parent()


def edge_slice_state(edge) -> Dict[str, object]:
    """One edge's checkpoint slice: its shard server + client population.

    This is the unit :meth:`RunCheckpoint.restore_edge` (hier crash
    recovery) restores independently of the rest of the federation.
    """
    return {
        "server": edge.server.server_state(),
        "clients": _clients_state(edge, [edge.executor]),
    }


def restore_edge_slice(edge, state) -> None:
    """Load one :func:`edge_slice_state` tree back into ``edge``."""
    edge.server.load_server_state(state["server"])
    # The edge's working global is whatever its server last held
    # (the root broadcast it trained its previous round on).
    edge._global = edge.server.global_params
    edge.begin_collect()
    _restore_clients(edge, state["clients"], [edge.executor])


def _runner_kind(runner) -> str:
    """The checkpoint ``kind`` a runner declares."""
    if runner.checkpoint_kind is None:
        raise TypeError(
            f"checkpointing supports FederatedRunner, AsyncRunner, and the "
            f"synchronous HierRunner; got {type(runner).__name__}"
        )
    return runner.checkpoint_kind


class RunCheckpoint:
    """A captured run state; see the module docstring for what it contains.

    The canonical form is the serialized blob: :meth:`capture` encodes the
    runner's state *immediately*, so a checkpoint is frozen at its capture
    point even while the captured runner keeps running and mutating the very
    dicts/arrays the snapshot walked.  :attr:`payload` is a decoded (fresh,
    owned) view for inspection and restore.
    """

    def __init__(self, raw: bytes):
        self._raw = bytes(raw)
        self._payload: Optional[Dict[str, object]] = None

    @property
    def payload(self) -> Dict[str, object]:
        """The decoded checkpoint tree (arrays owned by this checkpoint)."""
        if self._payload is None:
            self._payload = decode_state_blob(self._raw)
        return self._payload

    # ----------------------------------------------------------------- capture
    @classmethod
    def capture(cls, runner) -> "RunCheckpoint":
        """Snapshot a :class:`FederatedRunner`, ``HierRunner`` or
        ``AsyncRunner`` in place.

        Safe points: between rounds for the synchronous runners (or at a
        hier round's start, before any shard loop ran); anywhere the event
        loop is not mid-``pop`` for the asynchronous one (e.g. after a
        ``run(..., max_events=N)`` return).  Capturing quiesces pending
        asynchronous local updates (see module docstring) but leaves the
        runner fully consistent — it may keep running afterwards (the
        snapshot is serialized at capture time, so later mutation of the
        runner cannot leak into it).
        """
        tick = time.perf_counter()
        config = runner.server.config
        kind = _runner_kind(runner)
        payload: Dict[str, object] = {
            "format": _FORMAT,
            "kind": kind,
            "meta": {
                "algorithm": config.algorithm,
                "codec": runner.exchange.spec,
                "dtype": config.dtype,
                "num_clients": runner.server.num_clients,
            },
            "server": runner.server.server_state(),
            "history": _history_state(runner.history),
            "accountant": runner.accountant.accountant_state(),
            "phase_seconds": dict(runner.phase_seconds),
        }
        if kind == "hier":
            # Safe points are between rounds (or at a hier round *start*,
            # before any shard loop ran): every edge's summary fold is then
            # empty, so shard-server state + client populations are the whole
            # story.  Per-edge stores snapshot like any other store.  A
            # mid-wave capture would silently lose the half-folded uploads
            # and the pinned clients' in-flight progress — reject it.
            for edge in runner.edges:
                pinned = edge.population.pinned_count
                if edge._participants or pinned:
                    raise RuntimeError(
                        f"cannot checkpoint a HierRunner mid-wave: edge "
                        f"{edge.edge_id} has "
                        f"{len(edge._participants)} half-folded uploads and "
                        f"{pinned} pinned clients; let run_round() finish (or "
                        f"capture before the shard loops start) so every edge's "
                        f"fold is empty"
                    )
            payload["meta"]["num_edges"] = len(runner.edges)  # type: ignore[index]
            payload["edges"] = {edge.edge_id: edge_slice_state(edge) for edge in runner.edges}
            payload["clients"] = {"mode": "hier"}
            return cls(cls._finish_capture(payload, kind, tick))
        if kind == "async":
            runner.quiesce()
            payload["async"] = {
                "async_server": runner.async_server.server_state(),
                "strategy": runner.strategy.strategy_state(),
                "sampler": runner.sampler.sampler_state(),
                **runner.timeline_state(),
            }
        # Clients last: the async quiesce above may advance client state.
        payload["clients"] = _clients_state(runner, runner.executors())
        return cls(cls._finish_capture(payload, kind, tick))

    @staticmethod
    def _finish_capture(payload: Dict[str, object], kind: str, tick: float) -> bytes:
        """Serialize the capture payload and, with a tracer armed, emit the
        ``checkpoint_capture`` span covering walk + encode."""
        raw = encode_state_blob(payload)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "checkpoint_capture", "checkpoint", tick, time.perf_counter(),
                lane="checkpoint", kind=kind, nbytes=len(raw),
            )
        return raw

    # ----------------------------------------------------------------- restore
    def restore(self, runner):
        """Load this checkpoint into a freshly built, equivalent runner.

        The runner must have been constructed with the same topology as the
        captured one (algorithm, codec stack, population size, strategy /
        sampler / device / link configuration); mismatches in the validated
        subset raise ``ValueError``.  Returns the runner.
        """
        tick = time.perf_counter()
        kind = _runner_kind(runner)
        if self.payload.get("format") != _FORMAT:
            raise ValueError(f"unsupported checkpoint format {self.payload.get('format')!r}")
        if self.payload["kind"] != kind:
            raise ValueError(f"checkpoint is {self.payload['kind']!r} but the runner is {kind!r}")
        meta = self.payload["meta"]
        config = runner.server.config
        observed = {
            "algorithm": config.algorithm,
            "codec": runner.exchange.spec,
            "dtype": config.dtype,
            "num_clients": runner.server.num_clients,
        }
        if kind == "hier":
            observed["num_edges"] = len(runner.edges)
        if dict(meta) != observed:
            raise ValueError(f"checkpoint meta {dict(meta)} does not match runner {observed}")

        runner.server.load_server_state(self.payload["server"])
        if kind == "hier":
            edges_state = self.payload["edges"]
            for edge in runner.edges:
                restore_edge_slice(edge, edges_state[edge.edge_id])
        else:
            _restore_clients(runner, self.payload["clients"], runner.executors())
        runner.history = _load_history(self.payload["history"])
        runner.accountant.load_accountant_state(self.payload["accountant"])
        runner.phase_seconds.update((k, float(v)) for k, v in self.payload["phase_seconds"].items())

        if kind == "async":
            state = self.payload["async"]
            runner.async_server.load_server_state(state["async_server"])
            runner.strategy.load_strategy_state(state["strategy"])
            runner.sampler.load_sampler_state(state["sampler"])
            runner.load_timeline_state(state)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "checkpoint_restore", "checkpoint", tick, time.perf_counter(),
                lane="checkpoint", kind=kind, nbytes=len(self._raw),
            )
        return runner

    def restore_edge(self, edge) -> None:
        """Restore one edge's slice of a ``"hier"`` checkpoint into ``edge``
        — the crash-recovery primitive: the rest of the federation keeps its
        live state and only the dead edge rolls back to the capture point.

        Decodes a fresh copy of the slice from the raw blob so repeated
        recoveries (or a recovery after the cached :attr:`payload` was handed
        to other code) never alias arrays already given out.
        """
        if self.payload["kind"] != "hier":
            raise ValueError(f"restore_edge needs a 'hier' checkpoint, got {self.payload['kind']!r}")
        fresh = decode_state_blob(self._raw)
        edges_state = fresh["edges"]
        if edge.edge_id not in edges_state:
            raise ValueError(f"checkpoint has no slice for edge {edge.edge_id}")
        restore_edge_slice(edge, edges_state[edge.edge_id])

    # -------------------------------------------------------------------- I/O
    def to_bytes(self) -> bytes:
        return self._raw

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RunCheckpoint":
        return cls(raw)

    @classmethod
    def save(cls, runner, path: Union[str, Path, None] = None) -> "RunCheckpoint":
        """Capture ``runner`` (and write the blob to ``path`` when given)."""
        ckpt = cls.capture(runner)
        if path is not None:
            Path(path).write_bytes(ckpt.to_bytes())
        return ckpt

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunCheckpoint":
        """Read a checkpoint blob written by :meth:`save`."""
        return cls.from_bytes(Path(path).read_bytes())


def save_checkpoint(runner, path: Union[str, Path]) -> RunCheckpoint:
    """Convenience wrapper: ``RunCheckpoint.save(runner, path)``."""
    return RunCheckpoint.save(runner, path)


def load_checkpoint(path: Union[str, Path], runner) -> Runner:
    """Convenience wrapper: load ``path`` and restore it into ``runner``."""
    return RunCheckpoint.load(path).restore(runner)
