"""Federated training orchestration.

:class:`FederatedRunner` drives the client-server loop of Figure 1: every
round the server's global model is broadcast to all clients, each client runs
its (customisable) local update, the local models are gathered back through
the configured communicator, and the server runs its (customisable) global
update.  An optional evaluator scores the global model on server-side test
data after every round.

:func:`build_federation` is the convenience constructor used by the examples
and benchmarks: it instantiates the registered server/client classes for a
named algorithm over a list of client datasets.

Architecture & performance
--------------------------
:meth:`FederatedRunner.run_round` is the one synchronous round body: it hands
the client side of the round — dispatch, local updates, gather, ingest — to
:func:`repro.core.phases.run_client_phases` (the loop shared with
:class:`~repro.hier.edge.EdgeAggregator`) and keeps what is the server's:
finalize, evaluate, and the :class:`RoundResult`.  *How* the local updates
run (serial, thread pool, process pool, stacked cohorts — all bitwise
identical, uploads always collected in client order) is
:class:`repro.core.executor.LocalExecutor`'s decision alone.

The runner also records wall-clock seconds per phase — ``broadcast``
(codec encode + downlink + client-side decode), ``local_update``, ``gather``
(codec encode + uplink), ``aggregate`` (server-side decode + global update),
and ``evaluate`` — cumulatively in :attr:`FederatedRunner.phase_seconds` and
per round on :attr:`RoundResult.phase_seconds`;
``benchmarks/bench_hotpath.py`` turns these into the repo's rounds/sec
trajectory.

Wire codecs
-----------
Every model exchange flows through one :class:`~repro.core.exchange.
PacketExchange` (selected by ``FLConfig.codec``): the broadcast payload is
encoded into a single :class:`~repro.comm.codecs.UpdatePacket`, the
communicator charges its measured post-codec ``nbytes``, each client decodes
its own copy, uploads are encoded against the dispatched global (the
delta-codec reference) and decoded exactly once inside
:meth:`BaseServer.ingest`.  ``codec="identity"`` (the default) is bit-for-bit
the pre-codec behaviour, including the reported communication volume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..comm import Communicator, SerialCommunicator
from ..data import Dataset
from ..obs import current_monitor, current_tracer
from ..privacy import PrivacyAccountant
from .base import BaseClient, BaseServer
from .config import FLConfig
from .exchange import PacketExchange
from .executor import LocalExecutor
from .metrics import Evaluator
from .phases import PHASES, PhaseClock, run_client_phases
from .registry import get_algorithm

__all__ = [
    "PHASES",
    "RoundResult",
    "TrainingHistory",
    "FederatedRunner",
    "build_endpoints",
    "build_federation",
]

@dataclass(frozen=True)
class RoundResult:
    """Metrics recorded after one communication round."""

    round: int
    test_accuracy: Optional[float]
    test_loss: Optional[float]
    comm_bytes: int
    comm_seconds: float
    #: wall-clock seconds per phase of this round (broadcast, local_update,
    #: gather, aggregate, evaluate); ``None`` for externally built results.
    phase_seconds: Optional[Dict[str, float]] = None
    #: *simulated* wall-clock seconds at which this round completed on the
    #: asyncfl virtual clock; ``None`` for the real-time synchronous runner.
    wall_clock_seconds: Optional[float] = None
    #: ids of the clients whose updates were aggregated this round; ``None``
    #: for externally built results.
    participating_clients: Optional[Tuple[int, ...]] = None
    #: per-tier on-wire bytes of a hierarchical round (keys "client_edge" and
    #: "edge_root", summing to ``comm_bytes``); ``None`` for flat runs.
    comm_bytes_by_tier: Optional[Dict[str, int]] = None
    #: ids of clients that failed this round (crashed, or unreachable after
    #: the retry budget); ``None`` when fault injection is not active.
    failed_clients: Optional[Tuple[int, ...]] = None
    #: number of faulted transfer attempts this round (each implies a retry
    #: or a dead letter); ``None`` when fault injection is not active.
    retries: Optional[int] = None
    #: ids of edges killed and recovered during this round (hier runs);
    #: ``None`` when fault injection is not active.
    recovered_edges: Optional[Tuple[int, ...]] = None
    #: client optimizer steps executed this round (the unit of the
    #: ``client_steps_per_sec`` throughput metric; see
    #: :func:`repro.core.batched.count_client_steps`); ``None`` for
    #: externally built results and pre-existing checkpoints.
    client_steps: Optional[int] = None


@dataclass
class TrainingHistory:
    """Per-round metrics of one federated run."""

    rounds: List[RoundResult] = field(default_factory=list)

    def add(self, result: RoundResult) -> None:
        self.rounds.append(result)

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.test_accuracy for r in self.rounds if r.test_accuracy is not None])

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.test_loss for r in self.rounds if r.test_loss is not None])

    @property
    def final_accuracy(self) -> Optional[float]:
        acc = self.accuracies
        return float(acc[-1]) if len(acc) else None

    @property
    def best_accuracy(self) -> Optional[float]:
        acc = self.accuracies
        return float(acc.max()) if len(acc) else None

    def total_comm_bytes(self) -> int:
        return int(sum(r.comm_bytes for r in self.rounds))


class FederatedRunner:
    """Runs the synchronous federated-learning loop.

    Clients are supplied either *eagerly* (``clients`` — the classic list of
    live :class:`BaseClient` instances) or *virtually* (``client_store`` — a
    :class:`repro.scale.ClientStateStore`): each round then materialises
    clients in waves of at most ``live_cap``, runs their updates, encodes and
    ingests their uploads, and releases them back to the store, so peak
    client-state memory is proportional to the cap, not the population.  An
    eager population is the same round with one wave of everyone.
    ADMM-family servers (which absorb per-upload state in ``ingest`` and
    ignore the finalize payloads) stream; FedAvg-style servers accumulate the
    decoded uploads (one flat vector per client) until ``finalize_round``.
    With the default :class:`~repro.comm.serial.SerialCommunicator`, the
    store-backed history is bit-identical to the eager one (contention-aware
    communicators charge per-``collect`` congestion, which a waved gather
    necessarily sees differently).
    """

    def __init__(
        self,
        server: BaseServer,
        clients: Optional[Sequence[BaseClient]] = None,
        communicator: Optional[Communicator] = None,
        evaluator: Optional[Evaluator] = None,
        accountant: Optional[PrivacyAccountant] = None,
        max_workers: Optional[int] = None,
        client_store=None,
    ):
        if (clients is None or not list(clients)) and client_store is None:
            raise ValueError("at least one client is required")
        if clients and client_store is not None:
            raise ValueError("pass either clients or client_store, not both")
        self._store = client_store
        self.clients = list(clients) if clients else []
        self._client_by_id = {c.client_id: c for c in self.clients}
        self._client_ids = (
            list(range(client_store.num_clients)) if client_store is not None else list(self._client_by_id)
        )
        self.num_clients = len(self._client_ids)
        if server.num_clients != self.num_clients:
            raise ValueError("server.num_clients must match the number of clients")
        self.server = server
        self.communicator = communicator if communicator is not None else SerialCommunicator()
        # One codec pipeline for every exchange.  FLConfig.codec is the single
        # source of truth: clients derive their lossy-wire bookkeeping (e.g.
        # IIADMM's reconcile stash) from the same config, so a mismatched
        # client codec would silently break those invariants — fail fast.
        self.exchange = PacketExchange(server.config.codec)
        store_config = getattr(client_store, "config", None)
        endpoint_codecs = [c.config.codec for c in self.clients]
        if store_config is not None:
            endpoint_codecs.append(store_config.codec)
        for codec in endpoint_codecs:
            if PacketExchange(codec).spec != self.exchange.spec:
                raise ValueError(
                    f"an endpoint was built with codec {codec!r} but the server "
                    f"config uses {server.config.codec!r}; all endpoints must "
                    f"share one codec stack"
                )
        self.evaluator = evaluator
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        self.history = TrainingHistory()
        #: runs the local updates (serial | thread | process | cohort) and
        #: owns the worker pools and the client-step accounting
        self.executor = LocalExecutor(
            server.config, self.exchange, clients=self.clients, store=client_store,
            max_workers=max_workers,
        )
        self.max_workers = self.executor.max_workers
        #: cumulative wall-clock seconds spent in each phase across all rounds
        self.phase_seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}

    @property
    def client_steps(self) -> int:
        """Cumulative client optimizer steps across all rounds; with
        ``phase_seconds["local_update"]`` this yields the
        client_steps_per_sec throughput metric."""
        return self.executor.client_steps

    def run_round(self, round_idx: int) -> RoundResult:
        """Execute one communication round and return its metrics."""
        store = self._store
        injector = self.communicator.injector
        log = self.communicator.log
        bytes_before = self.communicator.total_bytes()
        seconds_before = log.total_seconds()
        faulted_before = log.failed_attempts() if injector is not None else 0
        steps_before = self.client_steps
        timings: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        clock = PhaseClock(timings, round_idx, "runner")
        round_start = time.perf_counter()

        # The sink decodes each surviving upload exactly once (ingest).  A
        # plug-and-play server whose only customisation is the legacy
        # update() keeps the seed contract instead: it is handed the raw
        # uploads and decodes via ingest internally, so the override is never
        # bypassed.  Servers exposing aggregate_global() absorb every upload
        # inside ingest() and ignore finalize_round's payload dict — those
        # stream, everyone else's uploads are collected for the finish.
        server = self.server
        legacy = server.uses_legacy_update
        streaming = not legacy and hasattr(server, "aggregate_global")
        finish = server.update if legacy else server.finalize_round
        collected: Dict[int, object] = {}

        def sink(cid, packet, dispatched_global) -> None:
            upload = packet if legacy else server.ingest(cid, packet, dispatched_global)
            if not streaming:
                collected[cid] = upload

        participants = run_client_phases(
            executor=self.executor,
            exchange=self.exchange,
            communicator=self.communicator,
            clock=clock,
            round_idx=round_idx,
            ids=self._client_ids,
            payload=server.broadcast_payload(),
            wave=store.live_cap if store is not None else self.num_clients,
            acquire=store.checkout if store is not None else self._client_by_id.__getitem__,
            release=store.release if store is not None else None,
            sink=sink,
            accountant=self.accountant,
            on_wave=partial(clock.end_wave, self) if store is not None else None,
        )

        # Finish with whatever cohort survived the wire; a faulted round
        # that lost everyone keeps the current global.
        clock.begin("aggregate")
        if collected or streaming or injector is None:
            finish(collected)
        clock.end("aggregate")

        accuracy = loss = None
        clock.begin("evaluate")
        if self.evaluator is not None:
            server.sync_model()
            accuracy, loss = self.evaluator(server.model)
        clock.end("evaluate")

        for phase, seconds in timings.items():
            self.phase_seconds[phase] += seconds
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "round", "round", round_start, time.perf_counter(),
                lane="runner", round=round_idx, participants=len(participants),
            )

        faulty = injector is not None
        result = RoundResult(
            round=round_idx,
            test_accuracy=accuracy,
            test_loss=loss,
            comm_bytes=self.communicator.total_bytes() - bytes_before,
            comm_seconds=log.total_seconds() - seconds_before,
            phase_seconds=timings,
            participating_clients=tuple(sorted(participants)),
            failed_clients=(
                tuple(sorted(set(self._client_ids) - set(participants))) if faulty else None
            ),
            retries=(log.failed_attempts() - faulted_before) if faulty else None,
            client_steps=self.client_steps - steps_before,
        )
        self.history.add(result)
        monitor = current_monitor()
        if monitor is not None:
            monitor.on_round(self, result)
        return result

    def close(self) -> None:
        """Release the worker pools (recreated lazily if needed again); see
        :meth:`LocalExecutor.close`."""
        self.executor.close()

    def __enter__(self) -> "FederatedRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def run(self, num_rounds: Optional[int] = None, callback: Optional[Callable[[RoundResult], None]] = None) -> TrainingHistory:
        """Run ``num_rounds`` further rounds (default: the config's ``num_rounds``).

        Round indices continue from the recorded history, so a second ``run``
        call — or a run resumed from a :class:`repro.scale.RunCheckpoint` —
        numbers its rounds exactly as one uninterrupted run would.
        """
        total = num_rounds if num_rounds is not None else self.server.config.num_rounds
        start = len(self.history)
        try:
            for t in range(start, start + total):
                result = self.run_round(t)
                if callback is not None:
                    callback(result)
        finally:
            self.close()
        return self.history


def build_endpoints(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    seed: Optional[int] = None,
) -> Tuple[BaseServer, List[BaseClient]]:
    """Instantiate the registered server and clients for a named algorithm.

    This is the construction shared by :func:`build_federation` and
    :func:`repro.asyncfl.build_async_federation`: one model per endpoint, all
    synchronised to the server's initial parameters (the shared ``z^1`` of
    Algorithm 1), and per-client RNGs seeded ``seed + 1000 + client_id`` — so
    a sync and an async run over the same datasets start from bit-identical
    state.
    """
    seed = config.seed if seed is None else seed
    server_cls, client_cls = get_algorithm(config.algorithm)

    server_model = model_fn()
    initial_state = server_model.state_dict()
    sample_counts = [len(d) for d in client_datasets]
    server = server_cls(server_model, config, num_clients=len(client_datasets), client_sample_counts=sample_counts)

    clients = []
    for cid, dataset in enumerate(client_datasets):
        model = model_fn()
        model.load_state_dict(initial_state)
        clients.append(
            client_cls(cid, model, dataset, config, rng=np.random.default_rng(seed + 1000 + cid))
        )
    return server, clients


def build_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    test_dataset: Optional[Dataset] = None,
    communicator: Optional[Communicator] = None,
    seed: Optional[int] = None,
) -> FederatedRunner:
    """Construct a :class:`FederatedRunner` for a named algorithm.

    Parameters
    ----------
    config:
        Run configuration; ``config.algorithm`` selects the registered
        server/client classes.
    model_fn:
        Zero-argument factory producing a fresh model.  It is called once for
        the server and once per client; all copies are synchronised to the
        server's initial parameters (the shared ``z^1`` of Algorithm 1).
    client_datasets:
        One private dataset per client.
    test_dataset:
        Optional server-side test data for the validation routine.
    """
    server, clients = build_endpoints(config, model_fn, client_datasets, seed=seed)
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return FederatedRunner(server, clients, communicator=communicator, evaluator=evaluator)
