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
:class:`~repro.hier.edge.EdgeAggregator`), keeps what is the server's — the
finalize — and closes the round (evaluate, :class:`RoundResult`, history,
monitor) in the :class:`repro.core.phases.RoundLedger` every runner shares.
Its clients are one population (:mod:`repro.core.population`), eager or
store-backed alike.  *How* the local updates run (serial, thread pool,
process pool, stacked cohorts — all bitwise identical, uploads always
collected in client order) is :class:`repro.core.executor.LocalExecutor`'s
decision alone.

The runner also records wall-clock seconds per phase — ``broadcast``
(codec encode + downlink + client-side decode), ``local_update``, ``gather``
(codec encode + uplink), ``aggregate`` (server-side decode + global update),
and ``evaluate`` — cumulatively in :attr:`FederatedRunner.phase_seconds` and
per round on :attr:`RoundResult.phase_seconds`; ``perf/``'s
``runner.*_s`` layer metrics are these.

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
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import nn
from ..comm import Communicator, SerialCommunicator
from ..data import Dataset
from ..obs import current_tracer
from ..privacy import PrivacyAccountant
from .base import BaseClient, BaseServer
from .config import FLConfig
from .exchange import PacketExchange
from .executor import LocalExecutor
from .metrics import Evaluator
from .phases import PHASES, PhaseClock, RoundLedger, RoundResult, TrainingHistory, run_client_phases
from .population import build_server_and_factory

__all__ = [
    "PHASES",
    "RoundResult",
    "TrainingHistory",
    "FederatedRunner",
    "build_endpoints",
    "build_federation",
]


class FederatedRunner:
    """Runs the synchronous federated-learning loop.

    Clients are supplied either *eagerly* (``clients`` — the classic list of
    live :class:`BaseClient` instances) or *virtually* (``client_store`` — a
    :class:`repro.scale.ClientStateStore`); either way the runner holds one
    :attr:`population` (:mod:`repro.core.population`).  Each round checks
    clients out in waves of at most its ``live_cap``, runs their updates,
    encodes and ingests their uploads, and releases them, so a store's peak
    client-state memory is proportional to the cap, not the population; an
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
        # One codec pipeline for every exchange: FLConfig.codec is the single
        # source of truth, for the endpoints too (check_endpoints).
        self.exchange = PacketExchange(server.config.codec)
        #: the clients, eager or store-backed, behind one interface
        self.population = self.exchange.check_endpoints(clients, client_store, "the runner")
        #: the eager clients (empty for a store-backed runner)
        self.clients = list(clients or ())
        self._client_ids = list(self.population.ids)
        self.num_clients = len(self._client_ids)
        if server.num_clients != self.num_clients:
            raise ValueError("server.num_clients must match the number of clients")
        self.server = server
        self.communicator = communicator if communicator is not None else SerialCommunicator()
        self.evaluator = evaluator
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        self.history = TrainingHistory()
        #: runs the local updates (serial | thread | process | cohort) and
        #: owns the worker pools and the client-step accounting
        self.executor = LocalExecutor(
            server.config, self.exchange, self.population, max_workers=max_workers,
        )
        self.max_workers = self.executor.max_workers
        #: round accounting and close, shared with every other runner
        self.ledger = RoundLedger(self, {"flat": self.communicator})
        #: cumulative wall-clock seconds spent in each phase across all rounds
        self.phase_seconds = self.ledger.phase_seconds

    @property
    def client_steps(self) -> int:
        """Cumulative client optimizer steps across all rounds; with
        ``phase_seconds["local_update"]`` this yields the
        client_steps_per_sec throughput metric."""
        return self.executor.client_steps

    def run_round(self, round_idx: int) -> RoundResult:
        """Execute one communication round and return its metrics."""
        injector = self.communicator.injector
        ledger = self.ledger
        ledger.open_round(faulty=injector is not None)
        steps_before = self.client_steps
        clock = PhaseClock(ledger, "runner", round_idx)
        round_start = time.perf_counter()

        # The sink decodes each surviving upload exactly once (ingest).  A
        # plug-and-play server whose only customisation is the legacy
        # update() keeps the seed contract instead: it is handed the raw
        # uploads and decodes via ingest internally, so the override is never
        # bypassed.  Servers that absorb every upload inside ingest() ignore
        # finalize_round's payload dict — those stream, everyone else's
        # uploads are collected for the finish.
        server = self.server
        legacy = server.uses_legacy_update
        streaming = not legacy and server.absorbs_uploads
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
            population=self.population,
            sink=sink,
            accountant=self.accountant,
            on_wave=partial(clock.end_wave, self),
        )

        # Finish with whatever cohort survived the wire; a faulted round
        # that lost everyone keeps the current global.
        clock.begin("aggregate")
        if collected or streaming or injector is None:
            finish(collected)
        clock.end("aggregate")

        scores = ledger.evaluate(clock)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "round", "round", round_start, time.perf_counter(),
                lane="runner", round=round_idx, participants=len(participants),
            )
        return ledger.close_round(
            scores,
            sorted(participants),
            injector,
            round_idx=round_idx,
            population=self._client_ids,
            client_steps=self.client_steps - steps_before,
        )

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
    :func:`repro.asyncfl.build_async_federation`: every client of the
    population built by the :class:`~repro.core.population.ClientFactory` a
    store would materialise it with — one model per endpoint, synchronised to
    the server's initial parameters (the shared ``z^1`` of Algorithm 1), RNGs
    seeded ``seed + 1000 + client_id`` — so sync, async and store-backed runs
    over the same datasets start from bit-identical state.
    """
    server, factory = build_server_and_factory(config, model_fn, client_datasets, seed=seed)
    return server, [factory(cid) for cid in range(len(client_datasets))]


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
