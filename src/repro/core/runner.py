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
:class:`FederatedRunner` inherits its lifecycle and its round skeleton from
:class:`repro.core.phases.Runner` and keeps only the round's body: it hands
the client side of the round — dispatch, local updates, gather, ingest — to
:func:`repro.core.phases.run_client_phases` (the loop shared with
:class:`~repro.hier.edge.EdgeAggregator`) and keeps what is the server's —
the finalize.  The round closes (evaluate, :class:`RoundResult`, history,
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

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import nn
from ..comm import Communicator, SerialCommunicator
from ..data import Dataset
from ..privacy import PrivacyAccountant
from .base import BaseClient, BaseServer
from .config import FLConfig
from .exchange import PacketExchange
from .executor import LocalExecutor
from .metrics import Evaluator
from .phases import PHASES, PhaseClock, RoundResult, Runner, TrainingHistory, run_client_phases
from .population import build_server_and_factory

__all__ = [
    "PHASES",
    "RoundResult",
    "TrainingHistory",
    "FederatedRunner",
    "build_endpoints",
    "build_federation",
]


class FederatedRunner(Runner):
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

    checkpoint_kind = "sync"

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
        self.communicator = communicator if communicator is not None else SerialCommunicator()
        super().__init__(server, evaluator, accountant, {"flat": self.communicator})
        #: runs the local updates (serial | thread | process | cohort) and
        #: owns the worker pools and the client-step accounting
        self.executor = LocalExecutor(
            server.config, self.exchange, self.population, max_workers=max_workers,
        )
        self.max_workers = self.executor.max_workers

    @property
    def injector(self):
        """The fault layer armed on the communicator (``None``: fault-free)."""
        return self.communicator.injector

    def executors(self) -> List[LocalExecutor]:
        return [self.executor]

    def _round_body(self, clock: PhaseClock, round_idx: int):
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
        if collected or streaming or self.injector is None:
            finish(collected)
        clock.end("aggregate")
        return participants, {"participants": len(participants)}


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
