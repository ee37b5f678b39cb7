"""Event-driven federated training on a virtual clock.

:class:`AsyncRunner` is the asynchronous counterpart of
:class:`repro.core.runner.FederatedRunner`.  Instead of lock-stepped rounds it
simulates a timeline: every dispatched client pays a download latency (its
:class:`repro.comm.latency.LinkModel`), a compute time (its
:class:`repro.simulator.device.DeviceSpec` under the
:class:`~repro.simulator.device.LocalUpdateCostModel`, inflated by any
sampler-injected straggler slowdown), and an upload latency — and the server
reacts to upload *arrivals* through an :class:`repro.asyncfl.strategies.
AsyncServer` (FedAsync mixing, FedBuff buffering, or sampled synchronous
rounds).  The result is wall-clock-to-accuracy, not just rounds-to-accuracy.

What happens to one client between dispatch and ingest is
:class:`repro.asyncfl.flight.ClientFlights` (shared with the hierarchical
actors); the runner keeps what is its own — which client fills a freed slot
(the sampler), when a cohort restarts, and :meth:`AsyncRunner.quiesce`.
Dispatches and uploads are :class:`~repro.comm.codecs.UpdatePacket` objects
of the same codec-aware :class:`~repro.core.exchange.PacketExchange` as the
synchronous runner, and both link latencies and ``comm_bytes`` are charged
from each packet's measured post-codec ``nbytes`` — so a compressing
``FLConfig.codec`` directly shortens the simulated timeline.

Determinism and sync equivalence
--------------------------------
Events are processed in ``(virtual time, schedule order)`` order; all events
sharing the current virtual time are drained before any freed dispatch slot is
refilled, so an aggregation triggered by the last simultaneous arrival is
visible to every replacement download.  Client updates only depend on the
dispatched payload snapshot and the client's own state, so they may execute
eagerly on a thread pool (``FLConfig.parallel_clients``) without changing a
single bit of the history.  Consequently, with full participation, zero-cost
links, identical devices, and ``FedBuffStrategy(buffer_size=num_clients)``,
the produced :class:`~repro.core.runner.TrainingHistory` is bit-for-bit the
synchronous :class:`FederatedRunner`'s.

The runner inherits ``FederatedRunner``'s API (``history``,
``phase_seconds``, ``close()``, context management) from the
:class:`~repro.core.phases.Runner` shell and overrides ``run()`` with the
event loop.  Each completed global update is closed by the shared
:class:`~repro.core.phases.RoundLedger` as one :class:`RoundResult` whose
``wall_clock_seconds`` is the virtual arrival time and whose
``participating_clients`` lists the aggregated cohort.

Virtual populations and checkpointing
-------------------------------------
Clients may be supplied as a :class:`repro.scale.ClientStateStore`
(``client_store=``) instead of a list — either way the runner holds one
``population`` (:mod:`repro.core.population`), and each flight pins its
client from dispatch until its upload is encoded.  From a store a client
then materialises when the sampler dispatches it and spills its persistent
state back once released — population size no longer bounds memory (see
:func:`repro.scale.build_virtual_async_federation`).  ``run(..., max_events=N)`` stops after a
bounded number of timeline events, and ``run()`` exits *compose*: together
with :meth:`AsyncRunner.quiesce` this is what lets
:class:`repro.scale.RunCheckpoint` capture a run at an arbitrary event count
and resume it bit-identically.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .. import nn
from ..comm.latency import LinkModel
from ..core.base import BaseClient, BaseServer
from ..core.config import FLConfig
from ..core.exchange import PacketExchange
from ..core.executor import GrowOnlyThreads, resolve_workers
from ..core.metrics import Evaluator
from ..core.phases import PhaseClock, Runner
from ..core.runner import RoundResult, TrainingHistory, build_endpoints
from ..data import Dataset
from ..faults.injector import FaultInjector
from ..privacy import PrivacyAccountant
from ..simulator.device import A100, DeviceSpec, LocalUpdateCostModel
from .events import EventLoop
from .flight import COMPUTE_DONE, ZERO_LINK, ClientFlights, per_client
from .sampling import ClientSampler, FullParticipationSampler, UniformSampler
from .strategies import AsyncServer, AsyncStrategy, FedBuffStrategy

__all__ = ["ZERO_LINK", "AsyncRunner", "build_async_federation"]

#: the single wire tier of a flat timeline (the metrics ``tier`` label)
FLAT = "flat"


class AsyncRunner(Runner):
    """Runs the event-driven federated-learning loop on a virtual clock."""

    checkpoint_kind = "async"

    def __init__(
        self,
        server: BaseServer,
        clients: Optional[Sequence[BaseClient]] = None,
        strategy: Optional[AsyncStrategy] = None,
        sampler: Optional[ClientSampler] = None,
        evaluator: Optional[Evaluator] = None,
        accountant: Optional[PrivacyAccountant] = None,
        cost_model: Optional[LocalUpdateCostModel] = None,
        devices: Union[DeviceSpec, Sequence[DeviceSpec], None] = None,
        link: Union[LinkModel, Sequence[LinkModel], None] = None,
        concurrency: Optional[int] = None,
        max_workers: Optional[int] = None,
        client_store=None,
    ):
        # Every dispatch/upload flows through the same codec-aware exchange
        # as the synchronous runner; link latency and comm_bytes are driven
        # by the encoded packets' measured nbytes.
        self.exchange = PacketExchange(server.config.codec)
        #: the clients, eager or store-backed, behind one interface
        self.population = self.exchange.check_endpoints(clients, client_store, "the async runner")
        #: the eager clients (empty for a store-backed runner)
        self.clients = list(clients or ())
        num_clients = self.population.num_clients
        if server.num_clients != num_clients:
            raise ValueError("server.num_clients must match the number of clients")
        self.num_clients = num_clients
        config = server.config
        self.strategy = strategy if strategy is not None else FedBuffStrategy(num_clients)
        buffer_size = self.strategy.buffer_size
        if buffer_size is not None and buffer_size > num_clients:
            # The buffer keeps one (freshest) entry per client, so it could
            # never fill and the event loop would spin forever.
            raise ValueError(
                f"buffer_size ({buffer_size}) cannot exceed the number of clients ({num_clients})"
            )
        server.require_fixed_rho("asyncfl")
        self.sampler = (
            sampler if sampler is not None else FullParticipationSampler(num_clients, seed=config.seed)
        )
        super().__init__(server, evaluator, accountant, {FLAT: None})
        self.cost_model = (
            cost_model if cost_model is not None else LocalUpdateCostModel(local_steps=config.local_steps)
        )
        self.devices: List[DeviceSpec] = per_client(devices if devices is not None else A100, num_clients, "device")
        self.links: List[LinkModel] = per_client(link if link is not None else ZERO_LINK, num_clients, "link")
        live_cap = self.population.live_cap
        if concurrency is None:
            # Every in-flight client is pinned, so more concurrency than the
            # population's live cap could never be checked out anyway.
            concurrency = min(live_cap, num_clients)
        if not 1 <= concurrency <= num_clients:
            raise ValueError("concurrency must be in [1, num_clients]")
        if concurrency > live_cap:
            raise ValueError(
                f"concurrency ({concurrency}) exceeds the population's live_cap "
                f"({live_cap}); in-flight clients stay pinned"
            )
        self.concurrency = int(concurrency)

        if max_workers is None:
            max_workers = config.parallel_clients
        self.max_workers = resolve_workers(max_workers)
        # The event-driven runner has no synchronous local-update phase for a
        # process pool to shard, so execution_backend="process" runs its
        # (at most `concurrency`) in-flight updates on the thread pool too;
        # "serial" still forces in-line execution.
        self.backend = config.execution_backend
        self._threads = GrowOnlyThreads("asyncfl-client")

        self.async_server = AsyncServer(server, self.strategy)
        self._dispatch_cache: Optional[tuple] = None  # (model version, encoded packet)
        self._clock = EventLoop()
        self._phases = PhaseClock(self.ledger, "async", loop=self._clock)
        #: every client's dispatch → compute-done → arrival trip
        self.flights = ClientFlights(
            self._phases,
            self.exchange,
            FLAT,
            self.accountant,
            self.cost_model,
            self.devices,
            self.links,
            sink=self.async_server.receive,
            on_done=self._slot_freed,
            trace_labels=lambda version: {"version": version},
            population=self.population,
            slowdown=self.sampler.compute_multiplier,
            submit=self._submit,
        )
        self._in_flight: set = set()
        self._pending_slots: List[int] = []
        self._need_cohort = False
        self._primed = False
        self._callback: Optional[Callable[[RoundResult], None]] = None
        #: total events handled on the virtual timeline (the benchmark metric)
        self.events_processed = 0

    # ----------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current virtual time in simulated seconds."""
        return self._clock.now

    # ---------------------------------------------------------------- faults
    def enable_faults(self, faults) -> "AsyncRunner":
        """Arm client-crash injection on the virtual timeline.

        ``faults`` is a :class:`repro.faults.FaultPlan` or injector.  A
        crashed dispatch dies on-device: the local update never runs (so
        stateful clients and their server-side replicas stay consistent),
        no upload arrives, and the freed slot re-dispatches.  Only the
        plan's client-crash schedule applies here — link faults live on the
        :class:`~repro.comm.base.Communicator` seam, which the async runner
        replaces with per-link latency models.  Round-based strategies are
        rejected: they wait for their full cohort, which a crashed client
        would stall forever.
        """
        faults = FaultInjector.coerce(faults)
        if self.strategy.round_based and faults.plan.any_client_crashes:
            raise ValueError(
                "client-crash injection requires a non-round-based strategy: a "
                "round-based cohort would wait forever for its crashed members"
            )
        self.injector = self.flights.injector = faults
        return self

    # ------------------------------------------------------------- execution
    def _submit(self, client: BaseClient, payload) -> Optional[Future]:
        """Start the client's local update eagerly when running parallel.

        Works for store-backed populations too: a dispatched client is pinned
        until its upload is encoded, so the instance stays valid while the
        pool runs it.
        """
        # At most `concurrency` updates are ever in flight — sizing by the
        # population over-provisioned threads under partial participation.
        width = min(self.max_workers, self.concurrency)
        if self.backend != "serial" and width > 1:
            return self._threads.at_least(width).submit(client.update, payload)
        return None

    def _dispatch(self, cid: int) -> None:
        """Send the current global model to one client."""
        self._phases.begin("broadcast")
        # Encode once per model version: the global model only changes when
        # the version bumps, so concurrent dispatches of the same version
        # reuse one packet (each client still decodes its own fresh payload).
        if self._dispatch_cache is None or self._dispatch_cache[0] != self.async_server.version:
            payload, version = self.async_server.dispatch()
            self._dispatch_cache = (version, self.exchange.encode_dispatch(payload))
        version, packet = self._dispatch_cache
        self._in_flight.add(cid)
        self.flights.dispatch(cid, packet, version)

    def _slot_freed(self, cid: int, participants) -> None:
        """A flight ended — crashed (``participants`` is ``None``; a round,
        if any, completes with the surviving cohort) or ingested, which may
        have completed a global update."""
        self._in_flight.discard(cid)
        if participants is not None:
            self.ledger.close_timeline_round(self._phases, participants, self.injector, self._callback)
            if self.strategy.round_based:
                self._need_cohort = True
        if not self.strategy.round_based:
            self._pending_slots.append(cid)

    # ------------------------------------------------------------ dispatching
    def _dispatch_cohort(self) -> None:
        cohort = self.sampler.sample_cohort(frozenset(self._in_flight))
        self.strategy.begin_round(cohort)
        for cid in cohort:
            self._dispatch(cid)

    def _prime(self) -> None:
        if self.strategy.round_based:
            self._dispatch_cohort()
        else:
            for _ in range(self.concurrency):
                self._dispatch(self.sampler.sample_one(frozenset(self._in_flight)))
        self._primed = True

    def _flush_dispatches(self) -> None:
        """Refill freed slots — after the current virtual instant fully drains."""
        if self._need_cohort:
            self._need_cohort = False
            self._dispatch_cohort()
        slots, self._pending_slots = self._pending_slots, []
        for _ in slots:
            self._dispatch(self.sampler.sample_one(frozenset(self._in_flight)))

    # ------------------------------------------------------------------- run
    def run(
        self,
        num_rounds: Optional[int] = None,
        callback: Optional[Callable[[RoundResult], None]] = None,
        max_events: Optional[int] = None,
    ) -> TrainingHistory:
        """Simulate until ``num_rounds`` further global updates completed.

        ``max_events`` bounds how many further timeline events this call
        processes — the interruption point for checkpoint tests and
        cooperative schedulers.  Stopping mid-instant is safe: the pending
        queue, withheld dispatch slots, and virtual clock survive on the
        runner (and in a :class:`repro.scale.RunCheckpoint`), and the next
        ``run`` call first drains the rest of the instant before refilling
        slots, exactly as the uninterrupted loop would have.
        """
        total = num_rounds if num_rounds is not None else self.server.config.num_rounds
        target = len(self.history) + total
        event_budget = math.inf if max_events is None else int(max_events)
        self._callback = callback
        try:
            if not self._primed:
                self._prime()
            elif not self._clock:
                # Resuming after a previous run() hit its target with the
                # queue drained: the replacement dispatches it withheld are
                # still pending — issue them now so the timeline restarts.
                self._flush_dispatches()
            while len(self.history) < target and self._clock and event_budget > 0:
                now = self._clock.peek_time()
                # Drain every event at this virtual instant before refilling
                # any dispatch slot: simultaneous arrivals must all see the
                # same aggregation boundary (the sync-equivalence invariant).
                while self._clock and self._clock.peek_time() == now:
                    event = self._clock.pop()
                    self.events_processed += 1
                    event_budget -= 1
                    self.flights.handle(event)
                    if len(self.history) >= target or event_budget <= 0:
                        break
                if len(self.history) >= target or event_budget <= 0:
                    # Exits must *compose*: if this virtual instant fully
                    # drained, the uninterrupted loop's very next action would
                    # be the dispatch refill — issue it now, so a later run()
                    # call (or a checkpoint taken here and resumed elsewhere)
                    # continues with bit-identical sampler draws and event
                    # ordering.  Mid-instant exits leave the refill withheld;
                    # re-entry drains the rest of the instant first.
                    if not self._clock or self._clock.peek_time() != now:
                        self._flush_dispatches()
                    break
                self._flush_dispatches()
        finally:
            self.close()
        return self.history

    def quiesce(self) -> None:
        """Force every pending local update to completion *in place*.

        After this call no scheduled ``compute_done`` event depends on a live
        :class:`~concurrent.futures.Future` or an un-run ``client.update`` —
        each carries its computed upload in the event data.  This is the
        serialisation barrier :class:`repro.scale.RunCheckpoint` uses: client
        updates depend only on the dispatched payload snapshot and the
        client's own state, so forcing them early is bit-identical to running
        them at their pop time (the same invariant that makes eager
        thread-pool execution exact).  The live runner remains consistent —
        the forced results are attached to the events it will later pop.
        """
        for event in self._clock.snapshot_events():
            if event.kind != COMPUTE_DONE or "upload" in event.data:
                continue
            if event.data.get("crashed"):
                # Crashed dispatches carry no payload and never ran — nothing
                # to force; the crash resolves when the event pops.
                continue
            future = event.data.get("future")
            if future is not None:
                event.data["upload"] = future.result()
            else:
                client = self.flights.acquire(event.data["cid"])
                event.data["upload"] = client.update(event.data["payload"])
            event.data["future"] = None

    # ------------------------------------------------------------ persistence
    def timeline_state(self) -> Dict[str, Any]:
        """Everything the timeline's future depends on beyond the server,
        strategy, sampler and clients — the ``"async"`` section of a
        :class:`repro.scale.RunCheckpoint`.  Call after :meth:`quiesce`:
        live futures are not part of the state."""
        ledger = self.ledger
        return {
            "loop": {
                "now": self._clock.now,
                "seq": self._clock.sequence,
                "events": [
                    (ev.time, ev.seq, ev.kind, {k: v for k, v in ev.data.items() if k != "future"})
                    for ev in self._clock.snapshot_events()
                ],
            },
            "in_flight": sorted(self._in_flight),
            "pending_slots": list(self._pending_slots),
            "need_cohort": self._need_cohort,
            "primed": self._primed,
            "events_processed": self.events_processed,
            "comm_bytes": ledger.wire_bytes[FLAT],
            "comm_bytes_last": ledger.bytes_mark[FLAT],
            "sim_comm_seconds": ledger.wire_seconds[FLAT],
            "sim_comm_seconds_last": ledger.seconds_mark[FLAT],
            "round_timings": dict(ledger.timings),
            # The open round's crashes number the next crash draws.  Absent
            # when there are none — which is every blob older than the key.
            **({"round_failed": list(ledger.failed)} if ledger.failed else {}),
        }

    def load_timeline_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`timeline_state`, into a freshly built runner.
        Population pins did not survive the save: a popped ``compute_done``
        re-takes its client's."""
        loop = state["loop"]
        self._clock.load(loop["now"], loop["seq"], loop["events"])
        self._in_flight = set(int(c) for c in state["in_flight"])
        self._pending_slots = [int(c) for c in state["pending_slots"]]
        self._need_cohort = bool(state["need_cohort"])
        self._primed = bool(state["primed"])
        self.events_processed = int(state["events_processed"])
        ledger = self.ledger
        ledger.wire_bytes[FLAT] = int(state["comm_bytes"])
        ledger.bytes_mark[FLAT] = int(state["comm_bytes_last"])
        ledger.wire_seconds[FLAT] = float(state["sim_comm_seconds"])
        ledger.seconds_mark[FLAT] = float(state["sim_comm_seconds_last"])
        ledger.timings = {k: float(v) for k, v in state["round_timings"].items()}
        ledger.failed = [int(c) for c in state.get("round_failed", ())]
        self._dispatch_cache = None
        self.flights.pinned.clear()


def build_async_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    test_dataset: Optional[Dataset] = None,
    strategy: Optional[AsyncStrategy] = None,
    sampler: Optional[ClientSampler] = None,
    cost_model: Optional[LocalUpdateCostModel] = None,
    devices: Union[DeviceSpec, Sequence[DeviceSpec], None] = None,
    link: Union[LinkModel, Sequence[LinkModel], None] = None,
    concurrency: Optional[int] = None,
    seed: Optional[int] = None,
) -> AsyncRunner:
    """Construct an :class:`AsyncRunner` for a named algorithm.

    Server and clients come from the same :func:`repro.core.runner.
    build_endpoints` that :func:`~repro.core.runner.build_federation` uses, so
    an async run over the same datasets starts from bit-identical state.
    When ``sampler`` is omitted, ``config.client_fraction`` selects it:
    1.0 gives :class:`FullParticipationSampler`, anything lower a
    :class:`UniformSampler` of that fraction.
    """
    seed = config.seed if seed is None else seed
    server, clients = build_endpoints(config, model_fn, client_datasets, seed=seed)
    if sampler is None and config.client_fraction < 1.0:
        sampler = UniformSampler(len(clients), fraction=config.client_fraction, seed=seed)
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return AsyncRunner(
        server,
        clients,
        strategy=strategy,
        sampler=sampler,
        evaluator=evaluator,
        cost_model=cost_model,
        devices=devices,
        link=link,
        concurrency=concurrency,
    )
