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

Model movement uses the same codec-aware :class:`~repro.core.exchange.
PacketExchange` as the synchronous runner: dispatches and uploads are
:class:`~repro.comm.codecs.UpdatePacket` objects, and both link latencies and
``comm_bytes`` are charged from each packet's measured post-codec ``nbytes``
— so a compressing ``FLConfig.codec`` directly shortens the simulated
timeline.  Upload packets are encoded against the *dispatched* global
snapshot (the delta-codec reference), which composes with the staleness
bookkeeping: ``ingest`` decodes each arrival against the exact global that
client trained on, under any buffering or overwrites.

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

The runner mirrors ``FederatedRunner``'s API — ``history``,
``phase_seconds``, ``run()``, ``close()``, context management — so harnesses
and benchmarks drive either interchangeably.  Each completed global update is
recorded as one :class:`~repro.core.runner.RoundResult` whose
``wall_clock_seconds`` is the virtual arrival time and whose
``participating_clients`` lists the aggregated cohort.

Virtual populations and checkpointing
-------------------------------------
Clients may be supplied as a :class:`repro.scale.ClientStateStore`
(``client_store=``) instead of a list: a client then materialises when the
sampler dispatches it, stays pinned while in flight, and spills its
persistent state back to the store once its upload is encoded — population
size no longer bounds memory (see :func:`repro.scale.
build_virtual_async_federation`).  ``run(..., max_events=N)`` stops after a
bounded number of timeline events, and ``run()`` exits *compose*: together
with :meth:`AsyncRunner.quiesce` this is what lets
:class:`repro.scale.RunCheckpoint` capture a run at an arbitrary event count
and resume it bit-identically.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Sequence, Union

from .. import nn
from ..comm.latency import LinkModel
from ..core.base import GLOBAL_KEY, BaseClient, BaseServer
from ..core.config import FLConfig
from ..core.exchange import PacketExchange
from ..core.executor import GrowOnlyThreads, resolve_workers
from ..core.metrics import Evaluator
from ..core.runner import PHASES, RoundResult, TrainingHistory, build_endpoints
from ..data import Dataset
from ..obs import current_monitor, current_tracer
from ..privacy import PrivacyAccountant
from ..simulator.device import A100, DeviceSpec, LocalUpdateCostModel
from .events import EventLoop
from .sampling import ClientSampler, FullParticipationSampler, UniformSampler
from .strategies import AsyncServer, AsyncStrategy, FedBuffStrategy

__all__ = ["ZERO_LINK", "AsyncRunner", "build_async_federation"]

#: a free link: zero latency, infinite bandwidth — transfers take 0 simulated
#: seconds, which is what the sync-equivalence guarantees assume.
ZERO_LINK = LinkModel(latency=0.0, bandwidth=math.inf)

_COMPUTE_DONE = "compute_done"
_ARRIVAL = "arrival"


def _per_client(value, num_clients: int, kind: str) -> List:
    """Broadcast a scalar spec to one entry per client, or validate a sequence."""
    if isinstance(value, (list, tuple)):
        if len(value) != num_clients:
            raise ValueError(f"need one {kind} per client ({num_clients}), got {len(value)}")
        return list(value)
    return [value] * num_clients


class AsyncRunner:
    """Runs the event-driven federated-learning loop on a virtual clock."""

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
        if (clients is None or not list(clients)) and client_store is None:
            raise ValueError("at least one client is required")
        if clients and client_store is not None:
            raise ValueError("pass either clients or client_store, not both")
        self._store = client_store
        self.clients = list(clients) if clients else []
        num_clients = client_store.num_clients if client_store is not None else len(self.clients)
        if server.num_clients != num_clients:
            raise ValueError("server.num_clients must match the number of clients")
        self.num_clients = num_clients
        self.server = server
        self._client_by_id = {c.client_id: c for c in self.clients}
        if self.clients and len(self._client_by_id) != len(self.clients):
            raise ValueError("client ids must be unique")
        #: store-backed clients currently checked out (dispatch -> upload encode)
        self._active: Dict[int, BaseClient] = {}
        config = server.config
        self.strategy = strategy if strategy is not None else FedBuffStrategy(num_clients)
        buffer_size = getattr(self.strategy, "buffer_size", None)
        if buffer_size is not None and buffer_size > num_clients:
            # The buffer keeps one (freshest) entry per client, so it could
            # never fill and the event loop would spin forever.
            raise ValueError(
                f"buffer_size ({buffer_size}) cannot exceed the number of clients ({num_clients})"
            )
        if config.adaptive_rho and hasattr(server, "duals"):
            # Clients grow rho once per *their own* update while the server
            # grows it once per aggregation; under partial participation or
            # staleness the schedules diverge and the dual replicas (IIADMM)
            # or aggregation penalties (ICEADMM) silently drift apart.
            raise ValueError(
                "adaptive_rho is not supported by asyncfl for ADMM-family algorithms: "
                "per-client rho schedules diverge under partial participation/staleness"
            )
        self.sampler = (
            sampler if sampler is not None else FullParticipationSampler(num_clients, seed=config.seed)
        )
        self.evaluator = evaluator
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        self.cost_model = (
            cost_model if cost_model is not None else LocalUpdateCostModel(local_steps=config.local_steps)
        )
        self.devices: List[DeviceSpec] = _per_client(devices if devices is not None else A100, num_clients, "device")
        self.links: List[LinkModel] = _per_client(link if link is not None else ZERO_LINK, num_clients, "link")
        if concurrency is None:
            # Store-backed populations default to the store's live-client cap:
            # every in-flight client is pinned, so more concurrency than cap
            # could never be materialised anyway.
            concurrency = (
                min(client_store.live_cap, num_clients) if client_store is not None else num_clients
            )
        if not 1 <= concurrency <= num_clients:
            raise ValueError("concurrency must be in [1, num_clients]")
        if client_store is not None and concurrency > client_store.live_cap:
            raise ValueError(
                f"concurrency ({concurrency}) exceeds the client store's live_cap "
                f"({client_store.live_cap}); in-flight clients stay pinned"
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
        # Every dispatch/upload flows through the same codec-aware exchange
        # as the synchronous runner; link latency and comm_bytes below are
        # driven by the encoded packets' measured nbytes.  Clients must share
        # the stack: their lossy-wire bookkeeping (IIADMM's reconcile stash)
        # is derived from their own config's codec.
        self.exchange = PacketExchange(config.codec)
        store_config = getattr(client_store, "config", None)
        endpoint_codecs = [c.config.codec for c in self.clients]
        if store_config is not None:
            endpoint_codecs.append(store_config.codec)
        for codec in endpoint_codecs:
            if PacketExchange(codec).spec != self.exchange.spec:
                raise ValueError(
                    f"an endpoint was built with codec {codec!r} but the server "
                    f"config uses {config.codec!r}; all endpoints must share "
                    f"one codec stack"
                )
        self._dispatch_cache: Optional[tuple] = None  # (model version, encoded packet)
        self.history = TrainingHistory()
        self._clock = EventLoop()
        self._in_flight: set = set()
        self._pending_slots: List[int] = []
        self._need_cohort = False
        self._primed = False
        #: fault layer (client crashes on the virtual timeline); see
        #: :meth:`enable_faults`
        self.injector = None
        self._failed_since_round: List[int] = []
        #: total events handled on the virtual timeline (the benchmark metric)
        self.events_processed = 0
        #: cumulative real wall-clock seconds per phase (FederatedRunner API)
        self.phase_seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self._round_timings: Dict[str, float] = {k: 0.0 for k in self.phase_seconds}
        self._comm_bytes = 0
        self._comm_bytes_last = 0
        self._sim_comm_seconds = 0.0
        self._sim_comm_seconds_last = 0.0

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
        from ..faults.injector import FaultInjector
        from ..faults.plan import FaultPlan

        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        if self.strategy.round_based and faults.plan.any_client_crashes:
            raise ValueError(
                "client-crash injection requires a non-round-based strategy: a "
                "round-based cohort would wait forever for its crashed members"
            )
        self.injector = faults
        return self

    # ------------------------------------------------------------- execution
    def _charge(self, phase: str, tick: float, **labels) -> None:
        """Close the phase interval opened at ``tick`` (a ``perf_counter``
        reading): accumulate its wall-clock seconds and, with a tracer armed,
        emit the same interval as a span stamped with the virtual clock."""
        now = time.perf_counter()
        seconds = now - tick
        self.phase_seconds[phase] += seconds
        self._round_timings[phase] += seconds
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(phase, "phase", tick, now, lane="async", vt0=self._clock.now, **labels)
        if phase == "local_update" and "client" in labels:
            monitor = current_monitor()
            if monitor is not None:
                monitor.observe_local_update(seconds, client=labels["client"])

    def _acquire(self, cid: int) -> BaseClient:
        """The live client for ``cid`` — checked out (and pinned) from the
        store in virtual mode, a plain lookup in eager mode.  In store mode a
        client acquired at dispatch stays pinned until the upload is encoded
        (:meth:`_handle_compute_done` releases it); resumed checkpoints may
        re-acquire a client here whose dispatch happened before the save."""
        if self._store is None:
            return self._client_by_id[cid]
        client = self._active.get(cid)
        if client is None:
            client = self._store.checkout(cid)
            self._active[cid] = client
        return client

    def _release(self, cid: int) -> None:
        if self._store is not None and cid in self._active:
            del self._active[cid]
            self._store.release(cid)

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
        """Send the current global model to one client and schedule its compute."""
        tick = time.perf_counter()
        # Encode once per model version: the global model only changes when
        # the version bumps, so concurrent dispatches of the same version
        # reuse one packet (each client still decodes its own fresh payload).
        if self._dispatch_cache is not None and self._dispatch_cache[0] == self.async_server.version:
            version, packet = self.async_server.version, self._dispatch_cache[1]
        else:
            payload, version = self.async_server.dispatch()
            packet = self.exchange.encode_dispatch(payload)
            self._dispatch_cache = (version, packet)
        nbytes = packet.nbytes
        self._comm_bytes += nbytes
        download = self.links[cid].transfer_time(nbytes)
        self._sim_comm_seconds += download
        payload = self.exchange.open_dispatch(packet)
        client = self._acquire(cid)
        compute = self.sampler.compute_multiplier(cid) * self.cost_model.local_update_time(
            self.devices[cid], client.num_samples
        )
        if self.injector is not None and self.injector.client_crashed(cid, version):
            # The client dies on-device mid-update: its in-memory progress is
            # lost (update never ran, so its persistent state — and any
            # server-side replica of it — stays consistent), and the failure
            # surfaces when the upload would have been due.
            self._clock.schedule_after(
                download + compute, _COMPUTE_DONE, cid=cid, version=version, crashed=True
            )
            self._in_flight.add(cid)
            self._charge("broadcast", tick, client=cid)
            return
        future = self._submit(client, payload)
        self._clock.schedule_after(
            download + compute,
            _COMPUTE_DONE,
            cid=cid,
            payload=payload,
            version=version,
            future=future,
        )
        self._in_flight.add(cid)
        self._charge("broadcast", tick, client=cid)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "dispatch", "async", lane="async", vt=self._clock.now,
                client=cid, version=version, nbytes=nbytes,
            )

    def _handle_compute_done(self, event) -> None:
        cid = event.data["cid"]
        if event.data.get("crashed"):
            # The crash scheduled at dispatch time comes due: record the
            # failure, unpin the client, and free the dispatch slot — the
            # round (if any) completes with the surviving cohort.
            self._release(cid)
            self._in_flight.discard(cid)
            self._failed_since_round.append(cid)
            self.injector.count("crash")
            if not self.strategy.round_based:
                self._pending_slots.append(cid)
            return
        client = self._acquire(cid)
        tick = time.perf_counter()
        future = event.data.get("future")
        if "upload" in event.data:
            # Quiesced/checkpointed event: client.update already ran (eagerly
            # or forced at save time) and its result travelled with the event.
            upload = event.data["upload"]
        elif future is not None:
            upload = future.result()
        else:
            upload = client.update(event.data["payload"])
        self._charge("local_update", tick, client=cid)
        # Encode the upload against the *dispatched* global (delta reference;
        # DP noise was already applied inside client.update), reconcile any
        # lossy-codec client state with the decoded echo, and charge the
        # uplink with the packet's true post-codec bytes.  Privacy is charged
        # on *arrival* (the accepted ingest), keyed so replays never
        # double-spend — the epsilon travels with the event since the client
        # may be spilled by then.
        tick = time.perf_counter()
        dispatched_global = event.data["payload"][GLOBAL_KEY]
        packet = self.exchange.encode_upload(upload, dispatched_global)
        self.exchange.reconcile(client, upload, packet, dispatched_global)
        privacy_eps = client.config.privacy.epsilon if client.config.privacy.enabled else None
        self._release(cid)  # store mode: pinned since dispatch, now spillable
        self._charge("gather", tick, client=cid)
        nbytes = packet.nbytes
        self._comm_bytes += nbytes
        uplink = self.links[cid].transfer_time(nbytes)
        self._sim_comm_seconds += uplink
        self._clock.schedule_after(
            uplink,
            _ARRIVAL,
            cid=cid,
            upload=packet,
            version=event.data["version"],
            dispatched_global=dispatched_global,
            privacy_eps=privacy_eps,
        )

    def _handle_arrival(self, event, callback) -> None:
        cid = event.data["cid"]
        self._in_flight.discard(cid)
        # Charge privacy at the accepted ingest.  Keyless on purpose: on this
        # timeline every arrival is a distinct release (a client re-dispatched
        # the same model version trains — and noises — again), and crashed
        # dispatches never reach here, so there is nothing to dedupe.
        eps = event.data.get("privacy_eps")
        if eps is not None:
            self.accountant.record(cid, eps)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "arrival", "async", lane="async", vt=self._clock.now,
                client=cid, version=event.data["version"], nbytes=event.data["upload"].nbytes,
            )
        tick = time.perf_counter()
        participants = self.async_server.receive(
            cid, event.data["upload"], event.data["version"], event.data["dispatched_global"]
        )
        self._charge("aggregate", tick, client=cid)
        if participants is not None:
            self._record_round(participants, callback)
            if self.strategy.round_based:
                self._need_cohort = True
        if not self.strategy.round_based:
            self._pending_slots.append(cid)

    def _record_round(self, participants, callback) -> None:
        accuracy = loss = None
        tick = time.perf_counter()
        if self.evaluator is not None:
            self.server.sync_model()
            accuracy, loss = self.evaluator(self.server.model)
        self._charge("evaluate", tick)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "round_complete", "async", lane="async", vt=self._clock.now,
                round=len(self.history), participants=len(participants),
            )
        result = RoundResult(
            round=len(self.history),
            test_accuracy=accuracy,
            test_loss=loss,
            comm_bytes=self._comm_bytes - self._comm_bytes_last,
            comm_seconds=self._sim_comm_seconds - self._sim_comm_seconds_last,
            phase_seconds=dict(self._round_timings),
            wall_clock_seconds=self.now,
            participating_clients=tuple(participants),
            failed_clients=(
                tuple(sorted(set(self._failed_since_round))) if self.injector is not None else None
            ),
            retries=self.injector.stats.retries if self.injector is not None else None,
        )
        self._failed_since_round = []
        self._comm_bytes_last = self._comm_bytes
        self._sim_comm_seconds_last = self._sim_comm_seconds
        self._round_timings = {k: 0.0 for k in self.phase_seconds}
        self.history.add(result)
        monitor = current_monitor()
        if monitor is not None:
            monitor.on_round(self, result)
        if callback is not None:
            callback(result)

    # ------------------------------------------------------------ dispatching
    def _dispatch_cohort(self) -> None:
        cohort = self.sampler.sample_cohort(frozenset(self._in_flight))
        begin_round = getattr(self.strategy, "begin_round", None)
        if begin_round is not None:
            begin_round(cohort)
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
                    if event.kind == _COMPUTE_DONE:
                        self._handle_compute_done(event)
                    else:
                        self._handle_arrival(event, callback)
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
            if event.kind != _COMPUTE_DONE or "upload" in event.data:
                continue
            if event.data.get("crashed"):
                # Crashed dispatches carry no payload and never ran — nothing
                # to force; the crash resolves when the event pops.
                continue
            future = event.data.get("future")
            if future is not None:
                event.data["upload"] = future.result()
            else:
                client = self._acquire(event.data["cid"])
                event.data["upload"] = client.update(event.data["payload"])
            event.data["future"] = None

    def close(self) -> None:
        """Release the client worker pool (recreated lazily if needed again)."""
        self._threads.close()

    def __enter__(self) -> "AsyncRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


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
