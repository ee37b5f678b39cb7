"""Event-driven hierarchical federation: edge actors on their own clocks.

:class:`HierAsyncRunner` is the asynchronous counterpart of
:class:`~repro.hier.runner.HierRunner`.  Every edge is an *actor* with its
own :class:`~repro.asyncfl.events.EventLoop`: it dispatches the latest
global model it holds to a sampled cohort of its shard — each client's
download/compute/upload trip and its ingest into the shard server is the same
:class:`~repro.asyncfl.flight.ClientFlights` lifecycle the flat
``AsyncRunner`` drives (device cost model + the topology's client↔edge
:class:`~repro.comm.latency.LinkModel`) — and when its cohort completes it
folds the window into one exact shard summary and sends it up the edge↔root
link.  The actor keeps what is its own: cohort sampling, the backpressure
FIFO, the flush, kill/recover, and adopting root broadcasts.  The root reacts to
*summary arrivals* through a :class:`RootStrategy`:

* :class:`RootFedBuff` — combine once ``buffer_size`` distinct edges have
  reported since the last global update, over **every** edge's last-known
  summary (slow edges contribute their previous state — the
  partial-participation form of the ADMM global update, made exact by the
  associative partials);
* :class:`RootFedAsync` — staleness-weighted mixing of each arriving shard
  summary's average into the global model (FedAvg-family only).

Staleness is measured in root model versions between an edge's download of
``w`` and its summary's arrival, and logged per summary.

The loops are merged deterministically by
:func:`~repro.asyncfl.events.next_event_loop` (earliest timestamp wins, ties
to the root loop then ascending edge id), so runs are reproducible.  With
free links, full per-edge participation, ``edge_round_based=True`` and
``RootFedBuff(num_edges)`` the history is bit-for-bit the synchronous
:class:`HierRunner`'s — and hence, under identity per-hop codecs, the flat
``FederatedRunner``'s (tested in ``tests/test_hier.py``).

Store-backed shards (per-edge :class:`~repro.scale.store.ClientStateStore`)
materialise clients at dispatch and spill them after the upload is encoded,
so 100k-client populations run under a live set bounded by
``edges × live_cap``.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..asyncfl.events import EventLoop, next_event_loop
from ..asyncfl.flight import ZERO_LINK, ClientFlights, per_client
from ..asyncfl.strategies import STALENESS_KINDS, staleness_weight
from ..comm.latency import LinkModel
from ..comm.serialization import decode_state_blob, encode_state_blob
from ..core.base import GLOBAL_KEY, BaseServer
from ..core.config import FLConfig
from ..core.exchange import PacketExchange
from ..core.metrics import Evaluator
from ..core.partial import unpack_partial
from ..core.phases import PhaseClock, RoundResult, Runner, TrainingHistory
from ..data import Dataset
from ..faults.injector import FaultInjector
from ..obs import current_tracer
from ..privacy import PrivacyAccountant
from ..simulator.device import A100, DeviceSpec, LocalUpdateCostModel
from .edge import EdgeAggregator
from .runner import CLIENT_EDGE, EDGE_ROOT, _check_hier_server, _hop_codecs, build_hier_endpoints
from .topology import Topology

__all__ = ["RootStrategy", "RootFedBuff", "RootFedAsync", "HierAsyncRunner", "build_hier_async_federation"]

_SUMMARY = "summary"
_GLOBAL = "global"


class RootStrategy(ABC):
    """Decides what the root does with each arriving shard summary."""

    @abstractmethod
    def on_summary(
        self,
        runner: "HierAsyncRunner",
        edge_id: int,
        partial: List[np.ndarray],
        participants: Tuple[int, ...],
        staleness: int,
    ) -> Optional[Tuple[int, ...]]:
        """Process one summary; return the participant tuple when this
        arrival completed a global update, else ``None``."""


class RootFedBuff(RootStrategy):
    """Combine after ``buffer_size`` distinct edges reported (freshest wins).

    The combine always spans *all* edges' last-known summaries, so the ADMM
    ``1/P`` normaliser stays exact; FedAvg participants are the union of the
    combined summaries' cohorts.
    """

    def __init__(self, buffer_size: int):
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = int(buffer_size)
        self._fresh: set = set()

    def on_summary(self, runner, edge_id, partial, participants, staleness):
        self._fresh.add(edge_id)
        if len(self._fresh) < self.buffer_size:
            return None
        self._fresh.clear()
        return runner._combine_last_known()


class RootFedAsync(RootStrategy):
    """Staleness-weighted mixing of each shard summary (FedAvg family).

    ``w ← (1 − α_τ) w + α_τ · (shard sum / shard weight)`` with
    ``α_τ = alpha · s(τ)`` — :func:`repro.asyncfl.strategies.
    staleness_weight` at edge granularity.
    """

    def __init__(self, alpha: float = 0.6, staleness: str = "polynomial", a: float = 0.5, b: float = 4.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if staleness not in STALENESS_KINDS:
            raise ValueError(f"unknown staleness kind {staleness!r}")
        self.alpha = float(alpha)
        self.staleness = staleness
        self.a = float(a)
        self.b = float(b)

    def on_summary(self, runner, edge_id, partial, participants, staleness):
        server = runner.server
        if server.absorbs_uploads:
            raise ValueError(
                "RootFedAsync mixes shard averages and is FedAvg-family only; "
                "use RootFedBuff for ADMM algorithms"
            )
        if not participants:
            return None
        weights = server.client_weights()
        weight_sum = math.fsum(float(weights[c]) for c in sorted(participants))
        candidate = server.merge_partials([partial]) / weight_sum
        mix = self.alpha * staleness_weight(staleness, self.staleness, a=self.a, b=self.b)
        server.global_params = (1.0 - mix) * server.global_params + mix * candidate
        server.round += 1
        server.sync_model()
        return tuple(sorted(participants))


class _EdgeActor:
    """One edge's event-driven shell: cohorts, per-client timing, flushing.

    ``max_in_flight`` bounds how many of a cohort's dispatches are on the
    wire/device at once — the rest wait in a FIFO and dispatch as slots free
    (backpressure: a store-backed shard then pins at most that many clients).
    ``None`` keeps the dispatch-everything legacy path bit-identically.
    """

    def __init__(
        self,
        runner: "HierAsyncRunner",
        edge: EdgeAggregator,
        devices: Sequence[DeviceSpec],
        client_link: LinkModel,
        root_link: LinkModel,
        fraction: float,
        round_based: bool,
        seed: int,
        max_in_flight: Optional[int] = None,
    ):
        self.runner = runner
        self.edge = edge
        self.loop = EventLoop()
        self.clock = PhaseClock(runner.ledger, f"edge:{edge.edge_id}", loop=self.loop)
        edge_labels = {"edge": edge.edge_id}
        #: every shard client's dispatch → compute-done → arrival trip (in-line
        #: updates: no thread submitter)
        self.flights = ClientFlights(
            self.clock,
            edge.exchange,
            CLIENT_EDGE,
            runner.accountant,
            runner.cost_model,
            dict(zip(edge.shard, devices)),
            dict.fromkeys(edge.shard, client_link),
            sink=lambda cid, packet, version, dispatched: edge.ingest_upload(cid, packet, dispatched),
            on_done=self._complete_one,
            trace_labels=lambda version: edge_labels,
            population=edge.population,
        )
        self.root_link = root_link
        self.fraction = float(fraction)
        self.round_based = bool(round_based)
        if max_in_flight is not None and int(max_in_flight) < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.max_in_flight = int(max_in_flight) if max_in_flight is not None else None
        self.rng = np.random.default_rng(seed)
        self._outstanding = 0
        self._dispatched_version = 0
        self._pending_global: Optional[Tuple[Dict[str, np.ndarray], int]] = None
        self._waiting_for_global = False
        #: cohort members awaiting a dispatch slot (backpressure FIFO)
        self._queue: List[int] = []
        self._cohort_packet = None
        #: completed flush boundaries (the wave index boundary kills key on)
        self._wave_index = 0
        #: last quiescent-point state blob (crash-recovery rollback target);
        #: refreshed at every flush boundary while faults are armed
        self.slice_blob: Optional[bytes] = None

    # ----------------------------------------------------------- scheduling
    def sample_cohort(self) -> List[int]:
        shard = list(self.edge.shard)
        if self.fraction >= 1.0:
            return shard
        k = max(1, int(round(self.fraction * len(shard))))
        picked = self.rng.choice(len(shard), size=k, replace=False)
        return [shard[i] for i in sorted(picked)]

    def _dispatch_one(self, cid: int) -> None:
        """Put one cohort member on the timeline (pins it)."""
        self.clock.begin("broadcast")
        self.flights.dispatch(cid, self._cohort_packet, self._dispatched_version)

    def start_cohort(self) -> None:
        """Dispatch the edge's current global to a fresh cohort."""
        self.clock.begin("broadcast")
        if self._pending_global is not None:
            payload, version = self._pending_global
            self._pending_global = None
            self.edge.receive_global(payload)
            self._dispatched_version = version
        self._waiting_for_global = False
        cohort = self.sample_cohort()
        self._cohort_packet = self.edge.exchange.encode_dispatch(
            {GLOBAL_KEY: self.edge.current_global.copy()}
        )
        self.clock.end("broadcast")
        limit = len(cohort) if self.max_in_flight is None else self.max_in_flight
        self._queue = list(cohort[limit:])
        for cid in cohort[:limit]:
            self._dispatch_one(cid)
        self._outstanding += len(cohort)

    # -------------------------------------------------------------- handlers
    def handle(self, event) -> None:
        if event.kind == _GLOBAL:
            self._handle_global(event)
        else:
            self.flights.handle(event)

    def _complete_one(self, cid: int, _outcome) -> None:
        """One cohort member accounted for (arrived or crashed — the window
        completes over the survivors): hand its slot to the backpressure
        queue, flush when the window completes."""
        self._outstanding -= 1
        if self._queue:
            self._dispatch_one(self._queue.pop(0))
        if self._outstanding == 0:
            self._flush()

    def _flush(self) -> None:
        self.clock.begin("aggregate")
        summary, participants = self.edge.summarize()
        packet = self.runner.exchange.pipeline.encode_state(summary)
        self.clock.end("aggregate")
        uplink = self.runner.ledger.charge_wire(EDGE_ROOT, self.root_link, packet.nbytes)
        self.runner.root_loop.schedule(
            self.loop.now + uplink,
            _SUMMARY,
            edge_id=self.edge.edge_id,
            packet=packet,
            participants=participants,
            version=self._dispatched_version,
        )
        if self.runner.injector is not None:
            # A flush boundary is the edge's quiescent point (no in-flight
            # clients, empty fold): refresh the rollback slice here, and land
            # any planned boundary kill *now* — killing a just-snapshotted
            # edge recovers to exactly this state, which is why a
            # boundary-kill run is bitwise the crash-free run.
            wave = self._wave_index
            self._wave_index += 1
            self.slice_blob = self.capture_slice()
            if self.runner.injector.boundary_kill(self.edge.edge_id, wave):
                self.runner._kill_and_recover(self)
                return
        if not self.round_based:
            self.start_cohort()
        elif self._pending_global is not None:
            # A newer global already arrived mid-cohort — adopt it now
            # rather than idling until some later broadcast.
            self.start_cohort()
        else:
            self._waiting_for_global = True

    # ------------------------------------------------------- crash / recover
    def capture_slice(self) -> bytes:
        """Serialize this edge's rollback slice: shard server + clients (the
        :func:`repro.scale.edge_slice_state` tree) plus the actor's cohort
        RNG and the root version its dispatches carry.  Only meaningful at a
        quiescent point (no in-flight cohort)."""
        from ..scale.checkpoint import edge_slice_state

        return encode_state_blob(
            {
                "edge": edge_slice_state(self.edge),
                "rng": self.rng.bit_generator.state,
                "version": self._dispatched_version,
            }
        )

    def kill(self) -> None:
        """Lose the edge's volatile state: every in-flight dispatch and
        arrival vanishes (their pins released so the population can be
        rolled back), queued work is dropped, and only root broadcasts still
        in transit — which live on the wire, not in the edge's memory — keep
        their place on the clock."""
        self.flights.abort()
        kept = [ev for ev in self.loop.snapshot_events() if ev.kind == _GLOBAL]
        self.loop.load(self.loop.now, self.loop.sequence, kept)
        self._outstanding = 0
        self._queue = []
        self._cohort_packet = None
        self._waiting_for_global = False

    def recover(self, blob: bytes) -> None:
        """Restore the edge from a :meth:`capture_slice` blob and rejoin the
        federation: the shard server, client population, cohort RNG and
        dispatched version roll back to the captured quiescent point, then a
        fresh cohort starts (or the edge waits for the next broadcast, in
        round-based mode with nothing pending)."""
        from ..scale.checkpoint import restore_edge_slice

        state = decode_state_blob(blob)
        restore_edge_slice(self.edge, state["edge"])
        self.rng = np.random.default_rng(0)
        self.rng.bit_generator.state = state["rng"]
        self._dispatched_version = int(state["version"])
        if not self.round_based or self._pending_global is not None:
            self.start_cohort()
        else:
            self._waiting_for_global = True

    def _handle_global(self, event) -> None:
        """A root broadcast arrived: adopt it at the next cohort boundary
        (immediately, when the edge is idle waiting for it)."""
        self._pending_global = (event.data["payload"], event.data["version"])
        if self._waiting_for_global and self._outstanding == 0:
            self.start_cohort()


class HierAsyncRunner(Runner):
    """Runs the event-driven two-tier loop over per-edge virtual clocks."""

    def __init__(
        self,
        root: BaseServer,
        edges: Sequence[EdgeAggregator],
        topology: Topology,
        strategy: Optional[RootStrategy] = None,
        evaluator: Optional[Evaluator] = None,
        accountant: Optional[PrivacyAccountant] = None,
        cost_model: Optional[LocalUpdateCostModel] = None,
        devices: Union[DeviceSpec, Sequence[DeviceSpec], None] = None,
        edge_fraction: Optional[float] = None,
        edge_round_based: bool = False,
        seed: Optional[int] = None,
        max_in_flight: Optional[int] = None,
    ):
        if not list(edges):
            raise ValueError("at least one edge is required")
        _check_hier_server(root)
        self.edges = list(edges)
        self.topology = topology
        config = root.config
        self.strategy = strategy if strategy is not None else RootFedBuff(len(self.edges))
        if isinstance(self.strategy, RootFedBuff) and self.strategy.buffer_size > len(self.edges):
            raise ValueError(
                f"buffer_size ({self.strategy.buffer_size}) cannot exceed the number "
                f"of edges ({len(self.edges)})"
            )
        super().__init__(root, evaluator, accountant, {CLIENT_EDGE: None, EDGE_ROOT: None})
        self.cost_model = (
            cost_model if cost_model is not None else LocalUpdateCostModel(local_steps=config.local_steps)
        )
        _, root_spec = _hop_codecs(config)
        self.exchange = PacketExchange(root_spec)
        self.root_loop = EventLoop()
        self.clock = PhaseClock(self.ledger, "root", loop=self.root_loop)
        seed = config.seed if seed is None else seed
        fraction = config.client_fraction if edge_fraction is None else edge_fraction
        client_link = topology.client_link if topology.client_link is not None else ZERO_LINK
        root_link = topology.root_link if topology.root_link is not None else ZERO_LINK
        device_list = per_client(devices if devices is not None else A100, root.num_clients, "device")
        self.actors = [
            _EdgeActor(
                self,
                edge,
                devices=[device_list[cid] for cid in edge.shard],
                client_link=client_link,
                root_link=root_link,
                fraction=fraction,
                round_based=edge_round_based,
                seed=seed + 7700 + edge.edge_id,
                max_in_flight=max_in_flight,
            )
            for edge in self.edges
        ]
        self._actor_by_edge = {actor.edge.edge_id: actor for actor in self.actors}
        self.version = 0
        self.staleness_log: List[int] = []
        self.events_processed = 0
        #: last-known decoded summary partial + participants per edge
        self._last_summary: Dict[int, Tuple[List[np.ndarray], Tuple[int, ...]]] = {}
        if root.absorbs_uploads:
            # ADMM: every edge contributes from round 0 — seed the initial
            # (z¹, λ=0) shard folds so early combines span the population.
            for edge in self.edges:
                summary, participants = edge.initial_summary()
                self._last_summary[edge.edge_id] = (unpack_partial(summary), participants)
        self._primed = False
        #: real seconds spent restoring killed edges (recovery latency)
        self.recovery_seconds = 0.0

    # ---------------------------------------------------------------- faults
    def enable_faults(self, faults) -> "HierAsyncRunner":
        """Arm edge-kill and client-crash injection on the merged clocks.

        ``faults`` is a :class:`repro.faults.FaultPlan` or injector.  Three
        fault families apply here:

        * the plan's ``edge_kills`` — ``(event_count, edge_id)`` one-shots:
          when the runner has processed that many events the edge's volatile
          state (in-flight cohort, half-folded summary) vanishes and it is
          restored from the slice captured at its last flush boundary, then
          rejoins;
        * ``edge_boundary_kills`` — kills landing exactly at a flush
          boundary, where the rollback slice was captured an instant earlier:
          the recovered state is bit-identical, which the chaos harness turns
          into a bitwise-equality assertion against the crash-free run;
        * the client-crash schedule — a crashed dispatch dies on-device
          before its update runs; the cohort window completes over the
          survivors.

        Must be called before the first :meth:`run` so every edge's initial
        rollback slice exists before anything can kill it.
        """
        if self._primed:
            raise RuntimeError(
                "enable_faults must be called before the first run(): the initial "
                "per-edge recovery slices are captured at arm time"
            )
        self.injector = FaultInjector.coerce(faults)
        for actor in self.actors:
            actor.flights.injector = self.injector
            actor.slice_blob = actor.capture_slice()
        return self

    def _kill_and_recover(self, actor: _EdgeActor) -> None:
        """Kill one edge and bring it back from its last rollback slice."""
        tracer = current_tracer()
        edge_id = actor.edge.edge_id
        tick = time.perf_counter()
        actor.kill()
        self.injector.stats.edge_kills += 1
        if tracer is not None:
            tracer.event("edge_kill", "fault", lane="faults", vt=actor.loop.now, edge=edge_id)
        actor.recover(actor.slice_blob)
        self.injector.stats.recoveries += 1
        self.recovery_seconds += time.perf_counter() - tick
        self.ledger.recovered.append(edge_id)
        if tracer is not None:
            tracer.event("edge_recover", "fault", lane="faults", vt=actor.loop.now, edge=edge_id)

    # -------------------------------------------------------------- combine
    def _combine_last_known(self) -> Optional[Tuple[int, ...]]:
        """Combine every edge's last-known summary into a new global model."""
        if not self._last_summary:
            return None
        known = [self._last_summary[eid] for eid in sorted(self._last_summary)]
        participants = sorted({cid for _, cohort in known for cid in cohort})
        if not participants and not self.server.absorbs_uploads:
            return None
        self.server.combine_partials([partial for partial, _ in known], participants)
        return tuple(participants)

    def _broadcast_global(self) -> None:
        """Ship the new global to every edge over the root links."""
        packet = self.exchange.encode_dispatch(self.server.broadcast_payload())
        for actor in self.actors:
            delay = self.ledger.charge_wire(EDGE_ROOT, actor.root_link, packet.nbytes)
            payload = self.exchange.open_dispatch(packet)
            actor.loop.schedule(
                self.root_loop.now + delay, _GLOBAL, payload=payload, version=self.version
            )

    def _handle_summary(self, event, callback) -> None:
        edge_id = event.data["edge_id"]
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "summary_arrival", "async", lane="root", vt=self.root_loop.now,
                edge=edge_id, nbytes=event.data["packet"].nbytes,
                staleness=self.version - event.data["version"],
            )
        self.clock.begin("aggregate")
        partial = unpack_partial(self.exchange.pipeline.decode_state(event.data["packet"]))
        participants = tuple(event.data["participants"])
        staleness = self.version - event.data["version"]
        self.staleness_log.append(staleness)
        self._last_summary[edge_id] = (partial, participants)
        finished = self.strategy.on_summary(self, edge_id, partial, participants, staleness)
        self.clock.end("aggregate", edge=edge_id)
        if finished is not None:
            self.version += 1
            self.ledger.close_timeline_round(self.clock, finished, self.injector, callback)
            self._broadcast_global()
            if tracer is not None:
                tracer.event(
                    "global_broadcast", "async", lane="root", vt=self.root_loop.now,
                    version=self.version,
                )

    # ------------------------------------------------------------------- run
    @property
    def now(self) -> float:
        """Current global virtual time (the maximum across all clocks)."""
        return max([self.root_loop.now] + [a.loop.now for a in self.actors])

    def mean_staleness(self) -> float:
        return float(np.mean(self.staleness_log)) if self.staleness_log else 0.0

    def run(
        self,
        num_rounds: Optional[int] = None,
        callback: Optional[Callable[[RoundResult], None]] = None,
        max_events: Optional[int] = None,
    ) -> TrainingHistory:
        """Simulate until ``num_rounds`` further global updates completed."""
        total = num_rounds if num_rounds is not None else self.server.config.num_rounds
        target = len(self.history) + total
        budget = math.inf if max_events is None else int(max_events)
        try:
            if not self._primed:
                for actor in self.actors:
                    actor.start_cohort()
                self._primed = True
            loops = [self.root_loop] + [a.loop for a in self.actors]
            while len(self.history) < target and budget > 0:
                index = next_event_loop(loops)
                if index is None:
                    break
                self.events_processed += 1
                budget -= 1
                if index == 0:
                    event = self.root_loop.pop()
                    self._handle_summary(event, callback)
                else:
                    actor = self.actors[index - 1]
                    actor.handle(actor.loop.pop())
                if self.injector is not None:
                    for edge_id in self.injector.edge_kills_due(self.events_processed):
                        victim = self._actor_by_edge.get(edge_id)
                        if victim is not None:
                            self._kill_and_recover(victim)
        finally:
            self.close()
        return self.history


def build_hier_async_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    test_dataset: Optional[Dataset] = None,
    topology: Union[str, Topology, Sequence[Sequence[int]], None] = None,
    strategy: Optional[RootStrategy] = None,
    live_cap: Optional[int] = None,
    seed: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    devices: Union[DeviceSpec, Sequence[DeviceSpec], None] = None,
    client_link: Optional[LinkModel] = None,
    root_link: Optional[LinkModel] = None,
    cost_model: Optional[LocalUpdateCostModel] = None,
    edge_fraction: Optional[float] = None,
    edge_round_based: bool = False,
    state_codec: str = "identity",
    compress: Optional[str] = None,
    max_in_flight: Optional[int] = None,
) -> HierAsyncRunner:
    """Construct a :class:`HierAsyncRunner` for a named algorithm.

    Same endpoint construction as :func:`~repro.hier.runner.
    build_hier_federation` (bit-identical starting state); ``client_link`` /
    ``root_link`` attach per-hop latency models to the topology, and
    ``edge_fraction`` (default ``config.client_fraction``) subsamples each
    shard per edge round.  ``live_cap`` gives every edge its own
    :class:`~repro.scale.store.ClientStateStore`.
    """
    root, edges, topo = build_hier_endpoints(
        config, model_fn, client_datasets, topology=topology, live_cap=live_cap,
        seed=seed, labels=labels, state_codec=state_codec, compress=compress,
        client_link=client_link, root_link=root_link,
    )
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return HierAsyncRunner(
        root,
        edges,
        topo,
        strategy=strategy,
        evaluator=evaluator,
        cost_model=cost_model,
        devices=devices,
        edge_fraction=edge_fraction,
        edge_round_based=edge_round_based,
        seed=seed,
        max_in_flight=max_in_flight,
    )
