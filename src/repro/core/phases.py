"""What one round is made of, shared by all four runners.

* :func:`run_client_phases` — the client side of one *synchronous* round.
  The flat :class:`~repro.core.runner.FederatedRunner` and every hierarchical
  :class:`~repro.hier.edge.EdgeAggregator` run the same loop over their
  population (:mod:`repro.core.population` — eager or store-backed alike);
  they differ only in where a gathered upload goes (the *sink*).  To add a
  round phase, add it here (and to :data:`PHASES`).
* :class:`PhaseClock` — accounts wall-clock seconds per phase on one trace
  lane, for synchronous rounds and virtual timelines alike.
* :class:`RoundLedger` — where a round is *closed*: evaluate, build the
  :class:`RoundResult` from the per-tier wire marks and the failed/recovered
  lists, reset the per-round state, record it, tell the monitor.  The two
  synchronous and the two event-driven runners all close their rounds here.
* :class:`Runner` — the shell all four runners inherit: what every runner
  keeps, its lifecycle, the one synchronous round skeleton, and the surface
  telemetry and checkpoints read.  To add a runner, inherit it here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..comm import Communicator, client_endpoint
from ..comm.records import DeadLetter
from ..obs import current_monitor, current_profiler, current_tracer
from ..privacy import PrivacyAccountant, dispatch_fingerprint
from .base import GLOBAL_KEY
from .exchange import PacketExchange
from .executor import LocalExecutor

__all__ = [
    "PHASES",
    "RoundResult",
    "TrainingHistory",
    "PhaseClock",
    "RoundLedger",
    "Runner",
    "run_client_phases",
]

#: Canonical per-round phase names.  Every runner (sync, async, hier sync,
#: hier async) accumulates wall-clock seconds under exactly these keys in
#: ``phase_seconds`` / ``RoundResult.phase_seconds``.
PHASES: Tuple[str, ...] = ("broadcast", "local_update", "gather", "aggregate", "evaluate")


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


class PhaseClock:
    """Accounts wall-clock seconds per phase on one trace lane.

    ``begin``/``end`` bracket a phase interval: its seconds accumulate in the
    ledger's per-round ``timings`` and cumulative ``phase_seconds``, an armed
    tracer gets it as a ``phase`` span (reusing the ``perf_counter`` readings
    the accounting already needs), and an armed
    :class:`~repro.obs.profiler.PhaseProfiler` captures it if it asked for
    that phase.  ``labels`` ride on every span (an edge's id); a synchronous
    round's clock also stamps its ``round_idx``, a virtual timeline's clock
    stamps its ``loop``'s virtual time instead.
    """

    def __init__(self, ledger: "RoundLedger", lane: str, round_idx: Optional[int] = None, loop=None, **labels):
        self.ledger = ledger
        self.lane = lane
        self.round_idx = round_idx
        self.loop = loop
        self.labels = labels if round_idx is None else {**labels, "round": round_idx}
        self._tick = 0.0

    def begin(self, phase: str) -> float:
        self._tick = time.perf_counter()
        profiler = current_profiler()
        if profiler is not None:
            profiler.begin(phase)
        return self._tick

    def end(self, phase: str, **labels) -> None:
        """Close the interval ``begin`` opened.  ``labels`` go on this span
        only; a ``client=`` label on a ``local_update`` interval also feeds
        the monitor's per-client update times."""
        profiler = current_profiler()
        if profiler is not None:
            profiler.end(phase)
        now = time.perf_counter()
        seconds = now - self._tick
        self.ledger.timings[phase] += seconds
        self.ledger.phase_seconds[phase] += seconds
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                phase, "phase", self._tick, now, lane=self.lane,
                vt0=self.loop.now if self.loop is not None else None,
                **self.labels, **labels,
            )
        if labels and phase == "local_update":
            monitor = current_monitor()
            if monitor is not None:
                monitor.observe_local_update(seconds, client=labels["client"])

    def end_wave(self, owner: Any, index: int, clients: int, started: float) -> None:
        """Close one wave of ``owner``'s round: the ``wave`` span (sharing its
        start with the wave's first phase) and the monitor's wave-boundary
        check over the ledger's runner (``owner`` when it has none)."""
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "wave", "round", started, time.perf_counter(),
                lane=self.lane, **self.labels, wave=index, clients=clients,
            )
        monitor = current_monitor()
        if monitor is not None:
            monitor.on_wave(self.ledger.runner, owner, self.round_idx, index)


class RoundLedger:
    """One run's round accounting, and the one place a round is closed.

    ``tiers`` names the run's wire hops in reporting order (one for a flat
    run, client↔edge then edge↔root for a hierarchical one) and maps each to
    the :class:`~repro.comm.base.Communicator` whose log measures it — or to
    ``None`` on a virtual timeline, where there is no log and every packet is
    charged as it is sent (:meth:`charge_wire`).  ``failed`` / ``recovered``
    collect the client crashes and edge recoveries since the last close.
    """

    def __init__(self, runner: Any = None, tiers: Optional[Mapping[str, Optional[Communicator]]] = None):
        self.runner = runner
        self.tiers: Dict[str, Optional[Communicator]] = dict(tiers or {})
        self._logged = any(comm is not None for comm in self.tiers.values())
        #: cumulative wall-clock seconds per phase (the runner's ``phase_seconds``)
        self.phase_seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        #: the open round's share of it
        self.timings: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.wire_bytes: Dict[str, int] = {tier: 0 for tier in self.tiers}
        self.wire_seconds: Dict[str, float] = {tier: 0.0 for tier in self.tiers}
        self.bytes_mark = dict(self.wire_bytes)
        self.seconds_mark = dict(self.wire_seconds)
        self._faulted_mark = 0
        self.failed: List[int] = []
        self.recovered: List[int] = []
        #: client steps a virtual timeline's closed rounds aggregated, and per
        #: client those of its freshest upload to arrive since the last close
        self.timeline_steps = 0
        self.arrived_steps: Dict[int, int] = {}

    # ------------------------------------------------------------------ wire
    def charge_wire(self, tier: str, link, nbytes: int) -> float:
        """Send ``nbytes`` over ``link`` on a virtual timeline: charge the
        tier its bytes and simulated seconds, return the seconds."""
        seconds = link.transfer_time(nbytes)
        self.wire_bytes[tier] += nbytes
        self.wire_seconds[tier] += seconds
        return seconds

    def wire_bytes_by_tier(self) -> Dict[str, int]:
        """Cumulative on-wire bytes of the tiers charged here (the telemetry
        surface for virtual timelines; log-backed tiers report through their
        communicator's log)."""
        return {tier: self.wire_bytes[tier] for tier, comm in self.tiers.items() if comm is None}

    def _read_logs(self, into_bytes: Dict[str, int], into_seconds: Dict[str, float], faulty: bool) -> int:
        faulted = 0
        for tier, comm in self.tiers.items():
            if comm is not None:
                into_bytes[tier] = comm.total_bytes()
                into_seconds[tier] = comm.log.total_seconds()
                if faulty:
                    faulted += comm.log.failed_attempts()
        return faulted

    def open_round(self, faulty: bool) -> None:
        """Start of a synchronous round: mark the communicators' log totals
        (this round's wire is whatever they grow by until the close)."""
        self._faulted_mark = self._read_logs(self.bytes_mark, self.seconds_mark, faulty)

    # ----------------------------------------------------------------- close
    def evaluate(self, clock: PhaseClock) -> Tuple[Optional[float], Optional[float]]:
        """The ``evaluate`` phase: score the global model, if anyone asked."""
        runner = self.runner
        accuracy = loss = None
        clock.begin("evaluate")
        if runner.evaluator is not None:
            runner.server.sync_model()
            accuracy, loss = runner.evaluator(runner.server.model)
        clock.end("evaluate")
        return accuracy, loss

    def close_round(
        self,
        scores: Tuple[Optional[float], Optional[float]],
        participants: Sequence[int],
        injector=None,
        round_idx: Optional[int] = None,
        population: Optional[Iterable[int]] = None,
        wall_clock: Optional[float] = None,
        client_steps: Optional[int] = None,
        callback: Optional[Callable[[RoundResult], None]] = None,
    ) -> RoundResult:
        """Record one finished round and reset the per-round state.

        Wire volume is each tier's growth since its mark; simulated seconds
        are summed over tiers *before* differencing (bitwise what the runners
        always reported).  With fault injection armed (``injector``) the
        result also names who failed — ``population`` minus ``participants``
        for a synchronous round, the crashes collected in :attr:`failed` on a
        timeline — the faulted transfer attempts, and on a tiered run the
        recovered edges.
        """
        runner = self.runner
        faulty = injector is not None
        faulted = self._read_logs(self.wire_bytes, self.wire_seconds, faulty)
        by_tier = {tier: self.wire_bytes[tier] - self.bytes_mark[tier] for tier in self.tiers}
        tiered = len(self.tiers) > 1
        failed = retries = recovered = None
        if faulty:
            lost = self.failed if population is None else set(population) - set(participants)
            failed = tuple(sorted(set(lost)))
            retries = faulted - self._faulted_mark if self._logged else injector.stats.retries
            if tiered:
                recovered = tuple(sorted(set(self.recovered)))
        result = RoundResult(
            round=len(runner.history) if round_idx is None else round_idx,
            test_accuracy=scores[0],
            test_loss=scores[1],
            comm_bytes=sum(by_tier.values()),
            comm_seconds=sum(self.wire_seconds.values()) - sum(self.seconds_mark.values()),
            phase_seconds=self.timings,
            wall_clock_seconds=wall_clock,
            participating_clients=tuple(participants),
            comm_bytes_by_tier=by_tier if tiered else None,
            failed_clients=failed,
            retries=retries,
            recovered_edges=recovered,
            client_steps=client_steps,
        )
        self.timings = {phase: 0.0 for phase in PHASES}
        self.bytes_mark = dict(self.wire_bytes)
        self.seconds_mark = dict(self.wire_seconds)
        self.failed = []
        self.recovered = []
        runner.history.add(result)
        monitor = current_monitor()
        if monitor is not None:
            monitor.on_round(runner, result)
        if callback is not None:
            callback(result)
        return result

    def close_timeline_round(self, clock: PhaseClock, participants: Sequence[int], injector, callback) -> RoundResult:
        """Close a round on ``clock``'s virtual timeline: evaluate, stamp the
        ``round_complete`` event and the result with the loop's virtual now."""
        scores = self.evaluate(clock)
        now = clock.loop.now
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "round_complete", "async", lane=clock.lane, vt=now,
                round=len(self.runner.history), participants=len(participants),
            )
        steps = sum(self.arrived_steps.get(cid, 0) for cid in participants)
        self.timeline_steps += steps
        self.arrived_steps = {}
        return self.close_round(scores, participants, injector, wall_clock=now,
                                client_steps=steps, callback=callback)


class Runner:
    """The shell every runner inherits: one lifecycle, one telemetry surface.

    It keeps the ``server``, ``evaluator``, privacy ``accountant``,
    ``history``, :class:`RoundLedger`, cumulative ``phase_seconds`` and fault
    ``injector`` (``None``: fault-free).  :meth:`run` drives :meth:`run_round`,
    the one synchronous round skeleton around a subclass's ``_round_body``;
    the event-driven runners override :meth:`run` instead.  Telemetry and
    :class:`repro.scale.RunCheckpoint` read only this surface: the attributes
    above, :meth:`executors`, :meth:`populations`, :attr:`client_steps`,
    :attr:`edges` and :attr:`checkpoint_kind`.
    """

    #: the RunCheckpoint kind ("sync", "hier", "async"); ``None``: not checkpointable
    checkpoint_kind: Optional[str] = None
    #: the trace lane of a synchronous round's own phases and span
    lane = "runner"
    #: the edge aggregators of a hierarchical runner (none on a flat one)
    edges: Sequence[Any] = ()
    injector = None
    #: a thread pool kept outside any executor (the async runner's)
    _threads = None

    def __init__(self, server, evaluator, accountant, tiers: Mapping[str, Optional[Communicator]]):
        self.server = server
        self.evaluator = evaluator
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        self.history = TrainingHistory()
        self.ledger = RoundLedger(self, tiers)
        #: cumulative wall-clock seconds spent in each phase across all rounds
        self.phase_seconds = self.ledger.phase_seconds

    def executors(self) -> List[LocalExecutor]:
        """The executors running this runner's local updates: the edges'."""
        return [edge.executor for edge in self.edges]

    def populations(self) -> List[Tuple[str, Any]]:
        """``(tier, population)`` pairs: each edge's as ``"edge:<id>"``, else the runner's as ``"flat"``."""
        if self.edges:
            return [(f"edge:{edge.edge_id}", edge.population) for edge in self.edges]
        return [("flat", self.population)]

    @property
    def client_steps(self) -> int:
        """Cumulative client optimizer steps (the client_steps_per_sec numerator)."""
        return sum(executor.client_steps for executor in self.executors()) + self.ledger.timeline_steps

    def close(self) -> None:
        """Release the worker pools (recreated lazily if needed again)."""
        for executor in self.executors():
            executor.close()
        if self._threads is not None:
            self._threads.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def run(
        self, num_rounds: Optional[int] = None, callback: Optional[Callable[[RoundResult], None]] = None
    ) -> TrainingHistory:
        """Run ``num_rounds`` further rounds (default: the config's), numbered
        on from the history as one uninterrupted run (or a resumed one) would."""
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

    def run_round(self, round_idx: int) -> RoundResult:
        """One synchronous round: open → ``_round_body`` (participants, the
        ``round`` span's labels) → evaluate → ``round`` span → close."""
        injector = self.injector
        ledger = self.ledger
        ledger.open_round(faulty=injector is not None)
        steps_before = self.client_steps
        clock = PhaseClock(ledger, self.lane, round_idx)
        round_start = time.perf_counter()
        participants, labels = self._round_body(clock, round_idx)
        scores = ledger.evaluate(clock)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "round", "round", round_start, time.perf_counter(),
                lane=self.lane, round=round_idx, **labels,
            )
        # Every server indexes its clients by id in [0, num_clients).
        return ledger.close_round(
            scores, sorted(participants), injector, round_idx=round_idx,
            population=range(self.num_clients), client_steps=self.client_steps - steps_before,
        )


def run_client_phases(
    *,
    executor: LocalExecutor,
    exchange: PacketExchange,
    communicator: Optional[Communicator],
    clock: PhaseClock,
    round_idx: int,
    ids: Sequence[int],
    payload: Mapping[str, np.ndarray],
    population: Any,
    sink: Callable[[int, Any, np.ndarray], None],
    accountant: Optional[PrivacyAccountant],
    on_wave: Optional[Callable[[int, int, float], None]] = None,
) -> List[int]:
    """Dispatch ``payload`` to ``ids``, run their local updates, and feed
    every upload that survives the wire to ``sink``.

    The dispatch is encoded into one packet and transported (``communicator``
    charges its ``nbytes``; ``None`` is a free, fault-free hop).  Clients
    whose downlink dead-lettered sit the round out; clients the fault plan
    crashes die before computing — their local state must not advance (a
    stateful algorithm's server-side replica would silently desynchronise
    from a half-run update) — and their unsent upload is dead-lettered.

    The survivors then run in waves of at most ``population.live_cap``:
    ``checkout`` → ``open_dispatch`` → ``executor.update`` →
    ``encode_upload`` / ``reconcile`` → ``collect`` → ``executor.settle`` →
    ``sink`` + privacy charge → ``release``, so no more than ``live_cap``
    clients are ever live (an eager population is one wave of everyone).  On
    the process backend the whole cohort is one wave that the executor's
    workers run with nothing checked out here, against one decode of the
    dispatch.

    ``sink(cid, packet, dispatched_global)`` is the single decode point
    (``server.ingest`` for the flat runner, ``ingest_upload`` for an edge);
    ``dispatched_global`` is bitwise what every client saw.  Privacy budget
    is charged per *accepted* upload, at the rate of the client's own config,
    keyed on ``(client, round, dispatched global)`` — uplink dead letters
    never consume epsilon, and a retried or crash-replayed release consumes
    it once.  ``on_wave(index, clients, started)`` fires after each wave.
    Returns the ids whose uploads reached the sink, in dispatch order.
    """
    injector = communicator.injector if communicator is not None else None

    clock.begin("broadcast")
    packet = exchange.encode_dispatch(payload)
    if communicator is not None:
        received = communicator.broadcast(round_idx, packet, ids)
    else:
        received = {cid: packet for cid in ids}
    # Under a lossy codec the reference must be a decode of the same packet;
    # lossless stacks skip it since encode/decode is bit-transparent.
    dispatched_global = (exchange.open_dispatch(packet) if exchange.lossy else payload)[GLOBAL_KEY]
    active = [cid for cid in ids if cid in received]
    if injector is not None:
        crashed = [cid for cid in active if injector.client_crashed(cid, round_idx)]
        if crashed:
            crashed_set = set(crashed)
            active = [cid for cid in active if cid not in crashed_set]
            for cid in crashed:
                injector.count("crash")
                communicator.log.add_dead_letter(
                    DeadLetter(round_idx, client_endpoint(cid), "send_local", 0, 0, "crash")
                )
    clock.end("broadcast")

    pooled = executor.backend == "process" and len(active) > 1
    wave = len(active) if pooled else max(1, int(population.live_cap))
    plan = [active[start : start + wave] for start in range(0, len(active), wave)]
    participants: List[int] = []
    privacy_key = None
    for index, wave_ids in enumerate(plan):
        started = clock.begin("broadcast")
        if pooled:
            # Every client received the dispatch packet itself: decode it once.
            dispatch = exchange.open_dispatch(packet)
            clients = {}
            payloads = dict.fromkeys(wave_ids, dispatch)
        else:
            clients = {cid: population.checkout(cid) for cid in wave_ids}
            payloads = {cid: exchange.open_dispatch(received[cid]) for cid in wave_ids}
        clock.end("broadcast")

        # Any DP clipping/noising happens inside client.update — before the
        # codec encode below — so the guarantee survives quantization.
        clock.begin("local_update")
        if pooled:
            uploads = executor.update_pooled(wave_ids, dispatch)
        else:
            uploads = executor.update(list(clients.values()), payloads)
        clock.end("local_update")

        # Encode each upload against the dispatched global and reconcile
        # lossy-codec client state with the decoded echo (the process
        # backend enforces a lossless wire, where reconcile is a no-op).
        clock.begin("gather")
        packets = {}
        for cid in wave_ids:
            reference = payloads[cid][GLOBAL_KEY]
            packets[cid] = exchange.encode_upload(uploads[cid], reference)
            exchange.reconcile(clients.get(cid), uploads[cid], packets[cid], reference)
        gathered = communicator.collect(round_idx, packets) if communicator is not None else packets
        executor.settle(gathered)
        clock.end("gather")

        clock.begin("aggregate")
        for cid in wave_ids:
            if cid not in gathered:
                continue
            sink(cid, gathered[cid], dispatched_global)
            participants.append(cid)
            privacy = population.config_of(cid).privacy
            if accountant is not None and privacy.enabled:
                if privacy_key is None:
                    privacy_key = dispatch_fingerprint(round_idx, dispatched_global)
                accountant.record(cid, privacy.epsilon, key=privacy_key)
        clock.end("aggregate")
        for cid in clients:
            population.release(cid)
        if on_wave is not None:
            on_wave(index, len(wave_ids), started)
    return participants
