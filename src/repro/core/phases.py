"""The client side of one synchronous round: :func:`run_client_phases`.

The flat :class:`~repro.core.runner.FederatedRunner` and every hierarchical
:class:`~repro.hier.edge.EdgeAggregator` run the same loop over their
clients; they differ only in where a gathered upload goes (the *sink*) and
in how a client is obtained (a dict lookup, or a checkout from a
:class:`~repro.scale.store.ClientStateStore`).  This module holds that loop
once, plus the :class:`PhaseClock` both use to account wall-clock seconds
per phase.  To add a round phase, add it here (and to :data:`PHASES`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..comm import Communicator, client_endpoint
from ..comm.records import DeadLetter
from ..obs import current_monitor, current_profiler, current_tracer
from ..privacy import PrivacyAccountant, dispatch_fingerprint
from .base import GLOBAL_KEY, BaseClient
from .exchange import PacketExchange
from .executor import LocalExecutor

__all__ = ["PHASES", "PhaseClock", "run_client_phases"]

#: Canonical per-round phase names.  Every runner (sync, async, hier sync,
#: hier async) accumulates wall-clock seconds under exactly these keys in
#: ``phase_seconds`` / ``RoundResult.phase_seconds``.
PHASES: Tuple[str, ...] = ("broadcast", "local_update", "gather", "aggregate", "evaluate")


class PhaseClock:
    """Accounts one round's wall-clock seconds per phase on one trace lane.

    ``begin``/``end`` bracket a phase interval: its seconds accumulate in
    ``timings``, an armed tracer gets it as a ``phase`` span (reusing the
    ``perf_counter`` readings the accounting already needs), and an armed
    :class:`~repro.obs.profiler.PhaseProfiler` captures it if it asked for
    that phase.  ``labels`` ride on every span (an edge's id).
    """

    def __init__(self, timings: Dict[str, float], round_idx: int, lane: str, **labels):
        self.timings = timings
        self.round_idx = round_idx
        self.lane = lane
        self.labels = labels
        self.tracer = current_tracer()
        self.profiler = current_profiler()
        self._tick = 0.0

    def begin(self, phase: str) -> float:
        self._tick = time.perf_counter()
        if self.profiler is not None:
            self.profiler.begin(phase)
        return self._tick

    def end(self, phase: str) -> None:
        if self.profiler is not None:
            self.profiler.end(phase)
        now = time.perf_counter()
        self.timings[phase] += now - self._tick
        if self.tracer is not None:
            self.tracer.emit_span(
                phase, "phase", self._tick, now,
                lane=self.lane, **self.labels, round=self.round_idx,
            )

    def end_wave(self, owner: Any, index: int, clients: int, started: float) -> None:
        """Close one wave of ``owner``'s round: the ``wave`` span (sharing its
        start with the wave's first phase) and the monitor's wave-boundary
        check."""
        if self.tracer is not None:
            self.tracer.emit_span(
                "wave", "round", started, time.perf_counter(),
                lane=self.lane, **self.labels, round=self.round_idx,
                wave=index, clients=clients,
            )
        monitor = current_monitor()
        if monitor is not None:
            monitor.on_wave(owner, self.round_idx, index)


def run_client_phases(
    *,
    executor: LocalExecutor,
    exchange: PacketExchange,
    communicator: Optional[Communicator],
    clock: PhaseClock,
    round_idx: int,
    ids: Sequence[int],
    payload: Mapping[str, np.ndarray],
    wave: int,
    acquire: Callable[[int], BaseClient],
    release: Optional[Callable[[int], None]],
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

    The survivors then run in waves of at most ``wave``: ``acquire`` →
    ``open_dispatch`` → ``executor.update`` → ``encode_upload`` /
    ``reconcile`` → ``collect`` → ``executor.settle`` → ``sink`` + privacy
    charge → ``release``, so no more than ``wave`` clients are ever live.
    An eager population is one wave of everyone with a dict lookup as
    ``acquire`` and no ``release``.  When the executor's worker processes
    own a store-backed population, the whole cohort is one wave with nothing
    acquired parent-side; should that round not be poolable it is re-run in
    ordinary waves.

    ``sink(cid, packet, dispatched_global)`` is the single decode point
    (``server.ingest`` for the flat runner, ``ingest_upload`` for an edge);
    ``dispatched_global`` is bitwise what every client saw.  Privacy budget
    is charged per *accepted* upload, keyed on ``(client, round, dispatched
    global)`` — uplink dead letters never consume epsilon, and a retried or
    crash-replayed release consumes it once.  ``on_wave(index, clients,
    started)`` fires after each acquired wave.  Returns the ids whose
    uploads reached the sink, in dispatch order.
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

    wave = max(1, int(wave))
    chunks = [active[start : start + wave] for start in range(0, len(active), wave)]
    pooled = executor.pools_store and len(active) > 1
    plan = [active] if pooled else chunks
    participants: List[int] = []
    privacy_key = None
    index = 0
    while index < len(plan):
        wave_ids = plan[index]
        started = clock.begin("broadcast")
        clients = [None] * len(wave_ids) if pooled else [acquire(cid) for cid in wave_ids]
        payloads = {cid: exchange.open_dispatch(received[cid]) for cid in wave_ids}
        clock.end("broadcast")

        # Any DP clipping/noising happens inside client.update — before the
        # codec encode below — so the guarantee survives quantization.
        clock.begin("local_update")
        if pooled:
            uploads = executor.update_pooled(wave_ids, payloads)
        else:
            uploads = executor.update(clients, payloads)
        clock.end("local_update")
        if uploads is None:
            # Not one shared template: the executor pulled the workers' state
            # home, so wave through the store in-process instead.
            pooled, plan = False, chunks
            continue

        # Encode each upload against the dispatched global and reconcile
        # lossy-codec client state with the decoded echo (the process
        # backend enforces a lossless wire, so pooled clients have none).
        clock.begin("gather")
        packets = {}
        for cid, client in zip(wave_ids, clients):
            reference = payloads[cid][GLOBAL_KEY]
            packets[cid] = exchange.encode_upload(uploads[cid], reference)
            if client is not None:
                exchange.reconcile(client, uploads[cid], packets[cid], reference)
        gathered = communicator.collect(round_idx, packets) if communicator is not None else packets
        executor.settle(gathered)
        clock.end("gather")

        clock.begin("aggregate")
        for cid, client in zip(wave_ids, clients):
            if cid not in gathered:
                continue
            sink(cid, gathered[cid], dispatched_global)
            participants.append(cid)
            privacy = client.config.privacy if client is not None else executor.pooled_privacy
            if accountant is not None and privacy.enabled:
                if privacy_key is None:
                    privacy_key = dispatch_fingerprint(round_idx, dispatched_global)
                accountant.record(cid, privacy.epsilon, key=privacy_key)
        clock.end("aggregate")
        if not pooled:
            if release is not None:
                for cid in wave_ids:
                    release(cid)
            if on_wave is not None:
                on_wave(index, len(wave_ids), started)
        index += 1
    return participants
