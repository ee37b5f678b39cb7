"""One client's trip over a virtual clock: dispatch → compute-done → arrival.

Both event-driven runners put clients on a timeline the same way —
:class:`~repro.asyncfl.runner.AsyncRunner` on its single loop, every
:class:`~repro.hier.async_runner.HierAsyncRunner` edge actor on its own — so
what happens to a client between dispatch and ingest lives here once:

* **dispatch** charges the downlink, decodes the client's own payload, pins
  the client, and schedules ``compute_done`` after download + device compute
  time.  A dispatch the fault plan crashes schedules a dead ``compute_done``
  instead: the update never runs, so the client's persistent state — and any
  server-side replica of it (IIADMM's duals) — stays exactly where it was.
* **compute-done** runs (or collects) the local update, encodes the upload
  against the *dispatched* global — the delta-codec reference and the global
  ``ingest`` will replay duals against, under any staleness — reconciles
  lossy-codec client state with the decoded echo, unpins the client, charges
  the uplink and schedules ``arrival``.  A crashed flight is tallied and its
  slot handed back.
* **arrival** charges privacy (keyless on purpose: on a timeline every
  arrival is a distinct release, and crashed dispatches never reach here),
  feeds the *sink*, and hands the slot back.

To add a timeline event to a client's trip, add it here.  The owners keep
only what is theirs: which client flies next, and what a freed slot means.

A flight holds exactly one pin on its owner's population
(:mod:`repro.core.population` — eager or a
:class:`~repro.scale.store.ClientStateStore`), taken at dispatch and dropped
when the upload is encoded, the flight crashes, or the owner
:meth:`~ClientFlights.abort`\\ s (an edge kill).  A ``compute_done`` popped
after a checkpoint resume re-takes the pin its save did not carry.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from ..comm.codecs import UpdatePacket
from ..comm.latency import LinkModel
from ..core.base import GLOBAL_KEY, BaseClient
from ..core.exchange import PacketExchange
from ..core.phases import PhaseClock
from ..obs import current_tracer
from ..privacy import PrivacyAccountant
from ..simulator.device import DeviceSpec, LocalUpdateCostModel
from .events import Event

__all__ = ["COMPUTE_DONE", "ARRIVAL", "ZERO_LINK", "per_client", "ClientFlights"]

COMPUTE_DONE = "compute_done"
ARRIVAL = "arrival"

#: a free link: zero latency, infinite bandwidth — transfers take 0 simulated
#: seconds, which is what the sync-equivalence guarantees assume.
ZERO_LINK = LinkModel(latency=0.0, bandwidth=math.inf)


def per_client(value, num_clients: int, kind: str) -> List:
    """Broadcast a scalar spec to one entry per client, or validate a sequence."""
    if isinstance(value, (list, tuple)):
        if len(value) != num_clients:
            raise ValueError(f"need one {kind} per client ({num_clients}), got {len(value)}")
        return list(value)
    return [value] * num_clients


class ClientFlights:
    """The in-flight clients of one virtual timeline.

    ``clock`` is the timeline's :class:`~repro.core.phases.PhaseClock`: its
    ``loop`` is the :class:`~repro.asyncfl.events.EventLoop` flights are
    scheduled on, its ``lane`` the trace lane, its ledger where wire
    bytes/seconds (under ``tier``) and crashed clients are tallied.  Clients
    are pinned from ``population``; ``devices`` / ``links`` map client ids to
    their :class:`DeviceSpec` / :class:`LinkModel`, ``slowdown`` to an optional
    compute-time multiplier (sampler-injected stragglers).  The owner plugs in:

    * ``sink(cid, packet, version, dispatched_global)`` — the single decode
      point an arrived upload is fed to;
    * ``on_done(cid, outcome)`` — the flight's slot is free; ``outcome`` is
      what the sink returned, ``None`` for a crashed flight;
    * ``trace_labels(version)`` — its labels for the flight's ``dispatch`` /
      ``arrival`` trace events;
    * optionally ``submit(client, payload) → Future | None`` to start local
      updates eagerly on a pool.  Without one they run in-line at pop time —
      bit-identical either way: an update depends only on the dispatched
      payload snapshot and the client's own state.
    """

    def __init__(
        self,
        clock: PhaseClock,
        exchange: PacketExchange,
        tier: str,
        accountant: PrivacyAccountant,
        cost_model: LocalUpdateCostModel,
        devices: Mapping[int, DeviceSpec],
        links: Mapping[int, LinkModel],
        sink: Callable[[int, UpdatePacket, int, np.ndarray], Any],
        on_done: Callable[[int, Any], None],
        trace_labels: Callable[[int], Dict[str, Any]],
        population,
        slowdown: Optional[Callable[[int], float]] = None,
        submit: Optional[Callable[[BaseClient, Dict[str, np.ndarray]], Optional[Future]]] = None,
    ):
        self.clock = clock
        self.loop = clock.loop
        self.ledger = clock.ledger
        self.exchange = exchange
        self.tier = tier
        self.accountant = accountant
        self.cost_model = cost_model
        self.devices = devices
        self.links = links
        self.sink = sink
        self.on_done = on_done
        self.trace_labels = trace_labels
        self.population = population
        self.slowdown = slowdown
        self.submit = submit
        #: fault layer deciding which dispatches crash (set by the owner's
        #: ``enable_faults``)
        self.injector = None
        #: clients currently checked out: one pin per flight
        self.pinned: Dict[int, BaseClient] = {}

    # ------------------------------------------------------------------ pins
    def acquire(self, cid: int) -> BaseClient:
        """The flight's pinned instance of ``cid`` (checked out on first use)."""
        client = self.pinned.get(cid)
        if client is None:
            client = self.pinned[cid] = self.population.checkout(cid)
        return client

    def release(self, cid: int) -> None:
        """Drop ``cid``'s pin, if it holds one (a store may then spill it)."""
        if self.pinned.pop(cid, None) is not None:
            self.population.release(cid)

    def abort(self) -> None:
        """The owner lost its volatile state: unpin every flight still
        holding a client (their events are the owner's to drop)."""
        for cid in list(self.pinned):
            self.release(cid)

    # -------------------------------------------------------------- dispatch
    def dispatch(self, cid: int, packet: UpdatePacket, version: int) -> None:
        """Send ``packet`` (the encoded global of model ``version``) to one
        client and schedule its compute.  Call inside the ``broadcast``
        interval the caller opened on :attr:`clock` (so the caller's packet
        encode is inside it too); dispatch closes it."""
        nbytes = packet.nbytes
        download = self.ledger.charge_wire(self.tier, self.links[cid], nbytes)
        payload = self.exchange.open_dispatch(packet)
        client = self.acquire(cid)
        compute = self.cost_model.local_update_time(self.devices[cid], client.num_samples)
        if self.slowdown is not None:
            compute = self.slowdown(cid) * compute
        # A re-dispatch at a standing version draws again: attempt = crashes this round.
        if self.injector is not None and self.injector.client_crashed(
            cid, version, self.ledger.failed.count(cid)
        ):
            # The client dies on-device mid-update: its in-memory progress is
            # lost and the failure surfaces when the upload would have been due.
            self.loop.schedule_after(
                download + compute, COMPUTE_DONE, cid=cid, version=version, crashed=True
            )
            self.clock.end("broadcast", client=cid)
            return
        future = self.submit(client, payload) if self.submit is not None else None
        self.loop.schedule_after(
            download + compute, COMPUTE_DONE, cid=cid, payload=payload, version=version, future=future
        )
        self.clock.end("broadcast", client=cid)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "dispatch", "async", lane=self.clock.lane, vt=self.loop.now,
                client=cid, nbytes=nbytes, **self.trace_labels(version),
            )

    # -------------------------------------------------------------- handlers
    def handle(self, event: Event) -> None:
        """Process one popped ``compute_done`` / ``arrival`` event."""
        if event.kind == COMPUTE_DONE:
            self._compute_done(event.data)
        elif event.kind == ARRIVAL:
            self._arrival(event.data)
        else:
            raise ValueError(f"unknown flight event kind {event.kind!r}")

    def _compute_done(self, data: Dict[str, Any]) -> None:
        cid = data["cid"]
        if data.get("crashed"):
            self.release(cid)
            self.ledger.failed.append(cid)
            self.injector.count("crash")
            self.on_done(cid, None)
            return
        client = self.acquire(cid)
        clock = self.clock
        clock.begin("local_update")
        future = data.get("future")
        if "upload" in data:
            # Quiesced/checkpointed event: client.update already ran (eagerly
            # or forced at save time) and its result travelled with the event.
            upload = data["upload"]
        elif future is not None:
            upload = future.result()
        else:
            upload = client.update(data["payload"])
        clock.end("local_update", client=cid)
        # DP noise was already applied inside client.update; the epsilon
        # travels with the event since the client may be spilled by arrival.
        clock.begin("gather")
        dispatched_global = data["payload"][GLOBAL_KEY]
        packet = self.exchange.encode_upload(upload, dispatched_global)
        self.exchange.reconcile(client, upload, packet, dispatched_global)
        privacy = client.config.privacy
        self.release(cid)
        clock.end("gather", client=cid)
        uplink = self.ledger.charge_wire(self.tier, self.links[cid], packet.nbytes)
        self.loop.schedule_after(
            uplink,
            ARRIVAL,
            cid=cid,
            upload=packet,
            version=data["version"],
            dispatched_global=dispatched_global,
            privacy_eps=privacy.epsilon if privacy.enabled else None,
        )

    def _arrival(self, data: Dict[str, Any]) -> None:
        cid = data["cid"]
        eps = data.get("privacy_eps")
        if eps is not None:
            self.accountant.record(cid, eps)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "arrival", "async", lane=self.clock.lane, vt=self.loop.now,
                client=cid, nbytes=data["upload"].nbytes, **self.trace_labels(data["version"]),
            )
        self.clock.begin("aggregate")
        outcome = self.sink(cid, data["upload"], data["version"], data["dispatched_global"])
        self.clock.end("aggregate", client=cid)
        self.on_done(cid, outcome)
