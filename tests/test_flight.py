"""The shared client-flight lifecycle, driven directly on a bare EventLoop.

:class:`repro.asyncfl.flight.ClientFlights` is what both event-driven runners
(``AsyncRunner`` and every hier-async edge actor) put clients on a virtual
clock with.  These tests pin its contract once, without a runner around it:
timing, the dispatched-global hand-off, the crash rule ("a crashed dispatch
never runs ``update``"), the one-pin-per-flight discipline, and the
quiesced/checkpointed ``compute_done`` form.
"""

import numpy as np
import pytest

from repro.asyncfl.events import Event, EventLoop
from repro.asyncfl.flight import ARRIVAL, COMPUTE_DONE, ClientFlights
from repro.comm import TCPLinkModel
from repro.core import MLP, FLConfig, build_endpoints
from repro.core.base import GLOBAL_KEY
from repro.core.exchange import PacketExchange
from repro.core.population import LivePopulation
from repro.core.phases import PhaseClock, RoundLedger
from repro.core.registry import get_algorithm
from repro.data import TensorDataset
from repro.faults import FaultInjector, FaultPlan
from repro.hier import RootFedBuff, build_hier_async_federation
from repro.privacy import PrivacyAccountant
from repro.scale import ClientStateStore, make_client_factory
from repro.simulator.device import A100, LocalUpdateCostModel

NUM_CLIENTS = 3
LINK = TCPLinkModel()
COST = LocalUpdateCostModel(local_steps=1)
MATRIX = [(mode, algorithm) for mode in ("eager", "store") for algorithm in ("fedavg", "iiadmm")]


def model_fn():
    return MLP(8, 3, hidden_sizes=(4,), rng=np.random.default_rng(7))


def datasets(n=NUM_CLIENTS):
    rng = np.random.default_rng(0)
    return [TensorDataset(rng.standard_normal((4, 8)), rng.integers(0, 3, 4)) for _ in range(n)]


class Harness:
    """One timeline with a recording sink in place of a runner."""

    def __init__(self, mode, algorithm, monkeypatch):
        config = FLConfig(
            algorithm=algorithm, num_rounds=1, local_steps=1, batch_size=4, lr=0.05,
            rho=2.0, zeta=2.0, seed=0,
        )
        server, clients = build_endpoints(config, model_fn, datasets())
        self.server = server
        self.population = LivePopulation(clients)
        if mode == "store":
            factory = make_client_factory(
                config, model_fn, datasets(), server.model.state_dict(), seed=0
            )
            self.population = ClientStateStore(factory, NUM_CLIENTS, live_cap=2, config=config)
        self.exchange = PacketExchange(config.codec)
        self.loop = EventLoop()
        self.ledger = RoundLedger(None, {"flat": None})
        self.sunk = []  # (cid, version, dispatched_global) per arrival
        self.freed = []  # (cid, outcome) per ended flight
        self.updated = []  # cids whose client.update ran

        client_cls = get_algorithm(algorithm)[1]
        real_update = client_cls.update

        def recording_update(client, payload):
            self.updated.append(client.client_id)
            return real_update(client, payload)

        monkeypatch.setattr(client_cls, "update", recording_update)

        def sink(cid, packet, version, dispatched_global):
            self.sunk.append((cid, version, dispatched_global))
            server.ingest(cid, packet, dispatched_global)
            return ("ingested", cid)

        self.flights = ClientFlights(
            PhaseClock(self.ledger, "test", loop=self.loop),
            self.exchange,
            "flat",
            PrivacyAccountant(),
            COST,
            [A100] * NUM_CLIENTS,
            [LINK] * NUM_CLIENTS,
            sink=sink,
            on_done=lambda cid, outcome: self.freed.append((cid, outcome)),
            trace_labels=lambda version: {"version": version},
            population=self.population,
        )

    def dispatch(self, cid, version=0):
        packet = self.exchange.encode_dispatch(self.server.broadcast_payload())
        self.flights.clock.begin("broadcast")
        self.flights.dispatch(cid, packet, version)
        return packet

    def drain(self):
        while self.loop:
            self.flights.handle(self.loop.pop())

    def pinned_count(self):
        return self.population.pinned_count


@pytest.mark.parametrize("mode,algorithm", MATRIX)
def test_flight_times_and_dispatched_global(mode, algorithm, monkeypatch):
    h = Harness(mode, algorithm, monkeypatch)
    packet = h.dispatch(0, version=4)
    download = LINK.transfer_time(packet.nbytes)
    compute = COST.local_update_time(A100, h.flights.acquire(0).num_samples)
    (done,) = h.loop.snapshot_events()
    assert (done.kind, done.time) == (COMPUTE_DONE, download + compute)
    dispatched = done.data["payload"][GLOBAL_KEY]

    h.flights.handle(h.loop.pop())
    (arrival,) = h.loop.snapshot_events()
    upload = arrival.data["upload"]
    assert (arrival.kind, arrival.time) == (ARRIVAL, download + compute + LINK.transfer_time(upload.nbytes))
    assert h.freed == [] and h.sunk == []

    h.flights.handle(h.loop.pop())
    assert [(cid, version) for cid, version, _ in h.sunk] == [(0, 4)]
    assert h.sunk[0][2] is dispatched  # the very snapshot the client trained on
    assert h.freed == [(0, ("ingested", 0))]
    assert h.updated == [0]
    assert h.ledger.wire_bytes["flat"] == packet.nbytes + upload.nbytes
    assert h.ledger.wire_seconds["flat"] == download + LINK.transfer_time(upload.nbytes)
    assert h.pinned_count() == 0


@pytest.mark.parametrize("mode,algorithm", MATRIX)
def test_planned_crash_never_runs_update(mode, algorithm, monkeypatch):
    h = Harness(mode, algorithm, monkeypatch)
    h.flights.injector = FaultInjector(FaultPlan(client_crashes={0: (1,)}))
    h.dispatch(0)
    h.dispatch(1)  # planned to die on-device
    h.drain()
    assert h.updated == [0]
    assert (1, None) in h.freed and (0, ("ingested", 0)) in h.freed
    assert h.ledger.failed == [1]
    assert h.flights.injector.stats.client_crashes == 1
    assert h.pinned_count() == 0  # the crashed flight's pin is dropped too
    if hasattr(h.server, "duals"):
        for cid in (0, 1):
            np.testing.assert_array_equal(h.flights.acquire(cid).dual, h.server.duals[cid])
            h.flights.release(cid)


@pytest.mark.parametrize("mode,algorithm", MATRIX)
def test_redispatch_at_the_same_version_draws_the_crash_again(mode, algorithm, monkeypatch):
    """A flight's crash verdict is keyed on (client, version, the client's
    crashes since the last round close) — so for both event-driven runners a
    client that died at a version is not dead for as long as it stands."""
    h = Harness(mode, algorithm, monkeypatch)
    plan = FaultPlan(seed=3, client_crash_prob=0.5)
    doomed = next(c for c in range(NUM_CLIENTS) if plan.client_crashed(c, 0))
    h.flights.injector = FaultInjector(plan)
    flights = 0
    while not h.updated:  # same client, same version, until one flight lives
        h.dispatch(doomed)
        h.drain()
        flights += 1
        assert flights < 20
    assert flights > 1 and h.ledger.failed == [doomed] * (flights - 1)
    assert [plan.client_crashed(doomed, 0, n) for n in range(flights)] == [True] * (flights - 1) + [False]


@pytest.mark.parametrize("mode,algorithm", MATRIX)
def test_compute_done_carrying_upload_skips_update(mode, algorithm, monkeypatch):
    """The quiesced/checkpointed event form: the update already ran, its
    result travels with the event — and a resumed run has lost the pin."""
    h = Harness(mode, algorithm, monkeypatch)
    h.dispatch(2)
    done = h.loop.pop()
    upload = h.flights.acquire(2).update(done.data["payload"])
    assert h.updated == [2]
    h.population.release(2)  # what a checkpoint save/restore does to pins
    h.flights.pinned.clear()
    data = {"cid": 2, "payload": done.data["payload"], "version": 0, "upload": upload}
    h.flights.handle(Event(done.time, done.seq, COMPUTE_DONE, data))
    assert h.updated == [2]  # not run a second time
    assert h.pinned_count() == 0
    h.drain()
    assert h.freed == [(2, ("ingested", 2))]


@pytest.mark.parametrize("algorithm", ("fedavg", "iiadmm"))
def test_actor_kill_mid_cohort_drops_exactly_its_pins(algorithm):
    """A store ``release`` without a matching checkout raises, so a balanced
    kill is one that neither leaks a pin nor releases one twice."""
    config = FLConfig(
        algorithm=algorithm, num_rounds=2, local_steps=1, batch_size=4, lr=0.05,
        rho=2.0, zeta=2.0, seed=0,
    )
    runner = build_hier_async_federation(
        config, model_fn, datasets(6), topology=[[0, 1, 2], [3, 4, 5]],
        strategy=RootFedBuff(2), live_cap=3, client_link=LINK, root_link=LINK,
    )
    runner.enable_faults(FaultPlan(client_crashes={0: (1,)}))
    runner.run(2, max_events=1)  # one upload encoded; a live and a doomed flight remain
    actor = runner.actors[0]
    store = actor.edge.population
    assert store.pinned_count == len(actor.flights.pinned) == 2
    actor.kill()
    assert store.pinned_count == 0 and not actor.flights.pinned
    assert [ev.kind for ev in actor.loop.snapshot_events()] == []
