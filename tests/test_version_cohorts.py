"""Async flights run as version cohorts.

When a ``compute_done`` pops with nothing computed, every pending flight of
the same model version runs with it through the stacked cohort engine
(:meth:`repro.asyncfl.flight.ClientFlights.precompute`), and each other
flight's upload waits on its event.  A flight's update depends only on the
dispatched global and its client's own state and RNG, and the flight pins the
client from dispatch to compute-done — so the run is bitwise the one that
updates each client alone at its own pop.  These tests hold that against a
B=1 run (the seam: ``run_batched_updates`` answering ``None``), across
checkpoints taken while cohort-computed uploads are pending and hier-async
edge kills that land after a precompute; they also pin the pooled scratch
(one set, at the widest cohort), lane-owned released rows and the async
rounds' ``client_steps``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncfl import FedBuffStrategy, UniformSampler, build_async_federation
from repro.asyncfl import flight
from repro.asyncfl.flight import COMPUTE_DONE
from repro.comm import TCPLinkModel
from repro.comm.serialization import encode_state_blob
from repro.core import MLP, FLConfig, PrivacyConfig
from repro.core.base import GLOBAL_KEY
from repro.core.batched import count_client_steps, run_batched_updates
from repro.core.runner import build_endpoints
from repro.data import TensorDataset
from repro.faults import FaultPlan
from repro.hier import RootFedBuff, build_hier_async_federation
from repro.nn.functional import _pool
from repro.obs import MetricsRegistry
from repro.scale import RunCheckpoint, build_virtual_async_federation
from repro.simulator import DEVICE_CATALOG

NUM_CLIENTS = 8
CONCURRENCY = 4
ROUNDS = 5
DEVICES = [DEVICE_CATALOG[("A100", "V100", "CPU")[i % 3]] for i in range(NUM_CLIENTS)]


def _datasets(num_clients=NUM_CLIENTS, n=12, d=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        TensorDataset(rng.standard_normal((n, d)), rng.integers(0, classes, n)) for _ in range(num_clients)
    ]


def _model_fn():
    return MLP(6, 3, hidden_sizes=(5,), rng=np.random.default_rng(42))


def _config(algorithm, dtype="float64", codec="identity", private=False, seed=0):
    return FLConfig(
        algorithm=algorithm, num_rounds=ROUNDS, local_steps=1, batch_size=4, lr=0.05,
        rho=2.0, zeta=2.0, seed=seed, dtype=dtype, codec=codec,
        privacy=PrivacyConfig(epsilon=5.0, clip_norm=0.5) if private else PrivacyConfig(),
    )


def _build(config, store, sampler_seed=0, buffer=2):
    kwargs = dict(
        strategy=FedBuffStrategy(buffer),
        sampler=UniformSampler(NUM_CLIENTS, fraction=0.5, seed=sampler_seed),
        devices=DEVICES, link=TCPLinkModel(), concurrency=CONCURRENCY,
    )
    test = _datasets(1, n=20, seed=99)[0]
    if store:
        return build_virtual_async_federation(
            config, _model_fn, _datasets(), live_cap=CONCURRENCY + 2, test_dataset=test, **kwargs
        )
    return build_async_federation(config, _model_fn, _datasets(), test, **kwargs)


def _history_key(history):
    return [
        (r.round, r.test_accuracy, r.test_loss, r.comm_bytes, r.wall_clock_seconds,
         r.participating_clients, r.client_steps)
        for r in history.rounds
    ]


def _client_blobs(population, ids):
    """Every client's persistent state as bytes (bitwise comparable)."""
    blobs = []
    for cid in ids:
        blobs.append(encode_state_blob(population.checkout(cid).client_state()))
        population.release(cid)
    return blobs


def _population_state(population):
    """A population's snapshot, every row as bytes (bitwise comparable)."""
    return {
        table: {
            cid: row if isinstance(row, bytes) else encode_state_blob({"row": row})
            for cid, row in rows.items()
        }
        for table, rows in population.snapshot().items()
    }


def _cohort_lanes(monkeypatch, per_client=False):
    """Route the flights' cohort engine through a counting spy; with
    ``per_client`` it answers ``None`` (no cohort forms: B=1 everywhere)."""
    lanes = []

    def spy(clients, payloads, client_batch, tracer=None):
        if per_client:
            return None
        result = run_batched_updates(clients, payloads, client_batch, tracer)
        if result is not None:
            lanes.append(len(result[0]))
        return result

    monkeypatch.setattr(flight, "run_batched_updates", spy)
    return lanes


def _pending_cohort_uploads(loop):
    return [
        ev.data["cid"] for ev in loop.snapshot_events() if ev.kind == COMPUTE_DONE and "upload" in ev.data
    ]


# ------------------------------------------------------------- equivalence
@settings(max_examples=30, deadline=None)
@given(
    algorithm=st.sampled_from(["fedavg", "iiadmm", "iceadmm"]),
    dtype=st.sampled_from(["float64", "float32"]),
    codec=st.sampled_from(["identity", "delta|int8"]),
    private=st.booleans(),
    store=st.booleans(),
    seed=st.integers(0, 3),
)
def test_version_cohorts_are_bitwise_per_client_updates(algorithm, dtype, codec, private, store, seed):
    config = _config(algorithm, dtype, codec, private, seed)
    runs = []
    for per_client in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            lanes = _cohort_lanes(mp, per_client)
            runner = _build(config, store, sampler_seed=seed)
            history = runner.run(ROUNDS)
            runner.quiesce()  # pending flights computed on both sides
            runs.append((runner, history, lanes))
    (cohort, h_cohort, lanes), (single, h_single, _) = runs
    assert sum(lanes) >= 2, "no version cohort formed"
    assert _history_key(h_cohort) == _history_key(h_single)
    assert encode_state_blob(cohort.server.server_state()) == encode_state_blob(single.server.server_state())
    assert _population_state(cohort.population) == _population_state(single.population)


def test_thread_backend_runs_version_cohorts(monkeypatch):
    """``parallel_clients > 1`` starts no future for a client with a batched
    kernel — it waits for its cohort — and changes no bit."""
    config = _config("iiadmm")
    reference = _build(config, store=False).run(ROUNDS)
    lanes = _cohort_lanes(monkeypatch)
    threaded = _build(replace(config, execution_backend="thread", parallel_clients=2), store=False)
    assert _history_key(threaded.run(ROUNDS)) == _history_key(reference)
    assert sum(lanes) >= 2


# ------------------------------------------------------------- checkpoints
@pytest.mark.parametrize("store", [False, True], ids=["eager", "store"])
def test_checkpoint_with_cohort_computed_uploads_pending_resumes_bitwise(store, check_dual_replicas):
    config = _config("iiadmm", codec="delta|int8")
    full = _build(config, store)
    reference = full.run(ROUNDS)

    first = _build(config, store)
    while not _pending_cohort_uploads(first._clock):
        first.run(ROUNDS, max_events=1)
    assert len(first.history) < ROUNDS
    blob = RunCheckpoint.save(first).to_bytes()
    resumed = _build(config, store)
    RunCheckpoint.from_bytes(blob).restore(resumed)
    resumed.run(ROUNDS - len(resumed.history))
    assert _history_key(resumed.history) == _history_key(reference)
    np.testing.assert_array_equal(resumed.server.global_params, full.server.global_params)
    check_dual_replicas(resumed)


# ------------------------------------------------------ hier-async edge kill
@pytest.mark.parametrize("live_cap", [None, 6], ids=["eager", "store"])
def test_hier_edge_kill_after_a_precompute_rolls_back_and_reruns(live_cap):
    """One edge over six clients: its whole cohort flies at one version, so
    the first ``compute_done`` runs every update.  A kill right then rolls
    the touched clients back to the edge's slice, and the edge re-runs the
    cohort: the model trajectory is the kill-free run's (only the virtual
    clock and the re-sent bytes tell the two apart)."""
    config = _config("iiadmm", codec="delta|int8")
    topology = [list(range(6))]

    def build():
        return build_hier_async_federation(
            config, _model_fn, _datasets(6), test_dataset=_datasets(1, n=20, seed=99)[0],
            topology=topology, strategy=RootFedBuff(1), live_cap=live_cap,
            client_link=TCPLinkModel(), root_link=TCPLinkModel(),
        )

    clean = build()
    fresh = _client_blobs(clean.edges[0].population, topology[0])
    probe = build()
    while not _pending_cohort_uploads(probe.actors[0].loop):
        probe.run(ROUNDS, max_events=1)
    kill_at = probe.events_processed
    assert _client_blobs(probe.edges[0].population, topology[0]) != fresh  # the precompute touched them

    clean_history = clean.run(ROUNDS)
    killed = build()
    killed.enable_faults(FaultPlan(edge_kills=((kill_at, 0),)))
    killed.run(ROUNDS, max_events=kill_at)
    assert killed.injector.stats.edge_kills == 1
    assert _client_blobs(killed.edges[0].population, topology[0]) == fresh
    killed_history = killed.run(ROUNDS - len(killed.history))

    def trajectory(history):
        return [(r.test_accuracy, r.test_loss, r.participating_clients) for r in history.rounds]

    assert trajectory(killed_history) == trajectory(clean_history)
    np.testing.assert_array_equal(killed.server.global_params, clean.server.global_params)
    assert encode_state_blob(killed.edges[0].server.server_state()) == encode_state_blob(
        clean.edges[0].server.server_state()
    )


# ---------------------------------------------------------------- memory
def _lanes(algorithm, n, private=False):
    config = _config(algorithm, private=private)
    server, clients = build_endpoints(config, _model_fn, _datasets(n))
    payloads = {c.client_id: {GLOBAL_KEY: server.global_params.copy()} for c in clients}
    return clients, payloads


def _pool_bytes():
    return sum(buf.nbytes for stack in _pool.free.values() for buf in stack)


def test_pool_holds_one_set_at_the_widest_cohort(monkeypatch):
    clients, payloads = _lanes("iiadmm", 16)
    monkeypatch.setattr(_pool, "free", {})
    run_batched_updates(clients, payloads, 16)
    widest = _pool_bytes()
    monkeypatch.setattr(_pool, "free", {})
    for width in list(range(2, 17)) + list(range(15, 1, -1)):
        run_batched_updates(clients[:width], payloads, width)
    assert 0 < _pool_bytes() <= widest


@pytest.mark.parametrize("private", [False, True], ids=["plain", "dp"])
@pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm", "iceadmm"])
def test_lanes_own_what_outlives_the_cohort(algorithm, private):
    """No two lanes' ``primal`` or upload arrays share memory, and an ADMM
    lane's ``primal`` (IIADMM's upload too) owns its buffer: a row view of
    the cohort's release block would keep the whole block alive for as long
    as the client holds its primal."""
    clients, payloads = _lanes(algorithm, 4, private)
    uploads, leftover, _ = run_batched_updates(clients, payloads, 4)
    assert not leftover
    held = [
        [x for x in [getattr(c, "primal", None), *uploads[c.client_id].values()] if x is not None]
        for c in clients
    ]
    for a in range(len(clients)):
        for b in range(a + 1, len(clients)):
            assert not any(np.shares_memory(x, y) for x in held[a] for y in held[b])
    if algorithm != "fedavg":
        assert all(c.primal.base is None for c in clients)
    if algorithm == "iiadmm":
        assert all(uploads[c.client_id]["primal"] is c.primal for c in clients)


# ------------------------------------------------------------- telemetry
def test_async_rounds_report_the_aggregated_client_steps():
    """A round counts the steps of the uploads it aggregated: an upload a
    buffer overwrote before its flush did not enter the model."""
    runner = _build(_config("iiadmm"), store=False, buffer=3)
    history = runner.run(3 * ROUNDS)
    arrivals = len(runner.async_server.staleness_log)
    assert arrivals > sum(len(r.participating_clients) for r in history.rounds)  # overwrites happened
    per_client = {c.client_id: count_client_steps(c) for c in runner.clients}
    for r in history.rounds:
        assert r.client_steps == sum(per_client[cid] for cid in r.participating_clients) > 0
    assert runner.client_steps == sum(r.client_steps for r in history.rounds)
    gauges = MetricsRegistry().absorb_runner(runner).snapshot()["gauges"]
    key = next(k for k in gauges if "client_steps_per_sec" in k)
    assert gauges[key] == pytest.approx(runner.client_steps / runner.phase_seconds["local_update"])
