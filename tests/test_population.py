"""The population contract: one interface, two implementations.

Every runner, edge, flight, process pool and checkpoint holds its clients as
one population (:mod:`repro.core.population`): eager clients as a
:class:`~repro.core.population.LivePopulation`, a virtual population as a
:class:`~repro.scale.store.ClientStateStore`.  The contract is pinned here
once, for both: pins, ``snapshot`` → ``restore`` bitwise, and the worker-shard
hand-off to a real 2-worker :class:`~repro.mp.pool.ProcessWorkerPool` and back
(``sync_parent`` / ``push_from_parent``) bitwise.  Plus the runner-level
promise the single pooled path makes: an eager process round checks nothing
out parent-side, and its mirrors equal a serial run once synced.
"""

import numpy as np
import pytest

from repro.core import FLConfig, build_endpoints, build_federation
from repro.core.base import GLOBAL_KEY
from repro.core.models import SeededModelFn
from repro.core.population import LivePopulation
from repro.data import TensorDataset
from repro.mp import ProcessWorkerPool
from repro.scale import ClientStateStore, make_client_factory

NUM_CLIENTS = 5
MODEL_FN = SeededModelFn("mlp", (1, 1, 6), 3, seed=42, hidden_sizes=(5,))
KINDS = ("live", "store")


def _config(**kwargs):
    return FLConfig(algorithm="iiadmm", local_steps=2, batch_size=2, lr=0.05, seed=0, **kwargs)


def _datasets():
    out = []
    for cid in range(NUM_CLIENTS):
        rng = np.random.default_rng(cid)
        out.append(TensorDataset(rng.standard_normal((4, 6)), rng.integers(0, 3, size=4)))
    return out


def _population(kind):
    """A fresh population of ``kind`` and the server its clients talk to."""
    config = _config()
    server, clients = build_endpoints(config, MODEL_FN, _datasets())
    if kind == "live":
        return LivePopulation(clients), server
    factory = make_client_factory(config, MODEL_FN, _datasets(), server.model.state_dict())
    return ClientStateStore(factory, NUM_CLIENTS, live_cap=2, config=config), server


def _payload(server):
    return {GLOBAL_KEY: server.global_params.copy()}


def _train(population, server):
    """One round of every client's local update, in-process."""
    for cid in population.ids:
        population.checkout(cid).update(_payload(server))
        population.release(cid)


def _fingerprint(population):
    """Every client's persistent state as bytes, read while pinned."""
    rows = []
    for cid in population.ids:
        state = population.checkout(cid).client_state()
        rows.append(
            (cid, int(state["round"]), repr(state["rng"]), state["dual"].tobytes(),
             state["primal"].tobytes())
        )
        population.release(cid)
    return rows


@pytest.mark.parametrize("kind", KINDS)
def test_checkout_release_and_pins(kind):
    population, _ = _population(kind)
    assert list(population.ids) == list(range(NUM_CLIENTS))
    assert population.num_clients == NUM_CLIENTS and population.live_cap >= 2
    first = population.checkout(0)
    assert population.checkout(0) is first  # nested checkouts stack on one client
    population.checkout(1)
    assert population.pinned_count == 2
    population.release(0)
    assert population.pinned_count == 2
    population.release(0)
    population.release(1)
    assert population.pinned_count == 0
    with pytest.raises(RuntimeError, match="matching checkout"):
        population.release(1)
    assert population.config_of(3).privacy == _config().privacy


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_restore_is_bitwise(kind):
    population, server = _population(kind)
    _train(population, server)
    saved = population.snapshot()
    before = _fingerprint(population)
    _train(population, server)
    assert _fingerprint(population) != before
    population.restore(saved)
    assert _fingerprint(population) == before


@pytest.mark.parametrize("kind", KINDS)
def test_shard_hand_off_through_a_pool_is_bitwise(kind):
    """Workers own ``shard()``s of the population; a pooled round pulled home
    equals the same round run in-process, and a push sends the parent's
    state down exactly."""
    population, server = _population(kind)
    twin, _ = _population(kind)
    _train(population, server)
    _train(twin, server)
    pool = ProcessWorkerPool(population, 2)
    try:
        assert [len(shard) for shard in pool.shards] == [3, 2]
        saved = population.snapshot()
        one_round = _fingerprint(population)
        pool.sync_parent()  # the shards come straight back
        assert _fingerprint(population) == one_round

        ids = list(population.ids)
        pool.run_round(ids, _payload(server))
        pool.sync_parent()
        _train(twin, server)
        assert _fingerprint(population) == _fingerprint(twin)

        population.restore(saved)
        pool.push_from_parent()  # rewind the workers to the parent's state
        pool.run_round(ids, _payload(server))
        pool.sync_parent()
        assert _fingerprint(population) == _fingerprint(twin)
    finally:
        pool.close()


def test_eager_process_round_checks_nothing_out_parent_side(monkeypatch):
    """The one pooled path: an eager population on the process backend is
    never checked out in the parent (the workers own it), and after
    ``sync_parent`` the parent's mirrors equal a serial run's clients —
    parameters included."""

    def build(backend):
        config = _config(execution_backend=backend, parallel_clients=2)
        return build_federation(config, MODEL_FN, _datasets())

    def mirrors(runner):
        return [
            (c.client_id, c.round, c.vectorizer.flat_params.tobytes(), c.dual.tobytes(),
             repr(c.rng.bit_generator.state))
            for c in runner.clients
        ]

    serial = build("serial")
    for rnd in range(2):
        serial.run_round(rnd)

    checkouts = []
    real_checkout = LivePopulation.checkout

    def counting(self, cid):
        checkouts.append(cid)
        return real_checkout(self, cid)

    monkeypatch.setattr(LivePopulation, "checkout", counting)
    pooled = build("process")
    try:
        for rnd in range(2):
            pooled.run_round(rnd)
        assert checkouts == []
        pooled.executor.sync_parent()
        assert mirrors(pooled) == mirrors(serial)
        assert pooled.server.global_params.tobytes() == serial.server.global_params.tobytes()
    finally:
        pooled.close()
