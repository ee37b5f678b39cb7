"""Client-virtualization tests: ClientStateStore, virtual runners, 10k scale.

Covers the ISSUE 4 acceptance bar directly:

* a 10,000-client FedAvg (sync) and IIADMM (async) run completes under a
  configured live-client cap, with peak client-state memory bounded by the
  cap — asserted via the store's own accounting;
* eager mode (plain client lists) is bit-for-bit unchanged, and the virtual
  runners reproduce the eager histories bitwise for all three algorithms.
"""

import numpy as np
import pytest

from repro.asyncfl import FedBuffStrategy, UniformSampler, build_async_federation
from repro.core import FLConfig, build_federation, build_model
from repro.core.models import MLP
from repro.data import TensorDataset, load_dataset
from repro.harness.scaling import PopulationSweepSettings, make_population
from repro.scale import (
    ClientStateStore,
    build_virtual_async_federation,
    build_virtual_federation,
    make_client_factory,
)

NUM_CLIENTS = 6


def _workload():
    return load_dataset("mnist", num_clients=NUM_CLIENTS, train_size=120, test_size=60, seed=0)


def _config(algorithm, **kwargs):
    defaults = dict(
        num_rounds=3, local_steps=2, batch_size=32, lr=0.03, rho=10.0, zeta=10.0, seed=0
    )
    defaults.update(kwargs)
    return FLConfig(algorithm=algorithm, **defaults)


def _model_fn(spec):
    return lambda: build_model("mlp", spec.image_shape, spec.num_classes, rng=np.random.default_rng(7))


def _key(history):
    return [
        (r.round, r.test_accuracy, r.test_loss, r.comm_bytes, r.wall_clock_seconds, r.participating_clients)
        for r in history.rounds
    ]


def _make_store(algorithm="iiadmm", num_clients=NUM_CLIENTS, live_cap=2, **store_kwargs):
    clients, _, spec = _workload()
    config = _config(algorithm)
    model_fn = _model_fn(spec)
    initial = model_fn().state_dict()
    factory = make_client_factory(config, model_fn, clients, initial)
    return ClientStateStore(factory, num_clients, live_cap, config=config, **store_kwargs), config


# ------------------------------------------------------------------ the store
class TestClientStateStore:
    def test_checkout_materialises_and_pins(self):
        store, _ = _make_store(live_cap=2)
        # A reference is valid only until its release (the store may re-point
        # the object at another id afterwards): read ids while pinned.
        assert store.checkout(0).client_id == 0
        b = store.checkout(1)
        assert store.live_count == 2 and store.pinned_count == 2
        # cap reached and everyone pinned: a third checkout must fail loudly
        with pytest.raises(RuntimeError, match="live_cap"):
            store.checkout(2)
        store.release(0)
        c = store.checkout(2)  # evicts client 0
        assert store.live_count == 2
        assert not store.is_live(0) and store.blob_nbytes(0) > 0
        assert b.client_id == 1 and c.client_id == 2

    def test_checkout_of_live_client_is_a_hit(self):
        store, _ = _make_store()
        first = store.checkout(0)
        again = store.checkout(0)
        assert first is again
        assert store.stats.hits == 1 and store.stats.materializations == 1
        store.release(0)
        store.release(0)

    def test_nested_pins_stack(self):
        store, _ = _make_store(live_cap=1)
        store.checkout(0)
        store.checkout(0)
        store.release(0)
        # still pinned once: cannot be evicted for another client
        with pytest.raises(RuntimeError):
            store.checkout(1)
        store.release(0)
        store.checkout(1)

    def test_release_without_checkout_fails(self):
        store, _ = _make_store()
        with pytest.raises(RuntimeError, match="matching checkout"):
            store.release(0)

    def test_eviction_round_trips_state_bitwise(self):
        store, _ = _make_store(live_cap=1)
        client = store.checkout(0)
        client.dual[:] = np.linspace(-1.0, 1.0, client.dual.size)
        client.round = 7
        rng_draw_expected = None
        state = {"dual": client.dual.copy(), "rng": client.rng.bit_generator.state}
        store.release(0)
        store.checkout(1)  # evicts 0
        store.release(1)
        revived = store.checkout(0)  # materialise from blob
        np.testing.assert_array_equal(revived.dual, state["dual"])
        assert revived.round == 7
        assert revived.rng.bit_generator.state == state["rng"]
        store.release(0)

    @pytest.mark.parametrize("compress", [None, "zlib"])
    def test_compression_round_trip(self, compress):
        store, _ = _make_store(live_cap=1, compress=compress)
        client = store.checkout(0)
        client.dual[:] = 0.5
        store.release(0)
        store.flush()
        revived = store.checkout(0)
        assert np.all(revived.dual == 0.5)
        store.release(0)

    def test_zlib_shrinks_redundant_state(self):
        plain, _ = _make_store(live_cap=1)
        packed, _ = _make_store(live_cap=1, compress="zlib")
        for store in (plain, packed):
            client = store.checkout(0)
            # make the whole state maximally redundant (dual is already zeros)
            client.primal = np.zeros_like(client.primal)
            store.release(0)
            store.flush()
        assert packed.blob_nbytes(0) < plain.blob_nbytes(0) / 4

    def test_lossy_state_codec_bounds_error(self):
        """A PR 3 codec stack can compress the spilled state (lossily)."""
        store, _ = _make_store(live_cap=1, state_codec="fp16")
        client = store.checkout(0)
        client.dual[:] = np.linspace(-1.0, 1.0, client.dual.size)
        reference = client.dual.copy()
        store.release(0)
        store.flush()
        revived = store.checkout(0)
        assert not np.array_equal(revived.dual, reference)  # lossy…
        assert np.allclose(revived.dual, reference, atol=2.0**-10)  # …but bounded
        store.release(0)

    def test_snapshot_restore(self):
        store, _ = _make_store(live_cap=2)
        client = store.checkout(0)
        client.round = 5
        store.release(0)
        snap = store.snapshot()
        other, _ = _make_store(live_cap=2)
        other.restore(snap)
        assert other.checkout(0).round == 5


# ------------------------------------------------------- eager == virtual
class TestVirtualEquivalence:
    @pytest.mark.parametrize("algorithm", ["fedavg", "iceadmm", "iiadmm"])
    def test_sync_history_bitwise_equal(self, algorithm):
        clients, test, spec = _workload()
        config = _config(algorithm)
        eager = build_federation(config, _model_fn(spec), clients, test)
        h_eager = eager.run()
        virtual = build_virtual_federation(config, _model_fn(spec), clients, live_cap=2, test_dataset=test)
        h_virtual = virtual.run()
        assert _key(h_eager) == _key(h_virtual)
        np.testing.assert_array_equal(eager.server.global_params, virtual.server.global_params)
        assert virtual.population.stats.peak_live <= 2

    def test_sync_lossy_codec_and_parallel_waves(self):
        clients, test, spec = _workload()
        config = _config("iiadmm", codec="delta|int8", parallel_clients=2)
        eager = build_federation(config, _model_fn(spec), clients, test)
        h_eager = eager.run()
        virtual = build_virtual_federation(config, _model_fn(spec), clients, live_cap=3, test_dataset=test)
        h_virtual = virtual.run()
        assert _key(h_eager) == _key(h_virtual)
        # lossy wire: the dual replicas must still match the server bitwise
        for cid in range(NUM_CLIENTS):
            client = virtual.population.checkout(cid)
            np.testing.assert_array_equal(client.dual, virtual.server.duals[cid])
            virtual.population.release(cid)

    def test_async_history_bitwise_equal(self, monkeypatch):
        clients, test, spec = _workload()
        config = _config("iiadmm")
        # strategy and sampler are stateful: each build needs fresh instances
        kwargs = lambda: dict(
            strategy=FedBuffStrategy(2),
            sampler=UniformSampler(NUM_CLIENTS, fraction=0.5, seed=0),
            concurrency=2,
        )
        eager = build_async_federation(config, _model_fn(spec), clients, test, **kwargs())
        h_eager = eager.run(4)
        virtual = build_virtual_async_federation(
            config, _model_fn(spec), clients, live_cap=3, test_dataset=test, **kwargs()
        )
        h_virtual = virtual.run(4)
        assert _key(h_eager) == _key(h_virtual)
        assert virtual.population.stats.peak_live <= 3
        # eager thread-pool execution must engage for store-backed populations
        # too, without changing a bit (pinned clients stay valid in workers).
        # It runs the clients without a batched kernel — these MLP clients
        # wait for their version cohort — so the second pass makes every
        # client such a fallback client.
        from repro.asyncfl import runner as async_runner
        from repro.core.base import GLOBAL_KEY

        for fallback in (False, True):
            if fallback:
                monkeypatch.setattr(async_runner, "fallback_reason", lambda client: "client_type")
            parallel = build_virtual_async_federation(
                _config("iiadmm", parallel_clients=2), _model_fn(spec), clients,
                live_cap=3, test_dataset=test, **kwargs()
            )
            h_parallel = parallel.run(4)
            assert _key(h_eager) == _key(h_parallel)
            # the eager pool really engages in store mode (clients list is
            # empty, so the gate must consult the population size, not
            # len(clients)) — for fallback clients only
            client = parallel.flights.acquire(0)
            future = parallel._submit(client, {GLOBAL_KEY: parallel.server.global_params.copy()})
            assert (future is not None) == fallback
            if future is not None:
                future.result()
            parallel.flights.release(0)

    def test_async_concurrency_must_fit_cap(self):
        clients, test, spec = _workload()
        config = _config("iiadmm")
        with pytest.raises(ValueError, match="live_cap"):
            build_virtual_async_federation(
                config, _model_fn(spec), clients, live_cap=2, concurrency=4
            )

    def test_runner_rejects_clients_and_store_together(self):
        from repro.core.runner import FederatedRunner, build_endpoints

        clients, test, spec = _workload()
        config = _config("fedavg")
        server, endpoint_clients = build_endpoints(config, _model_fn(spec), clients)
        store, _ = _make_store("fedavg")
        with pytest.raises(ValueError, match="not both"):
            FederatedRunner(server, endpoint_clients, client_store=store)


# --------------------------------------------------------------- 10k clients
def _tiny_population(population):
    settings = PopulationSweepSettings(populations=(population,), live_cap=64)
    return make_population(settings, population)


class TestTenThousandClients:
    """The acceptance bar: 10k-client runs bounded by the live-client cap."""

    def test_fedavg_sync_10k_bounded_by_cap(self):
        population, cap = 10_000, 64
        datasets, model_fn = _tiny_population(population)
        config = FLConfig(algorithm="fedavg", num_rounds=1, local_steps=1, batch_size=4, seed=0)
        runner = build_virtual_federation(config, model_fn, datasets, live_cap=cap)
        history = runner.run(1)
        assert len(history) == 1
        assert history.rounds[0].participating_clients == tuple(range(population))
        stats = runner.population.stats
        # memory bound, by store accounting: never more than `cap` live
        # clients, and everyone materialised exactly once this round
        assert stats.peak_live <= cap
        assert runner.population.live_count <= cap
        assert stats.materializations == population

    def test_iiadmm_async_10k_bounded_by_cap(self):
        population, cap = 10_000, 64
        datasets, model_fn = _tiny_population(population)
        config = FLConfig(
            algorithm="iiadmm", num_rounds=1, local_steps=1, batch_size=4, seed=0, rho=10.0, zeta=10.0
        )
        runner = build_virtual_async_federation(
            config,
            model_fn,
            datasets,
            live_cap=cap,
            strategy=FedBuffStrategy(32),
            sampler=UniformSampler(population, fraction=0.005, seed=0),
            concurrency=32,
        )
        history = runner.run(4)
        assert len(history) == 4
        stats = runner.population.stats
        assert stats.peak_live <= cap
        # the sampler only ever touched a tiny fraction of the population
        assert stats.materializations < population // 10
        # spilled state stays compact: bounded client-state memory even if
        # every idle client is spilled at once (run() pre-dispatched the next
        # in-flight cohort on exit, and in-flight clients stay pinned)
        runner.population.flush()
        assert runner.population.live_count <= 32
        assert len(runner.population._blobs) > 0
        per_client = runner.population.store_nbytes / len(runner.population._blobs)
        assert per_client < 16_000  # tiny MLP: ~2 vectors + RNG words


@pytest.mark.slow
class TestPopulationSweep:
    """The full wall-clock/RSS sweep (slow tier: `pytest -m slow`)."""

    def test_sweep_to_10k(self):
        from repro.harness.scaling import run_population_sweep

        settings = PopulationSweepSettings(populations=(100, 1_000, 10_000), live_cap=64)
        result = run_population_sweep(settings)
        rendered = result.render()
        assert "clients/GB" in rendered
        for point in result.points:
            assert point.peak_live <= settings.live_cap
            assert point.materializations >= point.num_clients
        # the store really is proportional to population (same per-client blob)
        small, large = result.point(100), result.point(10_000)
        ratio = large.store_nbytes / small.store_nbytes
        assert 80 <= ratio <= 120
        # RSS must not scale with the population: 100x more clients, far less
        # than 10x the resident set (the whole point of virtualization).
        assert large.peak_rss_mb < 10 * max(small.peak_rss_mb, 1.0)
