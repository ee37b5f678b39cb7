"""Tests for the event-driven async federation subsystem (repro.asyncfl)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.asyncfl import (
    AvailabilityTraceSampler,
    EventLoop,
    FedAsyncStrategy,
    FedBuffStrategy,
    FullParticipationSampler,
    SyncRoundStrategy,
    UniformSampler,
    WeightedSampler,
    build_async_federation,
    staleness_weight,
)
from repro.comm import TCPLinkModel
from repro.core import FLConfig, build_federation, build_model
from repro.data import load_dataset
from repro.harness.reporting import format_history
from repro.simulator import A100, CPU_DEVICE, V100


def tiny_mnist(num_clients=4, train_size=240, test_size=80):
    return load_dataset("mnist", num_clients=num_clients, train_size=train_size, test_size=test_size, seed=0)


def mlp_fn(spec):
    def model_fn():
        return build_model("mlp", spec.image_shape, spec.num_classes, rng=np.random.default_rng(42))

    return model_fn


def tiny_config(algorithm="fedavg", **kwargs):
    defaults = dict(num_rounds=3, local_steps=2, batch_size=64, lr=0.03, rho=10.0, zeta=10.0, seed=0)
    defaults.update(kwargs)
    return FLConfig(algorithm=algorithm, **defaults)


class TestEventLoop:
    def test_orders_by_time_then_insertion(self):
        loop = EventLoop()
        loop.schedule(2.0, "b")
        loop.schedule(1.0, "a")
        loop.schedule(1.0, "a2")
        loop.schedule(3.0, "c")
        kinds = [loop.pop().kind for _ in range(4)]
        assert kinds == ["a", "a2", "b", "c"]
        assert loop.now == 3.0
        assert not loop

    def test_cannot_schedule_in_the_past(self):
        loop = EventLoop()
        loop.schedule(5.0, "x")
        loop.pop()
        with pytest.raises(ValueError):
            loop.schedule(4.0, "y")
        with pytest.raises(ValueError):
            loop.schedule_after(-1.0, "y")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventLoop().pop()


class TestStalenessWeight:
    def test_zero_staleness_is_one_for_every_kind(self):
        for kind in ("constant", "polynomial", "hinge"):
            assert staleness_weight(0, kind) == 1.0

    def test_polynomial_decays(self):
        weights = [staleness_weight(t, "polynomial", a=0.5) for t in range(5)]
        assert weights == sorted(weights, reverse=True)
        assert weights[1] == pytest.approx(2 ** -0.5)

    def test_hinge_flat_then_decays(self):
        assert staleness_weight(4, "hinge", a=1.0, b=4.0) == 1.0
        assert staleness_weight(6, "hinge", a=1.0, b=4.0) == pytest.approx(1.0 / 3.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            staleness_weight(-1)
        with pytest.raises(ValueError):
            staleness_weight(1, "nope")


class TestSamplers:
    def test_full_participation_round_robin(self):
        s = FullParticipationSampler(4)
        assert s.sample_cohort() == (0, 1, 2, 3)
        assert [s.sample_one() for _ in range(6)] == [0, 1, 2, 3, 0, 1]
        assert s.sample_one(frozenset({2})) == 3

    def test_same_seed_same_schedule(self):
        for make in (
            lambda: UniformSampler(10, fraction=0.3, seed=7),
            lambda: WeightedSampler(list(range(1, 11)), fraction=0.3, seed=7),
            lambda: AvailabilityTraceSampler(
                UniformSampler(10, fraction=0.3, seed=7), dropout=0.2, straggler_fraction=0.3, seed=9
            ),
        ):
            a, b = make(), make()
            assert [a.sample_one() for _ in range(50)] == [b.sample_one() for _ in range(50)]
            assert [a.sample_cohort() for _ in range(10)] == [b.sample_cohort() for _ in range(10)]

    def test_uniform_cohort_size_and_exclusion(self):
        s = UniformSampler(10, fraction=0.3, seed=0)
        cohort = s.sample_cohort()
        assert len(cohort) == 3 and len(set(cohort)) == 3
        busy = frozenset(range(9))
        assert s.sample_one(busy) == 9

    def test_weighted_prefers_data_heavy_clients(self):
        s = WeightedSampler([1, 1, 1, 97], fraction=0.25, seed=0)
        draws = [s.sample_one() for _ in range(200)]
        assert draws.count(3) > 150

    def test_availability_trace_stragglers(self):
        s = AvailabilityTraceSampler(
            FullParticipationSampler(10), dropout=0.0, straggler_fraction=0.3, straggler_slowdown=4.0, seed=1
        )
        assert len(s.stragglers) == 3
        for cid in range(10):
            expected = 4.0 if cid in s.stragglers else 1.0
            assert s.compute_multiplier(cid) == expected

    def test_all_excluded_raises(self):
        s = FullParticipationSampler(2)
        with pytest.raises(RuntimeError):
            s.sample_one(frozenset({0, 1}))


class TestSyncEquivalence:
    """Acceptance criterion: full participation + zero latency + buffer = P
    reproduces the synchronous FederatedRunner history bit-for-bit."""

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm", "iceadmm"])
    def test_fedbuff_full_cohort_matches_sync_bitwise(self, algorithm):
        clients, test, spec = tiny_mnist()
        # Equal shards => equal simulated compute times => simultaneous arrivals.
        assert len({len(c) for c in clients}) == 1
        config = tiny_config(algorithm)  # float64 default
        model_fn = mlp_fn(spec)
        sync = build_federation(config, model_fn, clients, test)
        h_sync = sync.run()
        arun = build_async_federation(config, model_fn, clients, test, strategy=FedBuffStrategy(len(clients)))
        h_async = arun.run()
        assert [r.test_accuracy for r in h_sync.rounds] == [r.test_accuracy for r in h_async.rounds]
        assert [r.test_loss for r in h_sync.rounds] == [r.test_loss for r in h_async.rounds]
        assert np.array_equal(sync.server.global_params, arun.server.global_params)
        # Same per-round communication volume too (downlink + uplink).
        assert [r.comm_bytes for r in h_sync.rounds] == [r.comm_bytes for r in h_async.rounds]

    def test_fedasync_staleness_zero_reduces_to_sync_fedavg(self):
        clients, test, spec = tiny_mnist(num_clients=1, train_size=120, test_size=60)
        config = tiny_config("fedavg", local_steps=1)
        model_fn = mlp_fn(spec)
        sync = build_federation(config, model_fn, clients, test)
        h_sync = sync.run()
        arun = build_async_federation(config, model_fn, clients, test, strategy=FedAsyncStrategy(alpha=1.0))
        h_async = arun.run()
        # One client, nothing in flight => every upload has staleness 0, and
        # alpha * s(0) = 1 makes the mix exactly the FedAvg server update.
        assert arun.async_server.staleness_log == [0] * len(h_async)
        assert [r.test_accuracy for r in h_sync.rounds] == [r.test_accuracy for r in h_async.rounds]
        assert np.array_equal(sync.server.global_params, arun.server.global_params)


class TestAsyncRunner:
    def test_serial_equals_parallel_under_sampling(self):
        clients, test, spec = tiny_mnist(num_clients=6, train_size=360)
        devices = [A100, V100, CPU_DEVICE] * 2
        model_fn = mlp_fn(spec)

        def run_with(workers):
            config = tiny_config("iiadmm", parallel_clients=workers)
            runner = build_async_federation(
                config,
                model_fn,
                clients,
                test,
                strategy=FedBuffStrategy(3),
                sampler=UniformSampler(6, fraction=0.5, seed=1),
                devices=devices,
                link=TCPLinkModel(),
                concurrency=3,
            )
            history = runner.run()
            return history, runner.server.global_params.copy()

        h_serial, p_serial = run_with(1)
        h_parallel, p_parallel = run_with(4)
        assert [r.test_accuracy for r in h_serial.rounds] == [r.test_accuracy for r in h_parallel.rounds]
        assert [r.participating_clients for r in h_serial.rounds] == [
            r.participating_clients for r in h_parallel.rounds
        ]
        assert np.array_equal(p_serial, p_parallel)

    def test_heterogeneous_devices_produce_staleness_and_clock(self):
        clients, test, spec = tiny_mnist(num_clients=6, train_size=360)
        config = tiny_config("fedavg")
        runner = build_async_federation(
            config,
            mlp_fn(spec),
            clients,
            test,
            strategy=FedBuffStrategy(3),
            devices=[A100, V100, CPU_DEVICE] * 2,
            link=TCPLinkModel(),
        )
        history = runner.run(4)
        clocks = [r.wall_clock_seconds for r in history.rounds]
        assert all(c is not None and c > 0 for c in clocks)
        assert clocks == sorted(clocks)
        assert all(len(r.participating_clients) == 3 for r in history.rounds)
        assert runner.async_server.max_staleness() >= 1  # fast devices lap the CPU
        assert runner.events_processed >= 2 * sum(len(r.participating_clients) for r in history.rounds)

    def test_iiadmm_dual_replicas_survive_buffer_overwrites(self):
        """A fast client re-sampled before a FedBuff flush overwrites its
        buffered entry; its dual increment must still be replayed (once per
        upload) or the server replica drifts from the client's dual."""
        clients, test, spec = tiny_mnist(num_clients=4, train_size=240)
        config = tiny_config("iiadmm", num_rounds=8)
        runner = build_async_federation(
            config,
            mlp_fn(spec),
            clients,
            test,
            strategy=FedBuffStrategy(3),
            sampler=UniformSampler(4, fraction=0.5, seed=3),
            devices=[A100, A100, CPU_DEVICE, CPU_DEVICE],
            link=TCPLinkModel(),
            concurrency=2,
        )
        runner.run()
        # The fast clients lapped the CPU ones, so uploads were overwritten
        # in the buffer — the scenario that used to drop dual increments.
        uploads = runner.async_server.staleness_log
        assert len(uploads) > sum(len(r.participating_clients) for r in runner.history.rounds) - 3
        for client in runner.clients:
            assert np.array_equal(runner.server.duals[client.client_id], client.dual), (
                f"dual replica of client {client.client_id} drifted"
            )

    def test_round_based_strategy_with_availability_sampler(self):
        clients, test, spec = tiny_mnist(num_clients=6, train_size=360)
        config = tiny_config("fedavg")
        sampler = AvailabilityTraceSampler(
            UniformSampler(6, fraction=0.5, seed=2),
            dropout=0.2,
            straggler_fraction=0.34,
            straggler_slowdown=3.0,
            seed=3,
        )
        runner = build_async_federation(
            config, mlp_fn(spec), clients, test, strategy=SyncRoundStrategy(), sampler=sampler
        )
        history = runner.run(3)
        assert len(history) == 3
        # Sampled synchronous rounds: zero staleness by construction.
        assert runner.async_server.max_staleness() == 0
        assert all(len(r.participating_clients) == 3 for r in history.rounds)

    def test_client_fraction_config_selects_uniform_sampler(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg", client_fraction=0.5)
        runner = build_async_federation(config, mlp_fn(spec), clients, test, strategy=SyncRoundStrategy())
        assert isinstance(runner.sampler, UniformSampler)
        history = runner.run(2)
        assert all(len(r.participating_clients) == 2 for r in history.rounds)

    def test_context_manager_closes_pool(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg", parallel_clients=2, num_rounds=1)
        with build_async_federation(config, mlp_fn(spec), clients, test) as runner:
            runner.run()
        assert runner._threads.pool is None

    def test_invalid_concurrency(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg")
        with pytest.raises(ValueError):
            build_async_federation(config, mlp_fn(spec), clients, test, concurrency=99)

    def test_buffer_larger_than_fleet_rejected(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg")
        with pytest.raises(ValueError, match="buffer_size"):
            build_async_federation(config, mlp_fn(spec), clients, test, strategy=FedBuffStrategy(10))

    def test_adaptive_rho_rejected_for_admm_async(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("iiadmm", adaptive_rho=True, rho_growth=1.1)
        with pytest.raises(ValueError, match="adaptive_rho"):
            build_async_federation(config, mlp_fn(spec), clients, test)
        # FedAvg never touches rho: adaptive_rho stays allowed there.
        build_async_federation(tiny_config("fedavg", adaptive_rho=True, rho_growth=1.1), mlp_fn(spec), clients, test)

    @pytest.mark.parametrize("strategy_fn", [SyncRoundStrategy, lambda: FedBuffStrategy(4)])
    def test_run_resumes_after_queue_drained(self, strategy_fn):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg", num_rounds=4)
        model_fn = mlp_fn(spec)
        split = build_async_federation(config, model_fn, clients, test, strategy=strategy_fn())
        split.run(2)
        h_split = split.run(2)
        whole = build_async_federation(config, model_fn, clients, test, strategy=strategy_fn())
        h_whole = whole.run(4)
        assert len(h_split) == 4
        assert [r.test_accuracy for r in h_split.rounds] == [r.test_accuracy for r in h_whole.rounds]


class TestAccountingAndHistory:
    def test_sync_runner_is_context_manager_and_records_participants(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg", num_rounds=2, parallel_clients=2)
        with build_federation(config, mlp_fn(spec), clients, test) as runner:
            history = runner.run()
        assert runner.executor._threads.pool is None
        for r in history.rounds:
            assert r.participating_clients == (0, 1, 2, 3)
            assert r.wall_clock_seconds is None

    def test_sync_accountant_charges_each_participant_once_per_round(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg", num_rounds=3).with_privacy(5.0)
        runner = build_federation(config, mlp_fn(spec), clients, test)
        runner.run()
        for cid in range(4):
            assert runner.accountant.releases(cid) == 3
            assert runner.accountant.epsilon_spent(cid) == pytest.approx(15.0)

    def test_async_accountant_charges_only_sampled_clients(self):
        clients, test, spec = tiny_mnist(num_clients=6, train_size=360)
        config = tiny_config("fedavg", num_rounds=4).with_privacy(5.0)
        runner = build_async_federation(
            config,
            mlp_fn(spec),
            clients,
            test,
            strategy=SyncRoundStrategy(),
            sampler=UniformSampler(6, fraction=0.5, seed=1),
        )
        history = runner.run()
        participation = {cid: 0 for cid in range(6)}
        for r in history.rounds:
            for cid in r.participating_clients:
                participation[cid] += 1
        for cid in range(6):
            assert runner.accountant.releases(cid) == participation[cid]
        assert 0 < sum(participation.values()) == 4 * 3

    def test_format_history_surfaces_new_fields(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg", num_rounds=2)
        runner = build_async_federation(config, mlp_fn(spec), clients, test)
        history = runner.run()
        out = format_history(history, title="T")
        assert "sim_clock_s" in out and "clients" in out and out.startswith("T")
        assert "4" in out  # participant count column


class TestStrategies:
    def test_fedbuff_requires_positive_buffer(self):
        with pytest.raises(ValueError):
            FedBuffStrategy(0)

    def test_fedasync_validates_alpha_and_kind(self):
        with pytest.raises(ValueError):
            FedAsyncStrategy(alpha=0.0)
        with pytest.raises(ValueError):
            FedAsyncStrategy(staleness="bogus")
        assert FedAsyncStrategy(alpha=0.5).mixing_weight(0) == 0.5

    def test_sync_round_strategy_rejects_unexpected_upload(self):
        clients, test, spec = tiny_mnist()
        config = tiny_config("fedavg")
        runner = build_async_federation(config, mlp_fn(spec), clients, test, strategy=SyncRoundStrategy())
        strategy = runner.strategy
        with pytest.raises(RuntimeError):
            strategy.on_upload(runner.server, 0, {}, 0, runner.server.global_params)
