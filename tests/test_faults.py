"""Fault-injection layer tests (ISSUE 6).

Covers the deterministic chaos engine below the runners:

* keyed-RNG fault plans — decisions are pure functions of (seed, key),
  order-free, with validated rates and a reproducible ``chaos`` schedule;
* retry policy — capped exponential backoff with deterministic jitter;
* the communicator seam — drops/timeouts/corruptions/crashes through
  ``_transfer``: per-attempt records, backoff records, dead letters,
  checksum-rejected corruption, and the fault-free path staying bitwise;
* degraded rounds — flat sync/virtual/async runs finalize with the
  surviving cohort and report ``failed_clients``/``retries``;
* the privacy accountant charging once per accepted ingest (dedupe keys,
  state round-trip, legacy format);
* the mid-wave hier checkpoint guard.
"""

import numpy as np
import pytest

from repro.comm import DeadLetter, SerialCommunicator, client_endpoint
from repro.comm.codecs import resolve_codec
from repro.core import FLConfig, MLP, build_federation
from repro.data import TensorDataset, iid_partition
from repro.faults import FaultInjector, FaultPlan, FaultStats, RetryPolicy, keyed_rng
from repro.privacy import PrivacyAccountant, dispatch_fingerprint
from repro.scale import build_virtual_federation


# ----------------------------------------------------------------- fixtures
def make_dataset(n=120, dim=8, classes=3, seed=0, centers=None):
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = rng.standard_normal((classes, dim)) * 3.0
    y = rng.integers(0, classes, n)
    return TensorDataset(centers[y] + rng.standard_normal((n, dim)), y)


def make_clients_and_test(num_clients=6, seed=0):
    centers = np.random.default_rng(seed + 555).standard_normal((3, 8)) * 3.0
    train = make_dataset(180, seed=seed, centers=centers)
    test = make_dataset(45, seed=seed + 100, centers=centers)
    clients = iid_partition(train, num_clients, rng=np.random.default_rng(seed))
    return clients, test


def model_fn():
    return MLP(8, 3, hidden_sizes=(12,), rng=np.random.default_rng(7))


def base_config(algorithm="fedavg", **kwargs):
    defaults = dict(num_rounds=3, local_steps=2, batch_size=32, lr=0.05, rho=2.0, zeta=2.0, seed=0)
    defaults.update(kwargs)
    return FLConfig(algorithm=algorithm, **defaults)


def history_key(history):
    return [
        (r.round, r.test_accuracy, r.test_loss, r.participating_clients)
        for r in history.rounds
    ]


# ================================================================ fault plan
class TestFaultPlan:
    def test_keyed_rng_is_a_pure_function_of_its_key(self):
        a = keyed_rng(3, "link", 0, "client:1").random(4)
        b = keyed_rng(3, "link", 0, "client:1").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, keyed_rng(3, "link", 0, "client:2").random(4))
        assert not np.array_equal(a, keyed_rng(4, "link", 0, "client:1").random(4))

    def test_link_fault_is_order_free(self):
        plan = FaultPlan(seed=11, drop_prob=0.3, timeout_prob=0.3, corrupt_prob=0.3)
        keys = [(r, f"client:{c}", op, a) for r in range(3) for c in range(4)
                for op in ("send_local", "recv_global") for a in range(2)]
        forward = [plan.link_fault(*k) for k in keys]
        backward = [plan.link_fault(*k) for k in reversed(keys)]
        assert forward == list(reversed(backward))
        # and at these rates, every kind of fault actually occurs
        assert {"drop", "timeout", "corrupt"} <= set(f for f in forward if f)

    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=1)
        assert plan.link_fault(0, "client:0", "send_local", 0) is None
        assert not plan.client_crashed(0, 0)
        assert not plan.any_link_faults and not plan.any_client_crashes

    def test_rates_are_validated(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError, match="must not exceed 1"):
            FaultPlan(drop_prob=0.5, timeout_prob=0.4, corrupt_prob=0.2)

    def test_explicit_client_crashes_merge_with_probabilistic(self):
        plan = FaultPlan(seed=0, client_crashes={2: (5, 7)})
        assert plan.client_crashed(5, 2) and plan.client_crashed(7, 2)
        assert not plan.client_crashed(5, 1)
        probabilistic = FaultPlan(seed=0, client_crash_prob=0.5)
        draws = [probabilistic.client_crashed(c, 0) for c in range(40)]
        assert any(draws) and not all(draws)
        assert draws == [probabilistic.client_crashed(c, 0) for c in range(40)]

    def test_each_crash_attempt_draws_independently(self):
        """Attempt 0 is the (client, round) verdict every runner always used;
        a re-dispatch after ``n`` crashes in the same round is attempt ``n``."""
        plan = FaultPlan(seed=0, client_crash_prob=0.5, client_crashes={2: (5,)})
        first = [plan.client_crashed(c, 0) for c in range(40)]
        assert first == [plan.client_crashed(c, 0, 0) for c in range(40)]
        retries = [[plan.client_crashed(c, 0, attempt) for c in range(40)] for attempt in (1, 2)]
        assert retries[0] != first and retries[1] != retries[0]
        assert retries[0] == [plan.client_crashed(c, 0, 1) for c in range(40)]
        # no client is doomed: some attempt lets each one through
        assert all(not all(plan.client_crashed(c, 0, a) for a in range(12)) for c in range(40))
        # the explicit schedule kills the first flight only
        explicit = FaultPlan(seed=0, client_crashes={2: (5,)})
        assert explicit.client_crashed(5, 2) and not explicit.client_crashed(5, 2, 1)

    def test_chaos_schedule_is_reproducible_and_in_range(self):
        plan = FaultPlan.chaos(9, num_edges=4, kills=3, max_event_count=100, min_event_count=10)
        again = FaultPlan.chaos(9, num_edges=4, kills=3, max_event_count=100, min_event_count=10)
        assert plan.edge_kills == again.edge_kills
        counts = [c for c, _ in plan.edge_kills]
        assert counts == sorted(counts) and all(10 <= c <= 100 for c in counts)
        assert all(0 <= e < 4 for _, e in plan.edge_kills)
        with pytest.raises(ValueError, match="min_event_count"):
            FaultPlan.chaos(0, num_edges=2, kills=1, max_event_count=5, min_event_count=9)

    def test_edge_kill_event_counts_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan(edge_kills=((0, 1),))


# ============================================================== retry policy
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35, jitter=0.0)
        delays = [policy.backoff_delay(k) for k in range(4)]
        assert delays == [0.1, 0.2, 0.35, 0.35]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=1.0, backoff_max=1.0, jitter=0.5, seed=3)
        d1 = policy.backoff_delay(0, 1, "client:2", "send_local")
        d2 = policy.backoff_delay(0, 1, "client:2", "send_local")
        assert d1 == d2
        assert 0.1 <= d1 <= 0.1 * 1.5
        assert d1 != policy.backoff_delay(0, 1, "client:3", "send_local")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


# ====================================================== checksum / corruption
class TestCorruption:
    def _packet(self):
        pipeline = resolve_codec("identity")
        return pipeline.encode_state({"w": np.arange(6, dtype=np.float32)})

    def test_corrupt_packet_fails_checksum_and_preserves_original(self):
        packet = self._packet()
        before = packet.checksum()
        injector = FaultInjector(FaultPlan())
        corrupted = injector.corrupt_packet(packet)
        assert corrupted.checksum() != before
        assert packet.checksum() == before  # the original is untouched

    def test_checksum_covers_payload_bytes(self):
        a = self._packet()
        b = resolve_codec("identity").encode_state({"w": np.arange(6, dtype=np.float32)})
        assert a.checksum() == b.checksum()


# =========================================================== communicator seam
class TestCommSeam:
    def _comm(self, plan, **retry_kwargs):
        retry = RetryPolicy(seed=plan.seed, **retry_kwargs) if retry_kwargs else None
        return SerialCommunicator().install_faults(plan, retry=retry)

    def test_fault_free_armed_path_delivers_everything(self):
        comm = self._comm(FaultPlan(seed=0))
        payload = {"w": np.ones(3)}
        got = comm._transfer(0, "client:1", "send_local", payload, 24, lambda: 0.5)
        assert got is payload
        assert comm.log.records[-1].attempt == 0 and comm.log.records[-1].fault is None
        assert comm.log.failed_attempts() == 0 and not comm.log.dead_letters

    def test_drops_retry_then_dead_letter(self):
        plan = FaultPlan(seed=0, drop_prob=1.0)
        comm = self._comm(plan, max_attempts=3, timeout=0.25, jitter=0.0)
        got = comm._transfer(1, "client:2", "send_local", {"w": np.ones(2)}, 16, lambda: 0.1)
        assert got is None
        stats = comm.injector.stats
        assert stats.drops == 3 and stats.retries == 2 and stats.dead_letters == 1
        faults = [r for r in comm.log.records if r.fault == "drop"]
        assert len(faults) == 3 and all(r.seconds == 0.25 and r.nbytes == 0 for r in faults)
        backoffs = [r for r in comm.log.records if r.op == "backoff"]
        assert len(backoffs) == 2
        assert comm.log.dead_letters == [DeadLetter(1, "client:2", "send_local", 16, 3, "max_attempts")]
        assert comm.log.failed_attempts() == 3

    def test_corruption_is_rejected_by_checksum_and_retried(self):
        # Fault only on attempt 0: the retry succeeds and delivers intact bytes.
        plan = FaultPlan(seed=4, corrupt_prob=0.0)
        comm = self._comm(plan)

        class OneShotInjector(FaultInjector):
            def transfer_fault(self, round_idx, endpoint, op, attempt):
                return "corrupt" if attempt == 0 else None

        comm.injector = OneShotInjector(plan)
        comm.retry = comm.injector.retry
        packet = resolve_codec("identity").encode_state({"w": np.arange(4, dtype=np.float32)})
        got = comm._transfer(0, "client:0", "send_local", packet, packet.nbytes, lambda: 0.2)
        assert got is packet and got.checksum() == packet.checksum()
        corrupt_records = [r for r in comm.log.records if r.fault == "corrupt"]
        # corrupted bytes crossed the wire: charged wire time and full size
        assert len(corrupt_records) == 1 and corrupt_records[0].nbytes == packet.nbytes
        assert comm.injector.stats.corruptions == 1 and comm.injector.stats.retries == 1

    def test_sender_crash_is_unretryable(self):
        plan = FaultPlan(seed=0, client_crashes={0: (3,)})
        comm = self._comm(plan)
        got = comm._transfer(0, client_endpoint(3), "send_local", {"w": np.ones(1)}, 8, lambda: 0.1)
        assert got is None
        assert comm.injector.stats.client_crashes == 1 and comm.injector.stats.retries == 0
        assert comm.log.dead_letters[0].reason == "crash"

    def test_plan_is_wrapped_in_fresh_injector(self):
        comm = self._comm(FaultPlan(seed=0))
        assert isinstance(comm.injector, FaultInjector)
        assert isinstance(comm.injector.stats, FaultStats)
        assert comm.retry is comm.injector.retry


# ============================================================ degraded rounds
class TestDegradedRounds:
    def test_sync_round_excludes_crashed_clients(self):
        clients, test = make_clients_and_test()
        runner = build_federation(base_config("fedavg"), model_fn, clients, test)
        runner.communicator.install_faults(FaultPlan(seed=0, client_crashes={1: (2, 4)}))
        history = runner.run(3)
        assert len(history) == 3
        r0, r1, r2 = history.rounds
        assert r0.failed_clients == () and r2.failed_clients == ()
        assert r1.failed_clients == (2, 4)
        assert set(r1.participating_clients) == {0, 1, 3, 5}
        assert 2 not in r1.participating_clients
        letters = runner.communicator.log.dead_letters
        assert {(d.endpoint, d.reason) for d in letters} == {
            (client_endpoint(2), "crash"),
            (client_endpoint(4), "crash"),
        }

    def test_fault_free_armed_run_is_bitwise_the_unarmed_run(self):
        clients, test = make_clients_and_test()
        plain = build_federation(base_config("iiadmm"), model_fn, clients, test)
        plain_history = plain.run(3)
        armed = build_federation(base_config("iiadmm"), model_fn, clients, test)
        armed.communicator.install_faults(FaultPlan(seed=0))
        armed_history = armed.run(3)
        assert history_key(plain_history) == history_key(armed_history)
        assert np.array_equal(plain.server.global_params, armed.server.global_params)
        # the armed run reports zero fault activity, not None
        assert all(r.failed_clients == () and r.retries == 0 for r in armed_history.rounds)
        assert all(r.failed_clients is None and r.retries is None for r in plain_history.rounds)

    def test_virtual_runner_degrades_identically_to_eager(self):
        plan = FaultPlan(seed=5, client_crash_prob=0.25)
        clients, test = make_clients_and_test()
        eager = build_federation(base_config("fedavg"), model_fn, clients, test)
        eager.communicator.install_faults(plan)
        eager_history = eager.run(3)
        virtual = build_virtual_federation(
            base_config("fedavg"), model_fn, clients, live_cap=2, test_dataset=test
        )
        virtual.communicator.install_faults(plan)
        virtual_history = virtual.run(3)
        assert history_key(eager_history) == history_key(virtual_history)
        assert [r.failed_clients for r in eager_history.rounds] == [
            r.failed_clients for r in virtual_history.rounds
        ]
        assert np.array_equal(eager.server.global_params, virtual.server.global_params)
        assert any(r.failed_clients for r in eager_history.rounds)

    def test_async_fedbuff_survives_client_crashes(self):
        from repro.asyncfl import FedBuffStrategy, build_async_federation

        clients, test = make_clients_and_test()
        runner = build_async_federation(
            base_config("fedavg"), model_fn, clients, test,
            strategy=FedBuffStrategy(buffer_size=3),
        )
        runner.enable_faults(FaultPlan(seed=2, client_crash_prob=0.3))
        history = runner.run(4)
        assert len(history) == 4
        assert runner.injector.stats.client_crashes > 0
        assert all(r.failed_clients is not None and r.retries is not None for r in history.rounds)
        assert any(r.failed_clients for r in history.rounds)

    def _crashy_default_fedbuff(self):
        """16 IIADMM clients under the default strategy — FedBuff(num_clients),
        which needs *every* client to report at each model version."""
        from repro.asyncfl import build_async_federation

        clients, test = make_clients_and_test(num_clients=16)
        runner = build_async_federation(base_config("iiadmm"), model_fn, clients, test)
        return runner.enable_faults(FaultPlan(seed=1, client_crash_prob=0.2))

    def test_crashed_client_is_not_doomed_for_the_whole_model_version(self):
        """Regression: the crash verdict was a pure function of (seed, client,
        version), so a client that crashed once crashed on every re-dispatch
        at that version, the buffer never filled and the version never
        moved — 0 rounds in 20,000 events.  Re-dispatches now draw again."""
        runner = self._crashy_default_fedbuff()
        history = runner.run(5, max_events=5000)
        assert len(history) == 5 and runner.events_processed <= 5000
        assert runner.injector.stats.client_crashes > 0
        assert all(len(r.participating_clients) == 16 for r in history.rounds)
        # every client did crash at some version, and flew again at that version
        assert any(len(r.failed_clients) > 2 for r in history.rounds)

    def test_crash_draws_resume_bitwise_from_any_mid_run_checkpoint(self):
        """The attempt number of a crash draw is the client's crash count in
        the open round, which now travels in the checkpoint (it used to be
        dropped: a resumed run under-reported ``failed_clients``)."""
        from repro.scale import RunCheckpoint

        full = self._crashy_default_fedbuff()
        reference = full.run(4)
        saw_open_crashes = False
        for events in range(40, full.events_processed, 37):
            first = self._crashy_default_fedbuff()
            first.run(4, max_events=events)
            saw_open_crashes |= bool(first.ledger.failed)
            blob = RunCheckpoint.capture(first).to_bytes()
            resumed = self._crashy_default_fedbuff()
            RunCheckpoint.from_bytes(blob).restore(resumed)
            history = resumed.run(4 - len(resumed.history))
            assert history_key(history) == history_key(reference)
            assert [r.failed_clients for r in history.rounds] == [r.failed_clients for r in reference.rounds]
            assert resumed.events_processed == full.events_processed
            assert np.array_equal(resumed.server.global_params, full.server.global_params)
        assert saw_open_crashes

    def test_async_round_based_rejects_client_crashes(self):
        from repro.asyncfl import SyncRoundStrategy, build_async_federation

        clients, test = make_clients_and_test()
        runner = build_async_federation(
            base_config("fedavg"), model_fn, clients, test, strategy=SyncRoundStrategy()
        )
        with pytest.raises(ValueError, match="round-based"):
            runner.enable_faults(FaultPlan(seed=0, client_crash_prob=0.1))

    def test_sync_iiadmm_duals_freeze_for_crashed_clients(self):
        clients, test = make_clients_and_test()
        runner = build_federation(base_config("iiadmm"), model_fn, clients, test)
        runner.communicator.install_faults(FaultPlan(seed=0, client_crashes={1: (0,)}))
        runner.run(1)
        before = {cid: d.copy() for cid, d in runner.server.duals.items()}
        runner.run(1)  # round 1: client 0 crashes
        assert np.array_equal(runner.server.duals[0], before[0])
        survivors_moved = [
            not np.array_equal(runner.server.duals[c], before[c]) for c in range(1, 6)
        ]
        assert all(survivors_moved)


# ========================================================== privacy accountant
class TestAccountantDedupe:
    def test_charges_once_per_dispatch_key(self):
        acc = PrivacyAccountant()
        key = dispatch_fingerprint(3, np.arange(4, dtype=np.float64))
        assert acc.record(1, 0.5, key=key) is True
        assert acc.record(1, 0.5, key=key) is False  # replayed ingest: no charge
        assert acc.epsilon_spent(1) == 0.5
        # a different dispatch (round or payload) is a fresh release
        assert acc.record(1, 0.5, key=dispatch_fingerprint(4, np.arange(4, dtype=np.float64)))
        assert acc.epsilon_spent(1) == 1.0

    def test_keyless_records_always_charge(self):
        acc = PrivacyAccountant()
        assert acc.record(0, 0.25) and acc.record(0, 0.25)
        assert acc.epsilon_spent(0) == 0.5

    def test_infinite_epsilon_is_not_charged(self):
        acc = PrivacyAccountant()
        assert acc.record(0, float("inf")) is False
        assert acc.epsilon_spent(0) == 0.0

    def test_state_round_trip_preserves_dedupe(self):
        acc = PrivacyAccountant()
        key = dispatch_fingerprint(0, np.ones(3))
        acc.record(7, 1.0, key=key)
        clone = PrivacyAccountant()
        clone.load_accountant_state(acc.accountant_state())
        assert clone.record(7, 1.0, key=key) is False
        assert clone.epsilon_spent(7) == 1.0

    def test_legacy_flat_state_still_loads(self):
        acc = PrivacyAccountant()
        acc.record(7, 1.0)
        legacy = {cid: list(spends) for cid, spends in acc.accountant_state()["spend"].items()}
        fresh = PrivacyAccountant()
        fresh.load_accountant_state(legacy)
        assert fresh.epsilon_spent(7) == 1.0


# =========================================================== checkpoint guard
class TestMidWaveCaptureGuard:
    def test_hier_capture_rejects_half_folded_wave(self):
        from repro.hier import build_hier_federation
        from repro.scale import RunCheckpoint

        clients, test = make_clients_and_test(num_clients=6)
        runner = build_hier_federation(
            base_config("fedavg"), model_fn, clients, test_dataset=test, topology="edges:2"
        )
        RunCheckpoint.capture(runner)  # between rounds: fine
        edge = runner.edges[0]
        edge.receive_global(runner.server.broadcast_payload())
        edge.begin_collect()
        edge._participants.append(edge.shard[0])  # simulate a half-folded upload
        with pytest.raises(RuntimeError, match="mid-wave"):
            RunCheckpoint.capture(runner)
