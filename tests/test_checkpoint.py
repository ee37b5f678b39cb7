"""Checkpoint/resume equivalence: interrupted runs are bitwise uninterrupted.

The contract of :class:`repro.scale.RunCheckpoint`: kill a run at round *k*
(sync) or after an arbitrary number of timeline events (async), rebuild the
federation from scratch, restore, continue — and the resulting history is
**bitwise identical** to a run that was never interrupted, including IIADMM's
"independent but identical" dual replicas and FedBuff's half-full buffers.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncfl import FedBuffStrategy, UniformSampler, build_async_federation
from repro.comm import TCPLinkModel
from repro.core import MLP, FLConfig, build_federation, build_model
from repro.data import TensorDataset, load_dataset
from repro.faults import FaultPlan
from repro.scale import RunCheckpoint, build_virtual_async_federation, build_virtual_federation
from repro.simulator import DEVICE_CATALOG

NUM_CLIENTS = 5
ROUNDS = 6


def _workload():
    return load_dataset("mnist", num_clients=NUM_CLIENTS, train_size=100, test_size=50, seed=0)


def _config(algorithm, codec="identity", **kwargs):
    return FLConfig(
        algorithm=algorithm,
        num_rounds=ROUNDS,
        local_steps=2,
        batch_size=32,
        lr=0.03,
        rho=10.0,
        zeta=10.0,
        seed=0,
        codec=codec,
        **kwargs,
    )


def _model_fn(spec):
    return lambda: build_model("mlp", spec.image_shape, spec.num_classes, rng=np.random.default_rng(7))


def _key(history):
    """The deterministic fields of a history (wall-clock timings excluded)."""
    return [
        (
            r.round,
            r.test_accuracy,
            r.test_loss,
            r.comm_bytes,
            r.wall_clock_seconds,
            r.participating_clients,
        )
        for r in history.rounds
    ]


# ------------------------------------------------------------------ sync runs
class TestSyncCheckpoint:
    @pytest.mark.parametrize("algorithm", ["fedavg", "iceadmm", "iiadmm"])
    @pytest.mark.parametrize("interrupt_at", [1, 3])
    def test_resume_matches_uninterrupted(self, algorithm, interrupt_at):
        clients, test, spec = _workload()
        config = _config(algorithm)
        full = build_federation(config, _model_fn(spec), clients, test)
        reference = full.run(ROUNDS)

        first = build_federation(config, _model_fn(spec), clients, test)
        first.run(interrupt_at)
        blob = RunCheckpoint.save(first).to_bytes()

        resumed = build_federation(config, _model_fn(spec), clients, test)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(ROUNDS - interrupt_at)

        assert _key(history) == _key(reference)
        np.testing.assert_array_equal(resumed.server.global_params, full.server.global_params)

    def test_resume_with_lossy_codec_keeps_dual_replicas(self):
        """IIADMM under delta|int8: resumed client/server duals stay bitwise equal."""
        clients, test, spec = _workload()
        config = _config("iiadmm", codec="delta|int8")
        full = build_federation(config, _model_fn(spec), clients, test)
        reference = full.run(ROUNDS)

        first = build_federation(config, _model_fn(spec), clients, test)
        first.run(2)
        blob = RunCheckpoint.save(first).to_bytes()
        resumed = build_federation(config, _model_fn(spec), clients, test)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(ROUNDS - 2)

        assert _key(history) == _key(reference)
        for client in resumed.clients:
            np.testing.assert_array_equal(client.dual, resumed.server.duals[client.client_id])

    def test_store_backed_resume(self):
        """Virtual populations checkpoint through the store snapshot."""
        clients, test, spec = _workload()
        config = _config("iiadmm")
        reference = build_federation(config, _model_fn(spec), clients, test).run(ROUNDS)

        first = build_virtual_federation(config, _model_fn(spec), clients, live_cap=2, test_dataset=test)
        first.run(3)
        blob = RunCheckpoint.save(first).to_bytes()
        resumed = build_virtual_federation(config, _model_fn(spec), clients, live_cap=2, test_dataset=test)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(ROUNDS - 3)
        assert _key(history) == _key(reference)

    def test_save_does_not_disturb_the_live_run(self):
        clients, test, spec = _workload()
        config = _config("iiadmm")
        reference = build_federation(config, _model_fn(spec), clients, test).run(ROUNDS)
        runner = build_federation(config, _model_fn(spec), clients, test)
        runner.run(2)
        RunCheckpoint.save(runner)  # capture mid-run...
        history = runner.run(ROUNDS - 2)  # ...and keep going
        assert _key(history) == _key(reference)

    def test_capture_is_frozen_at_capture_time(self):
        """A checkpoint must not mutate when the captured runner keeps running."""
        clients, test, spec = _workload()
        config = _config("iiadmm")
        reference = build_federation(config, _model_fn(spec), clients, test).run(ROUNDS)
        runner = build_federation(config, _model_fn(spec), clients, test)
        runner.run(2)
        checkpoint = RunCheckpoint.capture(runner)
        frozen = checkpoint.to_bytes()
        runner.run(ROUNDS - 2)  # mutates the server/client state the capture walked
        assert checkpoint.to_bytes() == frozen
        resumed = build_federation(config, _model_fn(spec), clients, test)
        checkpoint.restore(resumed)  # restores round-2 state, not round-6
        assert len(resumed.history) == 2
        history = resumed.run(ROUNDS - 2)
        assert _key(history) == _key(reference)

    def test_restore_validates_topology(self):
        clients, test, spec = _workload()
        blob = RunCheckpoint.save(
            build_federation(_config("fedavg"), _model_fn(spec), clients, test)
        ).to_bytes()
        other = build_federation(_config("iiadmm"), _model_fn(spec), clients, test)
        with pytest.raises(ValueError, match="does not match"):
            RunCheckpoint.from_bytes(blob).restore(other)


# ----------------------------------------------------------------- async runs
def _build_async(config, spec, clients, test, store=False, parallel=1):
    mix = [DEVICE_CATALOG[k] for k in ("A100", "V100", "CPU")]
    devices = [mix[i % len(mix)] for i in range(NUM_CLIENTS)]
    kwargs = dict(
        strategy=FedBuffStrategy(2),
        sampler=UniformSampler(NUM_CLIENTS, fraction=0.5, seed=0),
        devices=devices,
        link=TCPLinkModel(),
        concurrency=2,
    )
    if store:
        return build_virtual_async_federation(
            config, _model_fn(spec), clients, live_cap=3, test_dataset=test, **kwargs
        )
    return build_async_federation(config, _model_fn(spec), clients, test, **kwargs)


class TestAsyncCheckpoint:
    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm"])
    @pytest.mark.parametrize("max_events", [1, 7, 16])
    def test_resume_at_arbitrary_event_counts(self, algorithm, max_events):
        """Interrupt mid-timeline (even mid-virtual-instant), resume, compare."""
        clients, test, spec = _workload()
        config = _config(algorithm)
        full = _build_async(config, spec, clients, test)
        reference = full.run(ROUNDS)

        first = _build_async(config, spec, clients, test)
        first.run(ROUNDS, max_events=max_events)
        assert len(first.history) < ROUNDS  # genuinely interrupted
        blob = RunCheckpoint.save(first).to_bytes()

        resumed = _build_async(config, spec, clients, test)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(ROUNDS - len(resumed.history))

        assert _key(history) == _key(reference)
        np.testing.assert_array_equal(resumed.server.global_params, full.server.global_params)
        assert resumed.async_server.staleness_log == full.async_server.staleness_log

    def test_fedbuff_half_full_buffer_survives(self):
        """A checkpoint taken with buffered-but-unflushed uploads resumes exactly."""
        clients, test, spec = _workload()
        config = _config("iiadmm")
        full = _build_async(config, spec, clients, test)
        reference = full.run(ROUNDS)

        first = _build_async(config, spec, clients, test)
        # walk forward until the FedBuff buffer is half full at the stop point
        events = 0
        while not first.strategy._buffer:
            events += 1
            first = _build_async(config, spec, clients, test)
            first.run(ROUNDS, max_events=events)
            assert events < 200
        assert 0 < len(first.strategy._buffer) < first.strategy.buffer_size

        blob = RunCheckpoint.save(first).to_bytes()
        resumed = _build_async(config, spec, clients, test)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        assert len(resumed.strategy._buffer) == len(first.strategy._buffer)
        history = resumed.run(ROUNDS - len(resumed.history))
        assert _key(history) == _key(reference)

    def test_parallel_clients_quiesce(self):
        """Eager thread-pool updates are forced at save time, bit-identically."""
        clients, test, spec = _workload()
        config = _config("iiadmm", parallel_clients=2)
        reference = _build_async(config, spec, clients, test, parallel=2).run(ROUNDS)

        first = _build_async(config, spec, clients, test, parallel=2)
        first.run(ROUNDS, max_events=9)
        blob = RunCheckpoint.save(first).to_bytes()
        resumed = _build_async(config, spec, clients, test, parallel=2)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(ROUNDS - len(resumed.history))
        assert _key(history) == _key(reference)

    def test_store_backed_async_resume_with_dual_replicas(self, check_dual_replicas):
        clients, test, spec = _workload()
        config = _config("iiadmm")
        reference = _build_async(config, spec, clients, test).run(ROUNDS)

        first = _build_async(config, spec, clients, test, store=True)
        first.run(ROUNDS, max_events=11)
        blob = RunCheckpoint.save(first).to_bytes()
        resumed = _build_async(config, spec, clients, test, store=True)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(ROUNDS - len(resumed.history))
        assert _key(history) == _key(reference)
        # IIADMM invariant after resume: every client's dual is bitwise the
        # server replica, advanced by its in-transit upload's replay if any.
        check_dual_replicas(resumed)

    def test_checkpoint_file_round_trip(self, tmp_path):
        clients, test, spec = _workload()
        config = _config("fedavg")
        runner = _build_async(config, spec, clients, test)
        runner.run(2)
        path = tmp_path / "run.ckpt"
        RunCheckpoint.save(runner, path)
        loaded = RunCheckpoint.load(path)
        assert loaded.payload["kind"] == "async"
        assert loaded.payload["meta"]["algorithm"] == "fedavg"


# ------------------------------------------------------ format compatibility
GOLDEN_ASYNC = Path(__file__).parent / "golden" / "async_checkpoint_pr13.bin"
GOLDEN_EVENTS = 17


def _golden_async_runner():
    """The store-backed IIADMM timeline ``GOLDEN_ASYNC`` was captured from
    (with planned client crashes, so crashed ``compute_done`` events are in
    the blob too).  Uses only names the capturing commit already had."""
    rng = np.random.default_rng(0)
    clients = [TensorDataset(rng.standard_normal((6, 8)), rng.integers(0, 3, 6)) for _ in range(NUM_CLIENTS)]
    test = TensorDataset(rng.standard_normal((12, 8)), rng.integers(0, 3, 12))
    mix = [DEVICE_CATALOG[k] for k in ("A100", "V100", "CPU")]
    runner = build_virtual_async_federation(
        _config("iiadmm"),
        lambda: MLP(8, 3, hidden_sizes=(4,), rng=np.random.default_rng(7)),
        clients,
        live_cap=3,
        test_dataset=test,
        strategy=FedBuffStrategy(2),
        sampler=UniformSampler(NUM_CLIENTS, fraction=0.5, seed=0),
        devices=[mix[i % len(mix)] for i in range(NUM_CLIENTS)],
        link=TCPLinkModel(),
        concurrency=3,
    )
    return runner.enable_faults(FaultPlan(seed=5, client_crash_prob=0.25))


def test_async_blob_captured_before_the_shared_lifecycle_still_resumes():
    """``GOLDEN_ASYNC`` holds ``RunCheckpoint.save(runner).to_bytes()`` of
    ``_golden_async_runner()`` after ``run(ROUNDS, max_events=GOLDEN_EVENTS)``,
    produced by the capture code of the commit *before* the runner exposed
    ``timeline_state`` (PR 13).  The ``"async"`` payload format has not
    changed since: the old blob restores and resumes bitwise."""
    full = _golden_async_runner()
    reference = full.run(ROUNDS)
    assert any(r.failed_clients for r in reference.rounds)

    resumed = _golden_async_runner()
    checkpoint = RunCheckpoint.from_bytes(GOLDEN_ASYNC.read_bytes())
    kinds = [(kind, bool(data.get("crashed"))) for _, _, kind, data in checkpoint.payload["async"]["loop"]["events"]]
    assert sorted(kinds) == [("arrival", False), ("compute_done", False), ("compute_done", True)]
    checkpoint.restore(resumed)
    assert 0 < len(resumed.history) < ROUNDS
    history = resumed.run(ROUNDS - len(resumed.history))

    assert _key(history) == _key(reference)
    assert [r.failed_clients for r in history.rounds] == [r.failed_clients for r in reference.rounds]
    assert [r.comm_seconds for r in history.rounds] == [r.comm_seconds for r in reference.rounds]
    np.testing.assert_array_equal(resumed.server.global_params, full.server.global_params)
    # and a capture taken today carries exactly the golden payload's "async" keys
    again = _golden_async_runner()
    again.run(ROUNDS, max_events=GOLDEN_EVENTS)
    assert set(RunCheckpoint.capture(again).payload["async"]) == set(checkpoint.payload["async"])


# ------------------------------------------------------------- damaged blobs
@lru_cache(maxsize=None)
def _tiny_blob():
    """A real (small) RunCheckpoint: two clients, one round of IIADMM."""
    rng = np.random.default_rng(0)
    datasets = [TensorDataset(rng.standard_normal((4, 3)), rng.integers(0, 2, 4)) for _ in range(2)]
    config = FLConfig(algorithm="iiadmm", num_rounds=1, local_steps=1, batch_size=4, seed=0)
    runner = build_federation(
        config, lambda: MLP(3, 2, hidden_sizes=(2,), rng=np.random.default_rng(1)), datasets
    )
    runner.run(1)
    return RunCheckpoint.capture(runner).to_bytes()


def test_every_prefix_of_a_checkpoint_fails_as_truncated():
    """A cut anywhere — in the header, a length, an array, a key — is named
    as a truncation, never a numpy reshape / struct / trailing-bytes error."""
    blob = _tiny_blob()
    assert RunCheckpoint.from_bytes(blob).payload["kind"] == "sync"
    for cut in range(len(blob)):
        with pytest.raises(ValueError, match="^truncated state blob"):
            RunCheckpoint.from_bytes(blob[:cut]).payload


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_flipped_byte_decodes_or_fails_as_value_error(data):
    blob = _tiny_blob()
    index = data.draw(st.integers(0, len(blob) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[index]))
    damaged = blob[:index] + bytes([value]) + blob[index + 1 :]
    try:
        RunCheckpoint.from_bytes(damaged).payload
    except ValueError as exc:
        assert str(exc).startswith(("truncated state blob", "corrupt state blob", "not a repro"))
