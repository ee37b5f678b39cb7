"""Process execution backend: bitwise equivalence, state sync, and the
worker-pool bugfix sweep.

The contract of :mod:`repro.mp`: with ``FLConfig.execution_backend =
"process"`` each round's local updates run in spawn-context worker processes
over shared-memory arenas, and the result is **bitwise identical** to the
serial backend for FedAvg / ICEADMM / IIADMM — histories, global parameters,
client RNG streams, ADMM dual replicas — across eager, store-backed, and
hierarchical federations, composing with ``client_batch``, tracing,
checkpoints, and the fault layer.  The regression tests at the
bottom pin the worker-pool bugfix sweep: negative worker counts raise,
executors are sized by the participating cohort (not the full population),
and ``client_steps`` counts surviving clients only.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import FLConfig, build_federation
from repro.core.batched import count_client_steps
from repro.core.executor import resolve_workers
from repro.core.models import MLP, SeededModelFn
from repro.core.runner import FederatedRunner
from repro.data import TensorDataset
from repro.faults import FaultPlan
from repro.hier import build_hier_federation
from repro.hier.topology import contiguous_shards
from repro.mp import ProcessWorkerPool
from repro.obs import Tracer, use_tracer
from repro.scale import RunCheckpoint, build_virtual_federation

ALGORITHMS = ("fedavg", "iiadmm", "iceadmm")


def _datasets(num_clients, n=4, d=6, classes=3, seed=0):
    out = []
    for cid in range(num_clients):
        rng = np.random.default_rng(seed * 1_000_003 + cid)
        x = rng.standard_normal((n, d))
        y = rng.integers(0, classes, size=n)
        out.append(TensorDataset(x, y))
    return out


def _model_fn(d=6, classes=3):
    def build():
        return MLP(d, classes, hidden_sizes=(5,), rng=np.random.default_rng(42))

    return build


def _seeded_model_fn(d=6, classes=3):
    """Picklable equivalent of :func:`_model_fn` for store+process runs."""
    return SeededModelFn("mlp", (1, 1, d), classes, seed=42, hidden_sizes=(5,))


def _config(algorithm, backend, dtype="float64", **kwargs):
    return FLConfig(
        algorithm=algorithm,
        num_rounds=2,
        local_steps=2,
        batch_size=2,
        lr=0.05,
        seed=0,
        dtype=dtype,
        parallel_clients=2,
        execution_backend=backend,
        **kwargs,
    )


def _history_key(history):
    return [(r.round, r.test_accuracy, r.test_loss, r.comm_bytes) for r in history.rounds]


def _client_key(client):
    return (
        client.client_id,
        client.round,
        client.vectorizer.flat_params.tobytes(),
        repr(client.rng.bit_generator.state),
        None
        if not hasattr(client, "dual")
        else (client.dual.tobytes(), client.primal.tobytes()),
    )


def _run_flat(algorithm, backend, dtype, **cfg_kwargs):
    cfg = _config(algorithm, backend, dtype, **cfg_kwargs)
    runner = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
    history = runner.run()
    runner.close()  # syncs worker state back before we read it
    return (
        _history_key(history),
        runner.server.global_params.tobytes(),
        [_client_key(c) for c in runner.clients],
        runner.client_steps,
    )


def _run_hier(algorithm, backend, dtype, live_cap=None):
    cfg = _config(algorithm, backend, dtype, topology="edges:2")
    runner = build_hier_federation(
        cfg, _seeded_model_fn(), _datasets(6), test_dataset=_datasets(1, n=20)[0],
        live_cap=live_cap,
    )
    history = runner.run()
    duals = []
    if hasattr(runner.edges[0].server, "duals"):
        duals = [
            (edge.edge_id, cid, edge.server.duals[cid].tobytes())
            for edge in runner.edges
            for cid in edge.shard
        ]
    return (
        _history_key(history),
        runner.server.global_params.tobytes(),
        [(e.edge_id, e.server.global_params.tobytes()) for e in runner.edges],
        duals,
    )


# ------------------------------------------------------------- equivalence
class TestBitwiseMatrix:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_flat_serial_thread_process(self, algorithm, dtype):
        """serial == thread == process, bitwise, for every algorithm — same
        histories, global vector, client params/RNG streams, ADMM duals."""
        serial = _run_flat(algorithm, "serial", dtype)
        thread = _run_flat(algorithm, "thread", dtype)
        process = _run_flat(algorithm, "process", dtype)
        assert serial == thread
        assert serial == process

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_hier_serial_vs_process(self, algorithm, dtype):
        """Hierarchical (eager edges): per-edge pools reproduce the serial
        run bitwise, including every edge's IIADMM dual replicas."""
        assert _run_hier(algorithm, "serial", dtype) == _run_hier(algorithm, "process", dtype)

    def test_hier_store_backed_process(self):
        """Store-backed edges: each worker rebuilds its shard's slice from
        the pickled factory + state blobs and stays bitwise."""
        serial = _run_hier("iiadmm", "serial", "float64", live_cap=2)
        process = _run_hier("iiadmm", "process", "float64", live_cap=2)
        assert serial == process

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm"])
    def test_virtual_store_process(self, algorithm):
        """Flat virtual population: the process run's history, global vector,
        and post-run store blobs equal the serial run's."""

        def run(backend):
            runner = build_virtual_federation(
                _config(algorithm, backend), _seeded_model_fn(), _datasets(6),
                live_cap=4, test_dataset=_datasets(1, n=20)[0],
            )
            history = runner.run()
            runner.close()
            blobs = runner.population.snapshot()["blobs"]
            return (
                _history_key(history),
                runner.server.global_params.tobytes(),
                sorted(blobs.items()),
            )

        assert run("serial") == run("process")

    def test_client_batch_composes_with_process(self):
        """Workers replay the runners' batched-cohort gate: client_batch > 1
        under the process backend stays bitwise with serial per-client."""
        serial = _run_flat("iiadmm", "serial", "float64")
        batched_process = _run_flat("iiadmm", "process", "float64", client_batch=3)
        assert serial == batched_process


# ------------------------------------------------------ observability/state
class TestProcessObservability:
    def test_traced_equals_untraced_and_emits_worker_spans(self):
        """An armed tracer never perturbs a process run, and worker-side
        local_update spans surface parent-side in client order with the
        backend label."""
        untraced = _run_flat("fedavg", "process", "float64")
        tracer = Tracer()
        with use_tracer(tracer):
            traced = _run_flat("fedavg", "process", "float64")
        assert traced == untraced
        spans = [
            r for r in tracer.records
            if r.get("name") == "local_update" and r.get("backend") == "process"
        ]
        assert spans, "no worker-side local_update spans reached the tracer"
        per_round = [r["client"] for r in spans if r["lane"].startswith("client:")]
        # Client order within each round: emitted sorted by client id.
        clients_per_round = 5
        for start in range(0, len(per_round), clients_per_round):
            chunk = per_round[start : start + clients_per_round]
            assert chunk == sorted(chunk)
        for r in spans:
            assert r["t1"] >= r["t0"]

    def test_checkpoint_roundtrip_through_pool(self):
        """Interrupt a process-backend run, restore into a fresh process
        federation, continue — bitwise the uninterrupted serial run (the
        pool's sync_parent/push_from_parent hooks)."""
        serial = _run_flat("iiadmm", "serial", "float64")

        cfg = _config("iiadmm", "process")
        first = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
        first.run(1)
        blob = RunCheckpoint.save(first).to_bytes()
        first.close()

        resumed = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(1)
        resumed.close()
        assert (
            _history_key(history)[1:],
            resumed.server.global_params.tobytes(),
            [_client_key(c) for c in resumed.clients],
        ) == (serial[0][1:], serial[1], serial[2])

    def test_chaos_smoke_under_process_backend(self):
        """The chaos harness end to end with execution_backend='process':
        churn converges, kills recover, and both bitwise checks (async
        boundary kill + sync edge crash on the worker pool) hold."""
        from repro.harness.chaos import ChaosSettings, run_chaos

        result = run_chaos(ChaosSettings(
            num_clients=8,
            num_edges=4,
            kills=1,
            num_rounds=3,
            bitwise_rounds=2,
            samples_per_client=6,
            test_size=16,
            execution_backend="process",
        ))
        assert result.sync_backend == "process"
        assert result.sync_bitwise_identical
        assert result.ok


# ------------------------------------------------------------- pool pieces
class TestPoolPlumbing:
    def test_contiguous_shards(self):
        shards = contiguous_shards(range(10), 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert [cid for shard in shards for cid in shard] == list(range(10))
        with pytest.raises(ValueError):
            contiguous_shards(range(4), 0)

    def test_attachment_defers_pinned_segments(self):
        """A superseded segment whose views are still referenced cannot be
        closed yet — the attachment must park the handle and retry later, not
        drop it (which would leak the mmap and fd for the rest of the run)."""
        from repro.mp.shm import ShmArena, ShmAttachment

        arena = ShmArena(f"rpmpdefer{os.getpid()}")
        attachment = ShmAttachment()
        try:
            name1, man1 = arena.pack([("a", np.arange(4.0))])
            attachment.view(name1, man1, copy=False)
            # Pin generation 1 the way an outstanding consumer would: a live
            # buffer export makes close() raise BufferError.  (numpy views
            # release their export at construction, so pin via memoryview.)
            pinned = memoryview(attachment._segments[name1].buf)
            # Bigger payload → the arena grows by recreation under a new name.
            name2, man2 = arena.pack([("a", np.arange(4096.0))])
            assert name2 != name1
            attachment.view(name2, man2, copy=True)
            assert len(attachment._deferred) == 1  # parked, not leaked
            pinned.release()
            attachment.view(name2, man2, copy=True)  # retries the close
            assert attachment._deferred == []
        finally:
            attachment.close()
            arena.close()

    def test_store_factory_must_pickle(self):
        runner = build_virtual_federation(
            _config("fedavg", "process"), _model_fn(), _datasets(4), live_cap=4
        )
        with pytest.raises(RuntimeError, match="picklable"):
            ProcessWorkerPool(runner.population, 2)

    def test_process_backend_rejects_lossy_codec(self):
        cfg = _config("iiadmm", "process", codec="delta|int8")
        with pytest.raises(ValueError, match="lossless"):
            build_federation(cfg, _model_fn(), _datasets(4))

    def test_pooled_round_decodes_the_dispatch_once(self, monkeypatch):
        """Every client receives the dispatch packet itself, so a pooled round
        decodes it once for the whole cohort; in-process waves decode one
        isolated copy per client."""

        def decodes(backend):
            runner = build_federation(_config("fedavg", backend), _model_fn(), _datasets(5))
            calls = []
            real = runner.exchange.open_dispatch
            monkeypatch.setattr(runner.exchange, "open_dispatch",
                                lambda packet: calls.append(packet) or real(packet))
            runner.run(2)
            return len(calls)

        assert decodes("process") == 2
        assert decodes("serial") == 2 * 5


# ------------------------------------------------------ pool retire/rebuild
class TestPoolRebuildStateSync:
    """``run`` closes the runner's pools on the way out, so every later
    ``run`` call on the same runner rebuilds them from parent-side state.
    The rebuilt workers must continue bitwise where the retired ones
    stopped: a pool rebuilt from stale parent state would replay an earlier
    round's client parameters, RNG streams and ADMM duals."""

    def test_flat_rounds_after_close_stay_bitwise(self):
        def run(backend, splits):
            cfg = _config("iiadmm", backend)
            runner = build_federation(cfg, _model_fn(), _datasets(5), test_dataset=_datasets(1, n=20)[0])
            for rounds in splits:
                history = runner.run(rounds)
                assert runner.executor._pool is None
            return (
                _history_key(history),
                runner.server.global_params.tobytes(),
                [_client_key(c) for c in runner.clients],
                runner.client_steps,
            )

        assert run("process", (1, 2, 1)) == run("serial", (4,))

    def test_hier_rounds_after_close_stay_bitwise(self):
        """Same contract for per-edge pools, edge duals included."""

        def run(backend, splits):
            cfg = _config("iiadmm", backend, topology="edges:2")
            runner = build_hier_federation(
                cfg, _seeded_model_fn(), _datasets(6), test_dataset=_datasets(1, n=20)[0]
            )
            for rounds in splits:
                history = runner.run(rounds)
                assert all(edge.executor._pool is None for edge in runner.edges)
            return (
                _history_key(history),
                runner.server.global_params.tobytes(),
                [(e.edge_id, e.server.global_params.tobytes()) for e in runner.edges],
                [
                    (edge.edge_id, cid, edge.server.duals[cid].tobytes())
                    for edge in runner.edges
                    for cid in edge.shard
                ],
            )

        assert run("process", (1, 2)) == run("serial", (3,))


# ---------------------------------------------------- bugfix regression sweep
class TestWorkerPoolBugfixes:
    def test_negative_worker_count_raises(self):
        """Bugfix 1: a negative worker count is a caller error, not a silent
        clamp to 1 — at the shared helper and at every runner entry."""
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers(-1)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3

        runner = build_federation(_config("fedavg", "thread"), _model_fn(), _datasets(3))
        with pytest.raises(ValueError, match="worker count"):
            FederatedRunner(runner.server, clients=runner.clients, max_workers=-2)

    def test_executor_sized_by_participants_not_population(self):
        """Bugfix 2: the thread pool is sized by the clients actually running
        this round (here shrunk by crashes), not the full population."""
        cfg = replace(_config("fedavg", "thread"), parallel_clients=8)
        runner = build_federation(cfg, _model_fn(), _datasets(6))
        runner.communicator.install_faults(FaultPlan(seed=0, client_crashes={0: (1, 2)}))
        runner.run_round(0)  # run() would tear the executor down in close()
        threads = runner.executor._threads
        assert threads.pool is not None
        participants = len(runner.history.rounds[0].participating_clients)
        assert participants == 4  # 6 clients minus the two crashed
        assert threads.pool._max_workers == participants
        runner.close()

    def test_client_steps_count_survivors_only(self):
        """Bugfix 3: clients felled by faults mid-round contribute no
        client_steps — the throughput metric counts aggregated work only."""
        datasets = _datasets(4)

        clean = build_federation(_config("fedavg", "serial"), _model_fn(), datasets)
        clean.run(1)
        per_client = {c.client_id: count_client_steps(c) for c in clean.clients}
        assert clean.client_steps == sum(per_client.values())

        # Clients 1 and 2 crash in round 0: they never compute, never count.
        crashed = build_federation(_config("fedavg", "serial"), _model_fn(), datasets)
        crashed.communicator.install_faults(FaultPlan(seed=0, client_crashes={0: (1, 2)}))
        crashed.run(1)
        assert crashed.client_steps == per_client[0] + per_client[3]
