"""The contract of :class:`repro.core.executor.LocalExecutor`, driven directly.

Every synchronous round hands its clients to one executor; the runners'
bitwise matrices (``test_mp``, ``test_batched``, ``test_hier``...) cover it
end to end.  Here the executor itself is called — ``update`` /
``update_pooled`` / ``settle`` / ``close`` — over {serial, thread, process} ×
{eager, store} × {client_batch 1, 4}: uploads and post-round client state
must equal serial bitwise, ``settle`` must count survivors only, a pool
retired between pooled rounds must be rebuilt without stale state, and
``close`` must be idempotent and release every thread, process and
shared-memory segment.
"""

import glob
import multiprocessing
import os
import threading
from functools import lru_cache

import numpy as np
import pytest

from repro.core import FLConfig, build_federation
from repro.core.batched import count_client_steps
from repro.core.models import SeededModelFn
from repro.data import TensorDataset
from repro.scale import build_virtual_federation

NUM_CLIENTS = 5
IDS = list(range(NUM_CLIENTS))
ROUNDS = 2


def _build(backend, mode, client_batch=1):
    """A federation whose ``executor`` the tests drive by hand (the builders
    construct exactly the executor a real run would use)."""
    cfg = FLConfig(
        algorithm="iiadmm", local_steps=2, batch_size=2, seed=0, parallel_clients=2,
        execution_backend=backend, client_batch=client_batch,
    )
    datasets = []
    for cid in IDS:
        rng = np.random.default_rng(cid)
        datasets.append(TensorDataset(rng.standard_normal((4, 6)), rng.integers(0, 3, size=4)))
    model_fn = SeededModelFn("mlp", (1, 1, 6), 3, seed=42, hidden_sizes=(5,))
    if mode == "eager":
        return build_federation(cfg, model_fn, datasets)
    return build_virtual_federation(cfg, model_fn, datasets, live_cap=NUM_CLIENTS)


def _update(runner):
    """One round of local updates the way the client-phase loop drives the
    executor: a whole pooled cohort against one decoded dispatch on the
    process backend, else checkout → update → release."""
    executor, population, exchange = runner.executor, runner.population, runner.exchange
    packet = exchange.encode_dispatch(runner.server.broadcast_payload())
    if executor.backend == "process":
        uploads = executor.update_pooled(IDS, exchange.open_dispatch(packet))
    else:
        clients = [population.checkout(cid) for cid in IDS]
        uploads = executor.update(clients, {cid: exchange.open_dispatch(packet) for cid in IDS})
        for cid in IDS:
            population.release(cid)
    return [(cid, sorted((k, np.asarray(v).tobytes()) for k, v in uploads[cid].items())) for cid in IDS]


def _client_state(runner):
    """Post-round population state (call after ``close`` pulled it home)."""
    if not runner.clients:
        return sorted(runner.population.snapshot()["blobs"].items())
    return [
        (c.client_id, c.round, c.vectorizer.flat_params.tobytes(), c.dual.tobytes(),
         repr(c.rng.bit_generator.state))
        for c in runner.clients
    ]


@lru_cache(maxsize=None)
def _steps_per_client():
    return count_client_steps(_build("serial", "eager").clients[0])


def _assert_released(executor):
    assert executor._pool is None and executor._threads.pool is None
    assert not [t for t in threading.enumerate() if t.name.startswith("fl-client")]
    assert not multiprocessing.active_children()
    assert not glob.glob(f"/dev/shm/rpmp{os.getpid()}x*")


def _run(backend, mode, client_batch, rounds=ROUNDS, retire_after=()):
    runner = _build(backend, mode, client_batch)
    executor = runner.executor
    uploads = []
    for rnd in range(rounds):
        uploads.append(_update(runner))
        assert (executor._pool is not None) == (backend == "process")
        # Client 0's upload is lost on the uplink: it computed, but only
        # gathered work counts — and a second settle has nothing pending.
        before = executor.client_steps
        executor.settle(IDS[1:])
        executor.settle(IDS)
        assert executor.client_steps - before == _steps_per_client() * (NUM_CLIENTS - 1)
        if rnd in retire_after:
            executor.retire_pool()
            assert executor._pool is None
    executor.close()
    executor.close()  # idempotent
    _assert_released(executor)
    return uploads, _client_state(runner)


@lru_cache(maxsize=None)
def _reference(mode, rounds=ROUNDS):
    return _run("serial", mode, 1, rounds)


@pytest.mark.parametrize("client_batch", [1, 4])
@pytest.mark.parametrize("mode", ["eager", "store"])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_uploads_and_state_equal_serial(backend, mode, client_batch):
    uploads, state = _run(backend, mode, client_batch)
    ref_uploads, ref_state = _reference(mode)
    assert uploads == ref_uploads
    assert state == ref_state
    # Uploads do not depend on how the population is held either.
    assert uploads == _reference("eager")[0]


@pytest.mark.parametrize("mode", ["eager", "store"])
def test_pool_retires_and_rebuilds_without_stale_state(mode):
    """Pooled, retire, pooled, retire, pooled, pooled.  Each rebuilt pool
    must start from the state its predecessor pulled home: a pool rebuilt
    from stale parent state would replay round 0's client state."""
    assert _run("process", mode, 1, rounds=4, retire_after=(0, 1)) == _reference(mode, 4)
