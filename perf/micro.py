"""Micro-timings: direct timed calls into public functions at the workloads' real shapes.

Each group belongs to the workload whose shapes it uses and runs with that
workload's traced pass, so a layer's micro number sits next to the span
numbers it explains.  Every timing is: one warm-up call, then ``REPEATS``
repeats of a loop auto-scaled to at least ``LOOP_SECONDS`` (the ``timeit``
idiom), reported as min / median / IQR of the per-call time.  Calls that
consume their input — one backward pass per recorded graph — are timed one at
a time with an untimed set-up before each.  Inputs are generated from the seed.
"""

from __future__ import annotations

import copy
import os
import statistics
import time
import timeit
from typing import Any, Callable, Dict, List, Optional

import workloads

REPEATS = 7
LOOP_SECONDS = 0.02
#: flat parameter count of the paper's CNN (the Fig. 2 wire vector)
CNN_DIM = 406_922

Stats = Dict[str, float]


def bench(fn: Callable, setup: Optional[Callable[[], Any]] = None) -> List[float]:
    """``REPEATS`` samples of the per-call seconds of ``fn`` (``fn(setup())``
    when it consumes its input)."""
    if setup is not None:
        fn(setup())
        samples = []
        for _ in range(REPEATS):
            state = setup()
            start = time.perf_counter()
            fn(state)
            samples.append(time.perf_counter() - start)
        return samples
    fn()
    timer = timeit.Timer(fn)
    loops = 1
    while timer.timeit(loops) < LOOP_SECONDS and loops < 1 << 16:
        loops *= 2
    return [t / loops for t in timer.repeat(REPEATS, loops)]


def stats(samples: List[float]) -> Stats:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "min": min(samples), "median": statistics.median(samples), "iqr": q3 - q1,
        "repeats": len(samples),
    }


def timed(fn: Callable, scale: float, setup: Optional[Callable[[], Any]] = None) -> Stats:
    """Per-call time of ``fn`` in units of ``1/scale`` seconds (``US``, ``MS``)."""
    return stats([t * scale for t in bench(fn, setup)])


def rate(fn: Callable, megabytes: float) -> Stats:
    """MB/s of ``fn`` moving ``megabytes`` per call."""
    return stats([megabytes / t for t in bench(fn)])


US, MS = 1e6, 1e3


def _one_client(workload: str, seed: int, clients: int, **config):
    """An eager flat federation of the workload's model, algorithm and data
    shapes over a few clients."""
    from repro.core import build_federation

    spec = copy.deepcopy(workloads.WORKLOADS[workload])
    spec["clients"] = clients
    spec["config"].update(config)
    make_data, _ = workloads.BUILDERS[spec["builder"]]
    datasets, test, model_fn = make_data(spec, seed)
    return build_federation(workloads.make_config(spec, seed, 1), model_fn, datasets[:clients], test)


def group_fig2_cnn(seed: int) -> Dict[str, Stats]:
    """nn kernels at Fig. 2 shapes (batch 64, 1x28x28, float32), one CNN client update."""
    import numpy as np

    from repro import nn
    from repro.comm import resolve_codec
    from repro.core.base import PRIMAL_KEY
    from repro.data import DataLoader, TensorDataset

    F = nn.functional
    rng = np.random.default_rng(seed)
    f32 = np.float32

    def tensor(*shape, grad=True):
        return nn.Tensor(rng.standard_normal(shape).astype(f32), requires_grad=grad, dtype=f32)

    out: Dict[str, Stats] = {}
    # conv2 of the paper CNN (16 -> 32 channels at 28x28) dominates the step.
    x, w, b = tensor(64, 16, 28, 28), tensor(32, 16, 3, 3), tensor(32)
    grad = rng.standard_normal((64, 32, 28, 28)).astype(f32)
    out["nn.conv2d_fwd_us"] = timed(lambda: F.conv2d(x, w, b, padding=1), US)
    out["nn.conv2d_bwd_us"] = timed(
        lambda y: y.backward(grad), US, setup=lambda: F.conv2d(x, w, b, padding=1)
    )
    pooled_grad = rng.standard_normal((64, 32, 14, 14)).astype(f32)
    px = tensor(64, 32, 28, 28)
    out["nn.max_pool2d_fwd_us"] = timed(lambda: F.max_pool2d(px, 2), US)
    out["nn.max_pool2d_bwd_us"] = timed(
        lambda y: y.backward(pooled_grad), US, setup=lambda: F.max_pool2d(px, 2)
    )
    lx, lw, lb = tensor(64, 6272), tensor(64, 6272), tensor(64)
    lgrad = rng.standard_normal((64, 64)).astype(f32)
    out["nn.linear_fwd_bwd_us"] = timed(lambda: F.linear(lx, lw, lb).backward(lgrad), US)
    logits, labels = tensor(64, 10), rng.integers(0, 10, 64)
    out["nn.cross_entropy_fwd_bwd_us"] = timed(
        lambda: F.cross_entropy(logits, labels).backward(), US
    )

    # One optimizer step's forward + backward exactly as the workloads run it:
    # the client's batch_gradient on its own float32 batch, flat engine.
    def step(workload):
        runner = _one_client(workload, seed, clients=4)
        client = runner.clients[0]
        batch_x, batch_y = next(iter(client.loader))
        params = runner.server.global_params
        return runner, lambda: client.batch_gradient(params, batch_x, batch_y)

    runner, cnn_step = step("fig2_cnn")
    out["nn.cnn_step_ms"] = timed(cnn_step, MS)
    out["nn.mlp_step_us"] = timed(step("async_fedbuff")[1], US)

    client, payload = runner.clients[0], runner.server.broadcast_payload()
    out["core.client.update_cnn_ms"] = timed(lambda: client.update(payload), MS)

    images = rng.standard_normal((64, 1, 28, 28))
    loader = DataLoader(
        TensorDataset(images, labels), batch_size=64, shuffle=True, rng=np.random.default_rng(seed)
    )
    out["data.loader.batch_us"] = timed(lambda: [None for _ in loader], US)

    vec = rng.standard_normal(CNN_DIM).astype(f32)
    identity = resolve_codec("identity")
    out["comm.codecs.identity_encode_mb_s"] = rate(
        lambda: identity.encode_state({PRIMAL_KEY: vec}), vec.nbytes / 1e6
    )
    return out


def group_fig2_cnn_proc2(seed: int) -> Dict[str, Stats]:
    """Shared-memory pack/attach at the CNN wire size; a 2-worker tiny-MLP round trip."""
    import numpy as np

    from repro.mp.shm import ShmArena, ShmAttachment

    vec = np.random.default_rng(seed).standard_normal(CNN_DIM).astype(np.float32)
    arena, attachment = ShmArena(f"perfmicro{os.getpid()}"), ShmAttachment()
    out: Dict[str, Stats] = {}
    try:
        out["mp.shm.pack_us"] = timed(lambda: arena.pack([("w", vec)]), US)
        name, manifest = arena.pack([("w", vec)])
        out["mp.shm.attach_view_us"] = timed(lambda: attachment.view(name, manifest), US)
    finally:
        attachment.close()
        arena.close()

    # One round of two 1-step tiny-MLP clients on two workers is almost pure
    # pool overhead: pack, two pipe round trips, attach, unpack.
    runner = _one_client(
        "longrun_monitored", seed, clients=2, execution_backend="process", parallel_clients=2,
        client_batch=1,
    )
    ends = []
    start = time.perf_counter()
    runner.run(3 + REPEATS, callback=lambda result: ends.append(time.perf_counter()))
    walls = [b - a for a, b in zip([start] + ends[:-1], ends)][3:]
    out["mp.pool.roundtrip_ms"] = stats([wall * MS for wall in walls])
    return out


def group_scale_store(seed: int) -> Dict[str, Stats]:
    """Cohort update, state blobs, FedAvg ingest and a checkpoint of the store workload."""
    import numpy as np

    from repro.comm import decode_packet, encode_packet, resolve_codec
    from repro.comm.serialization import decode_state_blob, encode_state_blob
    from repro.core.base import GLOBAL_KEY, PRIMAL_KEY
    from repro.core.batched import run_batched_updates
    from repro.scale import RunCheckpoint

    out: Dict[str, Stats] = {}
    runner = _one_client("scale_store", seed, clients=64)
    payloads = {c.client_id: runner.server.broadcast_payload() for c in runner.clients}
    out["core.batched.update_b64_us_per_client"] = timed(
        lambda: run_batched_updates(runner.clients, payloads, 64), US / 64
    )

    client = runner.clients[0]
    upload = client.update(payloads[0])
    dispatched = payloads[0][GLOBAL_KEY]
    packet = runner.exchange.encode_upload(upload, dispatched)
    out["core.server.ingest_fedavg_us"] = timed(
        lambda: runner.server.ingest(0, packet, dispatched), US
    )

    # The blob a ClientStateStore spills: arrays through the identity codec,
    # the remaining scalars (round counter, RNG state) as a tree.
    state = client.client_state()
    arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
    rest = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
    identity = resolve_codec("identity")
    tree = {"arrays": identity.encode_state(arrays), "rest": rest}
    blob = encode_state_blob(tree)
    out["comm.serialization.state_blob_encode_us"] = timed(lambda: encode_state_blob(tree), US)
    out["comm.serialization.state_blob_decode_us"] = timed(lambda: decode_state_blob(blob), US)

    vec = np.random.default_rng(seed).standard_normal(CNN_DIM).astype(np.float32)
    wire = identity.encode_state({PRIMAL_KEY: vec})
    raw = encode_packet(wire)
    megabytes = vec.nbytes / 1e6
    out["comm.serialization.packet_encode_mb_s"] = rate(lambda: encode_packet(wire), megabytes)
    out["comm.serialization.packet_decode_mb_s"] = rate(lambda: decode_packet(raw), megabytes)

    built = workloads.build("scale_store", seed, 1, None)
    built.runner.run(1)
    checkpoint = RunCheckpoint.capture(built.runner)
    out["scale.checkpoint.capture_ms"] = timed(lambda: RunCheckpoint.capture(built.runner), MS)
    out["scale.checkpoint.restore_ms"] = timed(lambda: checkpoint.restore(built.runner), MS)
    return out


def group_async_fedbuff(seed: int) -> Dict[str, Stats]:
    """One per-client MLP update, IIADMM ingest, and exact sums at the CNN dim."""
    import numpy as np

    from repro.core.partial import ExactPartial

    out: Dict[str, Stats] = {}
    runner = _one_client("async_fedbuff", seed, clients=4)
    client, payload = runner.clients[0], runner.server.broadcast_payload()
    out["core.client.update_mlp_us"] = timed(lambda: client.update(payload), US)
    dispatched = runner.server.global_params.copy()
    packet = runner.exchange.encode_upload(client.update(payload), dispatched)
    out["core.server.ingest_iiadmm_us"] = timed(
        lambda: runner.server.ingest(0, packet, dispatched), US
    )

    rng = np.random.default_rng(seed)
    terms = [rng.standard_normal(CNN_DIM).astype(np.float32) for _ in range(4)]

    def partial(count: int) -> ExactPartial:
        acc = ExactPartial(CNN_DIM, np.float32)
        for term in terms[:count]:
            acc.add(term)
        return acc

    out["core.partial.add_us"] = timed(lambda acc: acc.add(terms[3]), US, setup=lambda: partial(3))
    out["core.partial.round_us"] = timed(partial(4).round, US)
    return out


def group_hier_int8(seed: int) -> Dict[str, Stats]:
    """delta|int8 encode/decode throughput on a CNN-sized vector."""
    import numpy as np

    from repro.comm import resolve_codec
    from repro.core.base import PRIMAL_KEY

    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(CNN_DIM)
    vec = ref + 0.01 * rng.standard_normal(CNN_DIM)
    pipeline = resolve_codec("delta|int8")
    reference = {PRIMAL_KEY: ref}
    packet = pipeline.encode_state({PRIMAL_KEY: vec}, reference=reference)
    megabytes = vec.nbytes / 1e6
    return {
        "comm.codecs.int8_encode_mb_s": rate(
            lambda: pipeline.encode_state({PRIMAL_KEY: vec}, reference=reference), megabytes
        ),
        "comm.codecs.int8_decode_mb_s": rate(
            lambda: pipeline.decode_state(packet, reference=reference), megabytes
        ),
    }


def group_longrun_monitored(seed: int) -> Dict[str, Stats]:
    """Accounting scans and monitor sampling against run length; DP noise and clipping."""
    import numpy as np

    from repro.comm import CommLog, CommRecord
    from repro.obs import RunMonitor, default_monitors
    from repro.privacy import LaplaceMechanism, clip_by_norm

    out: Dict[str, Stats] = {}
    log = CommLog()
    log.extend(CommRecord(i // 32, f"client:{i % 16}", "send_local", 2496, 0.0) for i in range(100_000))
    out["comm.transport.log_total_us_100k"] = timed(log.total_bytes, US)

    # Monitor sampling cost against history length: run 10 real rounds, sample;
    # then grow the run's own accounting (history, comm log) to 1000 rounds
    # through its public add/extend and sample again.
    runner = _one_client("longrun_monitored", seed, clients=16)
    runner.run(10)
    monitor = RunMonitor(default_monitors())
    out["obs.sample_us_h10"] = timed(lambda: monitor.sample_registry(runner), US)
    records, results = list(runner.communicator.log.records), list(runner.history.rounds)
    for _ in range(99):
        runner.communicator.log.extend(records)
        for result in results:
            runner.history.add(result)
    out["obs.sample_us_h1000"] = timed(lambda: monitor.sample_registry(runner), US)
    monitor.close()

    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(CNN_DIM)
    mechanism = LaplaceMechanism(10.0, rng=rng)
    out["privacy.laplace_us"] = timed(lambda: mechanism.perturb_array(vec, 0.1), US)
    out["privacy.clip_us"] = timed(lambda: clip_by_norm(vec, 1.0), US)
    return out


GROUPS: Dict[str, Callable[[int], Dict[str, Stats]]] = {
    "fig2_cnn": group_fig2_cnn,
    "fig2_cnn_proc2": group_fig2_cnn_proc2,
    "scale_store": group_scale_store,
    "async_fedbuff": group_async_fedbuff,
    "hier_int8": group_hier_int8,
    "longrun_monitored": group_longrun_monitored,
}
