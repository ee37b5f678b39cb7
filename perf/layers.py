"""Which public methods the traced run wraps, and how spans become numbers.

:func:`instrument` arms one :class:`spans.SpanRecorder` around the public
methods that bound each layer of the program (the span name *is* the layer
path).  Functions that callers import by name — ``run_batched_updates``, the
``nn.functional`` kernels — cannot be wrapped from outside; they are covered
by subtraction (cohort time = ``local_update`` phase − Σ client updates) or by
``micro.py``.  :func:`summarize` reduces the spans of the timed rounds to
per-round medians and writes the raw trace.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from spans import SpanRecorder, per_round, write_jsonl


def _nbytes(arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _observe_encode(rec: SpanRecorder, args, kwargs, packet) -> None:
    state = args[1] if len(args) > 1 else kwargs["state"]
    raw = _nbytes(state.values())
    rec.count("comm.codecs.raw_bytes", raw)
    rec.count("comm.codecs.wire_bytes", packet.nbytes)
    if args[0].lossy:  # the compressed hop on its own (hier_int8's client<->edge)
        rec.count("comm.codecs.lossy_raw_bytes", raw)
        rec.count("comm.codecs.lossy_wire_bytes", packet.nbytes)


def _observe_add(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.objects["components_max"] = max(rec.objects.get("components_max", 0), len(args[0]))


def _observe_pack(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("mp.shm.bytes", _nbytes(array for _, array in args[1]))


def _observe_view(rec: SpanRecorder, args, kwargs, views) -> None:
    rec.count("mp.shm.bytes", _nbytes(views.values()))


def _observe_pool_round(rec: SpanRecorder, args, kwargs, result) -> None:
    # Worker-side (start, end) stamps of every update that ran per client;
    # cohort members carry none.  The only view into the workers from here.
    timings = result[2]
    rec.count("mp.worker.update_calls", len(timings))
    rec.count("mp.worker.update_s", sum(end - start for start, end in timings.values()))


def _capture(key: str):
    def observe(rec: SpanRecorder, args, kwargs, result) -> None:
        rec.objects.setdefault(key, args[0])

    return observe


def instrument(built, spec: Dict[str, Any]) -> SpanRecorder:
    """Wrap the layer-boundary methods this workload's objects will call."""
    from repro.comm import CodecPipeline
    from repro.core import Evaluator, PacketExchange, get_algorithm
    from repro.core.partial import ExactPartial

    rec = SpanRecorder()
    runner = built.runner
    server_cls, client_cls = get_algorithm(spec["config"]["algorithm"])

    rec.wrap(client_cls, "update", "core.client.update")
    rec.wrap(client_cls, "batch_gradient", "core.client.batch_gradient")
    for attr in ("encode_dispatch", "open_dispatch", "encode_upload", "reconcile"):
        rec.wrap(PacketExchange, attr, f"core.exchange.{attr}")
    rec.wrap(CodecPipeline, "encode_state", "comm.codecs.encode", _observe_encode)
    rec.wrap(CodecPipeline, "decode_state", "comm.codecs.decode")
    for cls in {type(c) for c in built.communicators}:
        rec.wrap(cls, "broadcast", "comm.transport.broadcast")
        rec.wrap(cls, "collect", "comm.transport.collect")
    # The runners re-scan the whole append-only log several times per round.
    for cls in {type(c.log) for c in built.communicators}:
        for attr in ("total_bytes", "total_seconds", "failed_attempts"):
            rec.wrap(cls, attr, "comm.transport.log_scan")
    rec.wrap(server_cls, "ingest", "core.server.ingest")
    for attr in ("finalize_round", "aggregate_global", "combine_partials", "partial_sum"):
        if hasattr(server_cls, attr):
            rec.wrap(server_cls, attr, f"core.server.{attr}")
    rec.wrap(ExactPartial, "add", "core.partial.add", _observe_add)
    rec.wrap(ExactPartial, "round", "core.partial.round")
    rec.wrap(ExactPartial, "merge", "core.partial.merge")
    rec.wrap(Evaluator, "__call__", "core.metrics.evaluate")

    if spec["builder"] == "virtual":
        from repro.scale import ClientStateStore

        rec.wrap(ClientStateStore, "checkout", "scale.store.checkout", _capture("store"))
        rec.wrap(ClientStateStore, "release", "scale.store.release")
    if spec["builder"] == "hier":
        from repro.hier import EdgeAggregator

        rec.wrap(EdgeAggregator, "run_local_round", "hier.edge.run_local_round")
        rec.wrap(EdgeAggregator, "summarize", "hier.edge.summarize")
    if spec["builder"] == "async":
        from repro.asyncfl import EventLoop

        rec.wrap(EventLoop, "pop", "asyncfl.loop.pop")
        rec.wrap(EventLoop, "schedule", "asyncfl.loop.schedule")
        rec.wrap(type(runner.strategy), "on_upload", "asyncfl.strategy.on_upload")
        rec.wrap(type(runner.sampler), "sample_one", "asyncfl.sampler.sample")
        rec.wrap(type(runner.sampler), "sample_cohort", "asyncfl.sampler.sample")
    if spec["config"].get("execution_backend") == "process":
        from repro.mp import ProcessWorkerPool
        from repro.mp.shm import ShmArena, ShmAttachment

        rec.wrap(ProcessWorkerPool, "__init__", "mp.pool.spawn")
        rec.wrap(ProcessWorkerPool, "run_round", "mp.pool.run_round", _observe_pool_round)
        rec.wrap(ProcessWorkerPool, "sync_parent", "mp.pool.sync_parent")
        rec.wrap(ProcessWorkerPool, "push_from_parent", "mp.pool.push_from_parent")
        rec.wrap(ShmArena, "pack", "mp.shm.pack", _observe_pack)
        rec.wrap(ShmAttachment, "view", "mp.shm.view", _observe_view)
    if built.monitor is not None:
        rec.wrap(type(built.monitor), "on_round", "obs.monitor.on_round")
    if "privacy" in spec:
        from repro.privacy import LaplaceMechanism

        rec.wrap(LaplaceMechanism, "perturb_array", "privacy.perturb")
    return rec


def late_over_early(values: List[float]) -> float:
    """Median of the last fifth ÷ median of the first fifth (flatness).  Never
    fewer than three rounds at each end, so that on the 14-round workloads one
    disturbed round cannot move the ratio."""
    fifth = max(3, len(values) // 5)
    early = statistics.median(values[:fifth])
    return statistics.median(values[-fifth:]) / early if early > 0 else 0.0


def summarize(rec: SpanRecorder, warmup: int, timed: int, trace_path) -> Dict[str, Any]:
    """Per-round medians of every span name over the timed rounds.

    ``all_rounds_s`` also sums each name over *every* round, warm-up included,
    for one-off work such as the pool spawn.
    """
    rounds = list(range(warmup, warmup + timed))
    spans = rec.spans
    selfs, totals, calls = per_round(spans, rounds)
    names: Dict[str, Dict[str, float]] = {}
    for name in selfs:
        names[name] = {
            "self_s": statistics.median(selfs[name]),
            "total_s": statistics.median(totals[name]),
            "calls": statistics.median(calls[name]),
            "late_over_early": late_over_early(totals[name]),
        }
    all_rounds: Dict[str, float] = {}
    for span in spans:
        if span is not None:
            all_rounds[span[0]] = all_rounds.get(span[0], 0.0) + span[2] - span[1]
    counters: Dict[str, float] = {}
    timed_rounds = set(rounds)
    for (name, rnd), value in rec.counters.items():
        if rnd in timed_rounds:
            counters[name] = counters.get(name, 0.0) + value
    out: Dict[str, Any] = {
        "names": names,
        "all_rounds_s": all_rounds,
        #: Σ self time of all spans per timed round (what the trace accounts for)
        "covered_s": [sum(series[i] for series in selfs.values()) for i in range(timed)],
        "counters_per_round": {k: v / max(timed, 1) for k, v in counters.items()},
        "components_max": rec.objects.get("components_max", 0),
        "spans": write_jsonl(spans, trace_path),
    }
    store = rec.objects.get("store")
    if store is not None:
        stats = store.stats
        checkouts = stats.hits + stats.materializations
        out["store"] = {
            "materializations": stats.materializations,
            "evictions": stats.evictions,
            "live_hit_share": stats.hits / checkouts if checkouts else 0.0,
            "peak_live": stats.peak_live,
            "store_nbytes": store.store_nbytes,
            "materialize_us": stats.materialize_us / max(stats.materializations, 1),
            "evict_us": stats.evict_us / max(stats.evictions, 1),
        }
    return out
