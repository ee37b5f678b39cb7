"""The declarative metric tables: names, units, directions, bounds, "moves".

``BENCHMARK.json`` at the repo root is the contract's projection of these
tables (``run.py --emit-benchmark`` prints it; ``tests/test_schema.py`` checks
the two agree).  What the contract's schema has no key for — absolute floors,
exact-match counts, which end-to-end metric on which workload a layer metric
should move — lives only here and is applied by ``compare.py``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the parent's median by which the metric may worsen
    bound: float
    #: absolute slack: a change smaller than this is never a regression
    floor: float
    #: listed under ``end_to_end`` in BENCHMARK.json, i.e. gated by the driver
    #: across runs with *different* seeds; otherwise listed under ``per_layer``
    gated: bool
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "counter" (published by the program), "span" (traced run, per-round
    #: median of self time unless said otherwise), "micro" (direct timed call),
    #: "computed" (arithmetic on the others), "harness" (stamps)
    source: str
    #: (end-to-end metric, workload) pairs this metric should move; on every
    #: pair not listed the prediction is *no change*
    moves: Tuple[Tuple[str, str], ...]


SIX = ("fig2_cnn", "fig2_cnn_proc2", "scale_store", "async_fedbuff", "hier_int8", "longrun_monitored")

# The same eight names on every workload, measured with tracing off.  Bounds
# start from the issue's table; README "Bounds" records each widening and the
# spreads measured on the reference host that forced it.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, 0.3, True,
             "child-process entry (before numpy/repro import) to the end of the last warm-up "
             "round; median of three fresh set-ups per run"),
    EndToEnd("rounds_per_s", "1/s", "higher", 0.25, 0.0, True,
             "timed rounds / wall of the timed window (includes growth and spikes)"),
    EndToEnd("round_s_p50", "s", "lower", 0.25, 0.0, True,
             "median per-round wall over the timed rounds"),
    EndToEnd("round_s_late_over_early", "ratio", "lower", 0.25, 0.0, True,
             "median of the last fifth of timed rounds / median of the first fifth "
             "(at least three rounds at each end)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, 3.0, True,
             "ru_maxrss of the child, plus its largest worker for fig2_cnn_proc2"),
    EndToEnd("wire_bytes_per_round", "B", "lower", 0.10, 0.0, True,
             "sum of RoundResult.comm_bytes (post-codec, all tiers) / timed rounds"),
    # The two convergence metrics depend on the seed far more than on the code
    # (quartile spread of rounds_to_target over ten seeds: 8-38%), so the
    # cross-seed gate cannot carry them and BENCHMARK.json lists them with the
    # per-layer metrics.  Every run fails its checks when the target is missed,
    # and for one seed both repeat exactly, which compare.py holds them to.
    EndToEnd("final_accuracy", "fraction", "higher", 0.0, 0.02, False,
             "test accuracy after the last timed round; below the workload's target the run fails"),
    EndToEnd("rounds_to_target", "rounds", "lower", 0.10, 1.0, False,
             "rounds (from round 0, warm-up included) until test accuracy first reaches the target"),
]


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


_P50 = "round_s_p50"
_FIG2 = ("fig2_cnn", "fig2_cnn_proc2")
_NONE: Tuple[Tuple[str, str], ...] = ()
#: the accounting claim: growth with run length shows in these two
_LONGRUN = _on("rounds_per_s", "longrun_monitored") + _on("round_s_late_over_early", "longrun_monitored")


def _layer(source: str, moves, *rows: Tuple[str, str, str]) -> List[PerLayer]:
    return [PerLayer(name, unit, better, source, tuple(moves)) for name, unit, better in rows]


#: Counts the program must reproduce exactly for one seed on one host
#: (``compare.py`` requires equality, like the final-parameter digests).
EXACT = (
    "wire_bytes_per_round", "rounds_to_target", "runner.client_steps", "asyncfl.events",
    "comm.transport.log_records", "core.client.update_calls", "core.server.ingest_calls",
    "core.partial.add_calls",
)

PER_LAYER: List[PerLayer] = [
    # runner: RoundResult.phase_seconds / client_steps; decomposition of round_s_p50.
    *_layer("counter", _on(_P50, *SIX),
            ("runner.broadcast_s", "s", "lower"),
            ("runner.local_update_s", "s", "lower"),
            ("runner.gather_s", "s", "lower"),
            ("runner.aggregate_s", "s", "lower"),
            ("runner.evaluate_s", "s", "lower"),
            ("runner.unaccounted_s", "s", "lower"),
            ("runner.round_s_tail", "s", "lower"),
            ("runner.client_steps", "count", "lower")),
    # nn: micro at Fig. 2 shapes (batch 64, 1x28x28) and MLP 32-64-10.
    *_layer("micro", _on(_P50, *_FIG2),
            ("nn.conv2d_fwd_us", "us", "lower"),
            ("nn.conv2d_bwd_us", "us", "lower"),
            ("nn.max_pool2d_fwd_us", "us", "lower"),
            ("nn.max_pool2d_bwd_us", "us", "lower"),
            ("nn.linear_fwd_bwd_us", "us", "lower"),
            ("nn.cross_entropy_fwd_bwd_us", "us", "lower"),
            ("nn.cnn_step_ms", "ms", "lower")),
    *_layer("micro", _on(_P50, "async_fedbuff"), ("nn.mlp_step_us", "us", "lower")),
    *_layer("counter", _on(_P50, "fig2_cnn"), ("nn.kernel_calls_per_round", "count", "lower")),
    # core.client: spans on the concrete client's update / batch_gradient.
    *_layer("span", _on(_P50, "fig2_cnn", "async_fedbuff", "hier_int8"),
            ("core.client.update_s", "s", "lower"),
            ("core.client.update_calls", "count", "lower"),
            ("core.client.batch_gradient_s", "s", "lower")),
    *_layer("computed", _on(_P50, "fig2_cnn", "async_fedbuff", "hier_int8"),
            ("core.client.steps_per_s", "1/s", "higher")),
    *_layer("micro", _on(_P50, *_FIG2), ("core.client.update_cnn_ms", "ms", "lower")),
    *_layer("micro", _on(_P50, "async_fedbuff"), ("core.client.update_mlp_us", "us", "lower")),
    # core.batched: cohorts engage only on scale_store today.
    *_layer("computed", _on(_P50, "scale_store"),
            ("core.batched.cohort_share", "fraction", "higher"),
            ("core.batched.cohort_s", "s", "lower")),
    *_layer("micro", _on(_P50, "scale_store"),
            ("core.batched.update_b64_us_per_client", "us", "lower")),
    # core.exchange: spans on PacketExchange (2000 opens/round on scale_store).
    *_layer("span", _on(_P50, "scale_store", "hier_int8"),
            ("core.exchange.encode_dispatch_s", "s", "lower"),
            ("core.exchange.open_dispatch_s", "s", "lower"),
            ("core.exchange.encode_upload_s", "s", "lower"),
            ("core.exchange.reconcile_s", "s", "lower")),
    # comm.codecs: spans on CodecPipeline.encode_state / decode_state.
    *_layer("span", _on(_P50, "hier_int8"),
            ("comm.codecs.encode_s", "s", "lower"),
            ("comm.codecs.decode_s", "s", "lower")),
    *_layer("span", _on("wire_bytes_per_round", "hier_int8"),
            ("comm.codecs.raw_bytes", "B", "lower"),
            ("comm.codecs.wire_bytes", "B", "lower"),
            ("comm.codecs.wire_ratio", "ratio", "higher")),
    *_layer("micro", _on(_P50, "hier_int8"),
            ("comm.codecs.int8_encode_mb_s", "MB/s", "higher"),
            ("comm.codecs.int8_decode_mb_s", "MB/s", "higher")),
    *_layer("micro", _on(_P50, "fig2_cnn"), ("comm.codecs.identity_encode_mb_s", "MB/s", "higher")),
    # comm.serialization: micro on packets and the store's state blobs.
    *_layer("micro", _on(_P50, "scale_store"),
            ("comm.serialization.packet_encode_mb_s", "MB/s", "higher"),
            ("comm.serialization.packet_decode_mb_s", "MB/s", "higher"),
            ("comm.serialization.state_blob_encode_us", "us", "lower"),
            ("comm.serialization.state_blob_decode_us", "us", "lower")),
    # comm.transport: spans on Communicator.broadcast / collect and the CommLog scans; log lengths.
    *_layer("span", _LONGRUN,
            ("comm.transport.broadcast_s", "s", "lower"),
            ("comm.transport.collect_s", "s", "lower"),
            ("comm.transport.log_scan_s", "s", "lower")),
    *_layer("counter", _LONGRUN,
            ("comm.transport.log_records", "count", "lower"),
            ("comm.transport.retries", "count", "lower"),
            ("comm.transport.dead_letters", "count", "lower")),
    *_layer("micro", _LONGRUN,
            ("comm.transport.log_total_us_100k", "us", "lower")),
    # core.server: spans on the concrete server's ingest / finalize path.
    *_layer("span", _on(_P50, "async_fedbuff", "hier_int8", "scale_store"),
            ("core.server.ingest_s", "s", "lower"),
            ("core.server.ingest_calls", "count", "lower"),
            ("core.server.finalize_s", "s", "lower")),
    *_layer("counter", _NONE, ("core.server.consensus_residual", "norm", "lower")),
    *_layer("micro", _on(_P50, "async_fedbuff", "hier_int8"),
            ("core.server.ingest_iiadmm_us", "us", "lower")),
    *_layer("micro", _on(_P50, "scale_store"), ("core.server.ingest_fedavg_us", "us", "lower")),
    # core.partial: spans on ExactPartial; micro at dim 406,922.
    *_layer("span", _on(_P50, "async_fedbuff", "hier_int8"),
            ("core.partial.add_s", "s", "lower"),
            ("core.partial.add_calls", "count", "lower"),
            ("core.partial.round_s", "s", "lower"),
            ("core.partial.merge_s", "s", "lower"),
            ("core.partial.components_max", "count", "lower")),
    *_layer("micro", _on(_P50, "async_fedbuff", "hier_int8"),
            ("core.partial.add_us", "us", "lower"),
            ("core.partial.round_us", "us", "lower")),
    *_layer("span", _on(_P50, "fig2_cnn"), ("core.metrics.evaluate_s", "s", "lower")),
    # scale.store: spans on ClientStateStore.checkout / release; StoreStats.
    *_layer("span", _on(_P50, "scale_store") + _on("peak_rss_mb", "scale_store"),
            ("scale.store.checkout_s", "s", "lower"),
            ("scale.store.release_s", "s", "lower")),
    *_layer("counter", _on(_P50, "scale_store") + _on("peak_rss_mb", "scale_store"),
            ("scale.store.materializations", "count", "lower"),
            ("scale.store.evictions", "count", "lower"),
            ("scale.store.live_hit_share", "fraction", "higher"),
            ("scale.store.peak_live", "count", "lower"),
            ("scale.store.store_nbytes", "B", "lower"),
            ("scale.store.materialize_us", "us", "lower"),
            ("scale.store.evict_us", "us", "lower")),
    *_layer("micro", _NONE,
            ("scale.checkpoint.capture_ms", "ms", "lower"),
            ("scale.checkpoint.restore_ms", "ms", "lower")),
    # hier: spans on EdgeAggregator and the root's combine; per-tier bytes.
    *_layer("span", _on(_P50, "hier_int8"),
            ("hier.edge.local_round_s", "s", "lower"),
            ("hier.edge.summarize_s", "s", "lower"),
            ("hier.root.combine_s", "s", "lower")),
    *_layer("counter", _on("wire_bytes_per_round", "hier_int8"),
            ("hier.root.packets_per_round", "count", "lower"),
            ("hier.root.bytes_per_round", "B", "lower")),
    # asyncfl: events_processed; spans on EventLoop, the strategy and the sampler.
    *_layer("counter", _on("rounds_per_s", "async_fedbuff"),
            ("asyncfl.events", "count", "lower"),
            ("asyncfl.events_per_s", "1/s", "higher"),
            ("asyncfl.mean_staleness", "rounds", "lower")),
    *_layer("span", _on("rounds_per_s", "async_fedbuff"),
            ("asyncfl.loop_s", "s", "lower"),
            ("asyncfl.strategy_s", "s", "lower"),
            ("asyncfl.sampler_s", "s", "lower")),
    # mp: parent-side spans on ProcessWorkerPool and the shm arena.
    *_layer("span", _on(_P50, "fig2_cnn_proc2"),
            ("mp.pool.run_round_s", "s", "lower"),
            ("mp.pool.sync_s", "s", "lower"),
            ("mp.shm.pack_s", "s", "lower"),
            ("mp.shm.bytes_per_round", "B", "lower")),
    *_layer("computed", _on(_P50, "fig2_cnn_proc2"),
            ("mp.pool.overhead_s", "s", "lower"),
            ("mp.scaling_efficiency", "fraction", "higher")),
    *_layer("span", _on("setup_s", "fig2_cnn_proc2"), ("mp.pool.spawn_s", "s", "lower")),
    *_layer("micro", _on(_P50, "fig2_cnn_proc2"),
            ("mp.shm.pack_us", "us", "lower"),
            ("mp.shm.attach_view_us", "us", "lower"),
            ("mp.pool.roundtrip_ms", "ms", "lower")),
    # obs: spans on RunMonitor.on_round; its report; sampling cost vs history length.
    *_layer("span", _LONGRUN,
            ("obs.monitor.on_round_s", "s", "lower"),
            ("obs.monitor.on_round_late_over_early", "ratio", "lower")),
    *_layer("counter", _LONGRUN,
            ("obs.monitor.samples", "count", "lower"),
            ("obs.monitor.alerts", "count", "lower"),
            ("obs.stream.bytes", "B", "lower")),
    *_layer("micro", _LONGRUN,
            ("obs.sample_us_h10", "us", "lower"),
            ("obs.sample_us_h1000", "us", "lower")),
    # privacy: spans on LaplaceMechanism.perturb_array; micro at dim 406,922.
    *_layer("span", _on(_P50, "longrun_monitored"),
            ("privacy.perturb_s", "s", "lower"),
            ("privacy.perturb_calls", "count", "lower")),
    *_layer("micro", _on(_P50, "longrun_monitored"),
            ("privacy.laplace_us", "us", "lower"),
            ("privacy.clip_us", "us", "lower")),
    *_layer("micro", _on(_P50, "fig2_cnn"), ("data.loader.batch_us", "us", "lower")),
    # setup: harness stamps, the parts of setup_s.
    *_layer("harness", _on("setup_s", *SIX),
            ("setup.import_s", "s", "lower"),
            ("setup.data_s", "s", "lower"),
            ("setup.build_s", "s", "lower"),
            ("setup.warmup_s", "s", "lower")),
    # trace: the harness's own cost.
    *_layer("harness", _NONE,
            ("trace.overhead_pct", "%", "lower"),
            ("trace.spans", "count", "lower")),
]

#: How the metrics interact (written down before measuring).
INTERACTIONS = (
    "Nothing contends in the five single-threaded workloads, so a faster layer saves at most "
    "its self-time share of the round: halving scale.store.checkout_s can cut scale_store "
    "rounds by at most its share of the round and fig2_cnn by nothing.  In fig2_cnn_proc2 the "
    "round waits for the slower of two workers plus parent-side pack/sync, so "
    "mp.pool.overhead_s is on the blocking path while a kernel gain is halved in absolute "
    "seconds.  round_s_p50 is blind to growth, which is why rounds_per_s and "
    "round_s_late_over_early carry the accounting claim on longrun_monitored."
)
