"""Turn the raw observations of ``child.py`` passes into the named metrics.

Pure functions over the JSON a pass prints, so the arithmetic is testable
without running a workload.  ``plain`` is the untraced full pass, ``traced``
the traced one, ``micro`` the workload's micro-timing group, ``reference`` the
serial twin of a process-backend workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Tuple

import spec as tables
from layers import late_over_early

PHASES = ("broadcast", "local_update", "gather", "aggregate", "evaluate")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_percentile(count: int) -> int:
    """Highest percentile with at least ten samples beyond it (never below the median)."""
    return max(50, int(math.floor(100.0 * (1.0 - 10.0 / count)))) if count else 50


def percentile(values: List[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]


def rounds_to_target(accuracy: List[Optional[float]], target: float) -> int:
    """Rounds needed (counted from round 0, warm-up included) until test
    accuracy first reaches ``target``; one past the run when it never does."""
    for index, acc in enumerate(accuracy):
        if acc is not None and acc >= target:
            return index + 1
    return len(accuracy) + 1


def timed_walls(obs: Dict[str, Any]) -> List[float]:
    return obs["round_wall"][obs["warmup"]:]


def end_to_end(obs: Dict[str, Any], setups: List[float], target: float) -> Dict[str, float]:
    """The eight end-to-end metrics of one untraced pass (``setups``: every
    set-up time measured for this run, this pass's included)."""
    warmup, timed = obs["warmup"], obs["timed"]
    walls = timed_walls(obs)
    window = obs["stamps"]["end"] - obs["stamps"]["warm"]
    return {
        "setup_s": statistics.median(setups),
        "rounds_per_s": timed / window,
        "round_s_p50": statistics.median(walls),
        "round_s_late_over_early": late_over_early(walls),
        "peak_rss_mb": obs["peak_rss_mb"],
        "wire_bytes_per_round": sum(obs["comm_bytes"][warmup:]) / timed,
        "final_accuracy": obs["accuracy"][-1],
        "rounds_to_target": rounds_to_target(obs["accuracy"], target),
    }


def operations(obs: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[int, int]:
    """(client updates attempted, failed) over the timed window.

    Synchronous runners dispatch every client every round, so a missing
    participant is an upload that was not ingested; an asynchronous
    aggregation has no fixed cohort, so its participants are its attempts.
    A round whose test loss is not finite counts as one failure.
    """
    warmup = obs["warmup"]
    participants = obs["participants"][warmup:]
    if spec["builder"] == "async":
        attempted = sum(participants)
    else:
        attempted = spec["clients"] * len(participants)
    failed = attempted - sum(participants)
    failed += sum(1 for x in obs["loss"][warmup:] if x is None or not math.isfinite(x))
    return attempted, failed


def checks(obs: Dict[str, Any], spec: Dict[str, Any], reach_target: bool = True) -> List[str]:
    """Failed correctness checks of one full pass (empty = correct).
    ``reach_target=False`` is for smoke runs too short to converge."""
    problems = []
    if any(x is None or not math.isfinite(x) for x in obs["loss"]):
        problems.append("non-finite test loss in some round")
    if reach_target and obs["accuracy"][-1] < spec["target"]:
        problems.append(
            f"final_accuracy {obs['accuracy'][-1]:.4f} below target {spec['target']}"
        )
    attempted, failed = operations(obs, spec)
    if failed:
        problems.append(f"{failed} of {attempted} client updates failed")
    if obs["dead_letters"] or obs["retries"]:
        problems.append("dead letters or retries on a fault-free run")
    return problems


def phase_medians(obs: Dict[str, Any]) -> Dict[str, float]:
    """Per-round medians of ``RoundResult.phase_seconds`` plus what the phases
    leave of the round wall."""
    rows = obs["phase_seconds"][obs["warmup"]:]
    out = {phase: statistics.median(row.get(phase, 0.0) for row in rows) for phase in PHASES}
    out["unaccounted"] = statistics.median(
        wall - sum(row.values()) for wall, row in zip(timed_walls(obs), rows)
    )
    return out


def update_calls(traced: Dict[str, Any]) -> float:
    """Per-client ``update()`` calls per round: parent-side spans, or — on the
    process backend, where the workers run them — the worker-shipped count."""
    trace = traced["trace"]
    in_parent = trace["names"].get("core.client.update", {}).get("calls", 0.0)
    return in_parent + trace["counters_per_round"].get("mp.worker.update_calls", 0.0)


def cohort_share(traced: Dict[str, Any], spec: Dict[str, Any]) -> float:
    """Share of a round's participants that ran inside a stacked cohort
    instead of their own ``update()``.  The event-driven runner has no cohort
    path (and its updates straddle aggregation boundaries), so it is 0 there."""
    if spec["builder"] == "async":
        return 0.0
    participants = statistics.median(traced["participants"][traced["warmup"]:])
    return max(0.0, 1.0 - update_calls(traced) / participants)


def cohort_seconds(traced: Dict[str, Any], spec: Dict[str, Any]) -> float:
    """Time in the cohort engine per round, by subtraction.

    ``run_batched_updates`` is imported by name and cannot be wrapped: its
    time is the part of the ``local_update`` phase that neither a per-client
    update span nor the worker pool's round covers — and none at all when
    every participant ran per client (the fallback).
    """
    if cohort_share(traced, spec) == 0.0:
        return 0.0
    names = traced["trace"]["names"]
    covered = sum(
        names.get(name, {}).get("total_s", 0.0) for name in ("core.client.update", "mp.pool.run_round")
    )
    return max(0.0, phase_medians(traced)["local_update"] - covered)


def budget(traced: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The traced run's time budget: round wall → runner phases → layer self
    times → unaccounted, all per-round medians."""
    trace = traced["trace"]
    walls = timed_walls(traced)
    phases = phase_medians(traced)
    layers = {name: row["self_s"] for name, row in trace["names"].items()}
    cohort = cohort_seconds(traced, spec)
    if cohort:
        layers["core.batched (by subtraction)"] = cohort
    unaccounted = statistics.median(
        wall - covered for wall, covered in zip(walls, trace["covered_s"])
    ) - cohort
    return {
        "round_wall_s": statistics.median(walls),
        "phases": phases,
        "layers": dict(sorted(layers.items(), key=lambda item: -item[1])),
        "unaccounted_s": unaccounted,
    }


def per_layer(
    plain: Dict[str, Any],
    traced: Dict[str, Any],
    micro: Dict[str, Dict[str, float]],
    spec: Dict[str, Any],
    reference: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Every declared per-layer metric for one workload (0 = the workload does
    not exercise that layer, or the micro belongs to another workload)."""
    values = {m.name: 0.0 for m in tables.PER_LAYER}
    warmup, timed = plain["warmup"], plain["timed"]
    walls = timed_walls(plain)
    p50 = statistics.median(walls)
    trace = traced["trace"]
    names, counters = trace["names"], trace["counters_per_round"]

    def span(name: str, field: str = "self_s") -> float:
        return names.get(name, {}).get(field, 0.0)

    # runner: counters the program publishes, from the untraced run.
    phases = phase_medians(plain)
    for phase in PHASES:
        values[f"runner.{phase}_s"] = phases[phase]
    values["runner.unaccounted_s"] = phases["unaccounted"]
    values["runner.round_s_tail"] = percentile(walls, tail_percentile(len(walls)))
    calls = update_calls(traced)
    local_steps = spec["config"]["local_steps"]
    steps = statistics.median(
        s if s is not None else calls * local_steps for s in plain["client_steps"][warmup:]
    )
    values["runner.client_steps"] = steps
    values["nn.kernel_calls_per_round"] = plain["kernel_calls"] / timed

    # core.client / core.batched (subtraction uses the traced run's own phases).
    values["core.client.update_s"] = span("core.client.update")
    values["core.client.update_calls"] = calls
    values["core.client.batch_gradient_s"] = span("core.client.batch_gradient")
    if phases["local_update"] > 0:
        values["core.client.steps_per_s"] = steps / phases["local_update"]
    values["core.batched.cohort_share"] = cohort_share(traced, spec)
    values["core.batched.cohort_s"] = cohort_seconds(traced, spec)

    for attr in ("encode_dispatch", "open_dispatch", "encode_upload", "reconcile"):
        values[f"core.exchange.{attr}_s"] = span(f"core.exchange.{attr}")
    values["comm.codecs.encode_s"] = span("comm.codecs.encode")
    values["comm.codecs.decode_s"] = span("comm.codecs.decode")
    values["comm.codecs.raw_bytes"] = counters.get("comm.codecs.raw_bytes", 0.0)
    values["comm.codecs.wire_bytes"] = counters.get("comm.codecs.wire_bytes", 0.0)
    hop = "lossy_" if counters.get("comm.codecs.lossy_wire_bytes") else ""
    if counters.get(f"comm.codecs.{hop}wire_bytes"):
        values["comm.codecs.wire_ratio"] = (
            counters[f"comm.codecs.{hop}raw_bytes"] / counters[f"comm.codecs.{hop}wire_bytes"]
        )
    values["comm.transport.broadcast_s"] = span("comm.transport.broadcast")
    values["comm.transport.collect_s"] = span("comm.transport.collect")
    values["comm.transport.log_scan_s"] = span("comm.transport.log_scan")
    values["comm.transport.log_records"] = plain["log_records"]
    values["comm.transport.retries"] = plain["retries"]
    values["comm.transport.dead_letters"] = plain["dead_letters"]

    values["core.server.ingest_s"] = span("core.server.ingest")
    values["core.server.ingest_calls"] = span("core.server.ingest", "calls")
    values["core.server.finalize_s"] = sum(
        span(f"core.server.{attr}")
        for attr in ("finalize_round", "aggregate_global", "combine_partials", "partial_sum")
    )
    values["core.server.consensus_residual"] = plain["consensus_residual"]
    for attr in ("add", "round", "merge"):
        values[f"core.partial.{attr}_s"] = span(f"core.partial.{attr}")
    values["core.partial.add_calls"] = span("core.partial.add", "calls")
    values["core.partial.components_max"] = trace["components_max"]
    values["core.metrics.evaluate_s"] = span("core.metrics.evaluate")

    values["scale.store.checkout_s"] = span("scale.store.checkout")
    values["scale.store.release_s"] = span("scale.store.release")
    for key, value in trace.get("store", {}).items():
        values[f"scale.store.{key}"] = value

    if spec["builder"] == "hier":
        values["hier.edge.local_round_s"] = span("hier.edge.run_local_round")
        values["hier.edge.summarize_s"] = span("hier.edge.summarize")
        values["hier.root.combine_s"] = span("core.server.combine_partials", "total_s")
        values["hier.root.packets_per_round"] = plain["root_uplink_records"] / (warmup + timed)
        values["hier.root.bytes_per_round"] = statistics.median(plain["root_bytes"][warmup:])

    window = plain["stamps"]["end"] - plain["stamps"]["warm"]
    values["asyncfl.events"] = plain["events"]
    values["asyncfl.events_per_s"] = plain["events"] / window
    values["asyncfl.mean_staleness"] = plain["mean_staleness"]
    values["asyncfl.loop_s"] = span("asyncfl.loop.pop") + span("asyncfl.loop.schedule")
    values["asyncfl.strategy_s"] = span("asyncfl.strategy.on_upload")
    values["asyncfl.sampler_s"] = span("asyncfl.sampler.sample")

    values["mp.pool.run_round_s"] = span("mp.pool.run_round", "total_s")
    values["mp.shm.pack_s"] = span("mp.shm.pack")
    values["mp.shm.bytes_per_round"] = counters.get("mp.shm.bytes", 0.0)
    # The pool spawns in the first warm-up round and syncs at close: totals over all rounds.
    values["mp.pool.spawn_s"] = trace["all_rounds_s"].get("mp.pool.spawn", 0.0)
    values["mp.pool.sync_s"] = sum(
        trace["all_rounds_s"].get(f"mp.pool.{attr}", 0.0) for attr in ("sync_parent", "push_from_parent")
    )
    if reference is not None:
        workers = spec["config"]["parallel_clients"]
        serial = phase_medians(reference)
        # computed: what the pooled local update costs beyond a perfect split
        # of the serial twin's local update over the workers.
        values["mp.pool.overhead_s"] = values["mp.pool.run_round_s"] - serial["local_update"] / workers
        values["mp.scaling_efficiency"] = statistics.median(timed_walls(reference)) / (workers * p50)

    values["obs.monitor.on_round_s"] = span("obs.monitor.on_round", "total_s")
    values["obs.monitor.on_round_late_over_early"] = span("obs.monitor.on_round", "late_over_early")
    monitor = plain.get("monitor", {})
    values["obs.monitor.samples"] = monitor.get("samples", 0)
    values["obs.monitor.alerts"] = monitor.get("alerts", 0)
    values["obs.stream.bytes"] = monitor.get("stream_bytes", 0)
    values["privacy.perturb_s"] = span("privacy.perturb")
    values["privacy.perturb_calls"] = span("privacy.perturb", "calls")

    stamps = plain["stamps"]
    values["setup.import_s"] = stamps["imported"]
    values["setup.data_s"] = stamps["data"] - stamps["imported"]
    values["setup.build_s"] = stamps["build"] - stamps["data"]
    values["setup.warmup_s"] = stamps["warm"] - stamps["run_start"]
    values["trace.overhead_pct"] = 100.0 * (statistics.median(timed_walls(traced)) - p50) / p50
    values["trace.spans"] = trace["spans"]

    for name, stats in micro.items():
        values[name] = stats["median"]
    return values
