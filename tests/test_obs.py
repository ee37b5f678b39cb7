"""Unified telemetry (repro.obs): tracer, metrics registry, run explorer.

The two contracts regression-tested here:

* **Bitwise determinism** — arming a :class:`repro.obs.Tracer` never
  changes a run: for FedAvg / ICEADMM / IIADMM across the synchronous,
  asynchronous, and both hierarchical runners, the traced run's history
  and final global parameters are bitwise identical to the untraced run's.
* **Export sanity** — the Perfetto export round-trips through JSON and its
  per-track spans nest consistently (children contained in parents, never
  partially overlapping); the JSONL export reloads into the same records.
"""

import json

import numpy as np
import pytest

from repro.core import FLConfig, MLP, build_federation
from repro.core.runner import PHASES, RoundResult
from repro.data import TensorDataset
from repro.harness.chaos import histories_bitwise_equal
from repro.harness.obsreport import load_trace, render_metrics, render_report
from repro.harness.reporting import format_history
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    current_tracer,
    metric_key,
    use_tracer,
)

ALGORITHMS = ("fedavg", "iceadmm", "iiadmm")

NUM_CLIENTS = 6
INPUT_DIM = 8
NUM_CLASSES = 3
SAMPLES = 6
ROUNDS = 2


def _make_data(seed=0):
    rng = np.random.default_rng(seed + 99)
    teacher = rng.standard_normal((INPUT_DIM, NUM_CLASSES))

    def split(n):
        x = rng.standard_normal((n, INPUT_DIM))
        y = np.argmax(x @ teacher, axis=1)
        return TensorDataset(x, y)

    return [split(SAMPLES) for _ in range(NUM_CLIENTS)], split(24)


def _model_fn():
    return lambda: MLP(
        INPUT_DIM, NUM_CLASSES, hidden_sizes=(8,), rng=np.random.default_rng(4242)
    )


def _config(algorithm, **overrides):
    kwargs = dict(
        algorithm=algorithm,
        num_rounds=ROUNDS,
        local_steps=2,
        batch_size=3,
        lr=0.05,
        rho=10.0,
        zeta=10.0,
        seed=0,
    )
    kwargs.update(overrides)
    return FLConfig(**kwargs)


def _build(mode, algorithm):
    datasets, test = _make_data()
    if mode == "sync":
        return build_federation(_config(algorithm), _model_fn(), datasets, test)
    if mode == "async":
        from repro.asyncfl import build_async_federation

        return build_async_federation(_config(algorithm), _model_fn(), datasets, test)
    if mode == "hier":
        from repro.hier import build_hier_federation

        return build_hier_federation(
            _config(algorithm, topology="edges:2"), _model_fn(), datasets, test
        )
    if mode == "hier_async":
        from repro.hier import RootFedBuff, build_hier_async_federation

        return build_hier_async_federation(
            _config(algorithm, topology="edges:2"),
            _model_fn(),
            datasets,
            test_dataset=test,
            strategy=RootFedBuff(2),
        )
    raise ValueError(mode)


def _run(mode, algorithm, tracer):
    runner = _build(mode, algorithm)
    with use_tracer(tracer):
        history = runner.run(ROUNDS)
    return runner, history


# ---------------------------------------------------------------- determinism
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("mode", ("sync", "async", "hier"))
def test_traced_run_is_bitwise_identical(mode, algorithm):
    _, untraced_history = _run(mode, algorithm, None)
    tracer = Tracer()
    traced_runner, traced_history = _run(mode, algorithm, tracer)
    untraced_runner, _ = _run(mode, algorithm, None)

    assert len(tracer) > 0, "armed tracer recorded nothing"
    assert histories_bitwise_equal(untraced_history, traced_history)
    for ru, rt in zip(untraced_history.rounds, traced_history.rounds):
        assert ru.comm_bytes == rt.comm_bytes
        assert ru.failed_clients == rt.failed_clients
    assert np.array_equal(
        untraced_runner.server.global_params, traced_runner.server.global_params
    )


def test_traced_hier_async_is_bitwise_identical():
    _, untraced_history = _run("hier_async", "fedavg", None)
    tracer = Tracer()
    traced_runner, traced_history = _run("hier_async", "fedavg", tracer)
    untraced_runner, _ = _run("hier_async", "fedavg", None)

    assert len(tracer) > 0
    assert histories_bitwise_equal(untraced_history, traced_history)
    assert np.array_equal(
        untraced_runner.server.global_params, traced_runner.server.global_params
    )


def test_traced_parallel_clients_is_bitwise_identical():
    """Thread-pooled client updates: spans are timed in workers but emitted
    from the orchestration thread, so the trace (and the run) stay
    deterministic."""
    datasets, test = _make_data()
    runs = []
    for tracer in (None, Tracer()):
        runner = build_federation(
            _config("fedavg", parallel_clients=2), _model_fn(), datasets, test
        )
        with use_tracer(tracer):
            history = runner.run(ROUNDS)
        runs.append((runner, history, tracer))
    (r0, h0, _), (r1, h1, tracer) = runs
    assert histories_bitwise_equal(h0, h1)
    assert np.array_equal(r0.server.global_params, r1.server.global_params)
    # Per-client spans land in client order regardless of worker scheduling.
    updates = [
        r for r in tracer.records
        if r["name"] == "local_update" and r["cat"] == "client"
    ]
    per_round = [u["client"] for u in updates]
    assert per_round == sorted(per_round[:NUM_CLIENTS]) * ROUNDS


def test_tracer_default_is_none_and_scoped():
    assert current_tracer() is None
    tracer = Tracer()
    with use_tracer(tracer):
        assert current_tracer() is tracer
    assert current_tracer() is None


# -------------------------------------------------------------------- exports
def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    _run("sync", "fedavg", tracer)
    path = tracer.write_jsonl(tmp_path / "trace.jsonl")
    records = load_trace(path)
    assert records == tracer.records


def test_perfetto_round_trip_and_span_nesting(tmp_path):
    tracer = Tracer()
    _run("hier", "fedavg", tracer)
    doc = json.loads(json.dumps(tracer.to_perfetto()))
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"

    # One thread_name metadata event per lane, and every record mapped.
    lanes = {r["lane"] for r in tracer.records}
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == lanes
    assert len(events) == len(tracer.records) + len(meta)

    # Spans on one track are either disjoint or properly nested — a span
    # pair that partially overlaps would render garbage and would mean a
    # child interval escaped its parent.
    eps = 1e-9
    by_tid = {}
    for e in events:
        if e["ph"] == "X":
            by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    for spans in by_tid.values():
        # Parents first on start-time ties (a wave span shares its t0 with
        # its first phase span — they reuse the same perf_counter tick).
        spans.sort(key=lambda s: (s[0], -s[1]))
        for i, (a0, a1) in enumerate(spans):
            for b0, b1 in spans[i + 1 :]:
                if b0 >= a1 - eps:
                    continue  # disjoint
                assert b1 <= a1 + eps, f"partial overlap: ({a0},{a1}) vs ({b0},{b1})"

    # Instant events carry the required scope field.
    assert all(e.get("s") == "t" for e in events if e["ph"] == "i")


def test_trace_has_expected_span_names():
    tracer = Tracer()
    _run("hier", "fedavg", tracer)
    names = {r["name"] for r in tracer.records}
    assert {"round", "edge_round", "local_update", "comm_send"} <= names
    assert set(PHASES) <= names


# ------------------------------------------------------------------- registry
def test_metric_key_and_basic_metrics():
    assert metric_key("x", {}) == "x"
    assert metric_key("x", {"b": 1, "a": "y"}) == "x{a=y,b=1}"
    registry = MetricsRegistry(algorithm="fedavg")
    registry.counter("hits", tier="flat").inc()
    registry.counter("hits", tier="flat").inc(2)
    registry.gauge("depth").set(3.5)
    snap = registry.snapshot()
    assert snap["labels"] == {"algorithm": "fedavg"}
    assert snap["counters"]["hits{tier=flat}"] == 3
    assert snap["gauges"]["depth"] == 3.5


def test_histogram_percentiles_without_touching_run_rng():
    state_before = np.random.get_state()[1].copy()
    hist = Histogram()
    for v in range(1, 1001):
        hist.observe(float(v))
    summary = hist.summary()
    assert summary["count"] == 1000
    assert summary["min"] == 1.0 and summary["max"] == 1000.0
    assert 400 <= summary["p50"] <= 600
    assert 900 <= summary["p95"] <= 1000
    # The reservoir's private RNG never touches numpy's global stream.
    assert np.array_equal(state_before, np.random.get_state()[1])


def test_absorb_runner_all_tiers():
    runner, _ = _run("hier", "iiadmm", None)
    registry = MetricsRegistry(algorithm="iiadmm")
    registry.absorb_runner(runner)
    snap = registry.snapshot()
    assert snap["counters"][metric_key("comm_bytes", {"tier": "client_edge"})] > 0
    assert snap["counters"][metric_key("comm_bytes", {"tier": "edge_root"})] > 0
    for phase in PHASES:
        assert metric_key("phase_seconds", {"phase": phase, "tier": "run"}) in snap["gauges"]
    assert snap["gauges"]["rounds_completed"] == ROUNDS
    text = render_metrics(snap)
    assert "comm_bytes{tier=client_edge}" in text


def test_absorb_runner_exports_a_flat_runs_fault_counters():
    """A flat runner's faults are armed on its communicator; the registry
    still mirrors the injector's running totals."""
    from repro.faults import FaultPlan

    runner = _build("sync", "fedavg")
    runner.communicator.install_faults(FaultPlan(seed=3, drop_prob=0.3))
    runner.run(3)
    stats = runner.communicator.injector.stats
    assert stats.drops > 0 and stats.retries > 0
    counters = MetricsRegistry().absorb_runner(runner).snapshot()["counters"]
    for name in ("drops", "retries", "dead_letters"):
        assert counters[f"faults_{name}"] == getattr(stats, name)


# ------------------------------------------------------------ unified phases
@pytest.mark.parametrize("mode", ("sync", "async", "hier", "hier_async"))
def test_phase_keys_are_canonical(mode):
    runner, history = _run(mode, "fedavg", None)
    assert set(runner.phase_seconds) == set(PHASES)
    assert history.rounds[0].phase_seconds is not None
    assert set(history.rounds[0].phase_seconds) == set(PHASES)


# ------------------------------------------------------------------ reporting
def test_format_history_json():
    _, history = _run("hier", "fedavg", None)
    lines = format_history(history, fmt="json").splitlines()
    assert len(lines) == len(history.rounds)
    field_names = {f.name for f in __import__("dataclasses").fields(RoundResult)}
    for line, result in zip(lines, history.rounds):
        row = json.loads(line)
        assert set(row) == field_names
        assert row["round"] == result.round
        assert row["comm_bytes"] == result.comm_bytes
        assert row["participating_clients"] == list(result.participating_clients)
    with pytest.raises(ValueError):
        format_history(history, fmt="xml")


def test_obsreport_renders_all_sections(tmp_path):
    tracer = Tracer()
    runner, _ = _run("hier", "fedavg", tracer)
    path = tracer.write_jsonl(tmp_path / "trace.jsonl")
    report = render_report(load_trace(path), top=3)
    assert "Phase breakdown per tier" in report
    assert "Top-3 slowest clients" in report
    assert "Top-3 slowest edges" in report
    assert "Bytes by hop and codec stage" in report


def test_checkpoint_spans(tmp_path):
    from repro.scale import RunCheckpoint

    runner, _ = _run("sync", "fedavg", None)
    tracer = Tracer()
    with use_tracer(tracer):
        ckpt = RunCheckpoint.capture(runner)
        fresh = _build("sync", "fedavg")
        ckpt.restore(fresh)
    names = [r["name"] for r in tracer.records if r["type"] == "span"]
    assert "checkpoint_capture" in names
    assert "checkpoint_restore" in names
    caps = [r for r in tracer.records if r["name"] == "checkpoint_capture"]
    assert caps[0]["kind"] == "sync" and caps[0]["nbytes"] == len(ckpt.to_bytes())
