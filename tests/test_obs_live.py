"""Live run monitoring (repro.obs): export, watchdogs, cross-process metrics.

The contracts regression-tested here, on top of ``test_obs.py``'s tracer
suite:

* **Exposition validity** — :func:`repro.obs.render_prometheus` output
  passes :func:`repro.obs.lint_exposition` (and the linter itself catches
  malformed names/labels/missing ``_total``).
* **Registry algebra** — ``dump_state``/``merge`` round-trips exactly
  (counters add, gauges last-write, histogram reservoirs merge
  deterministically), and ``diff`` yields non-negative per-interval
  counter deltas across a streamed run.
* **Watchdogs** — each fires on a synthetic pathological sample and stays
  silent on a healthy one; a monitored fault-free run raises zero alerts.
* **Bitwise determinism** — arming a :class:`repro.obs.RunMonitor` (with
  streaming + watchdogs) never changes a run, across runners, algorithms,
  and execution backends.
* **Worker telemetry** — process-backend workers ship registry deltas
  that merge deterministically in the parent, and opt-in phase profiling
  produces collapsed stacks rooted per worker.
"""

import cProfile
import json
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FLConfig, MLP, build_federation
from repro.data import TensorDataset
from repro.harness.chaos import histories_bitwise_equal
from repro.obs import (
    ConvergenceWatchdog,
    Histogram,
    MemoryWatchdog,
    MetricsRegistry,
    MetricsServer,
    MetricsStream,
    PhaseProfiler,
    RetryWatchdog,
    RunMonitor,
    StragglerWatchdog,
    Tracer,
    collapse_profile,
    default_monitors,
    lint_exposition,
    load_series,
    render_prometheus,
    use_monitor,
    use_profiler,
    use_tracer,
)
from repro.obs.health import HealthSample

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


def _build(mode, algorithm, **overrides):
    datasets, test = _make_data()
    if mode == "sync":
        return build_federation(_config(algorithm, **overrides), _model_fn(), datasets, test)
    if mode == "async":
        from repro.asyncfl import build_async_federation

        return build_async_federation(_config(algorithm, **overrides), _model_fn(), datasets, test)
    if mode == "hier":
        from repro.hier import build_hier_federation

        return build_hier_federation(
            _config(algorithm, topology="edges:2", **overrides), _model_fn(), datasets, test
        )
    if mode == "hier_async":
        from repro.hier import RootFedBuff, build_hier_async_federation

        return build_hier_async_federation(
            _config(algorithm, topology="edges:2", **overrides),
            _model_fn(),
            datasets,
            test_dataset=test,
            strategy=RootFedBuff(2),
        )
    raise ValueError(mode)


def _run(mode, algorithm, monitor, **overrides):
    runner = _build(mode, algorithm, **overrides)
    with use_monitor(monitor):
        history = runner.run(ROUNDS)
    runner.close()
    return runner, history


def _populated_registry():
    reg = MetricsRegistry(algorithm="fedavg", codec="identity")
    reg.counter("comm_bytes", tier="client").inc(1024)
    reg.counter("comm_bytes", tier="edge_root").inc(2048)
    reg.counter("rounds_completed").inc(3)
    reg.gauge("store_nbytes", tier="flat").set(4096.5)
    hist = reg.histogram("local_update_seconds", tier="run")
    for v in (0.01, 0.02, 0.03, 0.5):
        hist.observe(v)
    return reg


# ------------------------------------------------------------------ exposition
class TestExposition:
    def test_render_prometheus_lints_clean(self):
        text = render_prometheus(_populated_registry().snapshot())
        assert text.strip(), "empty exposition from a populated registry"
        assert lint_exposition(text) == []
        # counters carry the conventional suffix, labels are preserved
        assert "comm_bytes_total{" in text
        assert 'tier="client"' in text
        assert 'quantile="0.99"' in text

    def test_render_prometheus_sanitizes_hostile_names(self):
        reg = MetricsRegistry(**{"run id": "a b"})
        reg.counter("bad-name.metric", **{"tier": 'we"ird\nvalue'}).inc(1)
        reg.gauge("1starts_with_digit").set(2.5)
        text = render_prometheus(reg.snapshot())
        assert lint_exposition(text) == []

    def test_lint_catches_problems(self):
        bad = "\n".join(
            [
                "# TYPE ok_total counter",
                "ok_total 1",
                "no_type_header 2",           # sample without TYPE
                "# TYPE rides counter",
                "rides 3",                    # counter missing _total
                'ok_total{9bad="x"} 1',       # label starts with a digit
                "ok_total notanumber",        # unparseable value
            ]
        )
        problems = lint_exposition(bad)
        assert any("no TYPE header" in p for p in problems)
        assert any("missing _total" in p for p in problems)
        assert any("malformed labels" in p for p in problems)
        assert any("bad value" in p for p in problems)

    def test_namespace_prefix(self):
        text = render_prometheus(_populated_registry().snapshot(), namespace="repro")
        assert "repro_comm_bytes_total" in text
        assert lint_exposition(text) == []


# ------------------------------------------------------------- registry algebra
class TestRegistryAlgebra:
    def test_dump_state_merge_round_trip(self):
        reg = _populated_registry()
        clone = MetricsRegistry(**reg.labels).merge(reg.dump_state())
        assert clone.snapshot() == reg.snapshot()

    def test_merge_semantics(self):
        a = MetricsRegistry()
        a.counter("c").inc(3)
        a.gauge("g").set(1.0)
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.counter("c").inc(4)
        b.gauge("g").set(9.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7          # counters add
        assert snap["gauges"]["g"] == 9.0          # last write wins
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0

    def test_histogram_merge_is_deterministic_past_reservoir(self):
        def build():
            h = Histogram()
            for i in range(700):
                h.observe(float(i % 91))
            other = Histogram()
            for i in range(400):
                other.observe(float((i * 7) % 113))
            h.merge(other)
            return h

        s1, s2 = build().summary(), build().summary()
        assert s1 == s2
        assert s1["count"] == 1100
        assert s1["samples"] <= 512

    def test_diff_yields_interval_deltas(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(2.0)
        before = reg.snapshot()
        reg.counter("c").inc(3)
        reg.histogram("h").observe(4.0)
        delta = reg.diff(before)
        assert delta["counters"]["c"] == 3
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(4.0)
        # diff against None is "everything is new"
        full = reg.diff(None)
        assert full["counters"]["c"] == 8

    def test_histogram_summary_reports_reservoir_occupancy(self):
        h = Histogram()
        values = [float(v) for v in range(11)]
        for v in values:
            h.observe(v)
        summ = h.summary()
        assert summ["samples"] == len(values)
        assert summ["count"] == len(values)
        # n <= reservoir size: nearest-rank percentiles are exact over the
        # full observation set (the reservoir holds every value)
        assert summ["p50"] == 5.0
        assert summ["p99"] == 10.0
        assert summ["min"] == 0.0 and summ["max"] == 10.0


# ------------------------------------------------------------------- watchdogs
def _sample(snapshot=None, delta=None, history=None, round_index=3):
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    return HealthSample(
        runner=None,
        history=history,
        result=None,
        snapshot=snapshot if snapshot is not None else empty,
        delta=delta if delta is not None else empty,
        round=round_index,
    )


def _history(losses):
    return SimpleNamespace(rounds=[SimpleNamespace(test_loss=v) for v in losses])


class TestWatchdogs:
    def test_convergence_divergence_fires(self):
        dog = ConvergenceWatchdog()
        alerts = dog.check(_sample(history=_history([1.0, 0.5, 4.2])))
        assert [a.severity for a in alerts] == ["critical"]
        assert "diverging" in alerts[0].message

    def test_convergence_nonfinite_fires(self):
        dog = ConvergenceWatchdog()
        alerts = dog.check(_sample(history=_history([1.0, float("nan")])))
        assert [a.severity for a in alerts] == ["critical"]

    def test_convergence_stall_fires_and_short_runs_cannot(self):
        dog = ConvergenceWatchdog(window=4)
        flat = [1.0] + [0.9] * 8
        alerts = dog.check(_sample(history=_history(flat)))
        assert any("no loss improvement" in a.message for a in alerts)
        # a run shorter than window+1 rounds can never stall
        assert dog.check(_sample(history=_history([0.9] * 4))) == []

    def test_convergence_silent_on_healthy(self):
        dog = ConvergenceWatchdog()
        improving = [1.0 - 0.05 * i for i in range(12)]
        assert dog.check(_sample(history=_history(improving))) == []
        # near-zero best loss + tiny absolute wobble must not trip divergence
        assert dog.check(_sample(history=_history([1e-4, 1e-3]))) == []

    def test_straggler_fires_on_skew_and_respects_floors(self):
        dog = StragglerWatchdog(ratio=16.0, min_samples=64, min_p99_seconds=0.25)
        skewed = {
            "histograms": {
                "local_update_seconds{tier=run}": {"count": 100, "p50": 0.02, "p99": 1.0}
            }
        }
        alerts = dog.check(_sample(snapshot=skewed))
        assert [a.severity for a in alerts] == ["warning"]
        # same ratio at microsecond scale: absolute floor keeps it silent
        tiny = {
            "histograms": {
                "local_update_seconds{tier=run}": {"count": 100, "p50": 2e-6, "p99": 1e-4}
            }
        }
        assert dog.check(_sample(snapshot=tiny)) == []
        # too few samples: silent
        few = {
            "histograms": {
                "local_update_seconds{tier=run}": {"count": 8, "p50": 0.02, "p99": 1.0}
            }
        }
        assert dog.check(_sample(snapshot=few)) == []

    def test_retry_watchdog(self):
        dog = RetryWatchdog(max_dead_letters_per_sample=0, max_retries_per_sample=5)
        bad = {"counters": {"comm_dead_letters{tier=client}": 2, "comm_retries": 9}}
        alerts = dog.check(_sample(delta=bad))
        assert {a.severity for a in alerts} == {"warning"}
        assert len(alerts) == 2
        ok = {"counters": {"comm_dead_letters": 0, "comm_retries": 3}}
        assert dog.check(_sample(delta=ok)) == []

    def test_memory_watchdog(self):
        dog = MemoryWatchdog(max_rss_bytes=100, max_store_bytes=50)
        hot = {"gauges": {"process_rss_bytes": 1e9, "store_nbytes{tier=flat}": 80.0}}
        alerts = dog.check(_sample(snapshot=hot))
        assert [a.severity for a in alerts] == ["critical", "critical"]
        # unarmed watermarks never fire
        assert MemoryWatchdog().check(_sample(snapshot=hot)) == []

    def test_watchdog_error_becomes_alert_not_crash(self, tmp_path):
        class Broken(ConvergenceWatchdog):
            name = "broken"

            def check(self, sample):
                raise RuntimeError("boom")

        monitor = RunMonitor(monitors=[Broken()])
        _, history = _run("sync", "fedavg", monitor)
        monitor.close()
        assert len(history) == ROUNDS, "a broken watchdog must not kill the run"
        assert monitor.report.alerts
        assert all("watchdog error" in a.message for a in monitor.report.alerts)


# ------------------------------------------------------------- monitored runs
class TestMonitoredRuns:
    @pytest.mark.parametrize("algorithm", ("fedavg", "iceadmm", "iiadmm"))
    @pytest.mark.parametrize("mode", ("sync", "async", "hier"))
    def test_monitored_run_is_bitwise_identical(self, mode, algorithm, tmp_path):
        _, plain_history = _run(mode, algorithm, None)
        monitor = RunMonitor(
            monitors=default_monitors(),
            stream=str(tmp_path / "stream.jsonl"),
        )
        with monitor:
            monitored_runner = _build(mode, algorithm)
            monitored_history = monitored_runner.run(ROUNDS)
            monitored_runner.close()
        plain_runner, _ = _run(mode, algorithm, None)

        assert histories_bitwise_equal(plain_history, monitored_history)
        for rp, rm in zip(plain_history.rounds, monitored_history.rounds):
            assert rp.comm_bytes == rm.comm_bytes
        assert np.array_equal(
            plain_runner.server.global_params, monitored_runner.server.global_params
        )
        assert monitor.report.samples == ROUNDS
        assert monitor.report.alerts == [], "watchdogs false-positived on a healthy run"

    def test_monitored_hier_async_is_bitwise_identical(self, tmp_path):
        _, plain_history = _run("hier_async", "fedavg", None)
        monitor = RunMonitor(monitors=default_monitors(), stream=str(tmp_path / "s.jsonl"))
        _, monitored_history = _run("hier_async", "fedavg", monitor)
        monitor.close()
        assert histories_bitwise_equal(plain_history, monitored_history)
        assert monitor.report.samples == ROUNDS
        assert monitor.report.alerts == []

    def test_monitored_process_backend_is_bitwise_identical(self, tmp_path):
        _, plain_history = _run(
            "sync", "fedavg", None, execution_backend="process", parallel_clients=2
        )
        monitor = RunMonitor(monitors=default_monitors(), stream=str(tmp_path / "s.jsonl"))
        _, monitored_history = _run(
            "sync", "fedavg", monitor, execution_backend="process", parallel_clients=2
        )
        monitor.close()
        assert histories_bitwise_equal(plain_history, monitored_history)
        assert monitor.report.alerts == []

    def test_stream_counters_are_monotone(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        monitor = RunMonitor(monitors=default_monitors(), stream=str(path), tag="t")
        _run("sync", "fedavg", monitor)
        monitor.close()
        series = load_series(path)
        assert len(series) == ROUNDS
        assert [s["seq"] for s in series] == list(range(ROUNDS))
        previous = None
        for sample in series:
            assert sample["tag"] == "t"
            for key, value in sample["delta"]["counters"].items():
                assert value >= 0, f"negative counter delta for {key}"
            if previous is not None:
                for key, value in sample["metrics"]["counters"].items():
                    assert value >= previous["metrics"]["counters"].get(key, 0), (
                        f"counter {key} went backwards across samples"
                    )
            previous = sample
        # the cumulative snapshot is exactly the sum of the streamed deltas
        last = series[-1]
        for key, value in last["metrics"]["counters"].items():
            total = sum(s["delta"]["counters"].get(key, 0) for s in series)
            assert total == pytest.approx(value)

    def test_monitor_emits_alert_trace_events(self, tmp_path):
        # an armed (absurdly low) RSS watermark fires every round; the alert
        # must land in the trace as a structured health event
        tracer = Tracer()
        monitor = RunMonitor(monitors=[MemoryWatchdog(max_rss_bytes=1)])
        with use_tracer(tracer):
            _run("sync", "fedavg", monitor)
        monitor.close()
        assert monitor.report.status == "critical"
        alerts = [
            r
            for r in tracer.records
            if r.get("type") == "event" and r.get("cat") == "health"
        ]
        assert alerts
        assert all(a["name"] == "alert" for a in alerts)
        assert all(a["monitor"] == "memory" for a in alerts)


# ------------------------------------------------------------------- endpoint
class TestMetricsServer:
    def test_metrics_and_healthz(self):
        server = MetricsServer()
        try:
            snapshot = _populated_registry().snapshot()
            server.publish(snapshot, {"status": "ok", "alerts": []})
            text = urllib.request.urlopen(server.url + "/metrics", timeout=5).read().decode()
            assert lint_exposition(text) == []
            assert "comm_bytes_total" in text
            health = json.loads(
                urllib.request.urlopen(server.url + "/healthz", timeout=5).read()
            )
            assert health["status"] == "ok"
        finally:
            server.close()

    def test_healthz_503_on_critical(self):
        server = MetricsServer()
        try:
            server.publish(
                {"counters": {}, "gauges": {}, "histograms": {}},
                {"status": "critical", "alerts": [{"severity": "critical"}]},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/healthz", timeout=5)
            assert err.value.code == 503
        finally:
            server.close()


# ----------------------------------------------------------- worker telemetry
class TestWorkerTelemetry:
    def _run_process(self, profiler=None):
        runner = _build(
            "sync", "fedavg", execution_backend="process", parallel_clients=2
        )
        with use_profiler(profiler):
            runner.run(ROUNDS)
        runner.close()  # retires the pool, banking its telemetry
        reg = MetricsRegistry()
        reg.absorb_runner(runner)
        return reg.snapshot()

    @staticmethod
    def _deterministic_counters(snapshot):
        wanted = ("worker_rounds", "worker_client_updates", "worker_client_steps",
                  "worker_kernel_calls")
        return {
            k: v
            for k, v in snapshot["counters"].items()
            if k.startswith(wanted)
        }

    def test_worker_deltas_reach_parent_registry(self):
        snap = self._run_process()
        counters = snap["counters"]
        updates = sum(
            v for k, v in counters.items() if k.startswith("worker_client_updates")
        )
        assert updates == NUM_CLIENTS * ROUNDS
        steps = sum(
            v for k, v in counters.items() if k.startswith("worker_client_steps")
        )
        # local_steps=2 epochs x (SAMPLES / batch_size=3) = 4 optimizer steps
        # per client per round
        assert steps == NUM_CLIENTS * ROUNDS * 2 * (SAMPLES // 3)
        assert any(k.startswith("worker_kernel_calls") for k in counters)
        assert any(k.startswith("worker_cpu_seconds") for k in counters)
        assert any(
            k.startswith("worker_local_update_seconds") for k in snap["histograms"]
        )
        # per-worker labels are present and merged in worker-index order
        assert any("worker=0" in k for k in counters)

    def test_worker_delta_merge_is_deterministic(self):
        first = self._deterministic_counters(self._run_process())
        second = self._deterministic_counters(self._run_process())
        assert first, "no deterministic worker counters captured"
        assert first == second

    def test_worker_profile_ships_collapsed_stacks(self, tmp_path):
        profiler = PhaseProfiler(phases=("local_update",))
        self._run_process(profiler=profiler)
        folded = profiler.collapsed()
        worker_stacks = [s for s in folded if s.startswith("local_update;worker:")]
        assert worker_stacks, "no worker-rooted collapsed stacks captured"
        assert all(v >= 0 for v in folded.values())
        out = profiler.write_collapsed(tmp_path / "profile.folded")
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, usec = line.rpartition(" ")
            assert stack and int(usec) > 0


# ------------------------------------------------------------------- profiler
class TestProfiler:
    def test_collapse_profile_attributes_time(self):
        def leaf():
            return sum(i * i for i in range(20000))

        def trunk():
            return [leaf() for _ in range(3)]

        profile = cProfile.Profile()
        profile.enable()
        trunk()
        profile.disable()
        folded = collapse_profile(profile)
        assert folded
        assert all(v >= 0.0 for v in folded.values())
        assert any("trunk" in stack for stack in folded)
        # parent;child ordering: some stack should show trunk before leaf
        assert any(
            "trunk" in stack and "leaf" in stack and stack.index("trunk") < stack.index("leaf")
            for stack in folded
        )

    def test_phase_scoping(self):
        profiler = PhaseProfiler(phases=("local_update",))
        assert profiler.wants("local_update")
        assert not profiler.wants("evaluate")
        with profiler.phase("local_update"):
            sum(i for i in range(10000))
        profiler.begin("evaluate")  # unwanted phase: ignored
        profiler.end("evaluate")
        folded = profiler.collapsed()
        assert all(stack.startswith("local_update") for stack in folded)

    @pytest.mark.parametrize("population", ["eager", "store"])
    def test_round_phases_are_profiled(self, population):
        """The one synchronous round body brackets every phase with the
        profiler's hooks, however the clients are held (the store-backed
        round body used to have none)."""
        if population == "eager":
            runner = _build("sync", "fedavg")
        else:
            from repro.scale import build_virtual_federation

            datasets, test = _make_data()
            runner = build_virtual_federation(
                _config("fedavg"), _model_fn(), datasets, live_cap=2, test_dataset=test
            )
        profiler = PhaseProfiler(phases=("local_update", "aggregate"))
        with use_profiler(profiler):
            runner.run(ROUNDS)
        roots = {stack.split(";", 1)[0] for stack in profiler.collapsed()}
        assert roots == {"local_update", "aggregate"}


# ----------------------------------------------------------------- obsreport
class TestObsreportLive:
    def test_cli_series_and_perfetto(self, tmp_path, capsys):
        from repro.harness.obsreport import main

        tracer = Tracer()
        monitor = RunMonitor(
            monitors=[MemoryWatchdog(max_rss_bytes=1)],
            stream=str(tmp_path / "series.jsonl"),
            tag="run",
        )
        with use_tracer(tracer):
            _run("sync", "fedavg", monitor)
        monitor.close()
        trace_path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(trace_path)
        perfetto_path = tmp_path / "perfetto.json"
        assert (
            main(
                [
                    str(trace_path),
                    "--series",
                    str(tmp_path / "series.jsonl"),
                    "--perfetto",
                    str(perfetto_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Health alerts" in out
        assert "metrics series" in out
        assert "Counters over the stream" in out
        perfetto = json.loads(perfetto_path.read_text())
        assert perfetto["traceEvents"]
