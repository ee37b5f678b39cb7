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
* **One absorb path** — the monitor's live, cursor-fed registry equals a
  fresh ``MetricsRegistry().absorb_runner(runner)`` at every round, for all
  four runner types, however the log and history grew between samples; and
  a round's bookkeeping does the same amount of work at round 60 as at
  round 10 (counted, not timed).
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
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _convergence_by_rescan(dog, rounds, round_index=3):
    """``ConvergenceWatchdog.check`` as a pure function of the whole history."""
    import math

    from repro.obs.health import Alert

    losses = [float(r.test_loss) for r in rounds if r.test_loss is not None]
    if not losses:
        return []
    latest = losses[-1]
    if not math.isfinite(latest):
        return [Alert(dog.name, "critical", "test loss is non-finite", round_index, {"loss": repr(latest)})]
    alerts = []
    finite = [v for v in losses if math.isfinite(v)]
    best = min(finite)
    if len(finite) >= 2 and latest > best * dog.divergence_factor and latest > best + dog.min_rise:
        alerts.append(
            Alert(
                dog.name, "critical", f"loss diverging: {latest:.4g} vs best {best:.4g}",
                round_index, {"loss": latest, "best": best},
            )
        )
    if len(finite) >= dog.window + 1:
        prior_best, recent_best = min(finite[: -dog.window]), min(finite[-dog.window :])
        if recent_best > prior_best - dog.min_improvement:
            alerts.append(
                Alert(
                    dog.name, "warning",
                    f"no loss improvement in last {dog.window} rounds "
                    f"(best {recent_best:.4g} vs prior {prior_best:.4g})",
                    round_index, {"recent_best": recent_best, "prior_best": prior_best},
                )
            )
    return alerts


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

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.sampled_from([float("nan"), float("inf")]),
                st.floats(0.0, 5.0, allow_nan=False),
            ),
            max_size=40,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_convergence_incremental_state_matches_a_full_rescan(self, losses, window):
        """The watchdog reads each round once and keeps best / rolling-window
        state; after every round its alerts are what re-deriving everything
        from the whole loss history (the reference below) gives."""
        dog = ConvergenceWatchdog(window=window)
        history = _history([])
        for loss in losses:
            history.rounds.append(SimpleNamespace(test_loss=loss))
            got = dog.check(_sample(history=history))
            assert got == _convergence_by_rescan(dog, history.rounds)
            assert dog.check(_sample(history=history)) == got, "a re-check re-read rounds"
        # shown a shorter history it starts over
        short = _history([1.0, 0.5, 4.2])
        assert dog.check(_sample(history=short)) == _convergence_by_rescan(dog, short.rounds)

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

    def test_memory_watchdog_sees_every_edge_store_at_a_wave(self):
        """A wave boundary samples every edge's store, not only the one whose
        wave closed: a watermark above any one edge's store but below the
        federation's fires at a wave, before the first round sample."""
        from repro.hier import build_hier_federation

        rng = np.random.default_rng(0)
        datasets = [
            TensorDataset(rng.standard_normal((4, INPUT_DIM)), rng.integers(0, NUM_CLASSES, 4))
            for _ in range(16)
        ]

        def build():
            config = _config("iiadmm", topology="edges:4")
            return build_hier_federation(config, _model_fn(), datasets, live_cap=2)

        sizing = build()
        sizing.run(1)
        one_edge = max(edge.population.store_nbytes for edge in sizing.edges)
        alerts_at_round = []

        class Watching(RunMonitor):
            def on_round(self, runner, result=None):
                alerts_at_round.append(len(self.report.alerts))
                super().on_round(runner, result)

        monitor = Watching(monitors=[MemoryWatchdog(max_store_bytes=int(1.5 * one_edge))])
        with use_monitor(monitor):
            build().run(2)
        monitor.close()
        assert monitor.report.waves > 0
        assert alerts_at_round[0] > 0, "no wave-boundary alert before the first round sample"
        assert {a.monitor for a in monitor.report.alerts} == {"memory"}

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


# ------------------------------------------------------------ one absorb path
#: what only a monitor puts in its registry: memory gauges, its own timings
MONITOR_ONLY = ("process_rss_bytes", "shm_live_bytes", "shm_live_segments", "local_update_seconds")
LIVE_ROUNDS = 4


def _runner_metrics(snapshot):
    """``snapshot`` without the series a post-hoc absorb cannot have."""
    return {
        kind: {k: v for k, v in series.items() if not k.startswith(MONITOR_ONLY)}
        for kind, series in snapshot.items()
        if kind != "labels"
    }


def _post_hoc(runner):
    return _runner_metrics(MetricsRegistry().absorb_runner(runner).snapshot())


def _dp(**overrides):
    from repro.core import PrivacyConfig

    return dict(privacy=PrivacyConfig(epsilon=5.0, clip_norm=1.0), **overrides)


def _build_live(kind):
    """One runner per absorb surface: comm logs with retries, backoff waits
    and dead letters, ε accounting, a client store, banked + live worker
    telemetry, virtual-timeline wire totals, per-tier history counters."""
    from repro.faults import FaultPlan

    lossy = FaultPlan(seed=5, drop_prob=0.25, timeout_prob=0.1)
    if kind == "eager":
        runner = _build("sync", "iceadmm", **_dp())
        runner.communicator.install_faults(lossy)
    elif kind == "store":
        from repro.scale import build_virtual_federation

        datasets, test = _make_data()
        runner = build_virtual_federation(
            _config("iiadmm", **_dp()), _model_fn(), datasets, live_cap=2, test_dataset=test
        )
    elif kind == "process":
        runner = _build("sync", "fedavg", execution_backend="process", parallel_clients=2)
    elif kind == "async":
        from repro.asyncfl import FedBuffStrategy, build_async_federation

        datasets, test = _make_data()
        runner = build_async_federation(
            _config("fedavg", **_dp()), _model_fn(), datasets, test,
            strategy=FedBuffStrategy(buffer_size=3),
        )
        runner.enable_faults(FaultPlan(seed=2, client_crash_prob=0.3))
    elif kind == "hier":
        runner = _build("hier", "iceadmm", **_dp())
        runner.enable_faults(lossy)
    else:
        runner = _build("hier_async", "fedavg", **_dp())
    return runner


class TestOneAbsorbPath:
    @pytest.mark.parametrize("kind", ("eager", "store", "process", "async", "hier", "hier_async"))
    def test_live_registry_equals_post_hoc_absorb(self, kind, tmp_path):
        runner = _build_live(kind)
        monitor = RunMonitor(monitors=default_monitors(), stream=str(tmp_path / "s.jsonl"))
        checked = []

        def compare(result):
            done = len(runner.history)
            if kind == "process" and done == 2:
                runner.executor.retire_pool()  # rounds 3-4: banked telemetry + a new pool's
            if done in (1, 3, LIVE_ROUNDS):
                live = _runner_metrics(monitor.sample_registry(runner)[0])
                assert live == _post_hoc(runner), f"live != post-hoc at round {done}"
                checked.append(done)

        with use_monitor(monitor):
            runner.run(LIVE_ROUNDS, callback=compare)
        runner.close()
        monitor.close()
        assert checked == [1, 3, LIVE_ROUNDS]
        assert monitor.report.samples == LIVE_ROUNDS

        series = load_series(tmp_path / "s.jsonl")
        final = series[-1]["metrics"]["counters"]
        assert final, "nothing was counted"
        for key, value in final.items():
            assert sum(s["delta"]["counters"].get(key, 0) for s in series) == pytest.approx(value)
        if kind in ("eager", "hier"):
            assert sum(v for k, v in final.items() if k.startswith("comm_retries")) > 0
            assert sum(v for k, v in final.items() if k.startswith("comm_backoff_seconds")) > 0
        if kind == "process":
            assert any(k.startswith("worker_client_updates") for k in final)

    def test_sampling_every_third_round(self):
        """``interval_rounds > 1``: each sample reads several rounds' records
        and results at once."""
        runner = _build_live("eager")
        monitor = RunMonitor(monitors=default_monitors(), interval_rounds=3)
        with use_monitor(monitor):
            runner.run(7)
        monitor.close()
        assert monitor.report.samples == 3  # rounds 1, 4, 7
        assert _runner_metrics(monitor.registry.snapshot()) == _post_hoc(runner)

    def test_log_and_history_grown_through_their_public_methods(self):
        """What ``perf/micro.py`` does between its two sampling timings."""
        runner = _build_live("eager")
        runner.run(2)
        monitor = RunMonitor(monitors=default_monitors())
        first = _runner_metrics(monitor.sample_registry(runner)[0])
        assert first == _post_hoc(runner)
        assert _runner_metrics(monitor.sample_registry(runner)[0]) == first, "re-sampling re-counted"
        records, results = list(runner.communicator.log.records), list(runner.history.rounds)
        for _ in range(9):
            runner.communicator.log.extend(records)
            for result in results:
                runner.history.add(result)
        grown = _runner_metrics(monitor.sample_registry(runner)[0])
        assert grown == _post_hoc(runner)
        assert grown["counters"]["history_comm_bytes"] == 10 * first["counters"]["history_comm_bytes"]
        monitor.close()

    def test_cleared_log_and_other_runner_rebuild_instead_of_double_counting(self):
        runner = _build_live("eager")
        runner.run(2)
        monitor = RunMonitor(monitors=default_monitors())
        before = monitor.sample_registry(runner)[0]["counters"]["comm_bytes{tier=flat}"]
        # cleared, then regrown past where the monitor had read to
        log = runner.communicator.log
        records = list(log.records)
        log.clear()
        log.extend(records + records[:5])
        after = monitor.sample_registry(runner)[0]
        assert _runner_metrics(after) == _post_hoc(runner)
        assert after["counters"]["comm_bytes{tier=flat}"] < 2 * before
        # a different runner under the same monitor
        other = _build_live("hier")
        other.run(1)
        assert _runner_metrics(monitor.sample_registry(other)[0]) == _post_hoc(other)
        # a history restored from a checkpoint is a new object
        from repro.core.phases import TrainingHistory

        other.history = TrainingHistory(rounds=list(other.history.rounds))
        assert _runner_metrics(monitor.sample_registry(other)[0]) == _post_hoc(other)
        monitor.close()

    def test_bookkeeping_work_is_flat_in_run_length(self, monkeypatch):
        """Count, per round, every ``Histogram.observe``, every ``CommRecord``
        and ``RoundResult`` read out of the log / history, and every
        accountant query: round 60 does no more of them than round 10.  (With
        per-sample rebuilds and full-log scans all but the last grew linearly.)"""
        from repro.privacy import PrivacyAccountant

        tally = {"observe": 0, "entries": 0, "accountant": 0}

        def counted(cls, name, key):
            inner = getattr(cls, name)

            def wrapper(*args, **kwargs):
                tally[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(Histogram, "observe", "observe")
        for name in ("epsilon_spent", "delta_spent", "releases", "max_epsilon_spent"):
            counted(PrivacyAccountant, name, "accountant")

        class CountingList(list):
            """A list that tallies the entries read out of it."""

            def __iter__(self):
                for item in super().__iter__():
                    tally["entries"] += 1
                    yield item

            def __getitem__(self, index):
                got = super().__getitem__(index)
                tally["entries"] += len(got) if isinstance(index, slice) else 1
                return got

        _, test = _make_data()
        rng = np.random.default_rng(0)
        datasets = [
            TensorDataset(rng.standard_normal((4, INPUT_DIM)), rng.integers(0, NUM_CLASSES, 4))
            for _ in range(16)
        ]
        runner = build_federation(
            _config("iceadmm", batch_size=4, local_steps=1, **_dp()), _model_fn(), datasets, test
        )
        runner.communicator.log.records = CountingList()
        runner.history.rounds = CountingList()

        per_round = []

        class Watching(RunMonitor):
            def on_round(self, runner, result=None):
                super().on_round(runner, result)
                per_round.append(dict(tally))  # cumulative, at each round's end

        monitor = Watching(monitors=default_monitors())
        with use_monitor(monitor):
            runner.run(60)
        monitor.close()

        def work(round_number):  # everything between two round ends
            now, before = per_round[round_number - 1], per_round[round_number - 2]
            return {key: now[key] - before[key] for key in tally}

        assert all(count > 0 for count in work(10).values()), work(10)
        assert work(60) == work(10)
        assert work(35) == work(10)

    def test_report_carries_what_sampling_cost(self):
        monitor = RunMonitor(monitors=default_monitors())
        _run("sync", "fedavg", monitor)
        monitor.close()
        report = monitor.report
        assert 0.0 < report.sample_seconds < 60.0
        assert report.to_dict()["sample_seconds"] == report.sample_seconds
        assert f"{ROUNDS} samples in " in report.render()
        # kept out of the registry, so live and post-hoc snapshots stay equal
        assert not any("sample_seconds" in k for kind in monitor.registry.snapshot().values() for k in kind)


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
            err.value.close()  # the error *is* the open response
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
