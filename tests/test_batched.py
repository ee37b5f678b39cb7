"""Batched multi-client execution: equivalence, fallback, and observability.

The contract of :mod:`repro.core.batched`: with ``FLConfig.client_batch > 1``
a cohort of same-shaped clients runs as stacked GEMM kernels and the result
is **bitwise identical** to per-client execution at float64 on the
linear/MLP path — histories, global parameters, uploads, client RNG streams,
ADMM duals/primals, everything — and within documented tolerance at float32.
``client_batch=1`` is bit-for-bit the pre-batching behaviour (it never enters
the cohort engine).  These tests sweep random cohort sizes, ragged last
cohorts, and all three algorithms with hypothesis; check the mid-run
checkpoint/resume of a batched store-backed run; and pin the fallback and
observability wiring (cohort_step spans, client_steps accounting).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FederatedRunner, FLConfig, PrivacyConfig, build_federation
from repro.core.batched import (
    compile_model_spec,
    count_client_steps,
    run_batched_updates,
    supports_batched,
)
from repro.core.models import MLP, LogisticRegression, PaperCNN
from repro.core.runner import build_endpoints
from repro.data import CohortLoader, DataLoader, TensorDataset
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.scale import RunCheckpoint, build_virtual_federation

ALGORITHMS = ("fedavg", "iiadmm", "iceadmm")
#: DP is one more input of the equivalence lattice: clipped gradients and each
#: lane's own noise draws (which consume its RNG) must stay bitwise per client.
PRIVACY = {
    "off": PrivacyConfig(),
    "laplace": PrivacyConfig(epsilon=5.0, clip_norm=0.5),
    "gaussian": PrivacyConfig(epsilon=5.0, clip_norm=0.5, mechanism="gaussian"),
}
#: every algorithm × privacy setting; the DP-off cases keep their plain ids
ALGORITHM_PRIVACY = [
    pytest.param(algorithm, privacy, id=algorithm if privacy == "off" else f"{algorithm}-{privacy}")
    for algorithm in ALGORITHMS
    for privacy in PRIVACY
]


def _datasets(num_clients, n=4, d=6, classes=3, seed=0):
    out = []
    for cid in range(num_clients):
        rng = np.random.default_rng(seed * 1_000_003 + cid)
        x = rng.standard_normal((n, d))
        y = rng.integers(0, classes, size=n)
        out.append(TensorDataset(x, y))
    return out


def _model_fn(kind="mlp", d=6, classes=3):
    def build():
        rng = np.random.default_rng(42)
        if kind == "mlp":
            return MLP(d, classes, hidden_sizes=(5,), rng=rng)
        return LogisticRegression(d, classes, rng=rng)

    return build


def _config(algorithm, dtype="float64", privacy="off", **kwargs):
    return FLConfig(
        algorithm=algorithm,
        num_rounds=2,
        local_steps=2,
        batch_size=2,
        lr=0.05,
        seed=0,
        dtype=dtype,
        privacy=PRIVACY[privacy],
        **kwargs,
    )


def _history_key(history):
    return [(r.round, r.test_accuracy, r.test_loss, r.comm_bytes) for r in history.rounds]


def _client_state_key(runner):
    return [
        (
            c.client_id,
            c.round,
            c.vectorizer.flat_params.tobytes(),
            repr(c.rng.bit_generator.state),
            None if not hasattr(c, "dual") else (c.dual.tobytes(), c.primal.tobytes(), c._rho),
        )
        for c in runner.clients
    ]


# --------------------------------------------------------------- equivalence
class TestBatchedEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        model_kind=st.sampled_from(["mlp", "logistic"]),
        num_clients=st.integers(min_value=2, max_value=9),
        client_batch=st.integers(min_value=2, max_value=8),
        privacy=st.sampled_from(sorted(PRIVACY)),
    )
    def test_bitwise_at_float64(self, algorithm, model_kind, num_clients, client_batch, privacy):
        """Random cohort sizes and ragged last cohorts, all three algorithms,
        with and without DP: batched histories, uploads, and client state
        (duals, primals, RNG streams) are bitwise per-client."""
        datasets = _datasets(num_clients)
        test = _datasets(1, n=20)[0]
        cfg = _config(algorithm, privacy=privacy)
        base = build_federation(cfg, _model_fn(model_kind), datasets, test_dataset=test)
        ref = base.run()
        batched = build_federation(
            replace(cfg, client_batch=client_batch), _model_fn(model_kind), datasets, test_dataset=test
        )
        got = batched.run()
        assert _history_key(got) == _history_key(ref)
        assert np.array_equal(base.server.global_params, batched.server.global_params)
        assert batched.server.global_params.tobytes() == base.server.global_params.tobytes()
        assert _client_state_key(batched) == _client_state_key(base)
        assert batched.client_steps == base.client_steps

    @settings(max_examples=6, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        client_batch=st.integers(min_value=2, max_value=6),
    )
    def test_float32_within_tolerance(self, algorithm, client_batch):
        """Documented float32 contract: batched matches per-client within
        tolerance (on this BLAS the stacked lanes are in fact bit-identical,
        but only the tolerance is guaranteed across backends)."""
        datasets = _datasets(7)
        test = _datasets(1, n=20)[0]
        cfg = _config(algorithm, dtype="float32")
        base = build_federation(cfg, _model_fn(), datasets, test_dataset=test)
        base.run()
        batched = build_federation(
            replace(cfg, client_batch=client_batch), _model_fn(), datasets, test_dataset=test
        )
        batched.run()
        np.testing.assert_allclose(
            batched.server.global_params, base.server.global_params, rtol=1e-5, atol=1e-6
        )

    @pytest.mark.parametrize("algorithm, privacy", ALGORITHM_PRIVACY)
    def test_store_backed_waves_run_as_cohorts(self, algorithm, privacy):
        """A virtual (store-backed) batched run is bitwise the eager
        per-client run, wave boundaries and all — under DP too, whose noise
        draws the spilled RNG states must carry."""
        datasets = _datasets(11)
        test = _datasets(1, n=20)[0]
        cfg = _config(algorithm, privacy=privacy)
        eager = build_federation(cfg, _model_fn(), datasets, test_dataset=test)
        ref = eager.run()
        virtual = build_virtual_federation(
            replace(cfg, client_batch=4), _model_fn(), datasets, live_cap=5, test_dataset=test
        )
        got = virtual.run()
        assert _history_key(got) == _history_key(ref)
        assert np.array_equal(eager.server.global_params, virtual.server.global_params)

    @pytest.mark.parametrize("algorithm, privacy", ALGORITHM_PRIVACY)
    def test_mid_run_checkpoint_resume_stays_bitwise(self, algorithm, privacy):
        """Checkpoint a batched store-backed run mid-way, rebuild, restore,
        continue batched — bitwise the uninterrupted batched run (which is
        itself bitwise the per-client run)."""
        datasets = _datasets(9)
        test = _datasets(1, n=20)[0]
        cfg = replace(_config(algorithm, privacy=privacy), num_rounds=4, client_batch=3)

        full = build_virtual_federation(cfg, _model_fn(), datasets, live_cap=6, test_dataset=test)
        reference = full.run(4)

        first = build_virtual_federation(cfg, _model_fn(), datasets, live_cap=6, test_dataset=test)
        first.run(2)
        blob = RunCheckpoint.save(first).to_bytes()

        resumed = build_virtual_federation(cfg, _model_fn(), datasets, live_cap=6, test_dataset=test)
        RunCheckpoint.from_bytes(blob).restore(resumed)
        history = resumed.run(2)

        assert _history_key(history) == _history_key(reference)
        assert np.array_equal(full.server.global_params, resumed.server.global_params)

    def test_client_batch_one_never_enters_the_cohort_engine(self, monkeypatch):
        """client_batch=1 (the default) must be bit-for-bit the pre-PR path:
        the cohort engine is not even consulted."""
        import repro.core.executor as executor_mod

        def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("run_batched_updates called with client_batch=1")

        monkeypatch.setattr(executor_mod, "run_batched_updates", boom)
        datasets = _datasets(4)
        runner = build_federation(_config("fedavg"), _model_fn(), datasets)
        runner.run(1)
        assert runner.client_steps == sum(count_client_steps(c) for c in runner.clients)


# ------------------------------------------------------------------ fallback
class TestFallback:
    def test_cnn_models_fall_back_per_client(self):
        """No batched kernel for conv models: the spec fails to compile and
        the run still matches the per-client result exactly."""
        rng = np.random.default_rng(0)
        datasets = []
        for cid in range(3):
            crng = np.random.default_rng(cid)
            x = crng.standard_normal((4, 1, 8, 8))
            y = crng.integers(0, 3, size=4)
            datasets.append(TensorDataset(x, y))

        def cnn_fn():
            return PaperCNN(1, 3, image_size=(8, 8), hidden=4, conv_channels=(2, 2),
                            rng=np.random.default_rng(42))

        cfg = _config("fedavg")
        base = build_federation(cfg, cnn_fn, datasets)
        base.run(1)
        batched = build_federation(replace(cfg, client_batch=4), cnn_fn, datasets)
        batched.run(1)
        assert compile_model_spec(batched.clients[0]) is None
        assert np.array_equal(base.server.global_params, batched.server.global_params)

    def test_privacy_runs_as_cohorts(self):
        """DP clients run as cohorts (no fallback): clip and noise are the
        body's per-lane epilogue, each lane drawing from its own RNG, so the
        run still matches a client_batch=1 run bitwise."""
        datasets = _datasets(3)
        cfg = _config("iiadmm", privacy="laplace")
        runner = build_federation(replace(cfg, client_batch=4), _model_fn(), datasets)
        assert supports_batched(runner.clients[0])
        base = build_federation(cfg, _model_fn(), datasets)
        base.run(1)
        runner.run(1)
        assert not runner.executor.cohort_fallbacks
        assert np.array_equal(base.server.global_params, runner.server.global_params)
        assert _client_state_key(runner) == _client_state_key(base)

    def test_cohort_key_separates_privacy_settings(self):
        """Clients whose configs differ only in ``privacy.clip_norm`` never
        share a cohort: each setting forms its own, so every lane is clipped
        with its own client's norm — bitwise the client_batch=1 run."""
        datasets = _datasets(8)

        def runner(client_batch):
            tight = _config("fedavg", privacy="laplace", client_batch=client_batch)
            loose = replace(tight, privacy=replace(tight.privacy, clip_norm=50.0))
            server, clients = build_endpoints(tight, _model_fn(), datasets)
            _, others = build_endpoints(loose, _model_fn(), datasets)
            # Interleaved, so a key blind to privacy would mix the two in one cohort.
            mixed = [c if c.client_id % 2 == 0 else o for c, o in zip(clients, others)]
            return FederatedRunner(server, mixed)

        base, batched = runner(1), runner(8)
        base.run(1)
        tracer = Tracer()
        with use_tracer(tracer):
            batched.run(1)
        cohorts = [set(r["clients"]) for r in tracer.records if r.get("name") == "cohort_step"]
        assert sorted(cohorts, key=min) == [{0, 2, 4, 6}, {1, 3, 5, 7}]
        assert not batched.executor.cohort_fallbacks
        assert batched.server.global_params.tobytes() == base.server.global_params.tobytes()
        assert _client_state_key(batched) == _client_state_key(base)

    def test_lossy_codec_cohorts_match_per_client(self):
        """An fp16 wire does not stop cohorts: the cohort round runs (no
        fallback) and equals the per-client round."""
        datasets = _datasets(4)
        cfg = replace(_config("iiadmm", codec="fp16"), client_batch=4)
        base = build_federation(_config("iiadmm", codec="fp16"), _model_fn(), datasets)
        base.run(1)
        runner = build_federation(cfg, _model_fn(), datasets)
        runner.run(1)
        assert not runner.executor.cohort_fallbacks
        assert np.array_equal(base.server.global_params, runner.server.global_params)

    def test_mixed_population_splits_cohort_and_leftover(self):
        """Clients with unequal dataset sizes group into separate cohorts;
        singleton groups ride the per-client path — results stay bitwise."""
        datasets = _datasets(4, n=4) + _datasets(3, n=6, seed=1) + _datasets(1, n=5, seed=2)
        cfg = _config("fedavg")
        base = build_federation(cfg, _model_fn(), datasets)
        base.run()
        batched = build_federation(replace(cfg, client_batch=8), _model_fn(), datasets)
        batched.run()
        assert np.array_equal(base.server.global_params, batched.server.global_params)
        assert _client_state_key(batched) == _client_state_key(base)


# -------------------------------------------------------------- cohort loader
class TestCohortLoader:
    def test_blocks_match_per_client_iteration_and_rng(self):
        """Every lane of every block equals the per-client batch, and the
        underlying RNGs end in the same state as plain iteration."""
        datasets = _datasets(3, n=7, d=4)
        rngs_a = [np.random.default_rng(100 + i) for i in range(3)]
        rngs_b = [np.random.default_rng(100 + i) for i in range(3)]
        loaders_a = [DataLoader(d, batch_size=3, shuffle=True, rng=r) for d, r in zip(datasets, rngs_a)]
        loaders_b = [DataLoader(d, batch_size=3, shuffle=True, rng=r) for d, r in zip(datasets, rngs_b)]
        cohort = CohortLoader(loaders_b)
        for _epoch in range(2):
            per_client = [list(ld) for ld in loaders_a]
            cohort.epoch()
            for step, (xb, yb) in enumerate(cohort.batches()):
                for lane in range(3):
                    ex, ey = per_client[lane][step]
                    assert np.array_equal(xb[lane], ex)
                    assert np.array_equal(yb[lane], ey)
        for ra, rb in zip(rngs_a, rngs_b):
            assert ra.bit_generator.state == rb.bit_generator.state

    def test_rejects_mismatched_lanes(self):
        d1 = _datasets(1, n=4)[0]
        d2 = _datasets(1, n=6, seed=1)[0]
        l1 = DataLoader(d1, batch_size=2, shuffle=True, rng=np.random.default_rng(0))
        l2 = DataLoader(d2, batch_size=2, shuffle=True, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            CohortLoader([l1, l2])
        with pytest.raises(ValueError):
            CohortLoader([])


# ------------------------------------------------------------- observability
class TestObservability:
    def test_cohort_step_spans_and_steps_accounting(self):
        datasets = _datasets(6)
        cfg = replace(_config("fedavg"), client_batch=3)
        runner = build_federation(cfg, _model_fn(), datasets)
        tracer = Tracer()
        with use_tracer(tracer):
            runner.run(1)
        spans = [r for r in tracer.records if r.get("name") == "cohort_step"]
        assert spans, "batched execution must emit cohort_step spans"
        assert sum(r["steps"] for r in spans) == runner.client_steps
        assert all(r["cohort"] == len(r["clients"]) for r in spans)
        assert {cid for r in spans for cid in r["clients"]} == set(range(6))
        assert runner.history.rounds[0].client_steps == runner.client_steps

    def test_client_steps_per_sec_gauge(self):
        datasets = _datasets(4)
        runner = build_federation(replace(_config("iiadmm"), client_batch=2), _model_fn(), datasets)
        runner.run(1)
        registry = MetricsRegistry()
        registry.absorb_runner(runner)
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        key = next(k for k in gauges if "client_steps_per_sec" in k)
        expected = runner.client_steps / runner.phase_seconds["local_update"]
        assert gauges[key] == pytest.approx(expected)

    def test_format_history_steps_column(self):
        from repro.harness.reporting import format_history

        datasets = _datasets(4)
        runner = build_federation(replace(_config("fedavg"), client_batch=2), _model_fn(), datasets)
        history = runner.run(1)
        table = format_history(history)
        assert "steps/s" in table
        # json form carries the raw per-round count for machine consumers
        import json

        row = json.loads(format_history(history, fmt="json").splitlines()[0])
        assert row["client_steps"] == runner.client_steps
