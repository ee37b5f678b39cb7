"""The six benchmark workloads: sizes, hyper-parameters, targets and builders.

Every workload is a dict in :data:`WORKLOADS` (the table ``perf/README.md``
prints) plus one builder that turns ``(spec, seed)`` into a runner.  All data
is generated here from the seed — the program only ever sees generated
inputs — and is learnable: the MLP workloads label ``x`` with
``argmax(x @ W)`` for a seed-fixed ``W``; the two Fig. 2 workloads use the
repo's synthetic MNIST (class prototypes + noise).  Each workload therefore
has a test set and a target accuracy, so its speed is always reported next to
a run that converges.

Only the public API surface listed in ``perf/README.md`` is imported.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List

#: ``--seconds`` the round counts below are sized for on the reference host
#: (``BENCHMARK.json``'s ``run_seconds``): each workload's timed window takes
#: about this long there.  Another ``--seconds`` scales the timed rounds
#: proportionally, never below ``min_timed``, so the work done is a function
#: of the arguments alone and identical on both sides of a comparison.
REFERENCE_SECONDS = 12

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig2_cnn": {
        "why": "paper Fig. 2 CNN, serial: nn kernels in local_update are ~85% of the round; "
        "client_batch=4 requests cohorts so the CNN fallback shows as cohort_share=0",
        "builder": "fig2",
        "clients": 4, "train_size": 256, "test_size": 128,
        "config": {
            "algorithm": "iiadmm", "rho": 10.0, "zeta": 10.0, "local_steps": 2,
            "batch_size": 64, "dtype": "float32", "execution_backend": "serial",
            "client_batch": 4,
        },
        "warmup": 2, "timed": 14, "min_timed": 14, "target": 0.90, "chance": 0.1,
    },
    "fig2_cnn_proc2": {
        "why": "same arithmetic as fig2_cnn on execution_backend=process with 2 workers: "
        "isolates the mp pool, shm and IPC; final params must equal fig2_cnn bitwise",
        "builder": "fig2",
        "clients": 4, "train_size": 256, "test_size": 128,
        "config": {
            "algorithm": "iiadmm", "rho": 10.0, "zeta": 10.0, "local_steps": 2,
            "batch_size": 64, "dtype": "float32", "execution_backend": "process",
            "parallel_clients": 2, "client_batch": 4,
        },
        "warmup": 2, "timed": 24, "min_timed": 14, "target": 0.90, "chance": 0.1,
        "digest_equals": "fig2_cnn",
    },
    "scale_store": {
        "why": "2000 store-backed tiny-MLP FedAvg clients, live_cap=64: store checkout/release, "
        "state blobs and per-client exchange dominate; the only workload where cohorts engage",
        "builder": "virtual",
        "clients": 2000, "samples": 4, "features": 16, "classes": 4, "hidden": 8,
        "test_size": 512, "live_cap": 64,
        "config": {
            "algorithm": "fedavg", "lr": 0.5, "local_steps": 1, "batch_size": 4,
            "dtype": "float64", "execution_backend": "serial", "client_batch": 64,
        },
        "warmup": 2, "timed": 14, "min_timed": 14, "target": 0.45, "chance": 0.25,
    },
    "async_fedbuff": {
        "why": "256 async IIADMM clients, FedBuff(16) on the virtual clock: event loop, strategy "
        "and full-population aggregation per flush; a round is one server aggregation",
        "builder": "async",
        "clients": 256, "samples": 32, "features": 32, "classes": 10, "hidden": 64,
        "test_size": 512, "buffer": 16, "fraction": 0.5, "concurrency": 32,
        "config": {
            "algorithm": "iiadmm", "rho": 1.0, "zeta": 1.0, "local_steps": 1,
            "batch_size": 32, "dtype": "float32", "execution_backend": "serial",
        },
        "warmup": 10, "timed": 320, "min_timed": 100, "target": 0.40, "chance": 0.1,
    },
    "hier_int8": {
        "why": "512 IIADMM clients behind 16 edges with a delta|int8 client hop: the only lossy "
        "codec workload (encode/decode, reconcile, edge summaries, exact root sums)",
        "builder": "hier",
        "clients": 512, "samples": 16, "features": 32, "classes": 10, "hidden": 256,
        "test_size": 512,
        "config": {
            "algorithm": "iiadmm", "rho": 2.0, "zeta": 2.0, "local_steps": 1,
            "batch_size": 16, "dtype": "float64", "execution_backend": "serial",
            "topology": "edges:16", "edge_codec": "delta|int8", "root_codec": "identity",
            "client_batch": 32,
        },
        "warmup": 2, "timed": 21, "min_timed": 14, "target": 0.50, "chance": 0.1,
    },
    "longrun_monitored": {
        "why": "16 tiny ICEADMM clients with Laplace DP under an armed RunMonitor for ~800 rounds: "
        "per-round bookkeeping (CommLog scans, history, accountant, absorb_runner) grows with run length",
        "builder": "monitored",
        "clients": 16, "samples": 8, "features": 8, "classes": 3, "hidden": 16,
        "test_size": 256,
        "config": {
            "algorithm": "iceadmm", "rho": 10.0, "zeta": 10.0, "local_steps": 1,
            "batch_size": 8, "dtype": "float64", "execution_backend": "serial",
            "client_batch": 16,
        },
        "privacy": {"epsilon": 10.0, "clip_norm": 1.0, "mechanism": "laplace"},
        "warmup": 10, "timed": 780, "min_timed": 500, "target": 0.85, "chance": 1 / 3,
    },
}


def timed_rounds(spec: Dict[str, Any], seconds: float) -> int:
    """Timed rounds of one run: the table's count scaled by ``--seconds``."""
    scaled = int(round(spec["timed"] * float(seconds) / REFERENCE_SECONDS))
    return max(int(spec["min_timed"]), scaled)


def digest_round(spec: Dict[str, Any], timed: int) -> int:
    """Number of rounds after which the global parameters are hashed.

    Fixed at ``warmup + min_timed`` whatever ``--seconds`` is (every run gets
    that far), so digests compare across run lengths — ``fig2_cnn_proc2`` runs
    more rounds than ``fig2_cnn`` and must still equal it bit for bit there.
    """
    return int(spec["warmup"]) + min(int(timed), int(spec["min_timed"]))


@dataclass
class Built:
    """A constructed workload: the runner plus what the harness reads back."""

    runner: Any
    #: context armed around ``runner.run`` (arms, then closes, the monitor of
    #: longrun_monitored)
    context: Callable[[], ContextManager] = contextlib.nullcontext
    monitor: Any = None
    #: communicators whose ``CommLog`` the transport counters are read from
    communicators: List[Any] = field(default_factory=list)


def fig2_population(spec: Dict[str, Any], seed: int):
    """The paper's Fig. 2 data (synthetic MNIST split IID over the clients) and CNN."""
    from repro.core.models import SeededModelFn
    from repro.data import load_dataset

    datasets, test, data_spec = load_dataset(
        "mnist", num_clients=spec["clients"], train_size=spec["train_size"],
        test_size=spec["test_size"], seed=seed,
    )
    return datasets, test, SeededModelFn(
        "cnn", data_spec.image_shape, data_spec.num_classes, seed=seed + 42
    )


def mlp_population(spec: Dict[str, Any], seed: int):
    """Per-client datasets and a test set labelled by one seed-fixed linear
    map, ``y = argmax(x @ W)``, and the one-hidden-layer MLP that learns it."""
    import numpy as np

    from repro.core.models import SeededModelFn
    from repro.data import TensorDataset

    rng = np.random.default_rng(seed)
    features, classes, per = spec["features"], spec["classes"], spec["samples"]
    weights = rng.standard_normal((features, classes))

    def draw(n: int):
        x = rng.standard_normal((n, features))
        return x, np.argmax(x @ weights, axis=1)

    x, y = draw(spec["clients"] * per)
    datasets = [
        TensorDataset(x[i * per : (i + 1) * per], y[i * per : (i + 1) * per])
        for i in range(spec["clients"])
    ]
    model_fn = SeededModelFn(
        "mlp", (1, 1, features), classes, seed=seed + 42, hidden_sizes=(spec["hidden"],)
    )
    return datasets, TensorDataset(*draw(spec["test_size"])), model_fn


def make_config(spec: Dict[str, Any], seed: int, num_rounds: int):
    from repro.core import FLConfig, PrivacyConfig

    kwargs = dict(spec["config"])
    if "privacy" in spec:
        kwargs["privacy"] = PrivacyConfig(**spec["privacy"])
    return FLConfig(seed=seed, num_rounds=num_rounds, **kwargs)


def _build_flat(spec, seed, config, data, out_dir) -> Built:
    from repro.core import build_federation

    datasets, test, model_fn = data
    runner = build_federation(config, model_fn, datasets, test)
    return Built(runner, communicators=[runner.communicator])


def _build_virtual(spec, seed, config, data, out_dir) -> Built:
    from repro.scale import build_virtual_federation

    datasets, test, model_fn = data
    runner = build_virtual_federation(
        config, model_fn, datasets, live_cap=spec["live_cap"], test_dataset=test
    )
    return Built(runner, communicators=[runner.communicator])


def _build_async(spec, seed, config, data, out_dir) -> Built:
    from repro.asyncfl import FedBuffStrategy, UniformSampler, build_async_federation
    from repro.comm import TCPLinkModel
    from repro.simulator import DEVICE_CATALOG

    datasets, test, model_fn = data
    mix = ("A100", "V100", "CPU")
    devices = [DEVICE_CATALOG[mix[i % len(mix)]] for i in range(spec["clients"])]
    runner = build_async_federation(
        config, model_fn, datasets, test,
        strategy=FedBuffStrategy(spec["buffer"]),
        sampler=UniformSampler(spec["clients"], fraction=spec["fraction"], seed=seed),
        devices=devices, link=TCPLinkModel(), concurrency=spec["concurrency"],
    )
    return Built(runner)


def _build_hier(spec, seed, config, data, out_dir) -> Built:
    from repro.hier import build_hier_federation

    datasets, test, model_fn = data
    runner = build_hier_federation(config, model_fn, datasets, test)
    return Built(
        runner, communicators=[runner.client_communicator, runner.root_communicator]
    )


def _build_monitored(spec, seed, config, data, out_dir) -> Built:
    from repro.obs import RunMonitor, default_monitors, use_monitor

    built = _build_flat(spec, seed, config, data, out_dir)
    monitor = RunMonitor(default_monitors(), stream=str(out_dir / "monitor_stream.jsonl"))

    @contextlib.contextmanager
    def armed():
        with use_monitor(monitor):
            yield
        monitor.close()  # flushes the metrics stream the harness sizes afterwards

    built.context = armed
    built.monitor = monitor
    return built


#: builder name -> (data generator, runner constructor)
BUILDERS = {
    "fig2": (fig2_population, _build_flat),
    "virtual": (mlp_population, _build_virtual),
    "async": (mlp_population, _build_async),
    "hier": (mlp_population, _build_hier),
    "monitored": (mlp_population, _build_monitored),
}


def build(name: str, seed: int, num_rounds: int, out_dir, mark=lambda stage: None) -> Built:
    """Generate the workload's inputs from ``seed`` and construct its runner.

    ``mark("data")`` / ``mark("build")`` let the caller stamp the two stages.
    """
    spec = WORKLOADS[name]
    make_data, make_runner = BUILDERS[spec["builder"]]
    data = make_data(spec, seed)
    mark("data")
    built = make_runner(spec, seed, make_config(spec, seed, num_rounds), data, out_dir)
    mark("build")
    return built
