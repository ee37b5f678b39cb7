"""Scaling harnesses: Figure 3 strong scaling + virtual-population sweeps.

Figure 3 — strong scaling of PPFL local updates on a Summit-like cluster.

Section IV-C: 203 FEMNIST clients are divided over {5, 11, 24, 50, 101, 203}
MPI processes (one GPU each, plus one server process); the paper reports

* Figure 3a — speedup of the average per-round local-update time (compute +
  ``MPI.gather`` communication) relative to the 5-process configuration,
  against the ideal linear-speedup line;
* Figure 3b — the percentage of that time spent inside ``MPI.gather()``.

The reproduction drives the cluster/device simulator plus the MPI collective
cost model with the same client population (203 non-IID FEMNIST-like shards)
and the CNN model size, and reports the same two series.

Population sweep — :func:`run_population_sweep` measures the client
virtualization layer of :mod:`repro.scale` (ISSUE 4): wall-clock seconds per
round, peak live clients, spilled-store bytes, clients/GB, and process peak
RSS for growing populations (default up to 10,000 virtual clients) under a
fixed ``live_cap``.  This is the "memory proportional to the cap, not the
population" claim, measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import MPIChannelModel, state_dict_nbytes
from ..core import build_model
from ..data import load_dataset, partition_sizes
from ..obs import MetricsRegistry, metric_key
from ..simulator import (
    LocalUpdateCostModel,
    RoundEvent,
    SimulationTrace,
    assign_clients_to_ranks,
    rank_compute_times,
    summit_cluster,
)
from .reporting import format_series, format_table

__all__ = [
    "ScalingSettings",
    "ScalingPoint",
    "ScalingResult",
    "run_scaling",
    "PopulationSweepSettings",
    "PopulationPoint",
    "PopulationSweepResult",
    "make_population",
    "run_population_sweep",
]

PAPER_PROCESS_COUNTS = (5, 11, 24, 50, 101, 203)


@dataclass(frozen=True)
class ScalingSettings:
    """Settings of the strong-scaling experiment (paper values by default)."""

    num_clients: int = 203
    process_counts: Tuple[int, ...] = PAPER_PROCESS_COUNTS
    num_rounds: int = 50
    skip_first_round: bool = True  # the paper drops round 1 (compile time)
    local_steps: int = 10
    model: str = "cnn"
    dataset: str = "femnist"
    seed: int = 0
    first_round_overhead: float = 5.0  # extra seconds in round 1 (Python compile)
    #: Charge the time a rank blocks inside the collective waiting for slower
    #: ranks to the gather, as an MPI timer around ``MPI.gather()`` would.
    #: This synchronisation wait — not wire transfer — is what dominates the
    #: paper's gather percentage as the number of processes grows (the per-rank
    #: payload shrinks 40×, but the straggler wait does not shrink with it).
    include_straggler_wait: bool = True


@dataclass(frozen=True)
class ScalingPoint:
    """Timing summary for one MPI-process count."""

    num_processes: int
    avg_round_seconds: float
    avg_compute_seconds: float
    avg_gather_seconds: float
    gather_percentage: float
    speedup: float
    ideal_speedup: float


@dataclass
class ScalingResult:
    """All scaling points plus render helpers (Figures 3a and 3b)."""

    points: List[ScalingPoint] = field(default_factory=list)
    model_nbytes: int = 0

    def speedups(self) -> Tuple[List[int], List[float]]:
        return [p.num_processes for p in self.points], [p.speedup for p in self.points]

    def gather_percentages(self) -> Tuple[List[int], List[float]]:
        return [p.num_processes for p in self.points], [p.gather_percentage for p in self.points]

    def point(self, num_processes: int) -> ScalingPoint:
        for p in self.points:
            if p.num_processes == num_processes:
                return p
        raise KeyError(num_processes)

    def render(self) -> str:
        rows = [
            [p.num_processes, round(p.avg_round_seconds, 3), round(p.avg_compute_seconds, 3),
             round(p.avg_gather_seconds, 4), round(p.gather_percentage, 1), round(p.speedup, 2),
             round(p.ideal_speedup, 2)]
            for p in self.points
        ]
        table = format_table(
            ["MPI procs", "round (s)", "compute (s)", "gather (s)", "gather %", "speedup", "ideal"],
            rows,
            title="Figure 3: strong scaling of local updates (FEMNIST, Summit-like cluster)",
        )
        xs, ys = self.speedups()
        xs2, ys2 = self.gather_percentages()
        return (
            table
            + "\n\n"
            + format_series("Figure 3a: speedup", xs, ys, "#MPI processes", "speedup")
            + "\n\n"
            + format_series("Figure 3b: % MPI.gather", xs2, ys2, "#MPI processes", "percent")
        )


def _client_sample_counts(settings: ScalingSettings) -> np.ndarray:
    clients, _, _ = load_dataset(settings.dataset, num_clients=settings.num_clients, seed=settings.seed)
    return partition_sizes(clients)


def _model_nbytes(settings: ScalingSettings) -> int:
    model = build_model(settings.model, (1, 28, 28), 62, rng=np.random.default_rng(settings.seed))
    return state_dict_nbytes(model.state_dict())


def run_scaling(settings: Optional[ScalingSettings] = None, channel: Optional[MPIChannelModel] = None) -> ScalingResult:
    """Run the Figure 3 strong-scaling simulation and return the two series."""
    settings = settings if settings is not None else ScalingSettings()
    channel = channel if channel is not None else MPIChannelModel()
    counts = _client_sample_counts(settings)
    model_nbytes = _model_nbytes(settings)
    cluster = summit_cluster(num_nodes=(max(settings.process_counts) + 5) // 6)
    cost_model = LocalUpdateCostModel(local_steps=settings.local_steps)

    result = ScalingResult(model_nbytes=model_nbytes)
    baseline_time: Optional[float] = None
    baseline_procs = settings.process_counts[0]

    for n_proc in settings.process_counts:
        assignments = assign_clients_to_ranks(settings.num_clients, n_proc, cluster)
        compute = rank_compute_times(assignments, counts, cost_model)
        slowest_compute = max(compute.values())
        trace = SimulationTrace()
        for rnd in range(settings.num_rounds):
            overhead = settings.first_round_overhead if rnd == 0 else 0.0
            for a in assignments:
                # Each rank contributes its clients' models to one gather.
                transfer_seconds = channel.gather_time(
                    nbytes_per_rank=model_nbytes * a.num_clients,
                    n_ranks=n_proc,
                    total_nbytes=model_nbytes * settings.num_clients,
                )
                gather_seconds = transfer_seconds
                if settings.include_straggler_wait:
                    # A rank that finishes its local updates early blocks inside
                    # MPI.gather() until the slowest rank arrives.
                    gather_seconds += slowest_compute - compute[a.rank]
                trace.add(
                    RoundEvent(
                        round=rnd,
                        rank=a.rank,
                        compute_seconds=compute[a.rank] + overhead,
                        comm_seconds=gather_seconds,
                    )
                )
        skip = [0] if settings.skip_first_round else []
        avg_round = trace.average_round_time(skip_rounds=skip)
        gather_pct = trace.average_comm_percentage(skip_rounds=skip)
        n_rounds_counted = settings.num_rounds - len(skip)
        avg_compute = trace.total_compute_seconds(skip_rounds=skip) / (n_rounds_counted * n_proc)
        avg_gather = trace.total_comm_seconds(skip_rounds=skip) / (n_rounds_counted * n_proc)
        if baseline_time is None:
            baseline_time = avg_round
        result.points.append(
            ScalingPoint(
                num_processes=n_proc,
                avg_round_seconds=avg_round,
                avg_compute_seconds=avg_compute,
                avg_gather_seconds=avg_gather,
                gather_percentage=gather_pct,
                speedup=baseline_time / avg_round,
                ideal_speedup=n_proc / baseline_procs,
            )
        )
    return result


# -------------------------------------------------- virtual-population sweep
@dataclass(frozen=True)
class PopulationSweepSettings:
    """Settings of the client-virtualization scaling sweep (ISSUE 4).

    The per-client workload is deliberately tiny (a few samples over a small
    MLP) so the sweep measures the *virtualization machinery* — materialise /
    evict / blob costs and the memory bound — rather than arithmetic.
    """

    populations: Tuple[int, ...] = (100, 1_000, 10_000)
    live_cap: int = 64
    algorithm: str = "fedavg"
    num_rounds: int = 1
    local_steps: int = 1
    samples_per_client: int = 4
    input_dim: int = 16
    num_classes: int = 4
    hidden: int = 8
    compress: Optional[str] = None  # None or "zlib" for the spilled blobs
    seed: int = 0


@dataclass(frozen=True)
class PopulationPoint:
    """Measurements for one population size."""

    num_clients: int
    live_cap: int
    round_seconds: float
    peak_live: int
    materializations: int
    evictions: int
    #: bytes of all spilled state blobs once the whole population is evicted
    store_nbytes: int
    #: spilled clients that fit in one GB of blob storage
    clients_per_gb: float
    #: mean microseconds to materialise / evict one client
    materialize_us: float
    evict_us: float
    #: process peak RSS in MB after the run (ru_maxrss — monotone across the
    #: sweep, so only the largest population's value is load-bearing)
    peak_rss_mb: float


@dataclass
class PopulationSweepResult:
    """All population points plus a render helper."""

    points: List[PopulationPoint] = field(default_factory=list)

    def point(self, num_clients: int) -> PopulationPoint:
        for p in self.points:
            if p.num_clients == num_clients:
                return p
        raise KeyError(num_clients)

    def render(self) -> str:
        rows = [
            [p.num_clients, p.live_cap, round(p.round_seconds, 3), p.peak_live,
             p.evictions, p.store_nbytes, int(p.clients_per_gb),
             round(p.materialize_us, 1), round(p.evict_us, 1), round(p.peak_rss_mb, 1)]
            for p in self.points
        ]
        return format_table(
            ["clients", "cap", "round (s)", "peak live", "evictions", "store B",
             "clients/GB", "mat µs", "evict µs", "RSS MB"],
            rows,
            title="Virtual-population scaling (memory bounded by live_cap)",
        )


def make_population(settings: PopulationSweepSettings, num_clients: int):
    """Tiny per-client shards + a seeded model factory for the sweep."""
    from ..core.models import MLP
    from ..data import TensorDataset

    def make_ds(cid: int):
        r = np.random.default_rng(settings.seed * 1_000_003 + cid)
        x = r.standard_normal((settings.samples_per_client, settings.input_dim))
        y = r.integers(0, settings.num_classes, size=settings.samples_per_client)
        return TensorDataset(x, y)

    datasets = [make_ds(c) for c in range(num_clients)]
    model_fn = lambda: MLP(
        settings.input_dim,
        settings.num_classes,
        hidden_sizes=(settings.hidden,),
        rng=np.random.default_rng(settings.seed + 42),
    )
    return datasets, model_fn


def run_population_sweep(settings: Optional[PopulationSweepSettings] = None) -> PopulationSweepResult:
    """Run the virtual-population wall-clock/RSS sweep and return all points."""
    import resource
    import time

    from ..core.config import FLConfig
    from ..scale import build_virtual_federation

    settings = settings if settings is not None else PopulationSweepSettings()
    result = PopulationSweepResult()
    for population in settings.populations:
        datasets, model_fn = make_population(settings, population)
        config = FLConfig(
            algorithm=settings.algorithm,
            num_rounds=settings.num_rounds,
            local_steps=settings.local_steps,
            batch_size=settings.samples_per_client,
            seed=settings.seed,
        )
        runner = build_virtual_federation(
            config, model_fn, datasets, live_cap=settings.live_cap, compress=settings.compress
        )
        start = time.perf_counter()
        runner.run(settings.num_rounds)
        elapsed = (time.perf_counter() - start) / settings.num_rounds
        store = runner.population
        store.flush()  # spill everyone so store_nbytes covers the population
        # Store accounting is read back through the metrics registry — the
        # same series every other harness and the obs report consume.
        registry = MetricsRegistry(harness="population_sweep")
        registry.absorb_store(store, tier="flat")
        gauges = registry.snapshot()["gauges"]

        def gauge(name: str) -> float:
            return gauges[metric_key(name, {"tier": "flat"})]

        store_nbytes = int(gauge("store_nbytes"))
        ops = max(1, int(gauge("store_materializations")))
        evs = max(1, int(gauge("store_evictions")))
        result.points.append(
            PopulationPoint(
                num_clients=population,
                live_cap=settings.live_cap,
                round_seconds=elapsed,
                peak_live=int(gauge("store_peak_live")),
                materializations=int(gauge("store_materializations")),
                evictions=int(gauge("store_evictions")),
                store_nbytes=store_nbytes,
                clients_per_gb=population / max(store_nbytes, 1) * 1e9,
                materialize_us=gauge("store_materialize_us") / ops,
                evict_us=gauge("store_evict_us") / evs,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        )
    return result
