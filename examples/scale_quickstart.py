"""Virtual populations in one page: 10,000 clients in bounded memory.

A materialised client is heavy (model replica + flat gradient buffers +
loader); a population of them makes RSS grow linearly.  ``repro.scale``
virtualises the population: a ``ClientStateStore`` keeps every client's
persistent state (ADMM duals, RNG, round counter) as a compact blob and only
materialises the ``live_cap`` clients currently running, LRU-spilling the
rest.  ``RunCheckpoint`` snapshots a whole run — sync or async — so a killed
job resumes **bit-identically**.

Run:  PYTHONPATH=src python examples/scale_quickstart.py
"""

import time

import numpy as np

from repro.asyncfl import FedBuffStrategy, UniformSampler
from repro.core import FLConfig
from repro.core.models import MLP
from repro.data import TensorDataset
from repro.scale import RunCheckpoint, build_virtual_async_federation, build_virtual_federation

POPULATION = 10_000
LIVE_CAP = 64


def make_datasets():
    """Tiny per-client shards (cross-device clients hold little data)."""
    datasets = []
    for cid in range(POPULATION):
        rng = np.random.default_rng(1_000 + cid)
        x = rng.standard_normal((4, 16))
        y = rng.integers(0, 4, size=4)
        datasets.append(TensorDataset(x, y))
    return datasets


def model_fn():
    return MLP(16, 4, hidden_sizes=(8,), rng=np.random.default_rng(42))


def main() -> None:
    datasets = make_datasets()

    # ---- 1. synchronous FedAvg over all 10k clients, 64 live at a time ----
    config = FLConfig(algorithm="fedavg", num_rounds=1, local_steps=1, batch_size=4, seed=0)
    runner = build_virtual_federation(config, model_fn, datasets, live_cap=LIVE_CAP)
    start = time.perf_counter()
    runner.run(1)
    stats = runner.population.stats
    print(f"sync FedAvg: {POPULATION} clients in {time.perf_counter() - start:.1f}s")
    print(f"  peak live clients : {stats.peak_live} (cap {LIVE_CAP})")
    print(f"  materialisations  : {stats.materializations}, evictions: {stats.evictions}")
    print(f"  spilled store     : {runner.population.store_nbytes / 1e6:.1f} MB "
          f"(~{runner.population.store_nbytes // POPULATION} B/client)")

    # ---- 2. async IIADMM: clients materialise only when sampled ----------
    config = FLConfig(algorithm="iiadmm", num_rounds=1, local_steps=1, batch_size=4,
                      rho=10.0, zeta=10.0, seed=0)
    runner = build_virtual_async_federation(
        config, model_fn, datasets, live_cap=LIVE_CAP,
        strategy=FedBuffStrategy(32),
        sampler=UniformSampler(POPULATION, fraction=0.005, seed=0),
        concurrency=32,
    )
    runner.run(4)
    print(f"\nasync IIADMM (FedBuff/32, 0.5% sampled): "
          f"{runner.population.stats.materializations} of {POPULATION} clients ever materialised")

    # ---- 3. checkpoint mid-run, rebuild from scratch, resume -------------
    blob = RunCheckpoint.save(runner).to_bytes()
    resumed = build_virtual_async_federation(
        config, model_fn, datasets, live_cap=LIVE_CAP,
        strategy=FedBuffStrategy(32),
        sampler=UniformSampler(POPULATION, fraction=0.005, seed=0),
        concurrency=32,
    )
    RunCheckpoint.from_bytes(blob).restore(resumed)
    resumed.run(2)
    print(f"checkpoint: {len(blob) / 1e6:.1f} MB blob; resumed to "
          f"{len(resumed.history)} rounds at virtual t={resumed.now:.2f}s "
          f"(bit-identical to an uninterrupted run)")


if __name__ == "__main__":
    main()
