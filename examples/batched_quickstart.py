"""Batched multi-client execution in one page: stacked GEMMs for 10k clients.

At cross-device scale the local-update hot path is thousands of *tiny*
per-client optimizer steps — Python/BLAS call overhead swamps the
arithmetic.  ``FLConfig.client_batch=B`` stacks B same-shaped clients' flat
parameter vectors into one ``(B, dim)`` matrix and runs the whole cohort's
forward/backward/update as batched GEMM/ufunc calls (``repro.core.batched``),
**bitwise identical** to the per-client loop at float64: same histories, same
client RNG streams, same ADMM duals — checkpoints and fallback stay
interchangeable mid-run.  DP clients and lossy wires run as cohorts too;
clients that don't fit a kernel (CNN models, user subclasses) transparently
run per client.

Run:  PYTHONPATH=src python examples/batched_quickstart.py
"""

import time
from dataclasses import replace

import numpy as np

from repro.core import FLConfig
from repro.core.models import MLP
from repro.data import TensorDataset
from repro.harness.reporting import format_history
from repro.scale import build_virtual_federation

POPULATION = 10_000
LIVE_CAP = 1024  # cohorts form within a wave: keep it >= client_batch


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


def run_once(config):
    runner = build_virtual_federation(config, model_fn, make_datasets(), live_cap=LIVE_CAP)
    start = time.perf_counter()
    runner.run(1)
    elapsed = time.perf_counter() - start
    sps = runner.client_steps / runner.phase_seconds["local_update"]
    return runner, elapsed, sps


def main() -> None:
    base = FLConfig(algorithm="fedavg", num_rounds=1, local_steps=1, batch_size=4, seed=0)

    print(f"{POPULATION} tiny-MLP clients, one FedAvg round each:\n")
    results = {}
    for client_batch in (1, 32, 256):
        runner, elapsed, sps = run_once(replace(base, client_batch=client_batch))
        results[client_batch] = (runner, sps)
        print(f"  client_batch={client_batch:>3}: {elapsed:5.1f}s round, "
              f"{sps:>9.0f} client-steps/sec")
    speedup = results[256][1] / results[1][1]
    print(f"\nB=256 vs per-client: {speedup:.1f}x client-steps/sec on the "
          "local-update hot path")

    # Equivalence is the contract, not a tolerance: at float64 the batched
    # run's global parameters are bit-for-bit the per-client run's.
    identical = np.array_equal(
        results[1][0].server.global_params, results[256][0].server.global_params
    )
    print(f"global params bitwise identical across paths: {identical}")

    # The steps/s column of the run summary surfaces the same throughput.
    print("\n" + format_history(results[256][0].history, title="client_batch=256 run"))


if __name__ == "__main__":
    main()
