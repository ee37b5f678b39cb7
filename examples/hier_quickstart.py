"""Hierarchical federation in one page: 100,000 clients behind 16 edges.

A flat server aggregates every client directly, so its fan-in — packets per
round, decode work, bytes — grows with the population.  ``repro.hier``
shards the population behind edge aggregators: each edge runs its shard's
client loop and folds the uploads into one *exact* shard summary
(``repro.core.partial.ExactPartial``), and the root combines the 16
summaries — O(edges) root traffic, and with identity per-hop codecs the
result is **bit-for-bit** the flat run.  Per-edge ``ClientStateStore``s
bound live memory, so the 100k population never materialises at once.

Run:  PYTHONPATH=src python examples/hier_quickstart.py
"""

import time

import numpy as np

from repro.comm import TCPLinkModel
from repro.core import FLConfig
from repro.core.models import MLP
from repro.data import TensorDataset
from repro.harness.reporting import format_history
from repro.hier import RootFedBuff, build_hier_async_federation, build_hier_federation

POPULATION = 100_000
EDGES = 16
LIVE_CAP = 8


def make_datasets():
    """Per-client shards over shared storage (cross-device clients hold
    little data; 100k tiny tensors would only slow the demo down)."""
    rng = np.random.default_rng(7)
    shared = TensorDataset(rng.standard_normal((4, 16)), rng.integers(0, 4, 4))
    return [shared] * POPULATION


def model_fn():
    return MLP(16, 4, hidden_sizes=(8,), rng=np.random.default_rng(42))


def main() -> None:
    datasets = make_datasets()

    # ---- 1. 100k clients, 16 edges, bounded memory -----------------------
    # Event-driven: each edge is an actor on its own virtual clock, samples
    # a small cohort of its 6,250-client shard per round, and sends one
    # summary packet up a TCP-modelled link.  At most EDGES x LIVE_CAP
    # clients are ever live.
    config = FLConfig(
        algorithm="fedavg", num_rounds=2, local_steps=1, batch_size=4,
        lr=0.05, seed=0, topology=f"edges:{EDGES}",
    )
    start = time.perf_counter()
    runner = build_hier_async_federation(
        config, model_fn, datasets,
        live_cap=LIVE_CAP, edge_fraction=0.001,  # ~6 sampled clients/edge round
        strategy=RootFedBuff(EDGES), edge_round_based=True,
        client_link=TCPLinkModel(), root_link=TCPLinkModel(),
    )
    history = runner.run(2)
    live = sum(edge.population.live_count for edge in runner.edges)
    print(f"100k clients / {EDGES} edges: {len(history)} rounds "
          f"in {time.perf_counter() - start:.1f}s real time")
    print(f"  live clients        : {live} (bound {EDGES} x {LIVE_CAP} = {EDGES * LIVE_CAP})")
    print(f"  root packets/round  : {EDGES} summaries (vs {POPULATION} flat)")

    # ---- 2. the per-tier byte report -------------------------------------
    # c2e_MB is the client->edge tier (scales with sampled clients), e2r_MB
    # the edge->root tier (scales with EDGES — the fan-in win).
    print("\n" + format_history(history, title="per-tier communication:"))

    # ---- 3. exactness: a sharded run is bitwise the flat aggregation -----
    # Identity per-hop codecs cannot change a bit: the edges fold exact
    # partial sums and the root merges them (see repro.core.partial).
    from repro.core import build_federation

    small = [datasets[0]] * 48
    cfg = FLConfig(algorithm="iiadmm", num_rounds=2, local_steps=2, batch_size=4,
                   rho=10.0, zeta=10.0, seed=0)
    flat = build_federation(cfg, model_fn, small)
    flat.run()
    hier = build_hier_federation(cfg, model_fn, small, topology="edges:4")
    hier.run()
    exact = np.array_equal(flat.server.global_params, hier.server.global_params)
    print(f"\nhierarchical == flat, bit for bit: {exact}")


if __name__ == "__main__":
    main()
