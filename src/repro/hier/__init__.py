"""Hierarchical multi-tier federation: root ↔ edge aggregators ↔ clients.

The flat runners aggregate every client at one server, which caps a
federation at one tier no matter how many virtual clients the
:mod:`repro.scale` store can hold.  This subsystem shards the population
behind **edge aggregators**: a :class:`~repro.hier.topology.Topology`
deterministically partitions clients into E shards (spec strings like
``"edges:8"`` / ``"edges:8:by-label"``, or explicit maps), each
:class:`~repro.hier.edge.EdgeAggregator` runs its shard's server-side
machinery (ingest, ADMM dual replays, lossy-codec reconcile) and folds the
shard into one **exact** partial sum
(:class:`~repro.core.partial.ExactPartial`), and the root combines the E
shard summaries — so root traffic is O(edges) packets per round and, with
identity per-hop codecs, the result is **bit-for-bit** the flat run for
FedAvg, ICEADMM and IIADMM.

Two runners inherit the flat API from one shell: the synchronous
:class:`~repro.hier.runner.HierRunner` and the event-driven
:class:`~repro.hier.async_runner.HierAsyncRunner`, where every edge is an
actor on its own virtual clock and the root applies staleness-aware
strategies over shard summaries.  Per-edge
:class:`~repro.scale.store.ClientStateStore`\\ s bound the live client set,
and each hop (client↔edge, edge↔root) carries its own codec stack and link
model.
"""

from .async_runner import (
    HierAsyncRunner,
    RootFedAsync,
    RootFedBuff,
    RootStrategy,
    build_hier_async_federation,
)
from .edge import EdgeAggregator
from .runner import HierRunner, build_hier_federation
from .topology import Topology, TopologySpec, build_topology, majority_labels, parse_topology

__all__ = [
    "Topology",
    "TopologySpec",
    "parse_topology",
    "build_topology",
    "majority_labels",
    "EdgeAggregator",
    "HierRunner",
    "build_hier_federation",
    "RootStrategy",
    "RootFedBuff",
    "RootFedAsync",
    "HierAsyncRunner",
    "build_hier_async_federation",
]
