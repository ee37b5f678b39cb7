"""Synchronous hierarchical federation: root ↔ edges ↔ clients.

:class:`HierRunner` inherits :class:`~repro.core.runner.FederatedRunner`'s
API (``history``, ``phase_seconds``, ``run()``/``run_round()``, context
management) from the :class:`~repro.core.phases.Runner` shell and supplies a
two-tier round body: every round the root's global model is broadcast once
per edge (the edge↔root hop's codec and communicator), each
:class:`~repro.hier.edge.EdgeAggregator` runs its shard's client loop
(client↔edge hop) and folds the uploads into one exact shard summary, and
the root combines the E summaries into the next global model and closes the
round in the shared :class:`~repro.core.phases.RoundLedger`.

Exactness: with identity codecs on both hops the resulting
:class:`~repro.core.runner.TrainingHistory` — accuracies, losses, the global
parameter vector, and the ADMM dual replicas — is **bit-for-bit** the flat
``FederatedRunner`` run over the same clients, for FedAvg, ICEADMM and
IIADMM alike (see :mod:`repro.core.partial` for why grouping cannot change a
bit, and ``tests/test_hier.py`` for the regression).  Communication metrics
legitimately differ: the hierarchy measures two wires where the flat run
measures one, reported per tier in ``RoundResult.comm_bytes_by_tier``.

Scale: root traffic is O(edges) packets per round instead of O(clients),
and with per-edge :class:`~repro.scale.store.ClientStateStore`s
(``live_cap=`` in :func:`build_hier_federation`) the live client set is
bounded by ``edges × live_cap`` regardless of population size.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..comm import Communicator, SerialCommunicator, edge_endpoint
from ..core.base import BaseServer
from ..core.config import FLConfig
from ..core.exchange import PacketExchange
from ..comm.latency import LinkModel
from ..core.metrics import Evaluator
from ..core.partial import pack_partial, unpack_partial
from ..core.phases import PhaseClock, Runner
from ..core.population import build_server_and_factory
from ..data import Dataset
from ..faults.injector import FaultInjector
from ..obs import current_tracer, timed_call
from ..privacy import PrivacyAccountant
from .edge import EdgeAggregator
from .topology import Topology, build_topology, majority_labels, parse_topology

__all__ = ["HierRunner", "build_hier_endpoints", "build_hier_federation"]

CLIENT_EDGE = "client_edge"
EDGE_ROOT = "edge_root"


def _hop_codecs(config: FLConfig) -> Tuple[str, str]:
    """The (client↔edge, edge↔root) codec specs a config implies."""
    edge = config.edge_codec if config.edge_codec is not None else config.codec
    root = config.root_codec if config.root_codec is not None else config.codec
    return edge, root


def _check_hier_server(server: BaseServer) -> None:
    if not server.supports_partials:
        raise ValueError(
            f"algorithm server {type(server).__name__} does not implement the "
            f"partial_term/combine_partials split required for hierarchical runs"
        )
    server.require_fixed_rho("hierarchical runs")


class HierRunner(Runner):
    """Runs the synchronous two-tier federated-learning loop."""

    checkpoint_kind = "hier"
    lane = "root"

    def __init__(
        self,
        root: BaseServer,
        edges: Sequence[EdgeAggregator],
        evaluator: Optional[Evaluator] = None,
        accountant: Optional[PrivacyAccountant] = None,
        root_communicator: Optional[Communicator] = None,
        client_communicator: Optional[Communicator] = None,
    ):
        if not list(edges):
            raise ValueError("at least one edge is required")
        _check_hier_server(root)
        self.edges = list(edges)
        covered = sorted(cid for edge in self.edges for cid in edge.shard)
        if covered != list(range(root.num_clients)):
            raise ValueError(
                f"edges cover {len(covered)} client ids but the root expects "
                f"[0, {root.num_clients})"
            )
        self.num_clients = root.num_clients
        edge_spec, root_spec = _hop_codecs(root.config)
        self.exchange = PacketExchange(root_spec)  # the edge↔root hop
        for edge in self.edges:
            if edge.exchange.spec != PacketExchange(edge_spec).spec:
                raise ValueError(
                    f"edge {edge.edge_id} uses client-hop codec {edge.exchange.spec!r} "
                    f"but the config implies {edge_spec!r}"
                )
        if root_communicator is not None and root_communicator is client_communicator:
            # One log cannot serve both tiers: the per-tier byte split below
            # computes per-communicator deltas, so sharing would double-count
            # every round and mislabel every record.
            raise ValueError("root_communicator and client_communicator must be distinct instances")
        self.root_communicator = (
            root_communicator if root_communicator is not None else SerialCommunicator()
        )
        # The runner owns this tier's log naming: records read "edge:<id>".
        # (Plain function as an *instance* attribute — no self-binding on
        # lookup.)  Don't reuse the instance for a flat run afterwards.
        self.root_communicator.endpoint_namer = edge_endpoint
        self.client_communicator = (
            client_communicator if client_communicator is not None else SerialCommunicator()
        )
        for edge in self.edges:
            if edge.communicator is None:
                edge.communicator = self.client_communicator
        super().__init__(
            root, evaluator, accountant,
            {CLIENT_EDGE: self.client_communicator, EDGE_ROOT: self.root_communicator},
        )
        #: last shard summary the root received per edge (decoded), the
        #: stale stand-in ADMM combines for an unreachable edge
        self._last_summary: Dict[int, Dict[str, np.ndarray]] = {}
        #: round-start snapshot crashed edges recover from
        self._ckpt = None

    # ---------------------------------------------------------------- faults
    def enable_faults(self, faults, retry=None) -> "HierRunner":
        """Arm fault injection across the whole two-tier federation.

        ``faults`` is a :class:`repro.faults.FaultPlan` or injector; it is
        installed on *both* communicators (client↔edge and edge↔root link
        faults, client crashes at the uplink seam) and drives the runner's
        own edge-crash/recovery machinery: an edge in the plan's
        ``edge_crash_rounds`` loses its in-memory state mid-round — the root
        detects the death, restores that edge's slice of the round-start
        :class:`~repro.scale.RunCheckpoint`, and replays its shard round.
        ADMM-family roots combine a stale cached summary for edges that stay
        unreachable (their clients' last-known state — the algorithms'
        partial-participation form); FedAvg omits them and renormalises.
        """
        self.injector = faults = FaultInjector.coerce(faults)
        self.client_communicator.install_faults(faults, retry)
        self.root_communicator.install_faults(faults, retry)
        if self.server.absorbs_uploads:
            # Seed the stale-summary cache with each shard's current
            # last-known fold, so an edge unreachable on the very first
            # faulted round still contributes its (initial) state.
            for edge in self.edges:
                self._last_summary[edge.edge_id] = pack_partial(edge.server.partial_sum())
        return self

    # ------------------------------------------------------------------- run
    def _round_body(self, clock: PhaseClock, round_idx: int):
        # ``clock`` times the root tier; edge-tier intervals are timed (and
        # traced) inside EdgeAggregator.run_local_round on the edge lanes.
        tracer = current_tracer()
        injector = self.injector
        ledger = self.ledger
        edge_ids = [edge.edge_id for edge in self.edges]
        if injector is not None and injector.plan.edge_crash_rounds:
            # Round-start snapshot: the slice a mid-round edge death rolls
            # back to.  Taken before the broadcast mutates any edge, so a
            # recovered edge re-applies this round's global and replays its
            # shard round bit-identically.
            from ..scale.checkpoint import RunCheckpoint

            self._ckpt = RunCheckpoint.capture(self)

        # Root → edges: one packet, E simulated downlinks; each edge decodes
        # its own copy — with a lossy root hop every edge trains its shard on
        # the *decoded* global, exactly what it will be ingested against.
        # Edges whose downlink dead-lettered sit the round out with their
        # previous state intact.
        clock.begin("broadcast")
        packet = self.exchange.encode_dispatch(self.server.broadcast_payload())
        received = self.root_communicator.broadcast(round_idx, packet, edge_ids)
        live_edges = [edge for edge in self.edges if edge.edge_id in received]
        for edge in live_edges:
            edge.receive_global(self.exchange.open_dispatch(received[edge.edge_id]))
        clock.end("broadcast")

        # Edges: the shard client loops (client↔edge hop), folded to
        # summaries.  Edge order is fixed but irrelevant to the result —
        # summaries are exact partials.  A planned edge crash loses the
        # summary with the edge's memory; the root restores the edge's
        # checkpoint slice, re-sends this round's global, and the replay —
        # same round, same keyed fault draws, rolled-back clients — yields
        # the exact summary the crash destroyed (privacy dedupe keeps the
        # replayed releases from double-charging the budget).
        summaries: Dict[int, Dict[str, np.ndarray]] = {}
        parts_by_edge: Dict[int, Tuple[int, ...]] = {}

        def shard_round(edge, **labels):
            result, e0, e1 = timed_call(
                edge.run_local_round, round_idx, accountant=self.accountant, ledger=ledger
            )
            if tracer is not None:
                tracer.emit_span(
                    "edge_round", "edge", e0, e1,
                    lane=f"edge:{edge.edge_id}", edge=edge.edge_id, round=round_idx, **labels,
                )
            return result

        for edge in live_edges:
            summary, part = shard_round(edge)
            if injector is not None and injector.edge_crashed(edge.edge_id, round_idx):
                injector.stats.edge_kills += 1
                if tracer is not None:
                    tracer.event("edge_kill", "fault", lane="faults", edge=edge.edge_id, round=round_idx)
                clock.begin("broadcast")
                self._ckpt.restore_edge(edge)
                edge.receive_global(self.exchange.open_dispatch(received[edge.edge_id]))
                clock.end("broadcast")
                summary, part = shard_round(edge, replay=True)
                injector.stats.recoveries += 1
                ledger.recovered.append(edge.edge_id)
                if tracer is not None:
                    tracer.event(
                        "edge_recover", "fault", lane="faults", edge=edge.edge_id, round=round_idx
                    )
            summaries[edge.edge_id] = summary
            parts_by_edge[edge.edge_id] = part

        # Edges → root: one summary packet per live edge over the root hop.
        clock.begin("gather")
        packets = {
            eid: self.exchange.pipeline.encode_state(summary) for eid, summary in summaries.items()
        }
        gathered = self.root_communicator.collect(round_idx, packets)
        clock.end("gather")

        # Root: decode each delivered summary once and combine the exact
        # partials; only delivered summaries' clients participate.  For a
        # missing edge, ADMM-family roots substitute its cached last summary
        # (its clients' last-known state — the algorithms' partial-
        # participation form); FedAvg omits the shard and renormalises.
        clock.begin("aggregate")
        streaming = self.server.absorbs_uploads
        partials, participants = [], []
        for eid in edge_ids:
            if eid in gathered:
                decoded = self.exchange.pipeline.decode_state(gathered[eid])
                if injector is not None:
                    self._last_summary[eid] = decoded
                partials.append(unpack_partial(decoded))
                participants.extend(parts_by_edge[eid])
            elif streaming and eid in self._last_summary:
                partials.append(unpack_partial(self._last_summary[eid]))
        if streaming or participants:
            self.server.combine_partials(partials, participants)
        # else: the whole cohort was lost — keep the current global.
        clock.end("aggregate")
        return participants, {"edges": len(live_edges)}


def build_hier_endpoints(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    topology: Union[str, Topology, Sequence[Sequence[int]], None] = None,
    live_cap: Optional[int] = None,
    seed: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    state_codec: str = "identity",
    compress: Optional[str] = None,
    client_link: Optional[LinkModel] = None,
    root_link: Optional[LinkModel] = None,
) -> Tuple[BaseServer, List[EdgeAggregator], Topology]:
    """The ``(root, edges, topology)`` both hierarchical builders start from.

    Mirrors :func:`repro.core.runner.build_endpoints`: same registry lookup,
    same initial-state synchronisation (every endpoint starts from the root
    model's parameters), same ``seed + 1000 + cid`` client RNG streams — so
    with identity per-hop codecs a hierarchical history is bit-for-bit the
    flat one.

    ``topology`` defaults to ``config.topology`` (one of the two is
    required); ``by-label`` specs derive per-client ``labels`` from the
    datasets' majority label when not given.  ``live_cap`` switches every
    edge to a :class:`~repro.scale.store.ClientStateStore` of that capacity
    (the whole run then materialises at most ``edges × live_cap`` clients).
    """
    from ..scale.store import ClientStateStore

    seed = config.seed if seed is None else seed
    topo_src = topology if topology is not None else config.topology
    if topo_src is None:
        raise ValueError("a topology is required: pass topology= or set FLConfig.topology")
    if isinstance(topo_src, str) and labels is None:
        if parse_topology(topo_src).mode == "by-label":
            labels = majority_labels(client_datasets)
    topo = build_topology(
        topo_src, len(client_datasets), labels=labels, seed=seed,
        client_link=client_link, root_link=root_link,
    )

    edge_codec, _ = _hop_codecs(config)
    # A hier client's only wire is the client↔edge hop, and stateful clients
    # derive their lossy-wire bookkeeping (IIADMM's reconcile stash) from
    # their own config's codec — so clients are built with the hop codec.
    client_config = config if edge_codec == config.codec else replace(config, codec=edge_codec)
    root, factory = build_server_and_factory(
        config, model_fn, client_datasets, seed=seed, client_config=client_config, shard=()
    )
    _check_hier_server(root)
    server_cls = type(root)
    sample_counts = [len(d) for d in client_datasets]
    edges: List[EdgeAggregator] = []
    for eid, shard in enumerate(topo.shards):
        edge_model = model_fn()
        edge_model.load_state_dict(factory.initial_state)
        edge_server = server_cls(
            edge_model, config, num_clients=len(client_datasets),
            client_sample_counts=sample_counts, shard=shard,
        )
        clients = store = None
        if live_cap is None:
            clients = [factory(cid) for cid in shard]
        else:
            store = ClientStateStore(
                factory, len(client_datasets), live_cap, state_codec=state_codec,
                compress=compress, config=client_config,
            )
        edges.append(
            EdgeAggregator(
                eid, edge_server, clients=clients, client_store=store,
                exchange=PacketExchange(edge_codec),
            )
        )
    return root, edges, topo


def build_hier_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    test_dataset: Optional[Dataset] = None,
    topology: Union[str, Topology, Sequence[Sequence[int]], None] = None,
    live_cap: Optional[int] = None,
    seed: Optional[int] = None,
    labels: Optional[Sequence[int]] = None,
    root_communicator: Optional[Communicator] = None,
    client_communicator: Optional[Communicator] = None,
    state_codec: str = "identity",
    compress: Optional[str] = None,
) -> HierRunner:
    """Construct a :class:`HierRunner` for a named algorithm over the
    endpoints of :func:`build_hier_endpoints` (which documents ``topology``,
    ``labels`` and ``live_cap``)."""
    root, edges, _ = build_hier_endpoints(
        config, model_fn, client_datasets, topology=topology, live_cap=live_cap,
        seed=seed, labels=labels, state_codec=state_codec, compress=compress,
    )
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return HierRunner(
        root,
        edges,
        evaluator=evaluator,
        root_communicator=root_communicator,
        client_communicator=client_communicator,
    )
