"""The edge aggregator: one shard's server-side half, folded to a summary.

An :class:`EdgeAggregator` owns one shard of the client population and the
algorithm's *server-side per-client machinery* for exactly that shard: its
``server`` is the registered algorithm server built with
``shard=<its client ids>`` (so an IIADMM edge holds the dual replicas of its
own clients and replays line 6 for their uploads — the same
:meth:`~repro.core.base.BaseServer.ingest` code path the flat server runs,
including the lossy-codec reconcile contract with
:meth:`~repro.core.base.BaseClient.reconcile_upload`).

What an edge does *not* do is produce a global model: after folding its
shard's decoded uploads it emits one **shard summary** — the packed
:class:`~repro.core.partial.ExactPartial` of its clients'
:meth:`~repro.core.base.BaseServer.partial_term` contributions — and the
root combines the E summaries.  Because the partials are exact, the
two-tier fold is bit-for-bit the flat aggregation, while root traffic drops
from O(clients) to O(edges) packets per round.  The summary is built by the
block (:meth:`~repro.core.partial.ExactPartial.row`), so its components — 2-3
for similar-magnitude terms — are a function of the shard's terms and their
order alone: a restored or replayed edge ships the same bytes.

Clients attach either eagerly (a list of :class:`~repro.core.base.
BaseClient`) or virtually (a per-edge :class:`~repro.scale.store.
ClientStateStore`); the edge holds either as one :attr:`EdgeAggregator.
population` (:mod:`repro.core.population`) and runs its shard in waves of
the population's ``live_cap`` — everyone at once when eager, a bounded live
set for a 100k-client store.  The shard's round is
:func:`repro.core.phases.run_client_phases` — the very loop
:class:`~repro.core.runner.FederatedRunner` runs — with
:meth:`EdgeAggregator.ingest_upload` as its sink, and its local updates
execute on the edge's own :class:`~repro.core.executor.LocalExecutor`.

The client↔edge hop has its own codec stack (``FLConfig.edge_codec``): the
edge re-encodes the root's global for its shard and is the single decode
point for its clients' uploads.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm import Communicator
from ..core.base import GLOBAL_KEY, BaseClient, BaseServer
from ..core.exchange import PacketExchange
from ..core.executor import LocalExecutor
from ..core.partial import ExactPartial, pack_partial
from ..core.phases import PhaseClock, RoundLedger, run_client_phases
from ..obs import current_tracer

__all__ = ["EdgeAggregator"]


class EdgeAggregator:
    """One edge: a shard of clients plus the shard-scoped algorithm server.

    Parameters
    ----------
    edge_id:
        This edge's index in the topology.
    server:
        The algorithm server built with ``shard=`` this edge's client ids
        (and the *global* ``num_clients`` / sample counts, so its per-client
        terms match the flat server's bitwise).
    clients / client_store:
        The shard's clients — eager instances or a per-edge
        :class:`~repro.scale.store.ClientStateStore` (exactly one of the
        two).
    exchange:
        The client↔edge hop's :class:`~repro.core.exchange.PacketExchange`.
    communicator:
        Charges the client↔edge hop's bytes/seconds (shared across edges by
        the synchronous runner; endpoint names stay globally unique because
        client ids are global).
    max_workers:
        Thread-pool width for client updates (``FLConfig.parallel_clients``
        semantics; 0 = one per core).
    """

    def __init__(
        self,
        edge_id: int,
        server: BaseServer,
        clients: Optional[Sequence[BaseClient]] = None,
        client_store=None,
        exchange: Optional[PacketExchange] = None,
        communicator: Optional[Communicator] = None,
        max_workers: Optional[int] = None,
    ):
        self.edge_id = int(edge_id)
        self.server = server
        self.shard: Tuple[int, ...] = server.shard
        self.exchange = exchange if exchange is not None else PacketExchange(server.config.codec)
        # Hier clients must carry the edge-hop codec (check_endpoints).
        self.population = self.exchange.check_endpoints(clients, client_store, f"edge {edge_id}")
        self.clients = list(clients or ())
        if self.clients and sorted(c.client_id for c in self.clients) != list(self.shard):
            raise ValueError(
                f"edge {edge_id}'s clients {sorted(c.client_id for c in self.clients)} "
                f"do not match its shard {list(self.shard)}"
            )
        self.communicator = communicator
        #: runs this shard's local updates and owns its pools and step count
        self.executor = LocalExecutor(
            server.config, self.exchange, self.population, ids=self.shard,
            max_workers=max_workers, name=f"hier-edge{self.edge_id}",
            labels={"edge": self.edge_id},
        )
        self.max_workers = self.executor.max_workers
        #: the latest global model received from the root (decoded)
        self._global: np.ndarray = server.global_params.copy()
        #: ADMM-family servers absorb uploads in ingest(); FedAvg-style ones
        #: contribute per-upload terms, written into the fold's block as they
        #: arrive so a store-backed shard never holds more than a wave of
        #: decoded payloads.
        self._streaming = server.absorbs_uploads
        self._fold: Optional[ExactPartial] = None
        self._participants: List[int] = []
        #: component count of the latest summary (what sets the root hop's bytes)
        self.summary_components = 0
        self.begin_collect()

    # ------------------------------------------------------------ global hop
    def receive_global(self, payload: "Dict[str, np.ndarray]") -> None:
        """Install the root's (decoded) broadcast as this edge's current
        global model — the ``w`` every subsequent shard dispatch carries and
        the dual-replay reference its uploads are ingested against."""
        self._global = np.asarray(payload[GLOBAL_KEY]).copy()
        self.server.global_params = self._global
        self.server.sync_model()

    @property
    def current_global(self) -> np.ndarray:
        return self._global

    # -------------------------------------------------------------- folding
    def begin_collect(self) -> None:
        """Reset the summary fold (called at the start of a collection
        window: a synchronous round, or an async buffer window)."""
        self._participants = []
        if not self._streaming:
            self._fold = ExactPartial(self.server.vectorizer.dim, self.server.vectorizer.dtype)

    def ingest_upload(self, cid: int, payload, dispatched_global: np.ndarray) -> None:
        """Decode + absorb one client upload (the shard's single decode
        point).  ``dispatched_global`` must be the global snapshot *this
        client* trained on — under async staleness that is the dispatch-time
        ``w``, not the edge's current one."""
        decoded = self.server.ingest(cid, payload, dispatched_global)
        self._participants.append(int(cid))
        if not self._streaming:
            self.server.partial_term(cid, decoded, out=self._fold.row())
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "edge_ingest", "edge", lane=f"edge:{self.edge_id}",
                edge=self.edge_id, client=int(cid),
            )

    def summarize(self) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
        """Fold the collection window into one shard summary.

        Returns the packed partial (``psum:<i>`` tensors, ready for the
        edge→root codec) and the participating global client ids.  ADMM
        summaries cover the whole shard's last-known state (the
        partial-participation form of the global update); FedAvg summaries
        cover exactly the window's uploads.  Resets the fold.
        """
        participants = tuple(sorted(self._participants))
        partial = self.server.partial_sum() if self._streaming else self._fold
        summary = pack_partial(partial)
        self.summary_components = len(summary)
        self.server.round += 1
        self.begin_collect()
        tracer = current_tracer()
        if tracer is not None:
            tracer.event(
                "edge_summary", "edge", lane=f"edge:{self.edge_id}",
                edge=self.edge_id, participants=len(participants),
            )
        return summary, participants

    def initial_summary(self) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
        """The shard's round-0 summary (ADMM family only: the fold of the
        initial primal/dual state every client implicitly shares).  Lets an
        asynchronous root combine over *all* edges before slow ones report."""
        if not self._streaming:
            raise ValueError("initial summaries only exist for ADMM-family servers")
        return pack_partial(self.server.partial_sum()), ()

    # ------------------------------------------------------ client execution
    def run_local_round(
        self,
        round_idx: int,
        accountant=None,
        ledger: Optional[RoundLedger] = None,
    ) -> Tuple[Dict[str, np.ndarray], Tuple[int, ...]]:
        """One synchronous shard round: dispatch → update → gather → ingest
        (:func:`~repro.core.phases.run_client_phases` over this shard, in
        waves of the population's ``live_cap``), then the fold into the shard
        summary via :meth:`summarize`.  ``ledger`` (the runner's, when
        given) accumulates the phase seconds on this edge's lane.
        """
        ledger = ledger if ledger is not None else RoundLedger()
        clock = PhaseClock(ledger, f"edge:{self.edge_id}", round_idx, edge=self.edge_id)
        run_client_phases(
            executor=self.executor,
            exchange=self.exchange,
            communicator=self.communicator,
            clock=clock,
            round_idx=round_idx,
            ids=list(self.shard),
            payload={GLOBAL_KEY: self._global.copy()},
            population=self.population,
            sink=self.ingest_upload,
            accountant=accountant,
            on_wave=partial(clock.end_wave, self),
        )
        clock.begin("aggregate")
        summary, participants = self.summarize()
        clock.end("aggregate")
        return summary, participants

    # -------------------------------------------------------------- plumbing
    def close(self) -> None:
        self.executor.close()
