"""The single codec-aware dispatch/collect path shared by both runners.

Before the wire-codec refactor the synchronous :class:`~repro.core.runner.
FederatedRunner` and the event-driven :class:`~repro.asyncfl.runner.
AsyncRunner` each hand-rolled their own payload handling (raw state dicts,
synthetic byte counts).  :class:`PacketExchange` is now the one place model
payloads are turned into :class:`~repro.comm.codecs.UpdatePacket` objects
and back:

* **dispatch** (server → client): :meth:`encode_dispatch` encodes the
  broadcast payload once; :meth:`open_dispatch` decodes a received packet
  into the per-client payload dict (fresh arrays — decoding doubles as
  endpoint isolation).
* **collect** (client → server): :meth:`encode_upload` encodes a client's
  upload with the *dispatched* global model as the delta-codec reference —
  the same snapshot PR 2's staleness bookkeeping threads through
  ``ingest(cid, payload, dispatched_global)``, so delta transmission remains
  correct under async staleness and FedBuff overwrites.  The server-side
  decode happens exactly once, inside :meth:`BaseServer.ingest
  <repro.core.base.BaseServer.ingest>`.
* **reconcile** (lossy stacks only): :meth:`reconcile` hands the client the
  decoded echo of its own upload so stateful bookkeeping (IIADMM's dual
  replicas) can mirror what the server will actually see.

Both runners charge their cost models — communicator down/uplink times, the
asyncfl link latency and virtual clock — with ``packet.nbytes``, the
measured post-codec size.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from ..comm.codecs import CodecPipeline, UpdatePacket, resolve_codec
from .base import PRIMAL_KEY, BaseClient
from .population import LivePopulation

__all__ = ["PacketExchange"]

Payload = Mapping[str, np.ndarray]


class PacketExchange:
    """Encodes/decodes every model exchange through one codec pipeline."""

    def __init__(self, codec: Union[str, CodecPipeline] = "identity"):
        self.pipeline = resolve_codec(codec)

    @property
    def spec(self) -> str:
        """Canonical codec stack spec in use."""
        return self.pipeline.spec

    @property
    def lossy(self) -> bool:
        """True when decoded payloads may differ from the encoded originals."""
        return self.pipeline.lossy

    def check_endpoints(self, clients: Optional[Sequence[BaseClient]], client_store, owner: str):
        """Validate one hop's client population and return it as one
        population (:mod:`repro.core.population`): ``client_store`` itself, or
        the ``clients`` list as a :class:`~repro.core.population.LivePopulation`.

        Exactly one of ``clients`` / ``client_store`` attaches a population.
        Every endpoint must have been built with this hop's codec stack:
        clients derive their lossy-wire bookkeeping (IIADMM's reconcile
        stash) from their own config's codec, so a mismatch would silently
        desynchronise the dual replicas — fail fast instead.
        """
        clients = list(clients) if clients else []
        if clients and client_store is not None:
            raise ValueError("pass either clients or client_store, not both")
        population = LivePopulation(clients) if clients else client_store
        if population is None:
            raise ValueError(f"{owner} needs at least one client (clients or a client_store)")
        configs = [c.config for c in clients] or [client_store.config]
        codecs = {config.codec for config in configs if config is not None}
        for codec in codecs:
            if PacketExchange(codec).spec != self.spec:
                raise ValueError(
                    f"an endpoint was built with codec {codec!r} but {owner}'s exchange "
                    f"uses {self.spec!r}; all endpoints of one hop must share one codec stack"
                )
        return population

    # -------------------------------------------------------------- dispatch
    def encode_dispatch(self, payload: Payload) -> UpdatePacket:
        """Encode the server's broadcast payload (no delta reference: the
        receiving client holds no agreed-upon prior snapshot)."""
        return self.pipeline.encode_state(payload)

    def open_dispatch(self, packet: Union[UpdatePacket, Payload]) -> Dict[str, np.ndarray]:
        """Client-side decode of a dispatched packet (fresh, isolated arrays)."""
        if isinstance(packet, UpdatePacket):
            return self.pipeline.decode_state(packet)
        return dict(packet)

    # --------------------------------------------------------------- collect
    def encode_upload(
        self, upload: Union[UpdatePacket, Payload], dispatched_global: np.ndarray
    ) -> UpdatePacket:
        """Encode one client upload against the dispatched global model.

        ``dispatched_global`` is the (decoded) global snapshot this client
        trained on — the delta-codec reference for the primal.  An upload
        that is already a packet (a client that encoded itself) passes
        through.
        """
        if isinstance(upload, UpdatePacket):
            return upload
        return self.pipeline.encode_state(upload, reference={PRIMAL_KEY: dispatched_global})

    def open_upload(self, packet: UpdatePacket, dispatched_global: np.ndarray) -> Dict[str, np.ndarray]:
        """Decode an upload packet exactly as :meth:`BaseServer.ingest` will."""
        return self.pipeline.decode_state(packet, reference={PRIMAL_KEY: dispatched_global})

    def reconcile(
        self,
        client: BaseClient,
        upload: Payload,
        packet: UpdatePacket,
        dispatched_global: np.ndarray,
    ) -> None:
        """Give the client the decoded echo of its upload (lossy stacks only).

        The echo is produced by the same deterministic decode the server's
        ``ingest`` performs, so client-side replays (IIADMM's dual) match the
        server bitwise.  No-op for lossless stacks, where echo ≡ upload.
        """
        if not self.pipeline.lossy or isinstance(upload, UpdatePacket):
            return  # lossless, or a self-encoding client that already reconciled
        client.reconcile_upload(upload, self.open_upload(packet, dispatched_global))
