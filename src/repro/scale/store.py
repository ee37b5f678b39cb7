"""Memory-bounded client virtualization: the :class:`ClientStateStore`.

Cross-device federations are written against populations of thousands to
millions of clients, but a materialised :class:`~repro.core.base.BaseClient`
is heavy: a full model replica re-homed into flat parameter/gradient buffers
(PR 1), a scratch vector, a materialised :class:`~repro.data.DataLoader`, and
(for CNNs) per-thread conv buffer pools.  Keeping one per client makes RSS
grow with the *population*, which caps simulations at a few hundred clients.

The store makes population size a virtual quantity:

* each client's **persistent** cross-round state (the ADMM dual/primal flat
  vectors, round counter, RNG bit-generator state — see
  :meth:`~repro.core.base.BaseClient.client_state`) lives as one compact
  serialized blob;
* at most ``live_cap`` full ``BaseClient`` instances exist at any moment —
  *live* clients in an LRU plus the *shells* spilled clients leave behind;
* :meth:`checkout` lazily materialises a client when the runner/sampler picks
  it — an id with a blob re-points a shell (``factory.rebind``) and restores
  the blob into it (bit-exactly), a new id is built by the factory — and pins
  it against eviction while the runner holds it;
* :meth:`release` unpins; a later checkout that needs the slot spills the
  least-recently-used unpinned client back to its blob (O(1): blob bytes are
  a running total).

Blobs reuse the wire machinery of PR 3: the state's arrays are encoded into
one :class:`~repro.comm.codecs.UpdatePacket` through a configurable codec
stack (``state_codec="identity"`` by default — bit-exact, which checkpoint /
resume requires; ``"fp16"``/``"int8"`` trade exactness for a 4-8x smaller
store) and the remaining scalars through
:func:`~repro.comm.serialization.encode_state_blob`.  ``compress="zlib"``
additionally DEFLATE-compresses the whole blob (zstd is not available in the
toolchain; zlib is the stdlib stand-in).

Accounting (:attr:`stats`) is first-class because tests assert the memory
bound through it: ``peak_live`` never exceeds ``live_cap``, and
``store_nbytes``/``blob_nbytes`` expose how much the spilled population
costs — ``perf/``'s ``scale.store.store_nbytes``.
"""

from __future__ import annotations

import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..comm.codecs import UpdatePacket, resolve_codec
from ..comm.serialization import decode_state_blob, encode_state_blob
from ..core.base import BaseClient
from ..obs import current_tracer

if TYPE_CHECKING:
    from ..core.population import ClientFactory

__all__ = ["StoreStats", "ClientStateStore"]

_RAW = b"R"
_ZLIB = b"Z"


@dataclass
class StoreStats:
    """Counters the memory-bound assertions and benches read."""

    #: checkouts that were not hits: fresh constructions + re-pointed shells
    materializations: int = 0
    #: materialisations that restored a previously spilled blob
    restores: int = 0
    #: live clients spilled back to their blob
    evictions: int = 0
    #: checkouts served straight from the live LRU (no construction)
    hits: int = 0
    #: maximum number of simultaneously live clients ever observed
    peak_live: int = 0
    #: cumulative microseconds spent materialising / evicting (``perf/``'s
    #: ``scale.store.materialize_us`` / ``evict_us`` per client)
    materialize_us: float = 0.0
    evict_us: float = 0.0
    #: high-water mark of ``store_nbytes`` (spilled-blob bytes) — the memory
    #: watermark :class:`repro.obs.health.MemoryWatchdog` checks against
    peak_store_bytes: int = 0


class ClientStateStore:
    """LRU of live clients over a population of serialized state blobs.

    Parameters
    ----------
    factory:
        A :class:`~repro.scale.virtual.ClientFactory`: ``factory(cid)`` builds
        client ``cid`` in its *initial* (round-0) state, deterministically per
        call, exactly as :func:`repro.core.runner.build_endpoints` does
        eagerly; ``factory.rebind(shell, cid)`` re-points a client it built
        at ``cid`` for a blob restore.
    num_clients:
        Population size (client ids are ``0..num_clients-1``).
    live_cap:
        Maximum number of live ``BaseClient`` instances.  Runner memory for
        client state is proportional to this, not to ``num_clients``.
    state_codec:
        Codec stack (PR 3 spec string) applied to the state's arrays inside
        the blob.  The default ``"identity"`` is bit-exact — required for
        deterministic checkpoint/resume; lossy stacks shrink the store at the
        cost of exact resume.
    compress:
        ``None`` (default) or ``"zlib"`` to DEFLATE the whole blob.
    config:
        The run config the factory builds clients with: the runners' shared
        codec-stack check and the privacy charge of a process-pooled round
        (whose clients are never materialised here) read it.

    A store is one implementation of the population interface
    (:mod:`repro.core.population`); :class:`~repro.core.population.
    LivePopulation` is the other.
    """

    def __init__(
        self,
        factory: "ClientFactory",
        num_clients: int,
        live_cap: int,
        state_codec: str = "identity",
        compress: Optional[str] = None,
        config=None,
    ):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if live_cap <= 0:
            raise ValueError("live_cap must be positive")
        if compress not in (None, "zlib"):
            raise ValueError("compress must be None or 'zlib'")
        self.factory = factory
        self.num_clients = int(num_clients)
        self.live_cap = int(live_cap)
        self.pipeline = resolve_codec(state_codec)
        self.compress = compress
        self.config = config
        self._live: "OrderedDict[int, BaseClient]" = OrderedDict()
        self._spares: List[BaseClient] = []  # spilled clients' objects; live + spare <= live_cap
        self._pins: Dict[int, int] = {}
        self._blobs: Dict[int, bytes] = {}
        self._blob_bytes = 0  # running sum(len(b) for b in _blobs.values())
        self.stats = StoreStats()

    # ------------------------------------------------------------ blob codec
    def _encode_state(self, state: Mapping[str, object]) -> bytes:
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        rest = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
        packet = self.pipeline.encode_state(arrays)
        blob = encode_state_blob({"arrays": packet, "rest": rest})
        if self.compress == "zlib":
            return _ZLIB + zlib.compress(blob)
        return _RAW + blob

    def _decode_state(self, blob: bytes) -> Dict[str, object]:
        body = zlib.decompress(blob[1:]) if blob[:1] == _ZLIB else blob[1:]
        tree = decode_state_blob(body)
        packet: UpdatePacket = tree["arrays"]
        state = dict(resolve_codec(packet.codec).decode_state(packet))
        state.update(tree["rest"])
        return state

    # --------------------------------------------------------------- pinning
    def _check_cid(self, cid: int) -> int:
        cid = int(cid)
        if not 0 <= cid < self.num_clients:
            raise KeyError(f"client id {cid} outside population [0, {self.num_clients})")
        return cid

    def _spill(self, cid: int) -> None:
        """Serialise one (unpinned) live client back to its blob."""
        tick = time.perf_counter()
        client = self._live.pop(cid)
        blob = self._blobs[cid] = self._encode_state(client.client_state())
        self._spares.append(client)
        now = time.perf_counter()
        self.stats.evictions += 1
        self.stats.evict_us += (now - tick) * 1e6
        self._blob_bytes += len(blob)
        self.stats.peak_store_bytes = max(self.stats.peak_store_bytes, self._blob_bytes)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "evict", "store", tick, now, lane="store", client=cid, nbytes=len(blob),
            )

    def _evict_one(self) -> None:
        """Spill the least-recently-used *unpinned* live client."""
        for cid in self._live:
            if self._pins.get(cid, 0) == 0:
                self._spill(cid)
                return
        raise RuntimeError(
            f"ClientStateStore live_cap={self.live_cap} is exhausted by pinned "
            f"clients; raise live_cap above the runner's concurrent checkouts"
        )

    def checkout(self, cid: int) -> BaseClient:
        """Return the live client ``cid``, materialising it if needed.

        Pins the client (nested checkouts stack) until the matching
        :meth:`release`; a pinned client is never evicted, so the instance —
        including its flat model buffers — stays valid across the runner's
        update/encode/reconcile sequence.

        The reference is valid only until that release: afterwards the store
        may re-point the same object at another id — read it while pinned.
        """
        cid = self._check_cid(cid)
        client = self._live.get(cid)
        if client is not None:
            self._live.move_to_end(cid)
            self._pins[cid] = self._pins.get(cid, 0) + 1
            self.stats.hits += 1
            return client
        while len(self._live) >= self.live_cap:
            self._evict_one()
        tick = time.perf_counter()
        blob = self._blobs.get(cid)
        if blob is not None and self._spares:
            client = self.factory.rebind(self._spares.pop(), cid)
        else:
            if len(self._live) + len(self._spares) >= self.live_cap:
                self._spares.pop()  # make room: live + spare stays <= live_cap
            client = self.factory(cid)
            if client.client_id != cid:
                raise ValueError(f"factory built client {client.client_id} for id {cid}")
        if blob is not None:
            client.load_client_state(self._decode_state(blob))
            del self._blobs[cid]
            self._blob_bytes -= len(blob)
            self.stats.restores += 1
        self.stats.materializations += 1
        now = time.perf_counter()
        self.stats.materialize_us += (now - tick) * 1e6
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit_span(
                "materialize", "store", tick, now, lane="store",
                client=cid, restored=blob is not None,
            )
        self._live[cid] = client
        self._pins[cid] = self._pins.get(cid, 0) + 1
        self.stats.peak_live = max(self.stats.peak_live, len(self._live))
        return client

    def release(self, cid: int) -> None:
        """Unpin one checkout of ``cid`` (the client stays live until a later
        checkout needs its LRU slot)."""
        cid = self._check_cid(cid)
        pins = self._pins.get(cid, 0)
        if pins <= 0 or cid not in self._live:
            raise RuntimeError(f"release of client {cid} without a matching checkout")
        if pins == 1:
            del self._pins[cid]
        else:
            self._pins[cid] = pins - 1

    # ------------------------------------------------------------ inspection
    @property
    def ids(self) -> range:
        return range(self.num_clients)

    def config_of(self, cid: int):
        """The config client ``cid`` runs with, without materialising it: a
        live client's own, else the store's :attr:`config`."""
        client = self._live.get(cid)
        return client.config if client is not None else self.config

    @property
    def live_count(self) -> int:
        """Number of currently materialised clients."""
        return len(self._live)

    @property
    def pinned_count(self) -> int:
        return sum(1 for v in self._pins.values() if v > 0)

    def is_live(self, cid: int) -> bool:
        return int(cid) in self._live

    @property
    def store_nbytes(self) -> int:
        """Total bytes of all spilled state blobs currently held (running)."""
        return self._blob_bytes

    def blob_nbytes(self, cid: int) -> Optional[int]:
        """Size of one client's spilled blob (``None`` while live / untouched)."""
        blob = self._blobs.get(self._check_cid(cid))
        return None if blob is None else len(blob)

    # --------------------------------------------------------- serialization
    def flush(self) -> None:
        """Spill every unpinned live client to its blob (frees the LRU)."""
        for cid in [c for c in self._live if self._pins.get(c, 0) == 0]:
            self._spill(cid)

    def snapshot(self) -> Dict[str, object]:
        """Serializable snapshot of the whole population's state.

        Live clients are serialized in place (they stay live and pinnable);
        clients never materialised have no entry — they are implicitly in
        their initial state, which the factory reproduces.
        """
        blobs = dict(self._blobs)
        for cid, client in self._live.items():
            blobs[cid] = self._encode_state(client.client_state())
        return {"blobs": blobs}

    def restore(self, snapshot: Mapping[str, object]) -> None:
        """Replace the population state with ``snapshot`` (from any store with
        a compatible factory).  Requires no outstanding checkouts."""
        if self._pins:
            raise RuntimeError("cannot restore a ClientStateStore with pinned clients")
        self._live.clear()
        self._blobs = {int(c): bytes(b) for c, b in snapshot["blobs"].items()}  # type: ignore[union-attr]
        self._blob_bytes = sum(len(b) for b in self._blobs.values())
        self.stats.peak_store_bytes = max(self.stats.peak_store_bytes, self._blob_bytes)

    def shard(self, ids: Sequence[int], num_shards: int) -> "ClientStateStore":
        """Clients ``ids`` as a store one of ``num_shards`` process workers
        owns: the same factory and blob codec, a ``live_cap`` share, and the
        blobs of ``ids``.  The factory must pickle."""
        piece = ClientStateStore(
            self.factory,
            num_clients=self.num_clients,
            live_cap=max(1, self.live_cap // max(1, num_shards)),
            state_codec=self.pipeline.spec,
            compress=self.compress,
            config=self.config,
        )
        wanted = set(ids)
        blobs = self.snapshot()["blobs"]
        piece.restore({"blobs": {cid: blob for cid, blob in blobs.items() if cid in wanted}})
        return piece

    def checkpoint_state(self) -> Dict[str, object]:
        return {"mode": "store", "snapshot": self.snapshot()}

    def load_checkpoint_state(self, state: Mapping[str, object]) -> None:
        if state["mode"] != "store":
            raise ValueError("checkpoint holds eager clients but the runner is store-backed")
        self.restore(state["snapshot"])  # type: ignore[arg-type]
