"""Server-side aggregation strategies for event-driven federation.

The synchronous servers in :mod:`repro.core` assume one complete cohort per
round.  Under partial participation and staleness three things change:

1. only the *sampled* clients' contributions (and, for the ADMM family, their
   dual/penalty state) may be touched;
2. an arriving update was computed against a *past* global model — its
   influence should shrink with its staleness;
3. for IIADMM the server's dual replica update (Algorithm 1 line 6) must
   replay the client's dual update *with the global model the client actually
   received* (line 21 uses the dispatched ``w``), and must replay it for
   *every* upload — an increment skipped for any arrival silently drifts the
   two "independent but identical" dual copies apart.

Every server now exposes that contract as ``ingest(cid, payload,
dispatched_global)`` + ``finalize_round(payloads)`` (see
:class:`repro.core.base.BaseServer`): :class:`AsyncServer` ingests every
arrival exactly once — decoding a codec-encoded
:class:`~repro.comm.codecs.UpdatePacket` at that single point, and replaying
ADMM per-upload state even for uploads a buffer later overwrites — and
:func:`apply_partial_update` performs the partial-participation-aware global
update over the decoded payloads (for a full cohort with fresh models it is
bit-for-bit the synchronous one).  On top of it:

* :class:`SyncRoundStrategy` — classic sampled synchronous FL: wait for the
  whole sampled cohort, then aggregate.
* :class:`FedBuffStrategy` — buffered asynchronous aggregation [Nguyen et al.,
  2022]: aggregate as soon as ``buffer_size`` updates have arrived, whoever
  sent them.
* :class:`FedAsyncStrategy` — staleness-weighted mixing [Xie et al., 2019]:
  every arrival immediately moves the global model by
  ``alpha * s(staleness)`` toward the client's contribution, where ``s`` is a
  constant/polynomial/hinge staleness discount with ``s(0) = 1``.

:class:`AsyncServer` wraps a :class:`repro.core.base.BaseServer` with a
strategy, a model-version counter (staleness = versions the global model
advanced between a client's download and its upload arrival), and a staleness
log for reporting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.base import PRIMAL_KEY, BaseServer

__all__ = [
    "staleness_weight",
    "apply_partial_update",
    "AsyncStrategy",
    "SyncRoundStrategy",
    "FedBuffStrategy",
    "FedAsyncStrategy",
    "AsyncServer",
]

STALENESS_KINDS = ("constant", "polynomial", "hinge")

#: one buffered contribution: (client_id, upload payload, dispatched global w)
Item = Tuple[int, Mapping[str, np.ndarray], np.ndarray]


def staleness_weight(staleness: int, kind: str = "polynomial", a: float = 0.5, b: float = 4.0) -> float:
    """FedAsync staleness discount ``s(τ)`` with ``s(0) = 1`` for every kind.

    ``constant``: 1.  ``polynomial``: ``(1 + τ)^{-a}``.  ``hinge``: 1 while
    ``τ <= b``, then ``1 / (a (τ - b) + 1)``.
    """
    if staleness < 0:
        raise ValueError("staleness must be non-negative")
    if kind == "constant":
        return 1.0
    if kind == "polynomial":
        return float((1.0 + staleness) ** (-a))
    if kind == "hinge":
        if staleness <= b:
            return 1.0
        return float(1.0 / (a * (staleness - b) + 1.0))
    raise ValueError(f"unknown staleness kind {kind!r} (choose from {STALENESS_KINDS})")


def apply_partial_update(server: BaseServer, items: Sequence[Item]) -> None:
    """Aggregate a (possibly partial) cohort of uploads into the global model.

    ``items`` are ``(client_id, payload, dispatched_global)`` triples whose
    payloads were already decoded/ingested at arrival time by
    :meth:`AsyncServer.receive`; they are sorted by client id so aggregation
    order never depends on arrival order.  ``server.finalize_round`` does the
    rest: for the ADMM family the per-upload primal/dual state is already
    absorbed and only the all-clients global recomputation remains
    (non-participants contribute their last-known state); FedAvg renormalises
    its weights over the participating payloads.
    """
    if not items:
        raise ValueError("no client uploads to aggregate")
    items = sorted(items, key=lambda it: it[0])
    payloads = {cid: payload for cid, payload, _ in items}
    if server.uses_legacy_update and not server.absorbs_uploads:
        # A plug-and-play server that customised only the legacy update():
        # drive it directly (pre-codec async contract) so the override runs.
        server.update(payloads)
    else:
        server.finalize_round(payloads)


def _load_buffer(state: Mapping[str, object]) -> Dict[int, Item]:
    """The ``"buffer"`` entry of a checkpointed strategy state, re-typed."""
    return {
        int(cid): (int(item[0]), dict(item[1]), np.asarray(item[2]))
        for cid, item in state["buffer"].items()  # type: ignore[union-attr]
    }


def _async_candidate(server: BaseServer, cid: int, payload: Mapping[str, np.ndarray]) -> np.ndarray:
    """One client's candidate global model for FedAsync mixing.

    FedAvg: the uploaded primal.  ADMM family (state already ingested at
    arrival): ``z_p − λ_p/ρ``, the per-client term of the ADMM global update.
    """
    if server.absorbs_uploads:
        return server.partial_term(cid).copy()  # out of the server's scratch
    return np.asarray(payload[PRIMAL_KEY])


class AsyncStrategy(ABC):
    """Decides what the server does with each arriving client upload."""

    #: round-based strategies dispatch whole cohorts and wait for all of them;
    #: event-based strategies keep a fixed number of clients in flight and
    #: refill slots one by one.
    round_based = False
    #: uploads buffered per aggregation (``None``: not a buffering strategy);
    #: the runner rejects a buffer larger than the population
    buffer_size: Optional[int] = None

    def begin_round(self, cohort: Sequence[int]) -> None:
        """Called by the runner when it dispatches a new cohort (round-based
        strategies); a no-op by default."""

    @abstractmethod
    def on_upload(
        self,
        server: BaseServer,
        cid: int,
        payload: Mapping[str, np.ndarray],
        staleness: int,
        dispatched_global: np.ndarray,
    ) -> Optional[Tuple[int, ...]]:
        """Process one arrived upload.

        Returns the sorted participant tuple when this arrival completed a
        global model update ("a round"), else ``None``.
        """

    # ------------------------------------------------------- persistent state
    def strategy_state(self) -> Dict[str, object]:
        """Mutable strategy state (buffered uploads, expected cohorts) as a
        plain tree for :class:`repro.scale.RunCheckpoint`; stateless
        strategies return ``{}``."""
        return {}

    def load_strategy_state(self, state: Mapping[str, object]) -> None:
        """Restore state captured by :meth:`strategy_state` (bit-exact)."""


class SyncRoundStrategy(AsyncStrategy):
    """Sampled synchronous FL: aggregate once the whole cohort reported."""

    round_based = True

    def __init__(self) -> None:
        self._expected: Optional[Tuple[int, ...]] = None
        self._buffer: Dict[int, Item] = {}

    def begin_round(self, cohort: Sequence[int]) -> None:
        """Called by the runner when it dispatches a new cohort."""
        if self._buffer:
            raise RuntimeError("previous round still has buffered uploads")
        self._expected = tuple(sorted(cohort))

    def on_upload(self, server, cid, payload, staleness, dispatched_global):
        if self._expected is None or cid not in self._expected:
            raise RuntimeError(f"unexpected upload from client {cid}")
        self._buffer[cid] = (cid, payload, dispatched_global)
        if len(self._buffer) < len(self._expected):
            return None
        participants = self._expected
        apply_partial_update(server, list(self._buffer.values()))
        self._buffer.clear()
        self._expected = None
        return participants

    def strategy_state(self) -> Dict[str, object]:
        return {"expected": self._expected, "buffer": dict(self._buffer)}

    def load_strategy_state(self, state: Mapping[str, object]) -> None:
        expected = state["expected"]
        self._expected = None if expected is None else tuple(int(c) for c in expected)  # type: ignore[union-attr]
        self._buffer = _load_buffer(state)


class FedBuffStrategy(AsyncStrategy):
    """Buffered asynchronous aggregation: flush every ``buffer_size`` arrivals.

    A client that reports twice before a flush overwrites its buffered entry
    (the buffer keeps the freshest update per client).  With
    ``buffer_size = num_clients`` under full participation and zero latency
    this reduces exactly to the synchronous round loop.
    """

    def __init__(self, buffer_size: int):
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = int(buffer_size)
        self._buffer: Dict[int, Item] = {}

    def on_upload(self, server, cid, payload, staleness, dispatched_global):
        self._buffer[cid] = (cid, payload, dispatched_global)
        if len(self._buffer) < self.buffer_size:
            return None
        participants = tuple(sorted(self._buffer))
        apply_partial_update(server, list(self._buffer.values()))
        self._buffer.clear()
        return participants

    def strategy_state(self) -> Dict[str, object]:
        return {"buffer": dict(self._buffer)}

    def load_strategy_state(self, state: Mapping[str, object]) -> None:
        self._buffer = _load_buffer(state)


class FedAsyncStrategy(AsyncStrategy):
    """Staleness-weighted mixing: every arrival updates the global model.

    ``w ← (1 − α_τ) w + α_τ · candidate`` with ``α_τ = alpha · s(τ)``; at
    staleness 0 with ``alpha = 1`` and a single client this is exactly the
    synchronous FedAvg update.
    """

    def __init__(self, alpha: float = 0.6, staleness: str = "polynomial", a: float = 0.5, b: float = 4.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if staleness not in STALENESS_KINDS:
            raise ValueError(f"unknown staleness kind {staleness!r}")
        self.alpha = float(alpha)
        self.staleness = staleness
        self.a = float(a)
        self.b = float(b)

    def mixing_weight(self, staleness: int) -> float:
        """The effective mixing factor ``α_τ`` for one arrival."""
        return self.alpha * staleness_weight(staleness, self.staleness, a=self.a, b=self.b)

    def on_upload(self, server, cid, payload, staleness, dispatched_global):
        weight = self.mixing_weight(staleness)
        candidate = _async_candidate(server, cid, payload)
        server.global_params = (1.0 - weight) * server.global_params + weight * candidate
        server.round += 1
        server.sync_model()
        return (cid,)


class AsyncServer:
    """A :class:`BaseServer` bound to an :class:`AsyncStrategy` plus versioning.

    The model *version* counts completed global updates; an upload's staleness
    is the number of versions the global model advanced between the client's
    download and the upload's arrival.
    """

    def __init__(self, server: BaseServer, strategy: AsyncStrategy):
        self.server = server
        self.strategy = strategy
        self.version = 0
        self.staleness_log: List[int] = []

    def dispatch(self) -> Tuple[Dict[str, np.ndarray], int]:
        """Payload + model version for one client download."""
        return self.server.broadcast_payload(), self.version

    def receive(
        self,
        cid: int,
        payload,
        dispatched_version: int,
        dispatched_global: np.ndarray,
    ) -> Optional[Tuple[int, ...]]:
        """Hand one arrived upload to the strategy; returns participants on a
        completed global update (and bumps the model version).

        ``payload`` may be a codec-encoded ``UpdatePacket`` or a decoded
        mapping; either way ``server.ingest`` runs here, once per arrival,
        BEFORE any buffering — it is the single server-side decode point
        (``dispatched_global`` is the delta reference), and IIADMM's dual
        replay is an increment (with the dispatched w), so even an upload
        that a buffer later overwrites must leave its increment behind or
        the server/client dual replicas drift apart.  Strategies then only
        ever see decoded payloads.
        """
        payload = self.server.ingest(cid, payload, dispatched_global)
        staleness = self.version - dispatched_version
        self.staleness_log.append(staleness)
        participants = self.strategy.on_upload(self.server, cid, payload, staleness, dispatched_global)
        if participants is not None:
            self.version += 1
        return participants

    def server_state(self) -> Dict[str, object]:
        """Version counter + staleness log (the wrapped server serialises
        itself through :meth:`repro.core.base.BaseServer.server_state`)."""
        return {"version": self.version, "staleness_log": list(self.staleness_log)}

    def load_server_state(self, state: Mapping[str, object]) -> None:
        self.version = int(state["version"])  # type: ignore[arg-type]
        self.staleness_log = [int(s) for s in state["staleness_log"]]  # type: ignore[union-attr]

    def mean_staleness(self) -> float:
        """Average observed upload staleness (0.0 when nothing arrived yet)."""
        if not self.staleness_log:
            return 0.0
        return float(np.mean(self.staleness_log))

    def max_staleness(self) -> int:
        """Largest observed upload staleness."""
        return max(self.staleness_log, default=0)
