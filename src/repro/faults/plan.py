"""Seeded fault schedules: the *what-fails-when* of a chaos run.

A :class:`FaultPlan` is a frozen description of every failure a run will
experience — link-level packet drops, timeouts and corruptions, client
crashes, and edge crashes (by round for the synchronous hier runner, by
processed-event count or wave boundary for the asynchronous one).  Two
properties make it a *chaos engineering* tool rather than a fuzzer:

* **Determinism** — every probabilistic decision is a pure function of
  ``(seed, decision key)``, drawn from a :func:`keyed_rng` stream seeded by
  the CRC of the key parts.  Whether client 17's round-3 uplink drops does
  not depend on how many other draws happened first, so the same plan
  produces the same failure trace across runner implementations, thread
  counts, and replays — which is what lets ``harness/chaos.py`` assert that
  a crash+recover run is *bitwise* the crash-free run.
* **Declarativeness** — the plan carries no mutable state.  Consumption
  bookkeeping (which one-shot edge kills already fired) lives in the
  :class:`~repro.faults.injector.FaultInjector` wrapped around it.

The probabilities model the paper's deployment reality: its gRPC federations
(Figs. 4a/4b) see per-round link times jittering up to ~30x, and at
cross-device scale (the ROADMAP's 1M-client goal) a few percent of clients
failing per round is the steady state, not the exception.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = ["keyed_rng", "FaultPlan"]

#: link fault kinds a transfer attempt can suffer
LINK_FAULTS = ("drop", "timeout", "corrupt")


def keyed_rng(seed: int, *key) -> np.random.Generator:
    """A fresh RNG stream keyed by ``(seed, *key)``.

    String key parts hash through CRC-32; integers pass through masked to
    32 bits.  Every distinct key gets an independent stream, and the same key
    always gets the same stream — decisions become order-free functions of
    their key, the determinism backbone of the whole fault layer.
    """
    material = [int(seed) & 0xFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            material.append(zlib.crc32(part.encode("utf-8")))
        else:
            material.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(material)


def _freeze_map(mapping: Optional[Mapping[int, object]]) -> "Dict[int, Tuple[int, ...]]":
    out: Dict[int, Tuple[int, ...]] = {}
    for k, v in (mapping or {}).items():
        out[int(k)] = tuple(int(x) for x in v)
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of failures for one run.

    Parameters
    ----------
    seed:
        Root of every keyed draw below.  Two plans with the same seed and
        rates fail identically, anywhere.
    drop_prob / timeout_prob / corrupt_prob:
        Per-*attempt* link fault rates applied at the communicator seam
        (both directions).  A drop loses the payload silently, a timeout
        charges the retry policy's full timeout before failing, a corruption
        delivers a bit-flipped :class:`~repro.comm.codecs.UpdatePacket` that
        the receiver rejects by checksum.  Their sum must stay <= 1.
    client_crash_prob:
        Per-(client, round) probability that the client dies mid-round —
        after receiving the dispatch, before its upload leaves the device.
        Crashed clients do **not** run their local update (their in-memory
        progress is lost with them), so stateful algorithms' server-side
        replicas never desynchronise; the round finalizes with the
        survivors.
    client_crashes:
        Explicit schedule ``{round: (client ids...)}`` merged with the
        probabilistic draws.
    edge_crash_rounds:
        Synchronous hier runs: ``{round: (edge ids...)}`` — the edge dies
        before its summary reaches the root that round and is restored from
        the round-start checkpoint slice, then replayed.
    edge_kills:
        Asynchronous hier runs: ``((event_count, edge id), ...)`` one-shot
        kills — when the runner has processed ``event_count`` timeline
        events, the edge actor is killed and recovered from its last
        wave-boundary slice.
    edge_boundary_kills:
        Asynchronous hier runs: ``{edge id: (wave index...)}`` kills landing
        exactly at the edge's flush boundary — the recovery-is-bitwise case
        the chaos harness asserts.
    """

    seed: int = 0
    drop_prob: float = 0.0
    timeout_prob: float = 0.0
    corrupt_prob: float = 0.0
    client_crash_prob: float = 0.0
    client_crashes: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    edge_crash_rounds: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    edge_kills: Tuple[Tuple[int, int], ...] = ()
    edge_boundary_kills: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("drop_prob", "timeout_prob", "corrupt_prob", "client_crash_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.drop_prob + self.timeout_prob + self.corrupt_prob > 1.0 + 1e-12:
            raise ValueError("drop_prob + timeout_prob + corrupt_prob must not exceed 1")
        object.__setattr__(self, "client_crashes", _freeze_map(self.client_crashes))
        object.__setattr__(self, "edge_crash_rounds", _freeze_map(self.edge_crash_rounds))
        object.__setattr__(self, "edge_boundary_kills", _freeze_map(self.edge_boundary_kills))
        kills = tuple((int(c), int(e)) for c, e in self.edge_kills)
        for count, _ in kills:
            if count < 1:
                raise ValueError("edge_kills event counts must be >= 1")
        object.__setattr__(self, "edge_kills", kills)

    # -------------------------------------------------------------- decisions
    @property
    def any_link_faults(self) -> bool:
        return (self.drop_prob + self.timeout_prob + self.corrupt_prob) > 0.0

    @property
    def any_client_crashes(self) -> bool:
        return self.client_crash_prob > 0.0 or bool(self.client_crashes)

    def link_fault(self, round_idx: int, endpoint: str, op: str, attempt: int) -> Optional[str]:
        """The fault (if any) this transfer attempt suffers.

        Keyed on the full attempt identity, so retries of the same logical
        transfer draw independently and two different links never share a
        fate — yet the decision is reproducible regardless of transfer
        order.
        """
        if not self.any_link_faults:
            return None
        u = keyed_rng(self.seed, "link", round_idx, endpoint, op, attempt).random()
        if u < self.drop_prob:
            return "drop"
        if u < self.drop_prob + self.timeout_prob:
            return "timeout"
        if u < self.drop_prob + self.timeout_prob + self.corrupt_prob:
            return "corrupt"
        return None

    def client_crashed(self, cid: int, round_idx: int, attempt: int = 0) -> bool:
        """Whether client ``cid`` dies during round/version ``round_idx``.

        ``attempt`` counts the client's earlier crashes in that round: a
        timeline re-dispatches a crashed client while the version stands
        still, and keyed on ``(cid, version)`` alone it would die every time
        (a full-population buffer then never fills).  Attempts draw
        independently; the explicit schedule kills only the first.
        """
        cid, round_idx = int(cid), int(round_idx)
        if not attempt and cid in self.client_crashes.get(round_idx, ()):
            return True
        if self.client_crash_prob <= 0.0:
            return False
        key = (cid, round_idx, int(attempt)) if attempt else (cid, round_idx)
        return bool(keyed_rng(self.seed, "crash", *key).random() < self.client_crash_prob)

    def edge_crashed(self, edge_id: int, round_idx: int) -> bool:
        """Whether edge ``edge_id`` crashes during synchronous round ``round_idx``."""
        return int(edge_id) in self.edge_crash_rounds.get(int(round_idx), ())

    # ------------------------------------------------------------ constructors
    @classmethod
    def chaos(
        cls,
        seed: int,
        num_edges: int,
        kills: int,
        max_event_count: int,
        min_event_count: int = 1,
        **rates,
    ) -> "FaultPlan":
        """A plan that kills ``kills`` edges at seeded-random event counts.

        The (event count, edge id) pairs are drawn once from the plan's own
        keyed stream, so the "random" kill schedule is itself reproducible —
        this is what the chaos harness's convergence-under-churn check runs.
        Additional rate keywords (``drop_prob=...`` etc.) pass through.
        """
        if num_edges <= 0:
            raise ValueError("num_edges must be positive")
        if not 1 <= min_event_count <= max_event_count:
            raise ValueError("need 1 <= min_event_count <= max_event_count")
        rng = keyed_rng(seed, "chaos-schedule")
        counts = sorted(
            int(c) for c in rng.integers(min_event_count, max_event_count + 1, size=kills)
        )
        edges = [int(e) for e in rng.integers(0, num_edges, size=kills)]
        return cls(seed=seed, edge_kills=tuple(zip(counts, edges)), **rates)
