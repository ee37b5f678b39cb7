"""Privacy-budget accounting across communication rounds.

The paper applies the Laplace mechanism "for any communication round", i.e.
each round consumes ε̄ of budget on the data released in that round.  The
accountant tracks per-client spend under basic (sequential) composition so
experiments can report the cumulative budget consumed over T rounds — a
useful diagnostic even though the paper itself reports only the per-round ε̄.

Charging discipline
-------------------
Budget is consumed when data is *released*, which happens exactly once per
client update no matter how the bytes travel: a retried upload, a replayed
edge shard (crash recovery), or a duplicated packet re-sends the *same*
noised release and must not charge ε again.  The runners therefore charge at
their accepted-ingest points and pass a ``key`` identifying the release —
``(round or version, crc32 of the dispatched global)`` via
:func:`dispatch_fingerprint` — and :meth:`PrivacyAccountant.record` dedupes
on ``(client_id, key)``.  Keyless records (direct/legacy callers) keep the
old charge-every-call behaviour.
"""

from __future__ import annotations

import math
import zlib
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["PrivacyAccountant", "dispatch_fingerprint"]


def dispatch_fingerprint(round_idx: int, dispatched_global) -> Tuple[int, int]:
    """A dedupe key identifying one logical release: the round (or async
    model version) plus the CRC-32 of the exact dispatched-global bytes the
    client trained against."""
    arr = np.ascontiguousarray(np.asarray(dispatched_global))
    crc = zlib.crc32(arr.view(np.uint8)) if arr.nbytes else 0
    return (int(round_idx), crc)


class PrivacyAccountant:
    """Tracks (ε, δ) spend per client under sequential composition."""

    def __init__(self) -> None:
        self._spend: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        #: per-client (ε, δ) totals of ``_spend``, added release by release —
        #: bitwise the left-to-right ``sum()`` over the list, without the walk
        self._totals: Dict[int, Tuple[float, float]] = {}
        #: (client_id, *key) tuples already charged — the dedupe ledger
        self._seen: set = set()

    def record(
        self,
        client_id: int,
        epsilon: float,
        delta: float = 0.0,
        key: Optional[Tuple[int, ...]] = None,
    ) -> bool:
        """Record one release by ``client_id`` with per-release budget (ε, δ).

        ``key`` identifies the logical release (see
        :func:`dispatch_fingerprint`); a repeated ``(client_id, key)`` — a
        retransmission or a crash-recovery replay of data already released —
        is a no-op.  Returns ``True`` when the release was charged.
        """
        if epsilon < 0 or delta < 0:
            raise ValueError("epsilon and delta must be non-negative")
        if not math.isfinite(epsilon):
            # Non-private release: nothing to account for.
            return False
        if key is not None:
            seen_key = (int(client_id),) + tuple(int(k) for k in key)
            if seen_key in self._seen:
                return False
            self._seen.add(seen_key)
        self._charge(client_id, float(epsilon), float(delta))
        return True

    def _charge(self, client_id: int, epsilon: float, delta: float) -> None:
        self._spend[client_id].append((epsilon, delta))
        spent_e, spent_d = self._totals.get(client_id, (0.0, 0.0))
        self._totals[client_id] = (spent_e + epsilon, spent_d + delta)

    def releases(self, client_id: int) -> int:
        """Number of private releases recorded for a client."""
        return len(self._spend.get(client_id, []))

    def epsilon_spent(self, client_id: int) -> float:
        """Total ε consumed by a client (basic composition: sum over releases)."""
        return self._totals.get(client_id, (0.0, 0.0))[0]

    def delta_spent(self, client_id: int) -> float:
        """Total δ consumed by a client (basic composition)."""
        return self._totals.get(client_id, (0.0, 0.0))[1]

    def max_epsilon_spent(self) -> float:
        """Worst-case ε across clients (0.0 when nothing recorded)."""
        return max((e for e, _ in self._totals.values()), default=0.0)

    # ------------------------------------------------------- persistent state
    def accountant_state(self) -> Dict[str, object]:
        """Spend ledger + dedupe set as a plain tree (for run checkpoints)."""
        return {
            "spend": {cid: list(spends) for cid, spends in self._spend.items()},
            "seen": sorted(list(k) for k in self._seen),
        }

    def load_accountant_state(self, state) -> None:
        """Restore a ledger captured by :meth:`accountant_state` (also accepts
        the pre-dedupe flat ``{cid: [(ε, δ), ...]}`` format)."""
        if isinstance(state, dict) and "spend" in state:
            spend, seen = state["spend"], state.get("seen", [])
        else:
            # Old flat format: every top-level key is a client id.
            spend, seen = state, []
        self._spend = defaultdict(list)
        self._totals = {}
        for cid, spends in spend.items():
            self._spend[int(cid)] = []
            for e, d in spends:
                self._charge(int(cid), float(e), float(d))
        self._seen = {tuple(int(x) for x in k) for k in seen}

    def summary(self) -> Dict[int, Dict[str, float]]:
        """Per-client accounting summary."""
        return {
            cid: {
                "releases": float(self.releases(cid)),
                "epsilon": self.epsilon_spent(cid),
                "delta": self.delta_spent(cid),
            }
            for cid in sorted(self._spend)
        }
