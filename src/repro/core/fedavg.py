"""Federated averaging (FedAvg) [McMahan et al., 2017].

The client runs ``L`` epochs of mini-batch SGD with momentum starting from the
received global model and uploads its final local parameters; the server
averages them (weighted by sample counts, or uniformly when
``weighted_aggregation=False``, which is the form the paper uses when showing
FedAvg as a special case of IADMM with λ=0, ζ=0, ρ=1/η).

With differential privacy enabled, every per-batch gradient is clipped to the
configured norm ``C`` and the uploaded parameters are perturbed with noise
calibrated to the FedAvg sensitivity ``Δ = 2·C·η`` (Section III-B/IV-B).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..privacy import FedAvgSensitivity, clip_rows, release_rows
from .base import PRIMAL_KEY, BaseClient, BaseServer

__all__ = ["FedAvgClient", "FedAvgServer"]


class FedAvgClient(BaseClient):
    """FedAvg client: ``L`` epochs of SGD with momentum on local data."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Momentum buffer, reset (not reallocated) at the start of each round.
        self._velocity = np.zeros(self.vectorizer.dim, dtype=self.vectorizer.dtype)

    @staticmethod
    def update_rows(lanes, w, rows) -> List[Dict[str, np.ndarray]]:
        """One FedAvg round over rows: parameters ``Z`` (starting at ``w``),
        gradients ``G``, velocity ``V`` and scratch ``S``."""
        cfg = lanes[0].config
        Z, S, V = rows.Z, rows.S, rows.block("_velocity", keep=False)
        V.fill(0.0)  # the momentum starts from zero every round
        for _ in range(cfg.local_steps):
            for G in rows.batches():
                if cfg.privacy.enabled:
                    clip_rows(G, cfg.privacy.clip_norm)
                if cfg.momentum:
                    V *= cfg.momentum
                    V += G
                    step = V
                else:
                    step = G
                # Fused in place: z -= lr * step.
                np.multiply(step, cfg.lr, out=S)
                Z -= S

        delta = 0.0
        if cfg.privacy.enabled:
            num_steps = cfg.local_steps * max(1, len(lanes[0].loader))
            delta = FedAvgSensitivity(
                clip_norm=cfg.privacy.clip_norm, lr=cfg.lr, num_steps=num_steps
            ).sensitivity()
        (sent,) = release_rows(lanes, (Z, delta))
        for client in lanes:
            client.round += 1
        return [{PRIMAL_KEY: z} for z in sent]


class FedAvgServer(BaseServer):
    """FedAvg server: (weighted) average of the client parameters.

    Aggregation lives in :meth:`finalize_round` over the round's decoded
    uploads (a subset of clients is fine: the weights renormalise over the
    participants); the inherited :meth:`BaseServer.update` keeps the classic
    one-shot API.  The weighted sum is folded through the exact
    :meth:`~repro.core.base.BaseServer.partial_sum` /
    :meth:`combine_partials` split, so a hierarchical run that sums each
    shard on its edge and merges at the root is bit-for-bit this flat
    aggregation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # client_weights() is static (counts and config are frozen); cache it
        # so per-term folds don't recompute the O(P) normalisation.
        self._agg_weights = self.client_weights()

    def partial_term(
        self,
        cid: int,
        payload: Optional[Mapping[str, np.ndarray]] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if payload is None:
            raise ValueError("FedAvg partial terms come from the round's decoded uploads")
        return np.multiply(float(self._agg_weights[cid]), np.asarray(payload[PRIMAL_KEY]), out=out)

    def combine_partials(
        self,
        partials: "Sequence[Sequence[np.ndarray]]",
        participants: Sequence[int] = (),
    ) -> None:
        if not participants:
            raise ValueError("no client payloads to aggregate")
        # fsum is the scalar analogue of the exact vector merge: the
        # normaliser depends only on *which* clients reported, not on how
        # their edges grouped them.
        total_weight = math.fsum(float(self._agg_weights[c]) for c in sorted(participants))
        if total_weight <= 0:
            raise ValueError("aggregation weights sum to zero")
        self.global_params = self.merge_partials(partials) / total_weight
        self.round += 1
        self.sync_model()

    def finalize_round(self, payloads: Mapping[int, Mapping[str, np.ndarray]]) -> None:
        if not payloads:
            raise ValueError("no client payloads to aggregate")
        self.combine_partials([self.partial_sum(payloads)], tuple(payloads))
