"""ICEADMM — inexact communication-efficient ADMM [Zhou & Li, 2021].

The baseline the paper compares IIADMM against.  Differences from IIADMM
(Section III-A and IV-B):

* the client performs ``L`` *primal and dual* updates per round, using the
  gradient over **all** local data points (no mini-batches, ``B_p = 1``);
* because the dual evolves locally in a way the server cannot replay, the
  client must upload **both** the primal ``z_p`` and the dual ``λ_p`` every
  round — twice the communication volume of IIADMM/FedAvg.

Server global update:   w^{t+1} = (1/P) Σ_p (z_p − λ_p / ρ)
Client local updates (ℓ = 1..L):
    g  = ∇f_p(z)                         (full local gradient)
    z ← z − (g − λ − ρ(w − z)) / (ρ + ζ)
    λ ← λ + ρ (w − z)

With differential privacy enabled both transmitted vectors are perturbed with
noise calibrated to the IADMM sensitivity ``Δ = 2C/(ρ+ζ)``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from ..privacy import IADMMSensitivity, clip_rows, release_rows
from .base import DUAL_KEY, PRIMAL_KEY, ADMMClient, ADMMServer
from .iiadmm import dual_step, primal_step

__all__ = ["ICEADMMClient", "ICEADMMServer"]


class ICEADMMClient(ADMMClient):
    """ICEADMM client: L full-gradient primal+dual updates per round."""

    @staticmethod
    def update_rows(lanes, w, rows) -> List[Dict[str, np.ndarray]]:
        """``L`` full-gradient primal+dual updates over rows: primals ``Z``, gradients
        ``G``, duals ``D`` (λ, kept as the next round's λ_p), scratch ``S``."""
        cfg = lanes[0].config
        rho, zeta = lanes[0].rho, cfg.zeta
        Z, S, D = rows.Z, rows.S, rows.block("dual")
        for _ in range(cfg.local_steps):
            G = rows.full()
            if cfg.privacy.enabled:
                clip_rows(G, cfg.privacy.clip_norm)
            primal_step(w, Z, G, D, S, rho, zeta)
            dual_step(w, Z, D, S, rho)  # λ += ρ(w − z) with the freshly updated z

        delta = 0.0
        if cfg.privacy.enabled:
            delta = IADMMSensitivity(clip_norm=cfg.privacy.clip_norm, rho=rho, zeta=zeta).sensitivity()
        # The dual is the sum of L increments of magnitude up to ρ·Δz each,
        # so its sensitivity is L·ρ times the primal's.
        sent_z, sent_lam = release_rows(lanes, (Z, delta), (D, delta * rho * cfg.local_steps))
        # client.primal keeps the un-noised z.
        primals = Z.copy() if cfg.privacy.enabled else sent_z
        for b, client in enumerate(lanes):
            client.primal = primals[b]
            if cfg.adaptive_rho:
                client._rho *= cfg.rho_growth
            client.round += 1
        # Both primal and dual travel to the server (2x IIADMM's payload).
        return [{PRIMAL_KEY: z, DUAL_KEY: lam} for z, lam in zip(sent_z, sent_lam)]


class ICEADMMServer(ADMMServer):
    """ICEADMM server: global update from the transmitted primal and dual pairs
    (aggregation, state and the running exact sum: :class:`~repro.core.base.ADMMServer`)."""

    def _absorb(self, cid: int, payload: Mapping[str, np.ndarray], dispatched_global: np.ndarray) -> None:
        """Store one client's transmitted primal/dual pair.

        Under a ``delta`` codec the primal was reconstructed against
        ``dispatched_global``; the dual travels standalone, as *absolute*
        state (unlike IIADMM's incremental replay): a fresher upload from the
        same client simply replaces the pair, and a lossy wire merely means
        the server aggregates a quantized view of the client's state — no
        cross-replica invariant to maintain.
        """
        self.primals[cid] = np.asarray(payload[PRIMAL_KEY])
        self.duals[cid] = np.asarray(payload[DUAL_KEY])
