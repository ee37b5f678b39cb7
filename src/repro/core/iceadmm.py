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

from typing import Dict, Mapping

import numpy as np

from ..privacy import IADMMSensitivity
from .base import DUAL_KEY, GLOBAL_KEY, PRIMAL_KEY, ADMMClient, ADMMServer

__all__ = ["ICEADMMClient", "ICEADMMServer"]


class ICEADMMClient(ADMMClient):
    """ICEADMM client: L full-gradient primal+dual updates per round."""

    def update(self, global_payload: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        cfg = self.config
        w = np.asarray(global_payload[GLOBAL_KEY])
        rho, zeta = self._rho, cfg.zeta
        s = self._scratch

        z = self.local_params(w)
        lam = self.dual  # updated in place; persists as the next round's λ_p
        for _ in range(cfg.local_steps):
            g = self.full_gradient(z)
            g = self.clip_gradient(g)
            # Fused in place: z -= (g − λ − ρ(w − z)) / (ρ + ζ).
            np.subtract(w, z, out=s)
            s *= rho
            g -= lam
            g -= s
            g /= rho + zeta
            z -= g
            # λ += ρ(w − z) with the freshly updated z.
            np.subtract(w, z, out=s)
            s *= rho
            lam += s

        self.primal = z.copy()

        if cfg.privacy.enabled:
            sensitivity = IADMMSensitivity(clip_norm=cfg.privacy.clip_norm, rho=rho, zeta=zeta).sensitivity()
            upload_z = self.privatize(z, sensitivity)
            # The dual is the sum of L increments of magnitude up to ρ·Δz each,
            # so its sensitivity is L·ρ times the primal's.
            upload_lam = self.privatize(lam, sensitivity * rho * cfg.local_steps)
        else:
            # Copies: z and lam alias this client's persistent buffers.
            upload_z, upload_lam = self.primal, lam.copy()

        if cfg.adaptive_rho:
            self._rho *= cfg.rho_growth
        self.round += 1
        # Both primal and dual travel to the server (2x IIADMM's payload).
        return {PRIMAL_KEY: upload_z, DUAL_KEY: upload_lam}


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
