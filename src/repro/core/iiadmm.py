"""IIADMM — the paper's new inexact ADMM algorithm (Algorithm 1).

IIADMM improves on ICEADMM in two ways (Section III-A):

1. the client performs *multiple local primal updates using batches of data*
   (lines 13-19 of Algorithm 1) instead of full-gradient primal+dual updates;
2. the dual variable λ_p is updated *twice, independently but identically* —
   once at the client (line 21) and once at the server (line 6) — so the dual
   never has to travel over the network.  Only the primal local model z_p is
   transmitted, halving the per-round upload compared with ICEADMM.

Server global update (line 3):     w^{t+1} = (1/P) Σ_p (z_p^t − λ_p^t / ρ_t)
Client primal update (line 16):    z ← z − (g − λ_p − ρ(w^{t+1} − z)) / (ρ + ζ)
Dual update (lines 6 and 21):      λ_p ← λ_p + ρ (w^{t+1} − z_p^{t+1})

With differential privacy enabled, the batch gradient is clipped to ``C`` and
the transmitted primal is perturbed with noise calibrated to the IADMM
sensitivity ``Δ = 2C / (ρ + ζ)``.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..comm.codecs import resolve_codec
from ..privacy import IADMMSensitivity
from .base import GLOBAL_KEY, PRIMAL_KEY, ADMMClient, ADMMServer

__all__ = ["IIADMMClient", "IIADMMServer"]


class IIADMMClient(ADMMClient):
    """IIADMM client: batched inexact primal updates + local dual update.

    Under a lossy wire codec the server decodes a primal ẑ that differs from
    the transmitted one; both dual replicas must then be driven by ẑ, so the
    client re-derives its line-21 update from the decoded echo in
    :meth:`reconcile_upload` (bitwise the same computation the server's
    line-6 replay performs).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Lossy-codec bookkeeping for reconcile_upload: the pre-update dual,
        # the dispatched global, and the rho the round's dual update used.
        # Zeroed, not empty: client_state() ships it before the first update.
        self._lossy_wire = resolve_codec(self.config.codec).lossy
        self._dual_base = (
            np.zeros(self.vectorizer.dim, dtype=self.vectorizer.dtype) if self._lossy_wire else None
        )
        self._sent_global: np.ndarray = None
        self._sent_rho = self._rho

    def update(self, global_payload: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        cfg = self.config
        w = np.asarray(global_payload[GLOBAL_KEY])
        rho, zeta = self._rho, cfg.zeta
        s = self._scratch

        # Line 11: start local updates from the received global model (under
        # the flat engine, z *is* the model's parameter buffer).
        z = self.local_params(w)
        for _ in range(cfg.local_steps):  # line 13: local steps ℓ = 1..L
            for batch_x, batch_y in self.loader:  # line 14: batches b = 1..B_p
                g = self.batch_gradient(z, batch_x, batch_y)  # line 15
                g = self.clip_gradient(g)
                # Line 16, fused in place: z -= (g − λ_p − ρ(w − z)) / (ρ + ζ).
                np.subtract(w, z, out=s)
                s *= rho
                g -= self.dual
                g -= s
                g /= rho + zeta
                z -= g

        if cfg.privacy.enabled:
            sensitivity = IADMMSensitivity(clip_norm=cfg.privacy.clip_norm, rho=rho, zeta=zeta).sensitivity()
            upload = self.privatize(z, sensitivity)
        else:
            upload = z.copy()  # line 20/22: the primal that will be transmitted

        self.primal = upload
        # Line 21: client-side dual update.  It must use the *transmitted*
        # primal (perturbed under DP) — otherwise the client's dual and the
        # server's replica (line 6, which only sees the transmitted value)
        # would silently drift apart and the two updates would no longer be
        # "independent but identical" as Algorithm 1 requires.  Under a lossy
        # codec the server sees the *decoded* primal instead; stash what
        # reconcile_upload needs to replay this update from the echo.
        self.stash_for_reconcile(self.dual, w, rho)
        np.subtract(w, upload, out=s)
        s *= rho
        self.dual += s

        if cfg.adaptive_rho:
            self._rho *= cfg.rho_growth
        self.round += 1
        # Line 22 / line 5: only the primal is communicated.
        return {PRIMAL_KEY: upload}

    def stash_for_reconcile(self, dual: np.ndarray, w: np.ndarray, rho: float) -> None:
        """Keep what :meth:`reconcile_upload` replays line 21 from — the
        pre-update dual, the dispatched global and ρ (lossy wire only; the
        stacked cohort loop calls this per lane)."""
        if self._lossy_wire:
            np.copyto(self._dual_base, dual)
            self._sent_global = w
            self._sent_rho = rho

    def reconcile_upload(self, sent: Mapping[str, np.ndarray], echo: Mapping[str, np.ndarray]) -> None:
        """Replay the line-21 dual update from the server-decoded primal.

        ``λ_p ← λ_p^{before} + ρ (w − ẑ_p)`` computed with the same fused
        operations (and the same ``w``, ``ρ``, ``ẑ``) as the server's line-6
        replay in :meth:`IIADMMServer.ingest`, so the two replicas stay
        *bitwise* identical even though the wire was lossy.
        """
        if not self._lossy_wire:
            return
        s = self._scratch
        np.subtract(self._sent_global, echo[PRIMAL_KEY], out=s)
        s *= self._sent_rho
        np.add(self._dual_base, s, out=self.dual)

    def client_state(self) -> Dict[str, object]:
        state = super().client_state()
        if self._lossy_wire:
            # The reconcile stash is live between update() and the exchange
            # layer's reconcile call — an async checkpoint can land there.
            state.update(
                dual_base=self._dual_base,
                sent_global=self._sent_global,
                sent_rho=self._sent_rho,
            )
        return state

    def load_client_state(self, state: Mapping[str, object]) -> None:
        super().load_client_state(state)
        if self._lossy_wire and "dual_base" in state:
            np.copyto(self._dual_base, np.asarray(state["dual_base"]))
            sent = state["sent_global"]
            self._sent_global = None if sent is None else np.array(sent, copy=True)
            self._sent_rho = float(state["sent_rho"])  # type: ignore[arg-type]


class IIADMMServer(ADMMServer):
    """IIADMM server: global update from primals and *locally maintained* duals
    (aggregation, state and the running exact sum: :class:`~repro.core.base.ADMMServer`)."""

    def _absorb(self, cid: int, payload: Mapping[str, np.ndarray], dispatched_global: np.ndarray) -> None:
        """Line 6 for one client: replay its dual update from the received primal.

        ``dispatched_global`` must be the global model the client computed
        against — the current one in the synchronous loop, the snapshot it
        downloaded under staleness (repro.asyncfl); anything else
        desynchronises the "independent but identical" dual replicas.  The
        replay is an *increment*, mirroring the client's own line-21 update
        (its reconcile_upload form on a lossy wire): one ``ingest`` per upload.
        """
        z = np.asarray(payload[PRIMAL_KEY])
        self.primals[cid] = z
        s = self._scratch
        np.subtract(dispatched_global, z, out=s)
        s *= self._rho
        self.duals[cid] += s

    def consensus_residual(self) -> float:
        """L2 norm of the primal consensus residual ``max_p ||w − z_p||`` (diagnostic)."""
        return float(max(np.linalg.norm(self.global_params - z) for z in self.primals.values()))
