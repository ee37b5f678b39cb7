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

from typing import Dict, List, Mapping

import numpy as np

from ..comm.codecs import resolve_codec
from ..privacy import IADMMSensitivity, clip_rows, release_rows
from .base import PRIMAL_KEY, ADMMClient, ADMMServer

__all__ = ["IIADMMClient", "IIADMMServer"]


def primal_step(w, Z, G, D, S, rho: float, zeta: float) -> None:
    """Line 16 on rows, fused in place: z -= (g − λ_p − ρ(w − z)) / (ρ + ζ)
    (``G`` and ``S`` are consumed)."""
    np.subtract(w, Z, out=S)
    S *= rho
    G -= D
    G -= S
    G /= rho + zeta
    Z -= G


def dual_step(w, X, D, S, rho: float) -> None:
    """Lines 6/21, in place: λ_p += ρ (w − x) (``S`` is consumed)."""
    np.subtract(w, X, out=S)
    S *= rho
    D += S


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

    @staticmethod
    def update_rows(lanes, w, rows) -> List[Dict[str, np.ndarray]]:
        """Lines 11-22 of Algorithm 1 over rows: primals ``Z``, gradients
        ``G``, duals ``D`` (= λ_p) and scratch ``S``."""
        cfg = lanes[0].config
        rho, zeta = lanes[0].rho, cfg.zeta
        # Line 11: Z starts at the received global model w.
        Z, S, D = rows.Z, rows.S, rows.block("dual")
        for _ in range(cfg.local_steps):  # line 13: local steps ℓ = 1..L
            for G in rows.batches():  # lines 14-15: batches b = 1..B_p
                if cfg.privacy.enabled:
                    clip_rows(G, cfg.privacy.clip_norm)
                primal_step(w, Z, G, D, S, rho, zeta)  # line 16

        delta = 0.0
        if cfg.privacy.enabled:
            delta = IADMMSensitivity(clip_norm=cfg.privacy.clip_norm, rho=rho, zeta=zeta).sensitivity()
        (sent,) = release_rows(lanes, (Z, delta))  # line 20/22: the transmitted primals
        for b, client in enumerate(lanes):
            client.primal = sent[b]
            client.stash_for_reconcile(D[b], w, rho)
        # Line 21: client-side dual update.  It must use the *transmitted*
        # primal (perturbed under DP) — otherwise the client's dual and the
        # server's replica (line 6, which only sees the transmitted value)
        # would silently drift apart and the two updates would no longer be
        # "independent but identical" as Algorithm 1 requires.  Under a lossy
        # codec the server sees the *decoded* primal instead; the stash above
        # is what reconcile_upload replays this update from.
        dual_step(w, sent, D, S, rho)
        for client in lanes:
            if cfg.adaptive_rho:
                client._rho *= cfg.rho_growth
            client.round += 1
        # Line 22 / line 5: only the primal is communicated.
        return [{PRIMAL_KEY: z} for z in sent]

    def stash_for_reconcile(self, dual: np.ndarray, w: np.ndarray, rho: float) -> None:
        """Keep what :meth:`reconcile_upload` replays line 21 from — the
        pre-update dual, the dispatched global and ρ (lossy wire only)."""
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
        dual_step(dispatched_global, z, self.duals[cid], self._scratch, self._rho)

    def consensus_residual(self) -> float:
        """L2 norm of the primal consensus residual ``max_p ||w − z_p||`` (diagnostic)."""
        return float(max(np.linalg.norm(self.global_params - z) for z in self.primals.values()))
