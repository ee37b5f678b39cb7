"""The live half of the fault layer: plan + retry policy + counters.

A :class:`FaultInjector` wraps a frozen :class:`~repro.faults.plan.FaultPlan`
with the run-scoped mutable bookkeeping the runners need: which one-shot edge
kills have already fired, and the :class:`FaultStats` tally every layer
increments (the chaos harness reports these).  Install one on any
:class:`~repro.comm.base.Communicator` via
``communicator.install_faults(injector_or_plan)`` — the serial, simulated-MPI
and simulated-gRPC transports all inherit the same seam — and/or enable it on
a runner (``HierRunner.enable_faults`` / ``HierAsyncRunner.enable_faults``)
for crash-recovery behaviour above the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..comm.codecs import UpdatePacket
from ..obs import current_tracer
from .plan import FaultPlan
from .retry import RetryPolicy

__all__ = ["FaultStats", "FaultInjector"]


@dataclass
class FaultStats:
    """Counters of everything the injector did to a run."""

    drops: int = 0
    timeouts: int = 0
    corruptions: int = 0
    client_crashes: int = 0
    edge_kills: int = 0
    recoveries: int = 0
    retries: int = 0
    dead_letters: int = 0

    def as_dict(self) -> dict:
        return {k: int(v) for k, v in self.__dict__.items()}


class FaultInjector:
    """Run-scoped fault decisions over a frozen plan.

    One injector instance should serve one run (it tracks which one-shot
    edge kills already fired); build a fresh one per run from the same plan
    to replay identical faults.
    """

    def __init__(self, plan: FaultPlan, retry: Optional[RetryPolicy] = None):
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy(seed=plan.seed)
        self.stats = FaultStats()
        self._kills_fired: set = set()

    @classmethod
    def coerce(cls, faults) -> "FaultInjector":
        """``faults`` itself when it is an injector, a fresh one over it when
        it is a :class:`FaultPlan` (what every ``enable_faults`` accepts)."""
        return cls(faults) if isinstance(faults, FaultPlan) else faults

    # ----------------------------------------------------------- wire faults
    def transfer_fault(self, round_idx: int, endpoint: str, op: str, attempt: int) -> Optional[str]:
        """Fault verdict for one transfer attempt at the communicator seam.

        ``"crash"`` (unretryable — the sending client is dead) for the uplink
        of a client the plan crashes this round; otherwise the plan's keyed
        link-fault draw (``"drop"`` / ``"timeout"`` / ``"corrupt"`` / None).
        """
        if op == "send_local" and endpoint.startswith("client:"):
            cid = int(endpoint.split(":", 1)[1])
            if self.plan.client_crashed(cid, round_idx):
                return "crash"
        return self.plan.link_fault(round_idx, endpoint, op, attempt)

    def corrupt_packet(self, packet: UpdatePacket) -> UpdatePacket:
        """A bit-flipped copy of ``packet`` (first byte of the first
        non-empty entry), guaranteed to fail its checksum on receipt."""
        corrupted = packet.copy()
        for entry in corrupted.entries.values():
            if entry.data.nbytes:
                entry.data.view(np.uint8)[0] ^= 0xFF
                break
        return corrupted

    def count(self, fault: str) -> None:
        """Tally one wire fault by kind (every injection site funnels through
        here, which is also where an armed tracer sees the injection)."""
        attr = {
            "drop": "drops",
            "timeout": "timeouts",
            "corrupt": "corruptions",
            "crash": "client_crashes",
        }[fault]
        setattr(self.stats, attr, getattr(self.stats, attr) + 1)
        tracer = current_tracer()
        if tracer is not None:
            tracer.event("fault_injected", "fault", lane="faults", kind=fault)

    # ---------------------------------------------------------- crash queries
    def client_crashed(self, cid: int, round_idx: int, attempt: int = 0) -> bool:
        return self.plan.client_crashed(cid, round_idx, attempt)

    def edge_crashed(self, edge_id: int, round_idx: int) -> bool:
        return self.plan.edge_crashed(edge_id, round_idx)

    def boundary_kill(self, edge_id: int, wave_index: int) -> bool:
        """Whether the plan kills ``edge_id`` at its ``wave_index``-th flush."""
        return int(wave_index) in self.plan.edge_boundary_kills.get(int(edge_id), ())

    def edge_kills_due(self, events_processed: int) -> List[int]:
        """Edge ids whose one-shot kill threshold has been reached (each
        returned exactly once across the injector's lifetime)."""
        due: List[int] = []
        for i, (count, edge_id) in enumerate(self.plan.edge_kills):
            if i not in self._kills_fired and events_processed >= count:
                self._kills_fired.add(i)
                due.append(edge_id)
        return due
