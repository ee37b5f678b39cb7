"""Communicator interface used by the FL runners.

A *communicator* moves model payloads between the server endpoint and client
endpoints, and charges *simulated* wall-clock seconds for each transfer into
a :class:`repro.comm.records.CommLog`.  Since the wire-codec refactor the
payload of record is the typed :class:`~repro.comm.codecs.UpdatePacket`
(codec-encoded tensors + metadata + true ``nbytes``); plain state dicts are
still accepted so low-level tests and user code can drive the transports
directly.

The whole federation runs inside one Python process (that is how APPFL's MPI
simulation mode works too — each MPI rank simulates many clients); what
differs between communicator implementations is the *cost model* applied to
each transfer — always driven by the *measured post-codec* byte count — and
whether payloads are deep-copied to emulate process isolation.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from .codecs import UpdatePacket
from .records import CommLog, CommRecord, DeadLetter
from .serialization import payload_nbytes
from ..obs import current_tracer

__all__ = ["Communicator", "server_endpoint", "client_endpoint", "edge_endpoint"]

#: what the transports move: a codec-encoded packet, or a raw state dict
Payload = Union[UpdatePacket, Mapping[str, np.ndarray]]

SERVER = "server"


def server_endpoint() -> str:
    """Canonical name of the server endpoint."""
    return SERVER


def client_endpoint(client_id: int) -> str:
    """Canonical name of a client endpoint."""
    return f"client:{client_id}"


def edge_endpoint(edge_id: int) -> str:
    """Canonical name of an edge-aggregator endpoint (repro.hier)."""
    return f"edge:{edge_id}"


class Communicator(ABC):
    """Moves payloads between the server and clients under a timing model."""

    #: human-readable protocol name ("serial", "mpi", "grpc")
    protocol: str = "base"

    #: names the far endpoint in log records.  The default is the flat
    #: federation's "client:<id>"; a communicator serving the edge→root tier
    #: of a hierarchical run (repro.hier) sets this to ``edge_endpoint`` so
    #: its records read "edge:<id>".
    endpoint_namer = staticmethod(client_endpoint)

    def __init__(self) -> None:
        self.log = CommLog()
        #: fault layer (None = the exact pre-fault transfer path).  Set via
        #: :meth:`install_faults`; serial/mpi_sim/grpc_sim only override the
        #: timing hooks, so all transports inherit the same seam.
        self.injector = None
        self.retry = None

    def install_faults(self, faults, retry=None) -> "Communicator":
        """Arm this communicator with a fault plan or injector.

        ``faults`` is a :class:`repro.faults.FaultPlan` (wrapped in a fresh
        :class:`~repro.faults.FaultInjector`) or an injector shared with a
        runner.  ``retry`` overrides the injector's
        :class:`~repro.faults.RetryPolicy`.  Returns ``self`` for chaining.
        """
        from ..faults.injector import FaultInjector  # local: avoid import cycle

        self.injector = faults = FaultInjector.coerce(faults)
        self.retry = retry if retry is not None else faults.retry
        return self

    def _transfer(self, round_idx: int, endpoint: str, op: str, payload: Payload, nbytes: int, time_fn) -> Optional[Payload]:
        """One logical transfer through the fault/retry seam.

        Without an injector this is exactly the historical single-record
        path.  With one, each attempt consults the injector: drops and
        timeouts charge the retry policy's full ``timeout`` (the sender
        waited for an ack that never came) and deliver nothing; corruptions
        charge the attempt's wire time but the delivered
        :class:`UpdatePacket` fails its checksum, so it is discarded and
        retried; a sender crash is unretryable.  Failed attempts are
        followed by a deterministic backoff record; a transfer exhausting
        ``max_attempts`` lands in the log's dead letters and returns
        ``None`` (the runners then finalize with the surviving cohort).
        """
        injector = self.injector
        tracer = current_tracer()
        codec = getattr(payload, "codec", None)
        if injector is None:
            seconds = time_fn()
            self.log.add(CommRecord(round_idx, endpoint, op, nbytes, seconds))
            if tracer is not None:
                tracer.event(
                    "comm_send", "comm", lane="comm", round=round_idx,
                    endpoint=endpoint, op=op, nbytes=nbytes, sim_seconds=seconds,
                    codec=codec,
                )
            return payload
        policy = self.retry
        attempts = max(1, int(policy.max_attempts))
        for attempt in range(attempts):
            fault = injector.transfer_fault(round_idx, endpoint, op, attempt)
            if fault == "corrupt":
                if isinstance(payload, UpdatePacket):
                    delivered = injector.corrupt_packet(payload)
                    if delivered.checksum() == payload.checksum():
                        fault = None  # degenerate all-empty packet: nothing to flip
                else:
                    fault = "drop"  # raw dicts carry no checksum; model as loss
            if fault is None:
                seconds = time_fn()
                self.log.add(
                    CommRecord(round_idx, endpoint, op, nbytes, seconds, attempt=attempt)
                )
                if tracer is not None:
                    tracer.event(
                        "comm_send", "comm", lane="comm", round=round_idx,
                        endpoint=endpoint, op=op, nbytes=nbytes, sim_seconds=seconds,
                        attempt=attempt, codec=codec,
                    )
                return payload
            injector.count(fault)
            if fault == "crash":
                self.log.add(CommRecord(round_idx, endpoint, op, 0, 0.0, attempt=attempt, fault=fault))
                self.log.add_dead_letter(DeadLetter(round_idx, endpoint, op, nbytes, attempt + 1, "crash"))
                injector.stats.dead_letters += 1
                if tracer is not None:
                    tracer.event(
                        "comm_dead_letter", "comm", lane="comm", round=round_idx,
                        endpoint=endpoint, op=op, nbytes=nbytes, reason="crash",
                        attempts=attempt + 1,
                    )
                return None
            # Corrupted bytes crossed the wire (charge the attempt's wire
            # time); dropped/timed-out ones cost the sender its full timeout.
            if fault == "corrupt":
                self.log.add(
                    CommRecord(round_idx, endpoint, op, nbytes, time_fn(), attempt=attempt, fault=fault)
                )
            else:
                self.log.add(
                    CommRecord(round_idx, endpoint, op, 0, policy.timeout, attempt=attempt, fault=fault)
                )
            if attempt + 1 < attempts:
                injector.stats.retries += 1
                delay = policy.backoff_delay(attempt, round_idx, endpoint, op)
                self.log.add(
                    CommRecord(
                        round_idx,
                        endpoint,
                        "backoff",
                        0,
                        delay,
                        attempt=attempt + 1,
                    )
                )
                if tracer is not None:
                    tracer.event(
                        "comm_backoff", "comm", lane="comm", round=round_idx,
                        endpoint=endpoint, op=op, attempt=attempt + 1, sim_seconds=delay,
                    )
        self.log.add_dead_letter(DeadLetter(round_idx, endpoint, op, nbytes, attempts, "max_attempts"))
        injector.stats.dead_letters += 1
        if tracer is not None:
            tracer.event(
                "comm_dead_letter", "comm", lane="comm", round=round_idx,
                endpoint=endpoint, op=op, nbytes=nbytes, reason="max_attempts",
                attempts=attempts,
            )
        return None

    # ------------------------------------------------------------------ hooks
    @abstractmethod
    def _downlink_time(self, nbytes: int, num_clients: int) -> float:
        """Simulated seconds for one client to receive ``nbytes`` from the server."""

    @abstractmethod
    def _uplink_time(self, nbytes: int, num_clients: int) -> float:
        """Simulated seconds for one client to send ``nbytes`` to the server."""

    def _isolate(self, payload: Payload) -> Payload:
        """Copy a payload so sender and receiver cannot alias each other's arrays.

        ``UpdatePacket`` payloads pass through uncopied: packets are treated
        as immutable value objects, and decoding one always materialises
        fresh arrays, so the endpoints can never alias live model memory
        through a packet.
        """
        if isinstance(payload, UpdatePacket):
            return payload
        return {k: np.array(v, copy=True) for k, v in payload.items()}

    # ------------------------------------------------------------------- API
    def broadcast(self, round_idx: int, payload: Payload, client_ids: Sequence[int]) -> Dict[int, Payload]:
        """Send the global model to every client; returns per-client copies.

        With faults armed, clients whose downlink dead-letters are absent
        from the result — the runners treat them as unreachable this round.
        """
        nbytes = payload_nbytes(payload)
        out: Dict[int, Payload] = {}
        for cid in client_ids:
            delivered = self._transfer(
                round_idx,
                self.endpoint_namer(cid),
                "recv_global",
                payload,
                nbytes,
                lambda: self._downlink_time(nbytes, len(client_ids)),
            )
            if delivered is not None:
                out[cid] = self._isolate(delivered)
        return out

    def collect(self, round_idx: int, payloads: Mapping[int, Payload]) -> Dict[int, Payload]:
        """Send each client's local update to the server; returns server-side
        copies.  With faults armed, dead-lettered uploads are absent — the
        round then finalizes with the surviving cohort."""
        out: Dict[int, Payload] = {}
        for cid, payload in payloads.items():
            nbytes = payload_nbytes(payload)
            delivered = self._transfer(
                round_idx,
                self.endpoint_namer(cid),
                "send_local",
                payload,
                nbytes,
                lambda nbytes=nbytes: self._uplink_time(nbytes, len(payloads)),
            )
            if delivered is not None:
                out[cid] = self._isolate(delivered)
        return out

    # ------------------------------------------------------------- statistics
    def client_comm_seconds(self, client_id: int, skip_rounds: Sequence[int] = ()) -> float:
        """Total simulated communication seconds charged to one client."""
        return self.log.total_seconds(client_endpoint(client_id), skip_rounds=skip_rounds)

    def total_bytes(self) -> int:
        """Total simulated bytes across all endpoints."""
        return self.log.total_bytes()
