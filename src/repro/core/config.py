"""Configuration dataclasses for federated training runs.

A single :class:`FLConfig` captures everything the paper's demonstration
varies: the FL algorithm, the number of communication rounds ``T``, the number
of local steps ``L``, the batch size, optimiser hyper-parameters (learning
rate / momentum for FedAvg; penalty ρ and proximity ζ for the IADMM family),
and the differential-privacy settings (ε, clip norm, mechanism kind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = ["PrivacyConfig", "FLConfig"]


@dataclass(frozen=True)
class PrivacyConfig:
    """Differential-privacy settings for client updates.

    ``epsilon = math.inf`` disables the mechanism (the paper's ε = ∞ column).
    """

    epsilon: float = math.inf
    clip_norm: float = 1.0
    mechanism: str = "laplace"
    delta: float = 1e-5  # only used by the Gaussian mechanism

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive (use math.inf to disable)")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.mechanism not in ("laplace", "gaussian"):
            raise ValueError("mechanism must be 'laplace' or 'gaussian'")

    @property
    def enabled(self) -> bool:
        """True when updates are actually perturbed."""
        return math.isfinite(self.epsilon)


@dataclass(frozen=True)
class FLConfig:
    """Hyper-parameters of one federated training run.

    Defaults follow the paper's demonstration settings (Section IV-B):
    ``L = 10`` local updates, ``T = 50`` rounds, batches of at most 64 points,
    SGD with momentum for FedAvg.
    """

    algorithm: str = "iiadmm"
    num_rounds: int = 50
    local_steps: int = 10
    batch_size: int = 64

    # FedAvg client optimiser.
    lr: float = 0.01
    momentum: float = 0.9
    weighted_aggregation: bool = True

    # IADMM-family hyper-parameters (the paper notes these must be fine-tuned;
    # the official APPFL configs use large penalties, e.g. 500 for MNIST).
    rho: float = 10.0
    zeta: float = 10.0
    adaptive_rho: bool = False
    rho_growth: float = 1.0  # multiplicative ρ update per round when adaptive

    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    seed: int = 0

    # Performance knobs (see the "Architecture & performance" notes in
    # repro.core.base / repro.core.runner).
    #
    # dtype: numeric precision of the whole pipeline — model parameters,
    #   gradients, batches, and payloads on the wire.  "float64" reproduces
    #   the paper's numerics exactly; "float32" halves memory traffic and
    #   communication volume for ~2x arithmetic throughput.
    # parallel_clients: max worker threads for client-local updates per round
    #   (1 = serial, 0 = one thread per CPU core).  The heavy numpy kernels
    #   release the GIL, so threads scale on multi-core hosts, and results
    #   are bit-identical to a serial run.
    dtype: str = "float64"
    parallel_clients: int = 1

    # execution_backend: how client-local updates are executed when
    #   parallel_clients allows more than one worker (see repro.mp).
    #   "thread" (default) runs updates on a GIL-bound thread pool — the
    #   heavy numpy kernels release the GIL, and results are bit-identical to
    #   serial.  "process" shards the population across spawn-context worker
    #   processes exchanging packets through multiprocessing.shared_memory —
    #   true multi-core scaling, still bitwise identical to serial (lossless
    #   codecs only; everything the workers hold must pickle).  "serial"
    #   forces in-line execution regardless of parallel_clients (useful as an
    #   equivalence baseline where only this knob flips).
    execution_backend: str = "thread"

    # client_batch: cohort size for batched multi-client execution (see
    #   repro.core.batched).  1 (default) runs every client through its own
    #   update() — bit-for-bit the pre-batching behaviour.  Larger values
    #   stack up to that many same-shaped clients' flat parameter vectors
    #   into a (B, dim) matrix and run their local updates as single batched
    #   GEMM/ufunc calls per step; clients without a batched kernel (CNN
    #   models, custom algorithms) fall back to the per-client path.  Batched results are bitwise identical to
    #   per-client execution at float64 on the linear/MLP path.
    client_batch: int = 1

    # Wire codec stack for every model exchange (see repro.comm.codecs): a
    # "|"-separated spec applied left-to-right at encode time, e.g.
    # "identity" (default: bit-for-bit the uncompressed behaviour), "fp16",
    # "int8", "topk:0.1", or composites like "delta|int8|topk:0.1" (client
    # updates encoded against the dispatched global model, quantized, then
    # sparsified).  DP clipping/noising always happens before encoding, so
    # the privacy guarantee is unaffected by the chosen stack.
    codec: str = "identity"

    # Fraction of clients sampled per round/dispatch by the event-driven
    # asyncfl subsystem (1.0 = full participation).  The synchronous
    # FederatedRunner always uses every client; repro.asyncfl's samplers and
    # build_async_federation consume this knob.
    client_fraction: float = 1.0

    # Hierarchical (multi-tier) federation — see repro.hier.
    #
    # topology: shard the population behind edge aggregators.  None (default)
    #   is the flat single-tier federation.  Spec strings: "edges:<E>"
    #   (seeded near-equal shards), "edges:<E>:by-label" (shards contiguous
    #   in label-sorted order, preserving label locality).  Explicit shard
    #   maps are passed directly to repro.hier.build_hier_federation.
    # edge_codec / root_codec: per-hop wire-codec stacks — client<->edge and
    #   edge<->root are compressed independently.  None inherits `codec`.
    #   With identity stacks on both hops a hierarchical run is bit-for-bit
    #   the flat one.
    topology: Optional[str] = None
    edge_codec: Optional[str] = None
    root_codec: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if self.local_steps <= 0:
            raise ValueError("local_steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.zeta < 0:
            raise ValueError("zeta must be non-negative")
        if self.rho_growth <= 0:
            raise ValueError("rho_growth must be positive")
        if not self.algorithm:
            raise ValueError("algorithm name must be non-empty")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.parallel_clients < 0:
            raise ValueError("parallel_clients must be >= 0 (0 = one thread per core)")
        if self.execution_backend not in ("serial", "thread", "process"):
            raise ValueError(
                "execution_backend must be 'serial', 'thread', or 'process'"
            )
        if self.client_batch < 1:
            raise ValueError("client_batch must be >= 1 (1 = per-client execution)")
        # Validate the codec spec eagerly so a typo fails at config time, not
        # mid-run (lazy import keeps repro.core importable standalone).
        from ..comm.codecs import parse_codec

        parse_codec(self.codec)
        for field_name in ("edge_codec", "root_codec"):
            spec = getattr(self, field_name)
            if spec is None:
                continue
            try:
                parse_codec(spec)
            except ValueError as exc:
                raise ValueError(f"invalid {field_name} spec {spec!r}: {exc}") from None
        if self.topology is not None:
            from ..hier.topology import parse_topology

            parse_topology(self.topology)
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError("client_fraction must be in (0, 1]")
        # Note: the algorithm name is resolved against the plug-and-play
        # registry at federation-build time, so user-registered algorithms are
        # accepted here without modification.

    @property
    def np_dtype(self) -> np.dtype:
        """The configured precision as a numpy dtype."""
        return np.dtype(self.dtype)

    def with_privacy(self, epsilon: float, **kwargs) -> "FLConfig":
        """Return a copy of this config with a different privacy budget."""
        return replace(self, privacy=replace(self.privacy, epsilon=epsilon, **kwargs))

    def with_algorithm(self, algorithm: str) -> "FLConfig":
        """Return a copy of this config running a different algorithm."""
        return replace(self, algorithm=algorithm)
