"""Event-driven asynchronous federation (virtual clock, sampling, staleness).

The synchronous :class:`repro.core.runner.FederatedRunner` broadcasts to every
client and blocks on the slowest one.  This subsystem models cross-device
scale instead: a virtual-clock :class:`EventLoop` schedules per-client
download/compute/upload completion using the device and link cost models, a
:class:`ClientSampler` hierarchy decides who participates (full, uniform
fraction, weighted by data, availability traces with dropout and stragglers),
and an :class:`AsyncServer` applies staleness-aware aggregation — FedAsync
mixing, FedBuff buffering, or sampled synchronous rounds — through
partial-participation-aware variants of the FedAvg/IIADMM/ICEADMM global
updates.  :class:`AsyncRunner` inherits ``FederatedRunner``'s API so the
harnesses and benchmarks drive either loop unchanged.
"""

from .events import Event, EventLoop, next_event_loop
from .runner import ZERO_LINK, AsyncRunner, build_async_federation
from .sampling import (
    AvailabilityTraceSampler,
    ClientSampler,
    FullParticipationSampler,
    UniformSampler,
    WeightedSampler,
)
from .strategies import (
    AsyncServer,
    AsyncStrategy,
    FedAsyncStrategy,
    FedBuffStrategy,
    SyncRoundStrategy,
    apply_partial_update,
    staleness_weight,
)

__all__ = [
    "Event",
    "EventLoop",
    "next_event_loop",
    "ClientSampler",
    "FullParticipationSampler",
    "UniformSampler",
    "WeightedSampler",
    "AvailabilityTraceSampler",
    "staleness_weight",
    "apply_partial_update",
    "AsyncStrategy",
    "SyncRoundStrategy",
    "FedBuffStrategy",
    "FedAsyncStrategy",
    "AsyncServer",
    "ZERO_LINK",
    "AsyncRunner",
    "build_async_federation",
]
