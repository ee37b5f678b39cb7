"""Builders for store-backed (virtual-population) federations.

These mirror :func:`repro.core.runner.build_federation` and
:func:`repro.asyncfl.runner.build_async_federation` exactly — same registry
lookup, same initial-state synchronisation (every client starts from the
server model's parameters, the shared ``z^1`` of Algorithm 1), same
``seed + 1000 + client_id`` per-client RNG streams — but instead of
materialising one :class:`~repro.core.base.BaseClient` per population member
they hand the runner a :class:`~repro.scale.store.ClientStateStore` that
materialises at most ``live_cap`` clients at a time.

With the default bit-exact store settings (``state_codec="identity"``) and
the default :class:`~repro.comm.serial.SerialCommunicator`, a virtual run's
:class:`~repro.core.runner.TrainingHistory` is bit-for-bit the eager run's
(regression-tested in ``tests/test_scale.py``); only the peak memory differs.

Batched cohort execution: with ``FLConfig.client_batch > 1``, each
store-backed wave of checked-out clients is executed as stacked cohorts by
the runner's executor (:meth:`repro.core.executor.LocalExecutor.update` →
:mod:`repro.core.batched`) — so the cohort size is
effectively ``min(client_batch, live_cap)``.  Size ``live_cap`` accordingly
when benchmarking large cohorts (the ``scale/`` throughput benchmarks use
``live_cap >= 1024`` so ``B = 256`` cohorts form whole).  Batched waves stay
bit-identical to per-client waves at float64.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .. import nn
from ..comm import Communicator
from ..core.base import BaseClient
from ..core.config import FLConfig
from ..core.metrics import Evaluator
from ..core.population import ClientFactory, build_server_and_factory
from ..core.runner import FederatedRunner
from ..data import Dataset
from .store import ClientStateStore

__all__ = [
    "ClientFactory",
    "make_client_factory",
    "build_virtual_federation",
    "build_virtual_async_federation",
]


def make_client_factory(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    initial_state,
    seed: Optional[int] = None,
) -> Callable[[int], BaseClient]:
    """Build a :class:`ClientFactory` (kept as a function for API stability)."""
    return ClientFactory(config, model_fn, client_datasets, initial_state, seed=seed)


def _build_server_and_store(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    live_cap: int,
    seed: Optional[int],
    state_codec: str,
    compress: Optional[str],
):
    server, factory = build_server_and_factory(config, model_fn, client_datasets, seed=seed)
    store = ClientStateStore(
        factory, len(client_datasets), live_cap, state_codec=state_codec, compress=compress,
        config=config,
    )
    return server, store


def build_virtual_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    live_cap: int,
    test_dataset: Optional[Dataset] = None,
    communicator: Optional[Communicator] = None,
    seed: Optional[int] = None,
    state_codec: str = "identity",
    compress: Optional[str] = None,
) -> FederatedRunner:
    """A synchronous :class:`FederatedRunner` over a virtual population.

    ``live_cap`` bounds simultaneously materialised clients; each round runs
    the population through the store in waves of that size.
    """
    server, store = _build_server_and_store(
        config, model_fn, client_datasets, live_cap, seed, state_codec, compress
    )
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return FederatedRunner(
        server, communicator=communicator, evaluator=evaluator, client_store=store
    )


def build_virtual_async_federation(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    live_cap: int,
    test_dataset: Optional[Dataset] = None,
    seed: Optional[int] = None,
    state_codec: str = "identity",
    compress: Optional[str] = None,
    **runner_kwargs,
) -> "AsyncRunner":
    """An event-driven :class:`~repro.asyncfl.runner.AsyncRunner` over a
    virtual population: clients materialise on dispatch (when the sampler
    picks them), stay pinned while in flight, and spill back to the store
    after their upload is encoded.  ``runner_kwargs`` pass through to the
    :class:`AsyncRunner` constructor (strategy, sampler, devices, links,
    concurrency, cost model...); ``concurrency`` defaults to ``live_cap``.
    """
    from ..asyncfl.runner import AsyncRunner
    from ..asyncfl.sampling import UniformSampler

    server, store = _build_server_and_store(
        config, model_fn, client_datasets, live_cap, seed, state_codec, compress
    )
    if runner_kwargs.get("sampler") is None and config.client_fraction < 1.0:
        runner_kwargs["sampler"] = UniformSampler(
            len(client_datasets),
            fraction=config.client_fraction,
            seed=config.seed if seed is None else seed,
        )
    evaluator = Evaluator(test_dataset) if test_dataset is not None else None
    return AsyncRunner(server, evaluator=evaluator, client_store=store, **runner_kwargs)
