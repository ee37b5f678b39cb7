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

from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import nn
from ..comm import Communicator
from ..core.base import BaseClient, BaseServer
from ..core.config import FLConfig
from ..core.metrics import Evaluator
from ..core.registry import get_algorithm
from ..core.runner import FederatedRunner
from ..data import Dataset
from .store import ClientStateStore

__all__ = [
    "ClientFactory",
    "make_client_factory",
    "build_virtual_federation",
    "build_virtual_async_federation",
]


class ClientFactory:
    """``factory(cid)`` building client ``cid`` exactly as ``build_endpoints``
    would have: a fresh ``model_fn()`` synchronised to ``initial_state`` and
    the canonical ``seed + 1000 + cid`` RNG stream.  ``model_fn`` must be
    deterministic per call (the repo's builders seed internally), since the
    store invokes it lazily in checkout order rather than id order.

    A module-level class rather than a closure so instances pickle — the
    process execution backend ships the factory to its worker processes
    (``model_fn`` must pickle too; see
    :class:`repro.core.models.SeededModelFn`).

    :meth:`rebind` re-points a client this factory built (a spilled shell) at
    another id — id, data shard, initial parameters — so that ``rebind(shell,
    cid)`` + ``load_client_state(s)`` is bitwise ``self(cid)`` + the same
    load: the rest of a client is scratch written before it is read, or
    ``client_state()``, which the load overwrites (the shared RNG in place).
    Client classes must keep all cross-round state in ``client_state()``.
    """

    def __init__(
        self,
        config: FLConfig,
        model_fn: Callable[[], nn.Module],
        client_datasets: Sequence[Dataset],
        initial_state,
        seed: Optional[int] = None,
    ):
        self.config = config
        self.model_fn = model_fn
        self.client_datasets = list(client_datasets)
        self.initial_state = initial_state
        self.seed = config.seed if seed is None else seed
        self._initial_vector: Optional[np.ndarray] = None  # any fresh client's, set on first build

    def __call__(self, cid: int) -> BaseClient:
        _, client_cls = get_algorithm(self.config.algorithm)
        model = self.model_fn()
        model.load_state_dict(self.initial_state)
        client = client_cls(
            cid,
            model,
            self.client_datasets[cid],
            self.config,
            rng=np.random.default_rng(self.seed + 1000 + cid),
        )
        if self._initial_vector is None:
            self._initial_vector = client.vectorizer.to_vector()
        return client

    def rebind(self, client: BaseClient, cid: int) -> BaseClient:
        """Re-point ``client`` (built by this factory) at ``cid``, ready for
        ``load_client_state`` of ``cid``'s state (see the class docstring)."""
        client.bind_data(cid, self.client_datasets[cid])
        client.vectorizer.load_vector(self._initial_vector)
        return client


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
    server_cls, _ = get_algorithm(config.algorithm)
    server_model = model_fn()
    initial_state = server_model.state_dict()
    sample_counts: List[int] = [len(d) for d in client_datasets]
    server: BaseServer = server_cls(
        server_model, config, num_clients=len(client_datasets), client_sample_counts=sample_counts
    )
    factory = make_client_factory(config, model_fn, client_datasets, initial_state, seed=seed)
    store = ClientStateStore(
        factory,
        num_clients=len(client_datasets),
        live_cap=live_cap,
        state_codec=state_codec,
        compress=compress,
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
