"""One client-population interface, and its eager implementation.

Everything that runs clients — the flat runner, every hier edge, the
:class:`~repro.asyncfl.flight.ClientFlights` timelines, the process pool and
:class:`~repro.scale.checkpoint.RunCheckpoint` — holds one *population* and
reaches its clients only through this interface:

* ``ids`` / ``num_clients``; ``live_cap``, how many may be checked out at once;
* ``checkout(cid)`` / ``release(cid)`` / ``pinned_count`` — a reference is
  valid until its release; ``config_of(cid)`` without a checkout;
* ``snapshot()`` / ``restore(rows)`` — state as ``{table: {cid: row}}``, where
  a slice of the rows restores just its clients;
* ``shard(ids, n)`` — a picklable population of ``ids`` for one of ``n``
  process workers;
* ``checkpoint_state()`` / ``load_checkpoint_state(tree)`` — the client
  section of a checkpoint; ``stats``, store statistics or ``None``.

Two classes implement it: :class:`LivePopulation`, a list of materialised
clients — a store that never spills, whose ``live_cap`` is its size, so a
synchronous round is one wave of everyone — and
:class:`~repro.scale.store.ClientStateStore`, which spills clients beyond
``live_cap`` to state blobs.  To add a population kind, implement the
members above; nothing that runs clients has to learn about it.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..data import Dataset
from .base import BaseClient, BaseServer
from .config import FLConfig
from .registry import get_algorithm

__all__ = ["ClientFactory", "LivePopulation", "build_server_and_factory"]


class ClientFactory:
    """``factory(cid)`` builds client ``cid`` of a population: a fresh
    ``model_fn()`` synchronised to ``initial_state`` and the canonical
    ``seed + 1000 + cid`` RNG stream — the eager clients of
    :func:`~repro.core.runner.build_endpoints` and every client a store
    materialises alike.  ``model_fn`` must be deterministic per call (the
    repo's builders seed internally), since a store invokes it lazily in
    checkout order rather than id order.

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


def build_server_and_factory(
    config: FLConfig,
    model_fn: Callable[[], nn.Module],
    client_datasets: Sequence[Dataset],
    seed: Optional[int] = None,
    client_config: Optional[FLConfig] = None,
    **server_kwargs,
) -> Tuple[BaseServer, ClientFactory]:
    """The registered server of ``config.algorithm`` over ``client_datasets``
    and the :class:`ClientFactory` of its clients (built with
    ``client_config``, default ``config``), every client starting from the
    server model's initial parameters — the shared ``z^1`` of Algorithm 1."""
    server_cls, _ = get_algorithm(config.algorithm)
    model = model_fn()
    initial_state = model.state_dict()
    server = server_cls(
        model, config, num_clients=len(client_datasets),
        client_sample_counts=[len(d) for d in client_datasets], **server_kwargs,
    )
    return server, ClientFactory(client_config or config, model_fn, client_datasets, initial_state, seed=seed)


def _rebuild(entries) -> "LivePopulation":
    """Unpickle a :class:`LivePopulation` from its per-client entries."""
    clients = []
    for cls, model, dataset, config, cid, state in entries:
        client = cls(cid, model, dataset, config)
        client.load_client_state(state)
        clients.append(client)
    return LivePopulation(clients)


class LivePopulation:
    """Materialised clients behind the population interface.

    Pickles (what a process worker receives from :meth:`shard`) as one
    ``(type, model, dataset, config, id, client_state())`` entry per client:
    the worker rebuilds each client around its model, whose flat engine
    re-homes the parameters on reconstruction.
    """

    #: a live population keeps no store statistics
    stats = None

    def __init__(self, clients: Sequence[BaseClient]):
        self.clients: List[BaseClient] = list(clients)
        self._by_id: Dict[int, BaseClient] = {c.client_id: c for c in self.clients}
        if len(self._by_id) != len(self.clients):
            raise ValueError("client ids must be unique")
        self._pins: Counter = Counter()
        self.ids: List[int] = list(self._by_id)
        #: everyone is live, so a wave is the whole population
        self.num_clients = self.live_cap = len(self.clients)

    def config_of(self, cid: int) -> FLConfig:
        return self._by_id[cid].config

    # --------------------------------------------------------------- pinning
    def checkout(self, cid: int) -> BaseClient:
        client = self._by_id[cid]
        self._pins[cid] += 1
        return client

    def release(self, cid: int) -> None:
        if not self._pins[cid]:
            raise RuntimeError(f"release of client {cid} without a matching checkout")
        self._pins[cid] -= 1

    @property
    def pinned_count(self) -> int:
        return len(+self._pins)  # unary + drops the zero counts

    # ----------------------------------------------------------------- state
    def snapshot(self) -> Dict[str, Dict[int, object]]:
        """Every client's persistent state (copied) and current parameters.

        The parameters ride along because ``client_state()`` leaves them out
        (dispatch overwrites them each round), yet a process worker's pull
        must leave the parent's clients exactly where a serial run would.
        """
        return {
            "states": {c.client_id: copy.deepcopy(c.client_state()) for c in self.clients},
            "params": {c.client_id: c.vectorizer.to_vector() for c in self.clients},
        }

    def restore(self, snapshot: Mapping[str, Mapping[int, object]]) -> None:
        """Load the rows of ``snapshot`` into the clients they name
        (``params`` is optional)."""
        for cid, state in snapshot["states"].items():
            self._by_id[int(cid)].load_client_state(state)
        for cid, vector in snapshot.get("params", {}).items():
            self._by_id[int(cid)].vectorizer.load_vector(vector)

    def shard(self, ids: Sequence[int], num_shards: int) -> "LivePopulation":
        """Clients ``ids`` as a population one process worker can own."""
        return LivePopulation([self._by_id[cid] for cid in ids])

    def __reduce__(self):
        entries = [
            (type(c), c.model, c.dataset, c.config, c.client_id, c.client_state())
            for c in self.clients
        ]
        return _rebuild, (entries,)

    def checkpoint_state(self) -> Dict[str, object]:
        return {"mode": "eager", "states": {c.client_id: c.client_state() for c in self.clients}}

    def load_checkpoint_state(self, state: Mapping[str, object]) -> None:
        if state["mode"] != "eager":
            raise ValueError("checkpoint holds a client store but the runner is eager")
        self.restore(state)
