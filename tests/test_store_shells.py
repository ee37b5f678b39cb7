"""Recycled client shells: a re-pointed shell *is* a fresh client, bitwise.

``ClientStateStore.checkout`` of an id that has a blob no longer builds a
client: it takes the object a spilled client left behind, re-points it with
``ClientFactory.rebind`` and loads the blob into it.  These tests hold that
path to the factory's contract and the store to its accounting:

* **equivalence** — algorithm × wire codec × DP: ``rebind(shell of A, B)`` +
  B's blob equals ``factory(B)`` + the same blob in every bit a client
  exposes (encoded state, flat parameters, loader data) and in one update;
* **invariants** — under Hypothesis-drawn checkout / release / flush /
  snapshot / restore sequences the running blob total equals a re-scan, its
  peak is the running maximum, and live + spare objects never exceed
  ``live_cap``;
* **exact counts** — a virtual run constructs each id once, while the
  ``materializations`` / ``evictions`` counts ``perf/`` reads are unchanged.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FLConfig, build_federation
from repro.core.base import GLOBAL_KEY
from repro.core.config import PrivacyConfig
from repro.core.exchange import PacketExchange
from repro.core.models import MLP
from repro.data import TensorDataset
from repro.harness.scaling import PopulationSweepSettings, make_population
from repro.scale import ClientStateStore, build_virtual_federation
from repro.scale.virtual import ClientFactory


def _datasets(num_clients):
    rng = np.random.default_rng(3)
    # Unequal shard sizes: a rebound shell must take the new id's loader geometry.
    return [
        TensorDataset(rng.standard_normal((5 + cid, 4)), rng.integers(0, 3, 5 + cid))
        for cid in range(num_clients)
    ]


def _model_fn():
    return MLP(4, 3, hidden_sizes=(5,), rng=np.random.default_rng(11))


def _config(algorithm, codec="identity", privacy=False):
    dp = PrivacyConfig(epsilon=5.0, clip_norm=1.0, mechanism="laplace") if privacy else PrivacyConfig()
    return FLConfig(
        algorithm=algorithm, num_rounds=1, local_steps=2, batch_size=3, lr=0.05,
        rho=4.0, zeta=2.0, seed=0, codec=codec, privacy=dp,
    )


def _factory(config, num_clients):
    return ClientFactory(config, _model_fn, _datasets(num_clients), _model_fn().state_dict())


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- equivalence
class TestReboundShellIsFresh:
    @pytest.mark.parametrize("privacy", [False, True], ids=["nodp", "laplace"])
    @pytest.mark.parametrize("codec", ["identity", "delta|int8"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "iceadmm", "iiadmm"])
    def test_rebind_plus_blob_equals_factory_plus_blob(self, algorithm, codec, privacy):
        config = _config(algorithm, codec, privacy)
        factory = _factory(config, 3)
        store = ClientStateStore(factory, 3, live_cap=2, config=config)
        exchange = PacketExchange(codec)
        dim = factory(0).vectorizer.dim
        rng = np.random.default_rng(1)
        globals_ = [rng.standard_normal(dim) for _ in range(3)]

        def train(client, w):
            payload = {GLOBAL_KEY: w.copy()}
            upload = client.update(payload)
            packet = exchange.encode_upload(upload, payload[GLOBAL_KEY])
            exchange.reconcile(client, upload, packet, payload[GLOBAL_KEY])
            return upload

        shell = factory(0)  # client A, one round in: every buffer is dirty
        train(shell, globals_[0])
        donor = factory(2)  # client B's state after one round, as a blob
        train(donor, globals_[1])
        blob = store._encode_state(donor.client_state())

        fresh = factory(2)
        fresh.load_client_state(store._decode_state(blob))
        rebound = factory.rebind(shell, 2)
        rebound.load_client_state(store._decode_state(blob))

        assert rebound is shell and rebound.client_id == fresh.client_id == 2
        assert store._encode_state(rebound.client_state()) == blob
        assert store._encode_state(fresh.client_state()) == blob
        _same(rebound.vectorizer.to_vector().view(np.uint64), fresh.vectorizer.to_vector().view(np.uint64))
        for mine, theirs in zip(rebound.loader.full_batch(), fresh.loader.full_batch()):
            _same(mine, theirs)

        up_rebound, up_fresh = train(rebound, globals_[2]), train(fresh, globals_[2])
        assert sorted(up_rebound) == sorted(up_fresh)
        for key in up_fresh:
            _same(up_rebound[key], up_fresh[key])
        assert store._encode_state(rebound.client_state()) == store._encode_state(fresh.client_state())

    def test_fresh_lossy_iiadmm_state_does_not_depend_on_the_allocator(self):
        """A never-updated lossy-wire IIADMM client ships its reconcile stash
        (``dual_base``); it must be zeros, not whatever memory was recycled."""
        config = _config("iiadmm", "delta|int8")
        factory = _factory(config, 1)
        store = ClientStateStore(factory, 1, live_cap=1, config=config)
        dim = factory(0).vectorizer.dim
        first = store._encode_state(factory(0).client_state())
        junk = [np.full(dim, 1e300) for _ in range(64)]
        del junk  # churn: the allocator now holds dim-sized blocks full of garbage
        assert store._encode_state(factory(0).client_state()) == first


# ----------------------------------------------------------------- invariants
class _TrackingFactory(ClientFactory):
    """Every client the factory constructs, held weakly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built = weakref.WeakSet()

    def __call__(self, cid):
        client = super().__call__(cid)
        self.built.add(client)
        return client


# (kind, client id or pin index, random dual?, stay pinned?) — checkouts weighted up
_OPS = st.tuples(
    st.sampled_from(["checkout"] * 4 + ["release", "flush", "snapshot", "restore"]),
    st.integers(0, 7),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    num_clients=st.integers(2, 6),
    live_cap=st.integers(1, 4),
    compress=st.sampled_from([None, "zlib"]),
    ops=st.lists(_OPS, min_size=4, max_size=32),
)
def test_store_accounting_and_object_bound_hold_after_every_operation(num_clients, live_cap, compress, ops):
    config = _config("iiadmm")
    factory = _TrackingFactory(config, _model_fn, _datasets(num_clients), _model_fn().state_dict())
    store = ClientStateStore(factory, num_clients, live_cap, compress=compress, config=config)
    pins, expected, saved, snap, peak = [], {}, {}, None, 0
    for kind, index, noisy, keep in ops:
        transient = 0  # a checkout spills before it restores: its sum peaks in between
        if kind == "checkout":
            cid = index % num_clients
            full = store.pinned_count >= live_cap and not store.is_live(cid)
            transient = store.blob_nbytes(cid) or 0
            try:
                client = store.checkout(cid)
            except RuntimeError:
                assert full
                transient = 0
            else:
                assert not full and client.client_id == cid
                round_, dual = expected.get(cid, (0, None))
                assert client.round == round_
                if dual is not None:
                    _same(client.dual, dual)
                # random duals are incompressible, zeros are not: zlib blob sizes vary
                client.dual[:] = np.random.default_rng(index).standard_normal(client.dual.size) if noisy else 0.0
                client.round += 1
                expected[cid] = (client.round, client.dual.copy())
                del client  # valid only while pinned; hold no reference past release
                if keep:
                    pins.append(cid)
                else:
                    store.release(cid)
        elif kind == "release" and pins:
            store.release(pins.pop(index % len(pins)))
        elif kind == "flush":
            store.flush()
        elif kind == "snapshot":
            snap, saved = store.snapshot(), dict(expected)
        elif kind == "restore":
            if pins:
                with pytest.raises(RuntimeError, match="pinned"):
                    store.restore({"blobs": {}})
            elif snap is not None:
                store.restore(snap)
                expected = dict(saved)

        rescan = sum(len(b) for b in store._blobs.values())
        assert store.store_nbytes == rescan
        peak = max(peak, rescan + transient)
        assert store.stats.peak_store_bytes == peak
        assert store.live_count + len(store._spares) <= live_cap
        if len(factory.built) > live_cap:
            gc.collect()  # only cyclic garbage may linger; collect before judging
        assert len(factory.built) <= live_cap


# --------------------------------------------------------------- exact counts
@pytest.mark.parametrize("client_batch", [1, 4])
def test_virtual_run_constructs_each_id_once_with_unchanged_counts(monkeypatch, client_batch):
    population, cap, rounds = 40, 4, 3
    datasets, model_fn = make_population(PopulationSweepSettings(live_cap=cap), population)
    config = FLConfig(
        algorithm="fedavg", num_rounds=rounds, local_steps=1, batch_size=4, lr=0.5, seed=0,
        client_batch=client_batch,
    )
    eager = build_federation(config, model_fn, datasets)
    eager.run(rounds)

    calls = Counter()
    construct = ClientFactory.__call__

    def counting(self, cid):
        calls[cid] += 1
        return construct(self, cid)

    monkeypatch.setattr(ClientFactory, "__call__", counting)
    virtual = build_virtual_federation(config, model_fn, datasets, live_cap=cap)
    virtual.run(rounds)

    assert calls == Counter(range(population))  # __call__ exactly once per id
    stats = virtual.population.stats
    assert stats.materializations == rounds * population
    assert stats.evictions == rounds * population - cap
    assert stats.restores == (rounds - 1) * population
    assert stats.peak_live == cap
    _same(virtual.server.global_params, eager.server.global_params)
