"""Tests for the hierarchical multi-tier federation (ISSUE 5).

Covers the acceptance criteria:

* with identity per-hop codecs, hierarchical FedAvg/ICEADMM/IIADMM histories
  (accuracies, losses, global parameters, ADMM dual replicas) are bit-for-bit
  the flat ``FederatedRunner`` run — synchronously and for the event-driven
  runner in its synchronous-equivalent configuration;
* IIADMM's "independent but identical" dual replicas stay bitwise
  synchronised under lossy client↔edge codecs (``delta|int8``), sync and
  async, via the existing reconcile path — now between client and *edge*;
* root traffic is O(edges) packets per round, reported per tier;
* a 100k-client, 16-edge run completes under a bounded live set;
* per-edge stores are bit-identical to eager edges; hier checkpoints resume
  bitwise;
* topology/codec specs are validated at config construction with actionable
  messages.
"""

import numpy as np
import pytest

from repro.comm import SerialCommunicator, TCPLinkModel
from repro.core import FLConfig, MLP, build_federation
from repro.data import TensorDataset, iid_partition
from repro.harness.reporting import format_history
from repro.hier import (
    RootFedAsync,
    RootFedBuff,
    build_hier_async_federation,
    build_hier_federation,
    build_topology,
    majority_labels,
)
from repro.scale import RunCheckpoint


def make_dataset(n=150, dim=8, classes=3, seed=0, centers=None):
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = rng.standard_normal((classes, dim)) * 3.0
    y = rng.integers(0, classes, n)
    return TensorDataset(centers[y] + rng.standard_normal((n, dim)), y)


def make_clients_and_test(num_clients=12, seed=0):
    centers = np.random.default_rng(seed + 555).standard_normal((3, 8)) * 3.0
    train = make_dataset(240, seed=seed, centers=centers)
    test = make_dataset(60, seed=seed + 100, centers=centers)
    clients = iid_partition(train, num_clients, rng=np.random.default_rng(seed))
    return clients, test


def model_fn(seed=7):
    return MLP(8, 3, hidden_sizes=(16,), rng=np.random.default_rng(seed))


def base_config(algorithm, **kwargs):
    defaults = dict(num_rounds=3, local_steps=2, batch_size=32, lr=0.05, rho=2.0, zeta=2.0, seed=0)
    defaults.update(kwargs)
    return FLConfig(algorithm=algorithm, **defaults)


def assert_same_history(a, b):
    assert [r.test_accuracy for r in a.rounds] == [r.test_accuracy for r in b.rounds]
    assert [r.test_loss for r in a.rounds] == [r.test_loss for r in b.rounds]


def assert_dual_replicas_match(flat_server, hier):
    """Every edge's server-side replicas must equal the flat server's."""
    if not hasattr(flat_server, "duals"):
        return
    for edge in hier.edges:
        for cid in edge.shard:
            assert np.array_equal(flat_server.duals[cid], edge.server.duals[cid])
            assert np.array_equal(flat_server.primals[cid], edge.server.primals[cid])


class TestSyncExactness:
    """Identity per-hop codecs: hierarchical == flat, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["fedavg", "iceadmm", "iiadmm"])
    def test_bitwise_equal_to_flat(self, algorithm):
        clients, test = make_clients_and_test()
        cfg = base_config(algorithm)
        flat = build_federation(cfg, model_fn, clients, test)
        h_flat = flat.run()
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        h_hier = hier.run()
        assert np.array_equal(flat.server.global_params, hier.server.global_params)
        assert_same_history(h_flat, h_hier)
        assert_dual_replicas_match(flat.server, hier)

    @pytest.mark.parametrize("topology", ["edges:1", "edges:3", "edges:12", "edges:4:by-label"])
    def test_any_grouping_is_equivalent(self, topology):
        """Shard count and shape cannot change a bit of the result."""
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", num_rounds=2)
        flat = build_federation(cfg, model_fn, clients, test)
        h_flat = flat.run()
        hier = build_hier_federation(cfg, model_fn, clients, test, topology=topology)
        h_hier = hier.run()
        assert np.array_equal(flat.server.global_params, hier.server.global_params)
        assert_same_history(h_flat, h_hier)

    def test_float32_pipeline_is_bitwise_too(self):
        """The error-free transformations hold in any IEEE format."""
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", num_rounds=2, dtype="float32")
        flat = build_federation(cfg, model_fn, clients, test)
        h_flat = flat.run()
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:5")
        h_hier = hier.run()
        assert hier.server.global_params.dtype == np.float32
        assert np.array_equal(flat.server.global_params, hier.server.global_params)
        assert_same_history(h_flat, h_hier)

    def test_explicit_shard_map(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=2)
        flat = build_federation(cfg, model_fn, clients, test)
        h_flat = flat.run()
        shards = [[0, 5, 7], [1, 2, 3, 11], [4, 6, 8, 9, 10]]
        hier = build_hier_federation(cfg, model_fn, clients, test, topology=shards)
        h_hier = hier.run()
        assert np.array_equal(flat.server.global_params, hier.server.global_params)
        assert_same_history(h_flat, h_hier)

    def test_store_backed_edges_match_eager(self):
        clients, test = make_clients_and_test()
        cfg = base_config("iceadmm", num_rounds=2)
        eager = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        h_eager = eager.run()
        virtual = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4", live_cap=2)
        h_virtual = virtual.run()
        assert np.array_equal(eager.server.global_params, virtual.server.global_params)
        assert_same_history(h_eager, h_virtual)
        for edge in virtual.edges:
            assert edge.population.stats.peak_live <= 2


class TestPerTierAccounting:
    def test_root_traffic_is_o_edges(self):
        """Root sees 2E packets per round no matter how many clients exist."""
        clients, test = make_clients_and_test(num_clients=12)
        cfg = base_config("iiadmm", num_rounds=2)
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        hier.run()
        per_round = {}
        for rec in hier.root_communicator.log.records:
            per_round[rec.round] = per_round.get(rec.round, 0) + 1
            assert rec.endpoint.startswith("edge:")
        assert per_round == {0: 8, 1: 8}  # E downlinks + E summary uplinks

        def uplinks(comm):
            return sum(1 for rec in comm.log.records if rec.op == "send_local")

        # One summary per edge per round, each folding population / E = 3 uploads.
        assert uplinks(hier.root_communicator) == 4 * 2
        assert uplinks(hier.client_communicator) == 3 * uplinks(hier.root_communicator)

    def test_history_reports_per_tier_bytes(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=1)
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        history = hier.run()
        tiers = history.rounds[0].comm_bytes_by_tier
        assert set(tiers) == {"client_edge", "edge_root"}
        assert tiers["client_edge"] + tiers["edge_root"] == history.rounds[0].comm_bytes
        # client tier scales with clients, root tier with edges: at 12 clients
        # vs 4 edges the client tier must dominate.
        assert tiers["client_edge"] > tiers["edge_root"]
        rendered = format_history(history)
        assert "c2e_MB" in rendered and "e2r_MB" in rendered
        # Flat histories render the per-tier columns as absent.
        flat = build_federation(cfg, model_fn, clients, test)
        flat_rendered = format_history(flat.run())
        assert "c2e_MB" in flat_rendered
        assert flat.history.rounds[0].comm_bytes_by_tier is None

    def test_summary_bytes_do_not_scale_with_shard_size(self):
        """The fan-in win: an edge's summary is O(components · dim), not
        O(shard · dim)."""
        clients, test = make_clients_and_test(num_clients=24)
        cfg = base_config("fedavg", num_rounds=1)
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:2")
        history = hier.run()
        dim = hier.server.vectorizer.dim
        tiers = history.rounds[0].comm_bytes_by_tier
        # 2 edges x (1 dispatch + summary of <= 6 components), float64.
        assert tiers["edge_root"] <= 2 * (1 + 6) * dim * 8
        assert tiers["client_edge"] >= 24 * 2 * dim * 8  # per-client up+down


class TestLossyHops:
    @pytest.mark.parametrize("codec", ["delta|int8", "fp16"])
    def test_sync_iiadmm_dual_replicas_bitwise_under_lossy_edge_hop(self, codec):
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", edge_codec=codec)
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        hier.run()
        for edge in hier.edges:
            for client in edge.clients:
                assert np.array_equal(edge.server.duals[client.client_id], client.dual), codec

    def test_lossy_root_hop_still_learns(self):
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", num_rounds=4, root_codec="delta|int8")
        identity = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        # Same run with a compressed edge->root hop: smaller root tier, close
        # accuracy (quantised shard summaries are approximate by design).
        h_lossy = identity.run()
        cfg_id = base_config("iiadmm", num_rounds=4)
        flat = build_hier_federation(cfg_id, model_fn, clients, test, topology="edges:4")
        h_id = flat.run()
        lossy_root = h_lossy.rounds[-1].comm_bytes_by_tier["edge_root"]
        id_root = h_id.rounds[-1].comm_bytes_by_tier["edge_root"]
        assert lossy_root < id_root / 4
        assert h_lossy.final_accuracy >= h_id.final_accuracy - 0.15

    def test_hop_codecs_are_independent(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=1, edge_codec="fp16", root_codec="identity")
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        hier.run()
        assert hier.edges[0].exchange.spec == "fp16"
        assert hier.exchange.spec == "identity"


class TestAsyncHier:
    @pytest.mark.parametrize("algorithm", ["fedavg", "iceadmm", "iiadmm"])
    def test_round_based_fedbuff_is_bitwise_sync(self, algorithm):
        """Free links + full participation + round-based edges + a full edge
        buffer reduce the event-driven hierarchy to the synchronous one."""
        clients, test = make_clients_and_test()
        cfg = base_config(algorithm)
        sync = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        h_sync = sync.run()
        runner = build_hier_async_federation(
            cfg, model_fn, clients, test, topology="edges:4",
            strategy=RootFedBuff(4), edge_round_based=True,
        )
        h_async = runner.run(3)
        assert np.array_equal(sync.server.global_params, runner.server.global_params)
        assert_same_history(h_sync, h_async)

    def test_staleness_under_partial_root_buffer(self):
        """With real links and a root buffer smaller than E, slower edges'
        summaries arrive stale — and the run still proceeds deterministically."""
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", num_rounds=4)
        runner = build_hier_async_federation(
            cfg, model_fn, clients, test, topology="edges:4",
            strategy=RootFedBuff(2),
            client_link=TCPLinkModel(), root_link=TCPLinkModel(),
        )
        history = runner.run(4)
        assert len(history) == 4
        assert max(runner.staleness_log) > 0
        assert history.rounds[-1].wall_clock_seconds > 0
        # Dual replicas survive staleness (the PR 2 invariant, at edge level).
        for edge in runner.edges:
            for client in edge.clients:
                assert np.array_equal(edge.server.duals[client.client_id], client.dual)

    def test_async_lossy_edge_hop_keeps_duals_synced(self):
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", num_rounds=3, edge_codec="delta|int8")
        runner = build_hier_async_federation(
            cfg, model_fn, clients, test, topology="edges:4",
            strategy=RootFedBuff(2),
            client_link=TCPLinkModel(), root_link=TCPLinkModel(),
        )
        runner.run(3)
        for edge in runner.edges:
            for client in edge.clients:
                assert np.array_equal(edge.server.duals[client.client_id], client.dual)

    def test_root_fedasync_mixes_and_rejects_admm(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=4, local_steps=1)
        runner = build_hier_async_federation(
            cfg, model_fn, clients, test, topology="edges:4",
            strategy=RootFedAsync(alpha=0.8),
            client_link=TCPLinkModel(), root_link=TCPLinkModel(),
        )
        history = runner.run(6)
        assert len(history) == 6  # one round per summary arrival
        cfg_admm = base_config("iiadmm", num_rounds=2)
        bad = build_hier_async_federation(
            cfg_admm, model_fn, clients, test, topology="edges:4",
            strategy=RootFedAsync(),
        )
        with pytest.raises(ValueError, match="FedAvg-family"):
            bad.run(1)

    def test_round_based_edges_never_idle_on_a_delivered_global(self):
        """Regression: an edge that flushes while a newer global is already
        in hand must redispatch immediately, not idle until some later
        broadcast happens to arrive (which skips model versions)."""
        from repro.simulator import DEVICE_CATALOG

        rng = np.random.default_rng(0)
        datasets = [
            TensorDataset(rng.standard_normal((4, 8)), rng.integers(0, 3, 4)) for _ in range(9)
        ]
        devices = [DEVICE_CATALOG["A100"]] * 6 + [DEVICE_CATALOG["CPU"]] * 3  # edge 2 is slow
        cfg = base_config("fedavg", num_rounds=10, local_steps=1, batch_size=4)
        runner = build_hier_async_federation(
            cfg, model_fn, datasets, topology=[[0, 1, 2], [3, 4, 5], [6, 7, 8]],
            strategy=RootFedBuff(2), edge_round_based=True, devices=devices,
            client_link=TCPLinkModel(), root_link=TCPLinkModel(),
        )
        stalled = []

        def check(result):
            for actor in runner.actors:
                if actor._waiting_for_global and actor._pending_global is not None:
                    stalled.append((result.round, actor.edge.edge_id))

        runner.run(10, callback=check)
        assert stalled == []

    def test_async_hier_checkpoint_rejected_clearly(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=1)
        runner = build_hier_async_federation(
            cfg, model_fn, clients, test, topology="edges:4",
            strategy=RootFedBuff(4), edge_round_based=True,
        )
        runner.run(1)
        with pytest.raises(TypeError, match="HierAsyncRunner"):
            RunCheckpoint.capture(runner)

    def test_edge_fraction_samples_within_shards(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=2, local_steps=1)
        runner = build_hier_async_federation(
            cfg, model_fn, clients, test, topology="edges:4", edge_fraction=0.5,
            strategy=RootFedBuff(4), edge_round_based=True,
        )
        history = runner.run(2)
        for result in history.rounds:
            assert 0 < len(result.participating_clients) < 12
            for cid in result.participating_clients:
                assert 0 <= cid < 12

    def test_comm_seconds_cover_every_packet_on_both_hops(self):
        """``comm_seconds`` is the simulated transfer time of every packet
        sent since the last round closed, client↔edge and edge↔root alike
        (it used to be hard-wired to 0.0 on this runner)."""
        from repro.comm import TCPLinkModel

        class RecordingLink:
            def __init__(self, link):
                self.link, self.seconds = link, []

            def transfer_time(self, nbytes):
                self.seconds.append(self.link.transfer_time(nbytes))
                return self.seconds[-1]

        client_link = RecordingLink(TCPLinkModel())
        root_link = RecordingLink(TCPLinkModel(latency=1.0e-3))
        clients, test = make_clients_and_test()
        runner = build_hier_async_federation(
            base_config("fedavg", local_steps=1), model_fn, clients, test, topology="edges:3",
            strategy=RootFedBuff(2), client_link=client_link, root_link=root_link,
        )
        reported = []

        def check(result):
            reported.append(result.comm_seconds)
            assert result.comm_seconds > 0
            sent = sum(client_link.seconds) + sum(root_link.seconds)
            assert sum(reported) == pytest.approx(sent, rel=1e-12)

        runner.run(4, callback=check)
        assert len(reported) == 4 and root_link.seconds and client_link.seconds


class TestHierCheckpoint:
    @pytest.mark.parametrize("live_cap", [None, 2])
    def test_resume_matches_uninterrupted(self, live_cap):
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", num_rounds=2)
        full = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4", live_cap=live_cap)
        h_full = full.run(4)
        first = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4", live_cap=live_cap)
        first.run(2)
        ckpt = RunCheckpoint.capture(first)
        resumed = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4", live_cap=live_cap)
        ckpt.restore(resumed)
        h_resumed = resumed.run(2)
        assert np.array_equal(full.server.global_params, resumed.server.global_params)
        assert [r.test_accuracy for r in h_full.rounds] == [r.test_accuracy for r in h_resumed.rounds]
        assert_dual_replicas_match(full_server_proxy(full), resumed)

    def test_kind_mismatch_rejected(self):
        clients, test = make_clients_and_test()
        cfg = base_config("fedavg", num_rounds=1)
        hier = build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")
        hier.run(1)
        ckpt = RunCheckpoint.capture(hier)
        flat = build_federation(cfg, model_fn, clients, test)
        with pytest.raises(ValueError, match="hier"):
            ckpt.restore(flat)


def full_server_proxy(hier):
    """Adapter: expose a hier run's per-client replicas like a flat server."""

    class _Proxy:
        pass

    proxy = _Proxy()
    if not hasattr(hier.edges[0].server, "duals"):
        return proxy
    proxy.duals = {}
    proxy.primals = {}
    for edge in hier.edges:
        proxy.duals.update(edge.server.duals)
        proxy.primals.update(edge.server.primals)
    return proxy


class TestValidation:
    def test_config_rejects_bad_topology_with_actionable_message(self):
        with pytest.raises(ValueError, match=r"unknown topology form 'rings'.*edges:<E>"):
            FLConfig(algorithm="fedavg", topology="rings:4")
        with pytest.raises(ValueError, match=r"bad edge count 'x'"):
            FLConfig(algorithm="fedavg", topology="edges:x")
        with pytest.raises(ValueError, match=r"edge count must be positive"):
            FLConfig(algorithm="fedavg", topology="edges:0")
        with pytest.raises(ValueError, match=r"unknown sharding mode 'zigzag'.*by-label"):
            FLConfig(algorithm="fedavg", topology="edges:4:zigzag")
        assert FLConfig(algorithm="fedavg", topology="edges:8:by-label").topology == "edges:8:by-label"

    def test_config_rejects_bad_hop_codecs_naming_the_field(self):
        with pytest.raises(ValueError, match=r"invalid edge_codec spec 'zstd'"):
            FLConfig(algorithm="fedavg", edge_codec="zstd")
        with pytest.raises(ValueError, match=r"invalid root_codec spec 'int8:4'"):
            FLConfig(algorithm="fedavg", root_codec="int8:4")
        cfg = FLConfig(algorithm="fedavg", edge_codec="delta|int8", root_codec="fp16")
        assert cfg.edge_codec == "delta|int8"

    def test_builder_requires_topology(self):
        clients, test = make_clients_and_test()
        with pytest.raises(ValueError, match="topology"):
            build_hier_federation(base_config("fedavg"), model_fn, clients, test)

    def test_topology_shard_map_errors(self):
        with pytest.raises(ValueError, match="assigned to both"):
            build_topology([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError, match="missing"):
            build_topology([[0], [2]], 3)
        with pytest.raises(ValueError, match="needs at least"):
            build_topology("edges:8", 4)
        with pytest.raises(ValueError, match="labels"):
            build_topology("edges:2:by-label", 4)

    def test_shared_tier_communicator_rejected(self):
        clients, test = make_clients_and_test()
        shared = SerialCommunicator()
        with pytest.raises(ValueError, match="distinct instances"):
            build_hier_federation(
                base_config("fedavg"), model_fn, clients, test, topology="edges:4",
                root_communicator=shared, client_communicator=shared,
            )

    def test_adaptive_rho_rejected_for_admm(self):
        clients, test = make_clients_and_test()
        cfg = base_config("iiadmm", adaptive_rho=True, rho_growth=1.1)
        with pytest.raises(ValueError, match="adaptive_rho"):
            build_hier_federation(cfg, model_fn, clients, test, topology="edges:4")


class TestByLabelTopology:
    def test_majority_labels_drive_sharding(self):
        clients, test = make_clients_and_test()
        labels = majority_labels(clients)
        assert labels.shape == (len(clients),)
        topo = build_topology("edges:3:by-label", len(clients), labels=labels)
        non_empty = [s for s in topo.shards if s]
        for left, right in zip(non_empty, non_empty[1:]):
            assert max(labels[c] for c in left) <= min(labels[c] for c in right)


class TestHundredThousandClients:
    def test_100k_clients_16_edges_bounded_live_set(self):
        """The acceptance-scale run: a 100k-client population behind 16 edge
        actors, per-edge stores capped at 8 live clients, sampled cohorts —
        completes in tier-1 time with root traffic independent of the
        population size."""
        population = 100_000
        rng = np.random.default_rng(0)
        shared = TensorDataset(rng.standard_normal((4, 4)), rng.integers(0, 2, 4))
        datasets = [shared] * population  # per-client shard, shared storage
        tiny_model = lambda: MLP(4, 2, hidden_sizes=(), rng=np.random.default_rng(3))
        cfg = FLConfig(
            algorithm="fedavg", num_rounds=2, local_steps=1, batch_size=4,
            lr=0.05, seed=0, topology="edges:16",
        )
        runner = build_hier_async_federation(
            cfg, tiny_model, datasets,
            live_cap=8, edge_fraction=0.0005,  # ~3 sampled clients per shard round
            strategy=RootFedBuff(16), edge_round_based=True,
        )
        history = runner.run(2)
        assert len(history) == 2
        assert runner.server.num_clients == population
        dim = runner.server.vectorizer.dim
        for result in history.rounds:
            tiers = result.comm_bytes_by_tier
            # Root tier: 16 summaries + 16 rebroadcasts of <= a few
            # components each — O(edges), nowhere near O(population).
            assert tiers["edge_root"] <= 16 * 2 * 8 * dim * 8
            assert 0 < len(result.participating_clients) <= 16 * 4
        for edge in runner.edges:
            assert edge.population.stats.peak_live <= 8
        live_total = sum(edge.population.live_count for edge in runner.edges)
        assert live_total <= 16 * 8  # the whole-run bound: edges x live_cap
