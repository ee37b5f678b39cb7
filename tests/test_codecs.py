"""Tests for the wire-codec stack: codecs, UpdatePacket, exchange, invariants.

Covers the PR acceptance criteria:

* codec round trips — identity bitwise, fp16/int8 within analytic error
  bounds, topk sparsity, delta against a reference;
* ``codec="identity"`` histories bit-for-bit equal to the seed (pre-codec)
  exchange loop for FedAvg/IIADMM/ICEADMM;
* delta + staleness correctness under FedBuff overwrites (IIADMM dual
  replicas bitwise-identical under lossy codecs, sync and async);
* packet wire serialisation round trips and on-wire byte accounting;
* DP noising ordered before encoding.
"""

import math
import warnings

import numpy as np
import pytest

from repro.comm import (
    SerialCommunicator,
    UpdatePacket,
    decode_packet,
    encode_packet,
    parse_codec,
    payload_nbytes,
    resolve_codec,
    state_dict_nbytes,
)
from repro.comm.codecs import decode_packet_state
from repro.core import FLConfig, MLP, PacketExchange, build_federation
from repro.core.base import DUAL_KEY, GLOBAL_KEY, PRIMAL_KEY
from repro.data import TensorDataset, iid_partition


def make_dataset(n=150, dim=8, classes=3, seed=0, centers=None):
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = rng.standard_normal((classes, dim)) * 3.0
    y = rng.integers(0, classes, n)
    x = centers[y] + rng.standard_normal((n, dim))
    return TensorDataset(x, y)


def make_clients_and_test(num_clients=2, seed=0):
    centers = np.random.default_rng(seed + 555).standard_normal((3, 8)) * 3.0
    train = make_dataset(150, seed=seed, centers=centers)
    test = make_dataset(60, seed=seed + 100, centers=centers)
    clients = iid_partition(train, num_clients, rng=np.random.default_rng(seed))
    return clients, test


def model_fn(seed=7):
    return MLP(8, 3, hidden_sizes=(16,), rng=np.random.default_rng(seed))


def base_config(algorithm, **kwargs):
    defaults = dict(num_rounds=3, local_steps=2, batch_size=32, lr=0.05, rho=2.0, zeta=2.0, seed=0)
    defaults.update(kwargs)
    return FLConfig(algorithm=algorithm, **defaults)


class TestParsing:
    def test_canonical_spec(self):
        assert parse_codec("identity").spec == "identity"
        assert parse_codec(" delta | int8 |topk:0.25 ").spec == "delta|int8|topk:0.25"

    def test_resolve_caches(self):
        assert resolve_codec("delta|int8") is resolve_codec("delta|int8")

    @pytest.mark.parametrize("spec", ["", "zstd", "int8:4", "topk:0", "topk:1.5", "topk:x"])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_codec(spec)

    def test_config_validates_codec(self):
        with pytest.raises(ValueError):
            FLConfig(algorithm="fedavg", codec="nope|int8")
        assert FLConfig(algorithm="fedavg", codec="delta|int8").codec == "delta|int8"

    def test_lossy_flags(self):
        assert not resolve_codec("identity").lossy
        for spec in ("fp16", "int8", "topk:0.5", "delta", "delta|int8"):
            assert resolve_codec(spec).lossy, spec


class TestRoundTrips:
    def state(self, dtype=np.float64, seed=0):
        rng = np.random.default_rng(seed)
        return {
            PRIMAL_KEY: rng.standard_normal(257).astype(dtype),
            DUAL_KEY: (rng.standard_normal((16, 4)) * 5).astype(dtype),
        }

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_identity_bitwise_and_nbytes(self, dtype):
        state = self.state(dtype)
        pipeline = resolve_codec("identity")
        packet = pipeline.encode_state(state)
        assert packet.nbytes == state_dict_nbytes(state)
        decoded = pipeline.decode_state(packet)
        for key in state:
            assert decoded[key].dtype == state[key].dtype
            assert np.array_equal(decoded[key], state[key])
            assert not np.may_share_memory(decoded[key], state[key])

    def test_fp16_error_bound_and_halved_bytes(self):
        state = {PRIMAL_KEY: np.random.default_rng(0).standard_normal(512).astype(np.float32)}
        pipeline = resolve_codec("fp16")
        packet = pipeline.encode_state(state)
        assert packet.nbytes == state_dict_nbytes(state) // 2
        decoded = pipeline.decode_state(packet)[PRIMAL_KEY]
        assert decoded.dtype == np.float32
        # Relative fp16 rounding error is <= 2^-11 per element.
        np.testing.assert_allclose(decoded, state[PRIMAL_KEY], rtol=2**-10, atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_int8_error_bound(self, dtype):
        x = np.random.default_rng(1).standard_normal(1000).astype(dtype) * 3.0
        pipeline = resolve_codec("int8")
        packet = pipeline.encode_state({PRIMAL_KEY: x})
        # 1 byte/element + scale/zero-point metadata.
        assert packet.nbytes < state_dict_nbytes({PRIMAL_KEY: x}) // (x.itemsize - 1)
        decoded = pipeline.decode_state(packet)[PRIMAL_KEY]
        scale = np.abs(x).max() / 127.0
        assert decoded.dtype == x.dtype
        assert np.max(np.abs(decoded - x)) <= scale / 2 + 1e-12

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, 1.0, -2.0, 0.0]),
            # max|x| > 0, but max|x| / 127 underflows to a zero scale.
            np.array([5e-324, 0.0]),
        ],
        ids=["normal", "subnormal"],
    )
    def test_int8_preserves_exact_zero(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = resolve_codec("int8").decode_state(
                resolve_codec("int8").encode_state({PRIMAL_KEY: x})
            )[PRIMAL_KEY]
        assert np.all(decoded[x == 0.0] == 0.0)
        assert np.max(np.abs(decoded - x)) <= np.abs(x).max() / 254 + 1e-12

    def test_int8_passthrough_for_int_arrays(self):
        x = np.arange(10, dtype=np.int64)
        packet = resolve_codec("int8").encode_state({"counts": x})
        decoded = resolve_codec("int8").decode_state(packet)["counts"]
        assert np.array_equal(decoded, x) and decoded.dtype == np.int64

    def test_topk_keeps_largest_and_zeroes_rest(self):
        x = np.array([0.1, -5.0, 0.2, 4.0, -0.3, 3.0, 0.05, -2.0, 0.0, 1.0])
        pipeline = resolve_codec("topk:0.3")
        packet = pipeline.encode_state({PRIMAL_KEY: x})
        decoded = pipeline.decode_state(packet)[PRIMAL_KEY]
        expected = np.zeros_like(x)
        for i in (1, 3, 5):  # the 3 largest-|x| entries
            expected[i] = x[i]
        np.testing.assert_array_equal(decoded, expected)

    def test_topk_full_fraction_is_exact(self):
        x = np.random.default_rng(2).standard_normal(32)
        decoded = resolve_codec("topk:1.0").decode_state(
            resolve_codec("topk:1.0").encode_state({PRIMAL_KEY: x})
        )[PRIMAL_KEY]
        np.testing.assert_array_equal(decoded, x)

    def test_delta_roundtrip_against_reference(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(200)
        x = ref + 1e-3 * rng.standard_normal(200)
        pipeline = resolve_codec("delta")
        packet = pipeline.encode_state({PRIMAL_KEY: x}, reference={PRIMAL_KEY: ref})
        decoded = pipeline.decode_state(packet, reference={PRIMAL_KEY: ref})[PRIMAL_KEY]
        np.testing.assert_allclose(decoded, x, rtol=0, atol=1e-12)
        # Without a reference the stage passes through unchanged (e.g. duals).
        packet2 = pipeline.encode_state({DUAL_KEY: x})
        np.testing.assert_array_equal(pipeline.decode_state(packet2)[DUAL_KEY], x)

    def test_delta_decode_requires_reference(self):
        ref = np.ones(8)
        packet = resolve_codec("delta").encode_state({PRIMAL_KEY: ref * 2}, reference={PRIMAL_KEY: ref})
        with pytest.raises(ValueError):
            resolve_codec("delta").decode_state(packet)

    def test_composite_delta_int8_topk(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(4096)
        x = ref + 0.01 * rng.standard_normal(4096)
        pipeline = resolve_codec("delta|int8|topk:0.1")
        packet = pipeline.encode_state({PRIMAL_KEY: x}, reference={PRIMAL_KEY: ref})
        decoded = pipeline.decode_state(packet, reference={PRIMAL_KEY: ref})[PRIMAL_KEY]
        # Dropped entries decode to exactly the reference; kept entries are
        # within the int8 quantization bound of the true delta.
        delta = x - ref
        scale = np.abs(delta).max() / 127.0
        assert np.max(np.abs(decoded - x)) <= np.abs(delta).max()
        kept = decoded != ref
        assert 0 < kept.sum() <= math.ceil(0.1 * x.size) + 1
        assert np.max(np.abs((decoded - ref)[kept] - delta[kept])) <= scale / 2 + 1e-12
        # Bytes: ~0.1n values at 1B + 0.1n int32 indices, far below raw.
        assert packet.nbytes < x.nbytes / 10

    def test_quantization_after_noise_preserves_dp_release(self):
        # DP ordering: the codec encodes the *already-noised* value; decoding
        # recovers it within the quantization bound, so the released value
        # (and its guarantee) is what reaches the server, merely discretised.
        rng = np.random.default_rng(5)
        released = rng.standard_normal(300) + rng.laplace(scale=0.5, size=300)
        pipeline = resolve_codec("int8")
        decoded = pipeline.decode_state(pipeline.encode_state({PRIMAL_KEY: released}))[PRIMAL_KEY]
        scale = np.abs(released).max() / 127.0
        assert np.max(np.abs(decoded - released)) <= scale / 2 + 1e-12


class TestPacketWireFormat:
    def test_encode_decode_packet_roundtrip(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(500)
        state = {PRIMAL_KEY: ref + 0.1 * rng.standard_normal(500), DUAL_KEY: rng.standard_normal(500)}
        pipeline = resolve_codec("delta|int8|topk:0.2")
        packet = pipeline.encode_state(state, reference={PRIMAL_KEY: ref})
        blob = encode_packet(packet)
        assert isinstance(blob, bytes)
        rebuilt = decode_packet(blob)
        assert rebuilt.codec == packet.codec
        assert list(rebuilt.entries) == list(packet.entries)
        assert rebuilt.nbytes == packet.nbytes
        for key in packet.entries:
            a, b = packet.entries[key], rebuilt.entries[key]
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a.data, b.data)
        # Decoding the rebuilt packet gives the same payload bit-for-bit.
        d1 = pipeline.decode_state(packet, reference={PRIMAL_KEY: ref})
        d2 = decode_packet_state(rebuilt, reference={PRIMAL_KEY: ref})
        for key in d1:
            assert np.array_equal(d1[key], d2[key])

    def test_decode_packet_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_packet(b"NOPE1234")

    def test_payload_nbytes_dispatch(self):
        state = {"a": np.zeros(10, dtype=np.float32)}
        assert payload_nbytes(state) == 40
        packet = resolve_codec("identity").encode_state(state)
        assert payload_nbytes(packet) == 40

    def test_communicator_transports_packets(self):
        comm = SerialCommunicator()
        state = {PRIMAL_KEY: np.random.default_rng(0).standard_normal(64)}
        packet = resolve_codec("int8").encode_state(state)
        received = comm.broadcast(0, packet, [0, 1])
        assert comm.total_bytes() == 2 * packet.nbytes
        assert all(isinstance(p, UpdatePacket) for p in received.values())
        gathered = comm.collect(0, {0: packet})
        assert comm.total_bytes() == 3 * packet.nbytes
        assert isinstance(gathered[0], UpdatePacket)


class TestExchange:
    def test_lossless_exchange_echoes_bitwise(self):
        ex = PacketExchange("identity")
        payload = {GLOBAL_KEY: np.random.default_rng(0).standard_normal(32)}
        opened = ex.open_dispatch(ex.encode_dispatch(payload))
        assert np.array_equal(opened[GLOBAL_KEY], payload[GLOBAL_KEY])
        assert not ex.lossy

    def test_upload_reference_threading(self):
        ex = PacketExchange("delta|int8")
        rng = np.random.default_rng(1)
        w = rng.standard_normal(128)
        upload = {PRIMAL_KEY: w + 0.01 * rng.standard_normal(128)}
        packet = ex.encode_upload(upload, w)
        echo = ex.open_upload(packet, w)
        scale = np.abs(upload[PRIMAL_KEY] - w).max() / 127.0
        assert np.max(np.abs(echo[PRIMAL_KEY] - upload[PRIMAL_KEY])) <= scale / 2 + 1e-12


class TestIdentityMatchesSeedLoop:
    """codec="identity" must be bit-for-bit the pre-codec exchange loop."""

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm", "iceadmm"])
    def test_history_bitwise_equal_to_manual_seed_loop(self, algorithm):
        clients, test = make_clients_and_test(num_clients=2)
        cfg = base_config(algorithm, num_rounds=3)

        # Arm 1: the packet-based runner with the default identity codec.
        runner = build_federation(cfg, model_fn, clients, test)
        history = runner.run()

        # Arm 2: the seed's hand-rolled loop — dict broadcast with per-client
        # copies, client updates, dict gather with copies, server.update.
        ref = build_federation(cfg, model_fn, clients, test)
        accs = []
        for t in range(cfg.num_rounds):
            payload = ref.server.broadcast_payload()
            received = {c.client_id: {k: np.array(v, copy=True) for k, v in payload.items()} for c in ref.clients}
            uploads = {c.client_id: c.update(received[c.client_id]) for c in ref.clients}
            gathered = {cid: {k: np.array(v, copy=True) for k, v in up.items()} for cid, up in uploads.items()}
            ref.server.update(gathered)
            ref.server.sync_model()
            accs.append(ref.evaluator(ref.server.model)[0])

        assert np.array_equal(runner.server.global_params, ref.server.global_params)
        assert [r.test_accuracy for r in history.rounds] == accs
        if hasattr(ref.server, "duals"):
            for c in ref.clients:
                assert np.array_equal(runner.server.duals[c.client_id], ref.server.duals[c.client_id])

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm", "iceadmm"])
    def test_identity_comm_bytes_are_raw_tensor_bytes(self, algorithm):
        clients, test = make_clients_and_test(num_clients=2)
        cfg = base_config(algorithm, num_rounds=1)
        runner = build_federation(cfg, model_fn, clients, test)
        history = runner.run()
        dim = runner.server.vectorizer.dim
        per_vector = dim * 8  # float64
        vectors_per_round = 2 + (4 if algorithm == "iceadmm" else 2)  # down + up
        assert history.rounds[0].comm_bytes == vectors_per_round * per_vector


class TestLossyInvariants:
    @pytest.mark.parametrize("codec", ["fp16", "int8", "delta|int8", "delta|int8|topk:0.3"])
    def test_sync_iiadmm_dual_replicas_bitwise_under_lossy_codec(self, codec):
        clients, test = make_clients_and_test(num_clients=2)
        cfg = base_config("iiadmm", num_rounds=3, codec=codec)
        runner = build_federation(cfg, model_fn, clients, test)
        runner.run()
        for client in runner.clients:
            assert np.array_equal(runner.server.duals[client.client_id], client.dual), codec

    def test_sync_iiadmm_dual_replicas_bitwise_under_privacy_and_codec(self):
        clients, test = make_clients_and_test(num_clients=2)
        cfg = base_config("iiadmm", num_rounds=2, codec="delta|int8").with_privacy(5.0)
        runner = build_federation(cfg, model_fn, clients, test)
        runner.run()
        for client in runner.clients:
            assert np.array_equal(runner.server.duals[client.client_id], client.dual)

    def test_async_fedbuff_overwrites_with_delta_codec(self):
        """Delta + staleness correctness: the dispatched-global reference and
        the dual replay must both survive FedBuff buffer overwrites."""
        from repro.asyncfl import FedBuffStrategy, UniformSampler, build_async_federation
        from repro.comm import TCPLinkModel
        from repro.simulator import A100, CPU_DEVICE

        clients, test = make_clients_and_test(num_clients=4)
        cfg = base_config("iiadmm", num_rounds=8, codec="delta|int8")
        runner = build_async_federation(
            cfg,
            model_fn,
            clients,
            test,
            strategy=FedBuffStrategy(3),
            sampler=UniformSampler(4, fraction=0.5, seed=3),
            devices=[A100, A100, CPU_DEVICE, CPU_DEVICE],
            link=TCPLinkModel(),
            concurrency=2,
        )
        runner.run()
        # Staleness and overwrites actually occurred...
        assert len(runner.async_server.staleness_log) > len(runner.history)
        # ...and every replica still matches its client bitwise.
        for client in runner.clients:
            assert np.array_equal(runner.server.duals[client.client_id], client.dual)

    @pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm", "iceadmm"])
    def test_lossy_codecs_still_learn(self, algorithm):
        clients, test = make_clients_and_test(num_clients=2, seed=2)
        cfg = base_config(algorithm, num_rounds=4, local_steps=3, codec="delta|int8")
        history = build_federation(cfg, model_fn, clients, test).run()
        assert history.final_accuracy > 0.6

    def test_compressed_bytes_drive_comm_time(self):
        from repro.comm import GRPCSimCommunicator

        clients, test = make_clients_and_test(num_clients=2)

        def seconds(codec):
            cfg = base_config("fedavg", num_rounds=2, codec=codec)
            comm = GRPCSimCommunicator(rng=np.random.default_rng(0))
            runner = build_federation(cfg, model_fn, clients, test, communicator=comm)
            runner.run()
            return comm.log.total_seconds()

        assert seconds("int8") < seconds("identity")

    def test_delta_int8_cuts_round_bytes_fourfold(self):
        """``delta|int8`` puts at least 4x fewer bytes per round on the wire
        than identity — dispatch and uploads, float64 — on a model past 10^4
        parameters.  Byte counts are deterministic."""
        clients, test = make_clients_and_test(num_clients=2)

        def wide_model():
            return MLP(8, 3, hidden_sizes=(1024,), rng=np.random.default_rng(7))

        def bytes_per_round(codec):
            runner = build_federation(base_config("iiadmm", codec=codec), wide_model, clients, test)
            history = runner.run()
            assert runner.server.vectorizer.dim >= 10_000
            return history.total_comm_bytes() / len(history)

        assert bytes_per_round("identity") >= 4 * bytes_per_round("delta|int8")

    def test_runner_rejects_client_server_codec_mismatch(self):
        from repro.core import FederatedRunner

        clients, test = make_clients_and_test(num_clients=2)
        a = build_federation(base_config("iiadmm", codec="int8"), model_fn, clients, test)
        b = build_federation(base_config("iiadmm", codec="identity"), model_fn, clients, test)
        with pytest.raises(ValueError, match="codec"):
            FederatedRunner(a.server, b.clients)

    def test_legacy_update_override_still_drives_aggregation(self):
        """A plug-and-play server overriding only update() (the paper's
        documented extension API) must still run its custom aggregation."""
        from repro.core import FedAvgServer, FederatedRunner
        from repro.core.registry import register_algorithm
        from repro.core.fedavg import FedAvgClient

        calls = []

        class MyServer(FedAvgServer):
            def update(self, payloads):
                calls.append(sorted(payloads))
                super().update(payloads)

        register_algorithm("legacy_update_test", MyServer, FedAvgClient)
        clients, test = make_clients_and_test(num_clients=2)
        cfg = base_config("legacy_update_test", num_rounds=2)
        runner = build_federation(cfg, model_fn, clients, test)
        assert runner.server.uses_legacy_update
        runner.run()
        assert calls == [[0, 1], [0, 1]]
        # Built-ins themselves use the ingest/finalize path.
        plain = build_federation(base_config("fedavg"), model_fn, clients, test)
        assert not plain.server.uses_legacy_update

    def test_async_wall_clock_shrinks_with_compression(self):
        from repro.asyncfl import FedBuffStrategy, build_async_federation
        from repro.comm import TCPLinkModel

        clients, test = make_clients_and_test(num_clients=2)

        def clock(codec):
            cfg = base_config("fedavg", num_rounds=3, codec=codec)
            runner = build_async_federation(
                cfg, model_fn, clients, test, strategy=FedBuffStrategy(2), link=TCPLinkModel()
            )
            runner.run()
            return runner.now

        assert clock("int8") < clock("identity")


def test_int8_after_fp16_survives_a_scale_below_float16_range():
    """Regression (found by Hypothesis under ``-W error``): max|x| ≈ 1e-7 gives a
    float scale of ~9e-10, which cast to 0 in the float16 division and raised
    a divide-by-zero warning; the quantization now divides in float32."""
    state = {"t": np.array([1.1920929e-07, -5e-8, 0.0], dtype=np.float32)}
    pipeline = resolve_codec("fp16|int8")
    decoded = pipeline.decode_state(pipeline.encode_state(state))
    assert decoded["t"].dtype == np.float32 and np.all(np.isfinite(decoded["t"]))
    assert np.max(np.abs(decoded["t"] - state["t"])) <= 1.2e-7
    # same underflow one format up: a float32 subnormal's scale is 0 in float32
    tiny = {"t": np.array([1e-45], dtype=np.float32)}
    assert resolve_codec("int8").decode_state(resolve_codec("int8").encode_state(tiny))["t"][0] == 0.0
