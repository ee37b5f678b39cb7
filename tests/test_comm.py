"""Tests for serialization, latency models, communication logs, and communicators."""

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommLog,
    CommRecord,
    Communicator,
    DeadLetter,
    GRPCChannelModel,
    GRPCSimCommunicator,
    JitterModel,
    LinkModel,
    MPIChannelModel,
    MPISimCommunicator,
    RDMALinkModel,
    SerialCommunicator,
    SerializationModel,
    TCPLinkModel,
    client_endpoint,
    decode_state_dict,
    encode_state_dict,
    flatten_state_dict,
    server_endpoint,
    state_dict_nbytes,
    unflatten_state_dict,
)


def sample_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.standard_normal((4, 1, 3, 3)),
        "conv.bias": rng.standard_normal(4),
        "fc.weight": rng.standard_normal((10, 36)),
    }


class TestSerialization:
    def test_nbytes(self):
        state = {"a": np.zeros(10, dtype=np.float64), "b": np.zeros((2, 2), dtype=np.float32)}
        assert state_dict_nbytes(state) == 10 * 8 + 4 * 4

    def test_flatten_unflatten_roundtrip(self):
        state = sample_state()
        vec, layout = flatten_state_dict(state)
        assert vec.shape == (4 * 9 + 4 + 360,)
        rebuilt = unflatten_state_dict(vec, layout)
        for k in state:
            np.testing.assert_allclose(rebuilt[k], state[k])

    def test_flatten_preserves_order(self):
        state = sample_state()
        _, layout = flatten_state_dict(state)
        assert list(layout) == list(state)

    def test_flatten_empty(self):
        vec, layout = flatten_state_dict({})
        assert vec.size == 0 and layout == {}

    def test_unflatten_copies(self):
        state = {"a": np.arange(4.0)}
        vec, layout = flatten_state_dict(state)
        rebuilt = unflatten_state_dict(vec, layout)
        rebuilt["a"][0] = 99
        assert vec[0] == 0.0

    def test_encode_decode_roundtrip(self):
        state = sample_state()
        payload = encode_state_dict(state)
        assert isinstance(payload, bytes)
        decoded = decode_state_dict(payload)
        assert list(decoded) == list(state)
        for k in state:
            np.testing.assert_allclose(decoded[k], state[k])

    def test_encode_scalar_and_int_arrays(self):
        state = {"count": np.array(7, dtype=np.int64), "flags": np.array([1, 0, 1], dtype=np.int32)}
        decoded = decode_state_dict(encode_state_dict(state))
        assert decoded["count"] == 7
        assert decoded["flags"].dtype == np.int32

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_state_dict(b"NOPExxxx")

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_flatten_dim_matches_total(self, n, m):
        state = {"w": np.zeros((n, m)), "b": np.zeros(n)}
        vec, _ = flatten_state_dict(state)
        assert vec.size == n * m + n


class TestLatencyModels:
    def test_link_transfer_time(self):
        link = LinkModel(latency=1e-3, bandwidth=1e6)
        assert link.transfer_time(1000) == pytest.approx(1e-3 + 1e-3)

    def test_link_negative_bytes(self):
        with pytest.raises(ValueError):
            LinkModel(1e-3, 1e6).transfer_time(-1)

    def test_rdma_faster_than_tcp(self):
        nbytes = 10_000_000
        assert RDMALinkModel().transfer_time(nbytes) < TCPLinkModel().transfer_time(nbytes)

    def test_serialization_costs_scale_with_bytes(self):
        ser = SerializationModel()
        assert ser.one_way_time(2_000_000) > ser.one_way_time(1_000_000)
        assert ser.receive_time(2_000_000) > ser.receive_time(1_000_000)

    def test_serialization_negative(self):
        with pytest.raises(ValueError):
            SerializationModel().one_way_time(-5)
        with pytest.raises(ValueError):
            SerializationModel().receive_time(-5)

    def test_jitter_median_near_one(self):
        jitter = JitterModel(sigma=0.85, rng=np.random.default_rng(0))
        samples = np.array([jitter.sample() for _ in range(4000)])
        assert 0.9 < np.median(samples) < 1.1

    def test_jitter_spread_matches_paper_magnitude(self):
        # Paper Figure 4b: ~30x difference between fast and slow rounds.
        jitter = JitterModel(sigma=0.85, rng=np.random.default_rng(1))
        samples = np.array([jitter.sample() for _ in range(5000)])
        ratio = np.percentile(samples, 98) / np.percentile(samples, 2)
        assert 10 < ratio < 100

    def test_jitter_zero_sigma(self):
        assert JitterModel(sigma=0.0).sample() == 1.0

    def test_jitter_negative_sigma(self):
        with pytest.raises(ValueError):
            JitterModel(sigma=-1.0)

    def test_mpi_gather_grows_with_ranks_latency(self):
        model = MPIChannelModel()
        small = model.gather_time(1000, 2)
        large = model.gather_time(1000, 256)
        assert large > small

    def test_mpi_gather_root_term_uses_total(self):
        model = MPIChannelModel()
        t_const_total = model.gather_time(1000, 8, total_nbytes=8_000_000)
        t_small_total = model.gather_time(1000, 8, total_nbytes=8_000)
        assert t_const_total > t_small_total

    def test_mpi_gather_validation(self):
        model = MPIChannelModel()
        with pytest.raises(ValueError):
            model.gather_time(100, 0)
        with pytest.raises(ValueError):
            model.gather_time(-1, 4)
        with pytest.raises(ValueError):
            model.bcast_time(100, 0)

    def test_grpc_round_trip_slower_than_mpi_p2p(self):
        nbytes = 2_000_000  # ~ the paper's CNN model size
        grpc = GRPCChannelModel(jitter=JitterModel(sigma=0.0))
        mpi = MPIChannelModel()
        assert grpc.request_time(nbytes) > 5 * mpi.p2p_time(nbytes)

    def test_grpc_round_trip_is_sum_of_requests(self):
        grpc = GRPCChannelModel(jitter=JitterModel(sigma=0.0))
        rt = grpc.round_trip_time(1000, 1000)
        assert rt == pytest.approx(2 * grpc.request_time(1000))


#: clean, faulted and backoff records over a few rounds and endpoints
comm_records = st.builds(
    CommRecord,
    round=st.integers(0, 4),
    endpoint=st.sampled_from(["server", "client:0", "client:1"]),
    op=st.sampled_from(["send_local", "recv_global", "backoff"]),
    nbytes=st.integers(0, 1 << 20),
    seconds=st.floats(0.0, 10.0, allow_nan=False),
    attempt=st.integers(0, 3),
    fault=st.sampled_from([None, None, "drop", "timeout", "corrupt"]),
)


def scan_totals(log):
    """(bytes, seconds, faulted attempts) by walking ``log.records`` — what
    the no-argument totals computed before they became running sums.  The
    seconds add left to right from 0, as ``sum()`` did up to Python 3.11
    (3.12's compensates, so there it can differ in the last bit)."""
    return (
        int(sum(r.nbytes for r in log.records)),
        float(reduce(add, (r.seconds for r in log.records), 0)),
        sum(1 for r in log.records if r.fault is not None),
    )


class TestCommLog:
    def make_log(self):
        log = CommLog()
        for rnd in range(3):
            for cid in range(2):
                log.add(CommRecord(rnd, f"client:{cid}", "send_local", 100, 0.5 + cid))
        return log

    def test_total_seconds(self):
        log = self.make_log()
        assert log.total_seconds() == pytest.approx(3 * (0.5 + 1.5))
        assert log.total_seconds("client:1") == pytest.approx(4.5)

    def test_skip_rounds(self):
        log = self.make_log()
        assert log.total_seconds("client:0", skip_rounds=[0]) == pytest.approx(1.0)

    def test_total_bytes(self):
        assert self.make_log().total_bytes() == 600
        assert self.make_log().total_bytes("client:0") == 300

    def test_per_round_and_cumulative(self):
        log = self.make_log()
        per_round = log.per_round_seconds("client:1")
        assert per_round == {0: 1.5, 1: 1.5, 2: 1.5}
        np.testing.assert_allclose(log.cumulative_seconds("client:1"), [1.5, 3.0, 4.5])
        np.testing.assert_allclose(log.cumulative_seconds("client:1", skip_rounds=[0]), [1.5, 3.0])

    def test_round_times(self):
        log = self.make_log()
        np.testing.assert_allclose(log.round_times("client:0"), [0.5, 0.5, 0.5])

    def test_endpoints_and_len_and_clear(self):
        log = self.make_log()
        assert log.endpoints() == ["client:0", "client:1"]
        assert len(log) == 6
        log.clear()
        assert len(log) == 0

    def test_empty_cumulative(self):
        assert CommLog().cumulative_seconds("client:9").size == 0

    def test_clear_drops_dead_letters_and_totals(self):
        log = self.make_log()
        log.add(CommRecord(3, "client:0", "send_local", 7, 0.25, fault="drop"))
        log.add_dead_letter(DeadLetter(3, "client:0", "send_local", 7, 1, "max_attempts"))
        epoch = log.epoch
        log.clear()
        assert (len(log), log.dead_letters) == (0, [])
        assert (log.total_bytes(), log.total_seconds(), log.failed_attempts()) == (0, 0.0, 0)
        assert log.epoch == epoch + 1, "a reader's position into the old records must read as stale"
        log.add(CommRecord(0, "client:0", "send_local", 5, 0.5))
        assert (log.total_bytes(), log.total_seconds()) == (5, 0.5)

    def test_totals_of_a_log_built_from_records(self):
        records = self.make_log().records + [CommRecord(3, "server", "gather", 9, 0.125, 1, "timeout")]
        log = CommLog(records=list(records))
        assert log.total_bytes() == 609
        assert log.total_seconds() == scan_totals(log)[1] == 6.125
        assert log.failed_attempts() == 1

    @given(
        st.lists(
            st.one_of(
                st.just("clear"),
                st.tuples(st.just("add"), comm_records),
                st.tuples(st.just("extend"), st.lists(comm_records, max_size=6)),
            ),
            max_size=30,
        ),
        st.lists(comm_records, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_running_totals_equal_the_scans(self, steps, initial):
        """However the log was built — constructed from records, ``add``,
        ``extend`` (a list or a one-shot iterator), ``clear`` — the O(1) totals
        are bitwise the full scans they replaced."""
        log = CommLog(records=list(initial))
        assert (log.total_bytes(), log.total_seconds(), log.failed_attempts()) == scan_totals(log)
        for step in steps:
            if step == "clear":
                log.clear()
            elif step[0] == "add":
                log.add(step[1])
            else:
                log.extend(iter(step[1]))
            assert (log.total_bytes(), log.total_seconds(), log.failed_attempts()) == scan_totals(log)
        rounds = {r.round for r in log.records[::2]}
        assert log.failed_attempts(rounds) == sum(
            1 for r in log.records if r.fault is not None and r.round in rounds
        )


class TestCommunicators:
    def test_endpoint_names(self):
        assert server_endpoint() == "server"
        assert client_endpoint(3) == "client:3"

    def test_serial_zero_cost_and_isolation(self):
        comm = SerialCommunicator()
        state = sample_state()
        received = comm.broadcast(0, state, [0, 1, 2])
        assert comm.log.total_seconds() == 0.0
        assert set(received) == {0, 1, 2}
        received[0]["conv.bias"][0] = 123.0
        assert state["conv.bias"][0] != 123.0

    def test_collect_isolation(self):
        comm = SerialCommunicator()
        uploads = {0: sample_state(0), 1: sample_state(1)}
        gathered = comm.collect(0, uploads)
        gathered[0]["conv.bias"][0] = 321.0
        assert uploads[0]["conv.bias"][0] != 321.0

    def test_serial_logs_bytes(self):
        comm = SerialCommunicator()
        state = sample_state()
        comm.broadcast(0, state, [0, 1])
        assert comm.total_bytes() == 2 * state_dict_nbytes(state)

    def test_mpi_communicator_charges_time(self):
        comm = MPISimCommunicator(num_processes=4)
        state = sample_state()
        comm.broadcast(0, state, list(range(8)))
        comm.collect(0, {cid: state for cid in range(8)})
        assert comm.log.total_seconds() > 0
        assert comm.client_comm_seconds(0) > 0

    def test_mpi_invalid_processes(self):
        with pytest.raises(ValueError):
            MPISimCommunicator(num_processes=0)

    def test_mpi_clients_per_process(self):
        comm = MPISimCommunicator(num_processes=5)
        assert comm.clients_per_process(203) == 41
        assert comm.clients_per_process(5) == 1

    def test_grpc_slower_than_mpi(self):
        state = sample_state()
        clients = list(range(4))
        mpi = MPISimCommunicator(num_processes=4)
        grpc = GRPCSimCommunicator(rng=np.random.default_rng(0))
        for rnd in range(5):
            mpi.broadcast(rnd, state, clients)
            mpi.collect(rnd, {c: state for c in clients})
            grpc.broadcast(rnd, state, clients)
            grpc.collect(rnd, {c: state for c in clients})
        assert grpc.log.total_seconds() > 3 * mpi.log.total_seconds()

    def test_grpc_jitter_reproducible_with_seed(self):
        state = sample_state()

        def run(seed):
            comm = GRPCSimCommunicator(rng=np.random.default_rng(seed))
            comm.broadcast(0, state, [0, 1])
            return comm.log.total_seconds()

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_mpi_round_times_analytics(self):
        comm = MPISimCommunicator(num_processes=8)
        g = comm.round_gather_time(model_nbytes=1_000_000, num_clients=64)
        b = comm.round_bcast_time(model_nbytes=1_000_000)
        assert g > 0 and b > 0

    def test_communicator_is_abstract(self):
        with pytest.raises(TypeError):
            Communicator()
