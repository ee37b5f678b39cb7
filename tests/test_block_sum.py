"""The block sum is the sum (ISSUE 20).

:class:`~repro.core.partial.ExactPartial` folds ``K`` terms by the block — a
few error-free extraction passes over a ``(K, dim)`` scratch, the level sums
carried from block to block and the last few handed to the cascade ``add`` —
instead of ``K`` TwoSum cascades.  An exact sum has one correctly rounded
value however it is computed, so everything here is bitwise:

* the accumulator: ``round()`` of rows written through ``row()`` equals the
  cascade's and, at float64, per-element ``math.fsum`` — mixed magnitudes,
  exact cancellations, subnormals, signed zeros, values next to ``finfo.max``,
  non-finite values, every block-boundary count;
* the servers: FedAvg / ICEADMM / IIADMM, flat and sharded, against a twin
  forced through one ``add`` per term;
* the wire: an edge's packed summary is a function of its replicas alone —
  the same bytes after a state round trip and after a crash-replay — and short;
* memory: the scratch stays under the fixed budget, and a vector too long to
  block allocates none;
* cohorts under a lossy wire: the IIADMM reconcile stash written per lane
  equals the per-client one, through a checkpoint taken before ``reconcile``.
"""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.serialization import decode_state_blob, encode_packet, encode_state_blob
from repro.core import MLP, FedAvgServer, FLConfig, ICEADMMServer, IIADMMServer, build_federation
from repro.core import partial as partial_module
from repro.core.base import DUAL_KEY, PRIMAL_KEY
from repro.core.models import SeededModelFn
from repro.core.partial import ExactPartial, pack_partial
from repro.data import TensorDataset
from repro.faults import FaultPlan
from repro.harness.obsreport import render_metrics
from repro.hier import build_hier_federation
from repro.obs import MetricsRegistry
from repro.scale import RunCheckpoint

DIM = 5
ROWS = 8  # block rows in the Hypothesis tests (the real limits give 64 at this dim)


def _small_blocks(dtype, dim=DIM, rows=ROWS):
    """The module's byte budget shrunk so ``rows`` vectors fill a block."""
    return mock.patch.object(partial_module, "_BLOCK_BYTES", rows * dim * np.dtype(dtype).itemsize)


def _cascade(terms, dtype, dim=DIM):
    acc = ExactPartial(dim, dtype)
    for term in terms:
        acc.add(term)
    return acc


def _blocked(terms, dtype, dim=DIM):
    acc = ExactPartial(dim, dtype)
    for term in terms:
        acc.row()[...] = term
    return acc


def _fsum(terms, dim=DIM):
    return np.array([math.fsum(float(term[lane]) for term in terms) for lane in range(dim)])


# ------------------------------------------------------------ the accumulator
def _elements(width):
    """±60 decades (±18 at float32) around 1, the subnormal floor, signed
    zeros, half-ulp ties and values a few binades under ``finfo.max``."""
    info = np.finfo(np.float32 if width == 32 else np.float64)
    top, tiny, eps = float(info.max), float(info.smallest_subnormal), float(info.eps) / 2
    special = [0.0, -0.0, 1.0, -1.0, eps, -eps, 1.0 + 2 * eps, tiny, -tiny, 3 * tiny, top / 8, -top / 8, top / 64]
    span = 2.0**60 if width == 32 else 2.0**200
    return st.one_of(
        st.floats(width=width, min_value=-span, max_value=span, allow_nan=False, allow_subnormal=True),
        st.floats(width=width, min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=True),
        st.sampled_from(special),
    )


@st.composite
def _blocks(draw):
    width = draw(st.sampled_from([32, 64]))
    dtype = np.float32 if width == 32 else np.float64
    vector = st.lists(_elements(width), min_size=DIM, max_size=DIM).map(lambda v: np.array(v, dtype=dtype))
    count = draw(st.sampled_from([0, 1, 2, 3, 4, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS, 3 * ROWS + 2]))
    terms = draw(st.lists(vector, min_size=count, max_size=count))
    if draw(st.booleans()):  # rows ∪ −rows, shuffled: every lane cancels to exactly +0.0
        terms = draw(st.permutations(terms + [np.negative(term) for term in terms]))
    return dtype, list(terms)


@settings(max_examples=300, deadline=None)
@given(_blocks())
def test_block_sum_rounds_to_the_cascade_and_to_fsum(case):
    dtype, terms = case
    with _small_blocks(dtype), np.errstate(over="ignore", invalid="ignore"):
        block, cascade = _blocked(terms, dtype), _cascade(terms, dtype)
        assert block._block_rows == ROWS
        got = block.round()
        assert got.tobytes() == cascade.round().tobytes()
        if dtype is np.float64:
            try:
                assert got.tobytes() == (_fsum(terms) + 0.0).tobytes()
            except OverflowError:  # an intermediate fsum partial past finfo.max
                pass
        # reading settled everything: the expansion now carries the whole sum
        assert block._block is None and ExactPartial.from_components(block.components, DIM, dtype).round().tobytes() == got.tobytes()


@pytest.mark.parametrize(
    "dtype, dim, decades, expected_rows",
    [(np.float64, 16384, 60, 8), (np.float32, 3, 15, 64), (np.float16, 3, 2, 8)],
)
def test_every_count_around_a_block_boundary_and_past_the_row_cap(dtype, dim, decades, expected_rows):
    """The real limits: the byte budget (8 rows of 128 KB), the row cap (64),
    and the precision cap ``2^(p/2−2)`` (8 at float16's 11 bits)."""
    rows = ExactPartial(dim, dtype)._block_rows
    assert rows == expected_rows
    rng = np.random.default_rng(0)
    for count in (0, 1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 3):
        scales = 10.0 ** rng.integers(-decades, decades + 1, size=(count, dim))
        terms = (rng.standard_normal((count, dim)) * scales).astype(dtype)
        terms[rng.random((count, dim)) < 0.05] = 0.0
        got = _blocked(terms, dtype, dim).round()
        assert got.tobytes() == _cascade(terms, dtype, dim).round().tobytes()
        if dtype is np.float64:
            lanes = rng.integers(0, dim, size=32)
            assert got[lanes].tobytes() == (_fsum(terms[:, lanes], 32) + 0.0).tobytes()


@pytest.mark.parametrize("dtype, dim, decades", [(np.float64, 16384, 150), (np.float32, 32768, 18)])
def test_a_fresh_fold_ships_its_blocks_levels_through_the_cascade(dtype, dim, decades):
    """An 8-row block whose level sums are more than half a block carries them
    through ``add``; the next block must not take that expansion as rows (only a
    running sum's, held before the fold, joins): an edge summary of such a window
    ships each block's levels cascaded in order, component for component."""
    rng = np.random.default_rng(6)
    scales = 10.0 ** rng.integers(-decades, decades + 1, size=(13, dim))
    terms = (rng.standard_normal((13, dim)) * scales).astype(dtype)
    rows = ExactPartial(dim, dtype)._block_rows
    assert rows == 8 and len(ExactPartial(dim, dtype)._extract(terms[:rows].copy())) > rows // 2
    want = ExactPartial(dim, dtype)
    for start in (0, rows):
        for level in want._extract(terms[start : start + rows].copy()):
            want.add(level)
    got = pack_partial(_blocked(terms, dtype, dim))
    assert [(key, c.tobytes()) for key, c in got.items()] == [(key, c.tobytes()) for key, c in pack_partial(want).items()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_similar_magnitude_terms_take_two_or_three_components(dtype):
    rng = np.random.default_rng(1)
    terms = (0.1 * rng.standard_normal((500, 64))).astype(dtype)
    block = _blocked(terms, dtype, 64)
    assert block.round().tobytes() == _cascade(terms, dtype, 64).round().tobytes()
    assert 2 <= len(block) <= 3
    # merging shipped components goes by the block too, and stays as short
    merged = ExactPartial(64, dtype)
    for start in range(0, 500, 50):
        merged.merge(_blocked(terms[start : start + 50], dtype, 64).components)
    assert merged.round().tobytes() == block.round().tobytes() and len(merged) <= 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("poison", ["nan", "inf", "-inf", "overflow", "near_max"])
def test_overflow_and_non_finite_blocks_take_the_cascade(dtype, poison):
    """A block that cannot be extracted is added row by row: the poisoned lanes
    read exactly what the cascade gives them, the others stay exact."""
    rng = np.random.default_rng(2)
    top = np.finfo(dtype).max
    for count in (4, ROWS, ROWS + 3, 3 * ROWS):
        terms = rng.standard_normal((count, DIM)).astype(dtype)
        if poison == "overflow":  # the true sum leaves the format
            terms[:3, 1] = top
        elif poison == "near_max":  # σ would overflow, the sum does not: still exact
            terms[:4, 1] = [top / 2, -top / 2, top / 4, top / 8]
        else:
            terms[count // 2, 1] = float(poison)
        with _small_blocks(dtype), np.errstate(over="ignore", invalid="ignore"):
            got, want = _blocked(terms, dtype).round(), _cascade(terms, dtype).round()
        np.testing.assert_array_equal(got, want)
        clean = [lane for lane in range(DIM) if lane != 1 or poison == "near_max"]
        assert got[clean].tobytes() == want[clean].tobytes()
        assert np.isfinite(got[clean]).all()
        if dtype is np.float64:
            assert got[clean].tobytes() == (_fsum(terms[:, clean], len(clean)) + 0.0).tobytes()


def test_rows_and_adds_interleave():
    """``add`` settles the rows handed out before it; a running sum takes a
    block of new terms on top of its expansion."""
    rng = np.random.default_rng(3)
    terms = rng.standard_normal((30, DIM))
    acc = ExactPartial(DIM, np.float64)
    for index, term in enumerate(terms):
        if index % 7 == 3:
            acc.add(term)
            assert acc._used == 0
        else:
            acc.row()[...] = term
    assert acc.round().tobytes() == _cascade(terms, np.float64).round().tobytes()
    with pytest.raises(ValueError, match="length 5"):
        acc.merge([np.zeros(4)])


@pytest.mark.parametrize("dim", [DIM, 300_000])
def test_observing_the_length_after_every_add_changes_nothing(dim, monkeypatch):
    """``perf/`` wraps ``add`` and reads ``len()`` after each call — also the
    calls a settling block makes itself.  Blocked (dim 5) and one-row (dim
    300,000) accumulators must end component for component the same."""
    rng = np.random.default_rng(4)
    terms = rng.standard_normal((12, dim))
    plain = _blocked(terms, np.float64, dim).components
    original, lengths = ExactPartial.add, []

    def observed(self, term):
        original(self, term)
        lengths.append(len(self))

    monkeypatch.setattr(ExactPartial, "add", observed)
    watched = _blocked(terms, np.float64, dim).components
    assert lengths and [c.tobytes() for c in watched] == [c.tobytes() for c in plain]


# ---------------------------------------------------------------- the servers
def _one_add_per_term(cls):
    """``cls`` with the parent commit's folds: a fresh accumulator and one
    cascade ``add`` per client term, per shipped component, every time."""

    class Cascading(cls):
        def partial_sum(self, payloads=None):
            ids = sorted(payloads) if payloads is not None else list(self.shard)
            acc = ExactPartial(self.vectorizer.dim, self.vectorizer.dtype)
            for cid in ids:
                acc.add(self.partial_term(cid, None if payloads is None else payloads[cid]))
            return acc

        def merge_partials(self, partials):
            acc = ExactPartial(self.vectorizer.dim, self.vectorizer.dtype)
            for components in partials:
                for component in getattr(components, "components", components):
                    acc.add(component)
            return acc.round()

        def aggregate_global(self):
            self.combine_partials([self.partial_sum().components])

    return Cascading


SERVERS = {"fedavg": FedAvgServer, "iceadmm": ICEADMMServer, "iiadmm": IIADMMServer}
POPULATION = 40


def _server(cls, algorithm, shard, dtype, adaptive_rho):
    config = FLConfig(
        algorithm=algorithm, rho=2.0, zeta=2.0, dtype=dtype, seed=0, adaptive_rho=adaptive_rho, rho_growth=1.5,
    )
    model = MLP(3, 2, hidden_sizes=(4,), rng=np.random.default_rng(3))
    counts = np.random.default_rng(4).integers(1, 50, size=POPULATION)
    return cls(model, config, POPULATION, client_sample_counts=counts, shard=shard)


def _assert_same(server, twin):
    assert server.global_params.tobytes() == twin.global_params.tobytes()
    assert server.round == twin.round
    for cid in getattr(server, "duals", ()):
        assert server.primals[cid].tobytes() == twin.primals[cid].tobytes()
        assert server.duals[cid].tobytes() == twin.duals[cid].tobytes()
    if hasattr(server, "rho"):
        assert server.rho == twin.rho


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("sharded", [False, True])
@pytest.mark.parametrize(
    "algorithm, adaptive_rho",
    [("fedavg", False), ("iceadmm", False), ("iceadmm", True), ("iiadmm", False), ("iiadmm", True)],
)
def test_servers_match_a_twin_forced_through_one_add_per_term(algorithm, adaptive_rho, sharded, dtype):
    """Windows of 3 (a minority: the ADMM running sum engages), of everyone, and
    of 3 again, with the shard re-summed for the wire in between."""
    shard = list(range(1, POPULATION, 2)) if sharded else None
    server = _server(SERVERS[algorithm], algorithm, shard, dtype, adaptive_rho)
    twin = _server(_one_add_per_term(SERVERS[algorithm]), algorithm, shard, dtype, adaptive_rho)
    dim, np_dtype = server.vectorizer.dim, server.vectorizer.dtype
    rng = np.random.default_rng(5)
    tracked = list(server.shard)
    for step, size in enumerate([3, 3, len(tracked), 3, 3, 2, len(tracked) - 1, 3]):
        cids = [int(c) for c in rng.choice(tracked, size=size, replace=False)]
        dispatched = server.global_params.copy()
        decoded = [{}, {}]
        for cid in cids:
            payload = {
                PRIMAL_KEY: (dispatched + rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)).astype(np_dtype),
                DUAL_KEY: rng.standard_normal(dim).astype(np_dtype),
            }
            for index, s in enumerate((server, twin)):
                decoded[index][cid] = s.ingest(cid, {k: v.copy() for k, v in payload.items()}, dispatched)
        for index, s in enumerate((server, twin)):
            s.finalize_round(decoded[index])
        _assert_same(server, twin)
        if algorithm != "fedavg":
            if not adaptive_rho and size == 3 and step:
                assert server.aggregate_counts[("incremental", "minority_window")] >= 1
            assert server.partial_sum().round().tobytes() == twin.partial_sum().round().tobytes()
            assert len(server.partial_sum()) <= 4
        else:
            mine, theirs = server.partial_sum(decoded[0]), twin.partial_sum(decoded[1])
            assert mine.round().tobytes() == theirs.round().tobytes()
    # a root over summaries that crossed a wire: merged by the block == merged add by add
    if algorithm != "fedavg":
        halves = [tracked[: len(tracked) // 2], tracked[len(tracked) // 2 :]]
        summaries = []
        for half in halves:
            edge = _server(SERVERS[algorithm], algorithm, half, dtype, False)
            edge.load_server_state({
                **edge.server_state(),
                "duals": {c: server.duals[c] for c in half}, "primals": {c: server.primals[c] for c in half},
                "rho": server.rho,
            })
            summaries.append(list(pack_partial(edge.partial_sum()).values()))
        assert server.merge_partials(summaries).tobytes() == twin.merge_partials(summaries).tobytes()
        assert server.merge_partials(summaries).tobytes() == server.partial_sum().round().tobytes()


# ------------------------------------------------------------------- the wire
HIER_CLIENTS, HIER_EDGES = 64, 2  # 32 per edge, as on perf's hier_int8


def _hier(algorithm, plan=None):
    """perf's ``hier_int8`` shapes (MLP 32-256-10, dim 11,018, float64,
    ``delta|int8`` client hop, cohorts of 32) on two edges."""
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((32, 10))
    x = rng.standard_normal((HIER_CLIENTS * 16, 32))
    y = np.argmax(x @ weights, axis=1)
    datasets = [TensorDataset(x[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(HIER_CLIENTS)]
    config = FLConfig(
        algorithm=algorithm, rho=2.0, zeta=2.0, lr=0.1, local_steps=1, batch_size=16, seed=0,
        topology=f"edges:{HIER_EDGES}", edge_codec="delta|int8", root_codec="identity", client_batch=32,
    )
    model_fn = SeededModelFn("mlp", (1, 1, 32), 10, seed=42, hidden_sizes=(256,))
    runner = build_hier_federation(config, model_fn, datasets)
    if plan is not None:
        runner.enable_faults(plan)
    shipped = []
    collect = runner.root_communicator.collect

    def recording(round_idx, packets):
        shipped.append({eid: encode_packet(packet) for eid, packet in packets.items()})
        return collect(round_idx, packets)

    runner.root_communicator.collect = recording
    return runner, shipped


@pytest.mark.parametrize("algorithm", ["fedavg", "iiadmm"])
def test_an_edge_summary_is_a_function_of_the_replicas_alone(algorithm):
    clean, clean_packets = _hier(algorithm)
    clean.run(3)
    crashed, crashed_packets = _hier(algorithm, FaultPlan(seed=0, edge_crash_rounds={1: (0,), 2: (1,)}))
    crashed.run(3)
    assert crashed.injector.stats.recoveries == 2
    # the replayed shard rounds put byte-identical summaries on the root hop
    assert clean_packets == crashed_packets
    assert clean.server.global_params.tobytes() == crashed.server.global_params.tobytes()
    for edge in clean.edges:
        assert 1 <= edge.summary_components <= 4
        if algorithm == "fedavg":
            continue
        before = pack_partial(edge.server.partial_sum())
        assert len(before) == edge.summary_components
        edge.server.load_server_state(decode_state_blob(encode_state_blob(edge.server.server_state())))
        after = pack_partial(edge.server.partial_sum())
        assert [(k, v.tobytes()) for k, v in before.items()] == [(k, v.tobytes()) for k, v in after.items()]
    # both path decisions are visible in the registry, and in the run report
    snapshot = MetricsRegistry().absorb_runner(clean).snapshot()
    for edge in clean.edges:
        assert snapshot["gauges"][f"server_partial_components{{tier=edge:{edge.edge_id}}}"] == edge.summary_components
    assert not [key for key in snapshot["counters"] if key.startswith("cohort_fallback_total")]
    assert "server_partial_components{tier=edge:0}" in render_metrics(snapshot)


# --------------------------------------------------------------------- memory
def test_partial_sum_scratch_stays_under_the_byte_budget():
    """2,000 payloads of dim 172 (perf's ``scale_store``): 2.75 MB of terms
    pass through one budget-sized block and its column tile."""
    population = 2000
    config = FLConfig(algorithm="fedavg", seed=0)
    server = FedAvgServer(MLP(16, 4, hidden_sizes=(8,), rng=np.random.default_rng(0)), config, population)
    dim = server.vectorizer.dim
    assert dim == 172
    rng = np.random.default_rng(1)
    payloads = {cid: {PRIMAL_KEY: rng.standard_normal(dim)} for cid in range(population)}
    server.partial_sum(payloads)  # warm: imports, caches
    tracemalloc.start()
    try:
        acc = server.partial_sum(payloads)
        components = len(acc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert components <= 3
    budget = partial_module._BLOCK_BYTES + partial_module._TILE_BYTES
    assert population * dim * 8 > 2 * budget  # the terms do not fit: rows were reused
    budget = min(budget, 2 * partial_module._MAX_BLOCK_ROWS * dim * 8)  # the row cap binds first here
    # + numpy's own fixed-size ufunc iteration buffers over the strided tile views
    assert peak <= budget + 256 * 1024


def test_a_vector_too_long_to_block_allocates_no_block():
    """perf's ``fig2_cnn``: one float32 term is 1.6 MB — more than the budget.
    Its rows cost what the cascade costs plus one reused scratch row."""
    dim = 406_922
    term = np.random.default_rng(0).standard_normal(dim).astype(np.float32)

    def peak_of(feed):
        tracemalloc.start()
        try:
            acc = ExactPartial(dim, np.float32)
            for _ in range(4):
                feed(acc)
            assert len(acc) >= 1 and acc._block is None
            return acc, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cascade, cascade_peak = peak_of(lambda acc: acc.add(term))
    rows, rows_peak = peak_of(lambda acc: np.copyto(acc.row(), term))
    assert rows._block_rows == 1
    assert rows.round().tobytes() == cascade.round().tobytes() == (4 * term).tobytes()
    assert rows_peak <= cascade_peak + term.nbytes + 64 * 1024


# ------------------------------------------------- cohorts under a lossy wire
def _lossy_runner(algorithm, client_batch, epsilon=math.inf):
    datasets = []
    for cid in range(6):
        rng = np.random.default_rng(cid)
        datasets.append(TensorDataset(rng.standard_normal((8, 6)), rng.integers(0, 3, size=8)))
    config = FLConfig(
        algorithm=algorithm, local_steps=2, batch_size=4, rho=2.0, zeta=2.0, lr=0.1, seed=0,
        codec="delta|int8", client_batch=client_batch,
    ).with_privacy(epsilon, clip_norm=0.5)
    return build_federation(config, SeededModelFn("mlp", (1, 1, 6), 3, seed=42, hidden_sizes=(5,)), datasets)


def _client_blobs(runner):
    return [encode_state_blob(client.client_state()) for client in runner.clients]


def _local_updates(runner):
    """The first half of a round by hand: dispatch and ``executor.update`` —
    stopping before ``encode_upload`` / ``reconcile``."""
    packet = runner.exchange.encode_dispatch(runner.server.broadcast_payload())
    payloads = {c.client_id: runner.exchange.open_dispatch(packet) for c in runner.clients}
    return payloads, runner.executor.update(runner.clients, payloads)


def _exchange_and_ingest(runner, payloads, uploads):
    """The second half: per-client encode, ``reconcile`` against the echo, ingest, fold."""
    decoded = {}
    for client in runner.clients:
        cid = client.client_id
        dispatched = payloads[cid]["global"]
        packet = runner.exchange.encode_upload(uploads[cid], dispatched)
        runner.exchange.reconcile(client, uploads[cid], packet, dispatched)
        decoded[cid] = runner.server.ingest(cid, packet, dispatched)
    runner.server.finalize_round(decoded)


@pytest.mark.parametrize(
    "algorithm, epsilon",
    [
        pytest.param(algorithm, epsilon, id=algorithm if epsilon == math.inf else f"{algorithm}-laplace")
        for algorithm in ("fedavg", "iceadmm", "iiadmm")
        for epsilon in (math.inf, 5.0)
    ],
)
def test_lossy_wire_cohorts_equal_per_client_through_a_checkpoint_before_reconcile(algorithm, epsilon):
    per_client, cohort = _lossy_runner(algorithm, 1, epsilon), _lossy_runner(algorithm, 4, epsilon)
    assert cohort.exchange.lossy
    for _ in range(2):
        sent = []
        for runner in (per_client, cohort):
            payloads, uploads = _local_updates(runner)
            sent.append((payloads, uploads))
        for cid in range(6):
            assert {k: v.tobytes() for k, v in sent[0][1][cid].items()} == {k: v.tobytes() for k, v in sent[1][1][cid].items()}
        # the client_state blobs — the IIADMM reconcile stash included — are equal *before* reconcile
        assert _client_blobs(per_client) == _client_blobs(cohort)
        if algorithm == "iiadmm":
            assert {"dual_base", "sent_global", "sent_rho"} <= set(cohort.clients[0].client_state())
        # a checkpoint taken right here resumes bitwise
        resumed = RunCheckpoint.from_bytes(RunCheckpoint.capture(cohort).to_bytes()).restore(
            _lossy_runner(algorithm, 4, epsilon)
        )
        assert _client_blobs(resumed) == _client_blobs(cohort)
        for runner, (payloads, uploads) in ((per_client, sent[0]), (cohort, sent[1]), (resumed, sent[1])):
            _exchange_and_ingest(runner, payloads, uploads)
        for runner in (cohort, resumed):
            assert runner.server.global_params.tobytes() == per_client.server.global_params.tobytes()
            assert _client_blobs(runner) == _client_blobs(per_client)
            for cid, dual in getattr(runner.server, "duals", {}).items():
                assert dual.tobytes() == per_client.server.duals[cid].tobytes()
                if algorithm == "iiadmm":  # "independent but identical": client == server replica
                    assert dual.tobytes() == runner.clients[cid].dual.tobytes()
    assert not cohort.executor.cohort_fallbacks and not per_client.executor.cohort_fallbacks
    for runner in (per_client, cohort):
        runner.close()


def test_cohort_fallbacks_are_counted_by_reason():
    """A lone client is a ``singleton``; neither ``lossy_codec`` nor DP is a
    reason any more.  End to end through absorb_runner."""
    def dataset(cid, samples=8):
        rng = np.random.default_rng(cid)
        return TensorDataset(rng.standard_normal((samples, 6)), rng.integers(0, 3, samples))

    datasets = [dataset(cid) for cid in range(4)]
    model_fn = SeededModelFn("mlp", (1, 1, 6), 3, seed=42, hidden_sizes=(5,))
    config = FLConfig(algorithm="iiadmm", local_steps=1, batch_size=4, seed=0, codec="delta|int8", client_batch=4)
    with build_federation(config.with_privacy(5.0), model_fn, datasets) as private:
        private.run(2)
        assert not private.executor.cohort_fallbacks
    with build_federation(config, model_fn, datasets[:3] + [dataset(3, samples=6)]) as mixed:
        mixed.run(2)  # three lanes share a cohort; the fourth has 6 samples
        assert mixed.executor.cohort_fallbacks == {"singleton": 2}
        snapshot = MetricsRegistry().absorb_runner(mixed).snapshot()
        assert snapshot["counters"]["cohort_fallback_total{reason=singleton}"] == 2
        assert "cohort_fallback_total{reason=singleton} = 2" in render_metrics(snapshot)
    with build_federation(replace(config, client_batch=1), model_fn, datasets) as unrequested:
        unrequested.run(1)
        assert not unrequested.executor.cohort_fallbacks
