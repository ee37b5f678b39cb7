"""The running exact sum is the re-sum.

:meth:`repro.core.base.ADMMServer.aggregate_global` keeps ``Σ_p (z_p − λ_p/ρ)``
in one running :class:`~repro.core.partial.ExactPartial` and replaces a client's
term — the negated old one and the new one, each written as a row of the
fold's block — instead of re-summing every tracked client.  Layers of evidence
that nothing moves:

* the accumulator itself: any interleaving of additions and removals rounds
  bitwise to a fresh accumulator over the surviving multiset, and its length
  stays bounded over 10,000 replacements — cascaded one by one, or as block
  rows folded every 16 (no longer than a block-built sum: ≤ 4 components);
* the servers: random op sequences on IIADMM / ICEADMM servers (flat and
  sharded, ``adaptive_rho`` on and off, state save/load mid-window) against a
  twin that always re-sums — a population of at most 14, so two more cases
  the twin never reaches: a minority window past one 64-row block (its level
  sums carried), and an inf in a window's block (summed row by row, the kept
  sum dropped);
* the cost: ``ingest`` makes no cascade ``add``, a minority window evaluates
  ``2·arrivals`` client terms and its fold adds only the block's level sums,
  a full-participation window costs exactly what a re-sum does;

and end to end: an async FedBuff run against the always-re-sum twin, and a
hier-async run whose edges hear from a minority per flush — there the running
sum must stay *off the wire* (only its value is history-free, not its
component count), so boundary kills still recover bitwise on a
bandwidth-limited, lossy root hop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncfl import FedBuffStrategy, UniformSampler, build_async_federation
from repro.comm.latency import LinkModel
from repro.core import MLP, FLConfig, ICEADMMServer, IIADMMServer
from repro.core.base import DUAL_KEY, PRIMAL_KEY, ADMMServer
from repro.core.partial import ExactPartial
from repro.data import TensorDataset
from repro.faults import FaultPlan
from repro.harness import histories_bitwise_equal
from repro.harness.obsreport import render_metrics
from repro.hier import RootFedBuff, build_hier_async_federation
from repro.obs import MetricsRegistry

DIM = 5
SERVERS = {"iiadmm": IIADMMServer, "iceadmm": ICEADMMServer}


# ------------------------------------------------------------ ExactPartial
def _elements(width):
    """Mixed magnitudes: the whole finite range short of overflow (subnormals
    and zeros included) plus values built to cancel or half-way round."""
    big = 2.0**100 if width == 32 else 2.0**1000
    tiny = 2.0**-149 if width == 32 else 2.0**-1074
    eps = 2.0**-24 if width == 32 else 2.0**-53
    special = [0.0, -0.0, 1.0, -1.0, eps, -eps, 1.0 + 2 * eps, tiny, -tiny, 3 * tiny, big, -big]
    return st.one_of(
        st.floats(width=width, min_value=-big, max_value=big, allow_nan=False, allow_subnormal=True),
        st.sampled_from(special),
    )


@st.composite
def _replacements(draw):
    width = draw(st.sampled_from([32, 64]))
    dtype = np.float32 if width == 32 else np.float64
    vector = st.lists(_elements(width), min_size=DIM, max_size=DIM).map(lambda v: np.array(v, dtype=dtype))
    ops = draw(st.lists(st.one_of(vector, st.integers(min_value=0, max_value=63)), min_size=1, max_size=40))
    return dtype, ops


def _fresh(terms, dtype, dim=DIM):
    acc = ExactPartial(dim, dtype)
    for term in terms:
        acc.add(term)
    return acc


@settings(max_examples=300, deadline=None)
@given(_replacements())
def test_any_interleaving_of_adds_and_removals_rounds_to_the_resum(case):
    """An array op adds that term; an integer op removes a standing one (its
    exact negation goes in) — the largest, when the integer is even, so top
    components cancel to zero lane by lane."""
    dtype, ops = case
    running, standing = ExactPartial(DIM, dtype), []
    for op in ops:
        if isinstance(op, np.ndarray):
            standing.append(op)
            running.add(op)
        elif standing:
            order = sorted(range(len(standing)), key=lambda i: float(np.abs(standing[i]).max()))
            index = order[-1] if op % 2 == 0 else order[op % len(order)]
            running.add(np.negative(standing.pop(index)))
        assert running.round().tobytes() == _fresh(standing, dtype).round().tobytes()
    for term in standing:  # and all the way back down to an exact +0.0
        running.add(np.negative(term))
    assert running.round().tobytes() == np.zeros(DIM, dtype).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_length_stays_bounded_over_ten_thousand_replacements(dtype):
    rng = np.random.default_rng(0)
    dim, population = 64, 48
    scales = 10.0 ** rng.integers(-6, 7, size=(population, 1))
    terms = (rng.standard_normal((population, dim)) * scales).astype(dtype)
    running = _fresh(terms, dtype, dim)
    longest = 0
    for step in range(10_000):
        cid = int(rng.integers(population))
        new = (terms[cid] + rng.standard_normal(dim) * 0.05 * scales[cid]).astype(dtype)
        running.add(np.negative(terms[cid]))
        running.add(new)
        terms[cid] = new
        longest = max(longest, len(running))
        if step % 1000 == 999:
            assert running.round().tobytes() == _fresh(terms, dtype, dim).round().tobytes()
    # Non-overlapping components of one lane span at most the format's
    # exponent range; compaction keeps the array count within twice that.
    assert longest <= 24


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_length_stays_bounded_over_ten_thousand_replacements_as_rows(dtype):
    """The server's form: each replacement writes the negated old term and the
    new one as block rows, and a read every 16 replacements (a FedBuff(16)
    flush) folds them — the expansion stays as short as a block-built sum."""
    rng = np.random.default_rng(0)
    dim, population = 64, 48
    scales = 10.0 ** rng.integers(-6, 7, size=(population, 1))
    terms = (rng.standard_normal((population, dim)) * scales).astype(dtype)
    running = ExactPartial(dim, dtype)
    for term in terms:
        np.copyto(running.row(), term)
    longest = 0
    for step in range(10_000):
        cid = int(rng.integers(population))
        new = (terms[cid] + rng.standard_normal(dim) * 0.05 * scales[cid]).astype(dtype)
        np.negative(terms[cid], out=running.row())
        np.copyto(running.row(), new)
        terms[cid] = new
        if step % 16 == 15:
            longest = max(longest, len(running))
        if step % 1000 == 999:
            assert running.round().tobytes() == _fresh(terms, dtype, dim).round().tobytes()
    assert longest <= 4


# ------------------------------------------------------------------ servers
def _resumming(cls):
    """``cls`` with the parent commit's fold: a fresh accumulator over every
    tracked client, each time."""

    class Resumming(cls):
        def aggregate_global(self):
            self.combine_partials([self.partial_sum().components])

    return Resumming


def _server(cls, population, shard, dtype, adaptive_rho):
    config = FLConfig(
        algorithm="iiadmm", rho=2.0, zeta=2.0, dtype=dtype, seed=0,
        adaptive_rho=adaptive_rho, rho_growth=1.5,
    )
    model = MLP(2, 2, hidden_sizes=(), rng=np.random.default_rng(3))  # dim 6
    return cls(model, config, population, shard=shard)


def _assert_same_state(server, twin):
    assert server.global_params.tobytes() == twin.global_params.tobytes()
    assert server.rho == twin.rho and server.round == twin.round
    for cid in server.shard:
        assert server.primals[cid].tobytes() == twin.primals[cid].tobytes()
        assert server.duals[cid].tobytes() == twin.duals[cid].tobytes()


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(0, 63), st.integers(0, 2**31)),
        st.tuples(st.just("ingest_again"), st.integers(0, 2**31)),  # the FedBuff overwrite case
        st.tuples(st.sampled_from(["aggregate", "aggregate", "partial_sum", "save_load"])),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(SERVERS)),
    sharded=st.booleans(),
    dtype=st.sampled_from(["float32", "float64"]),
    adaptive_rho=st.booleans(),
    population=st.integers(2, 14),
    ops=_OPS,
)
def test_server_matches_a_twin_that_always_resums(algorithm, sharded, dtype, adaptive_rho, population, ops):
    cls = SERVERS[algorithm]
    shard = list(range(0, population, 2)) if sharded else None
    server = _server(cls, population, shard, dtype, adaptive_rho)
    twin = _server(_resumming(cls), population, shard, dtype, adaptive_rho)
    dim, np_dtype = server.vectorizer.dim, server.vectorizer.dtype
    last = server.shard[0]
    for op in ops:
        if op[0] in ("ingest", "ingest_again"):
            cid = last = server.shard[op[1] % len(server.shard)] if op[0] == "ingest" else last
            rng = np.random.default_rng(op[-1])
            payload = {
                PRIMAL_KEY: (server.global_params + rng.standard_normal(dim)).astype(np_dtype),
                DUAL_KEY: rng.standard_normal(dim).astype(np_dtype),
            }
            dispatched = server.global_params.copy()
            for s in (server, twin):
                s.ingest(cid, {k: v.copy() for k, v in payload.items()}, dispatched)
        elif op[0] == "aggregate":
            server.aggregate_global()
            twin.aggregate_global()
        elif op[0] == "partial_sum":  # wire-bound: a pure function of the replicas, component for component
            mine, theirs = server.partial_sum().components, twin.partial_sum().components
            assert [c.tobytes() for c in mine] == [c.tobytes() for c in theirs]
        else:  # a save/load mid-window: the accumulator is not part of the state
            assert set(server.server_state()) == {"round", "global_params", "duals", "primals", "rho"}
            for s in (server, twin):
                restored = _server(type(s), population, shard, dtype, adaptive_rho)
                restored.load_server_state(s.server_state())
                if s is server:
                    server = restored
                else:
                    twin = restored
        _assert_same_state(server, twin)
    server.aggregate_global()
    twin.aggregate_global()
    _assert_same_state(server, twin)


# --------------------------------------------------------------------- cost
@pytest.fixture
def add_calls(monkeypatch):
    calls = []
    original = ExactPartial.add

    def counted(self, term):
        calls.append(1)
        original(self, term)

    monkeypatch.setattr(ExactPartial, "add", counted)
    return calls


@pytest.fixture
def term_calls(monkeypatch):
    calls = []
    original = ADMMServer.partial_term

    def counted(self, cid, payload=None, out=None):
        calls.append(cid)
        return original(self, cid, payload, out=out)

    monkeypatch.setattr(ADMMServer, "partial_term", counted)
    return calls


def _window(server, cids, seed):
    rng = np.random.default_rng(seed)
    dim, dtype = server.vectorizer.dim, server.vectorizer.dtype
    for cid in cids:
        payload = {PRIMAL_KEY: rng.standard_normal(dim).astype(dtype), DUAL_KEY: rng.standard_normal(dim).astype(dtype)}
        server.ingest(cid, payload, server.global_params.copy())


@pytest.mark.parametrize("algorithm", sorted(SERVERS))
def test_a_minority_window_costs_two_rows_per_arrival(algorithm, add_calls, term_calls):
    """Per client heard from: its stale term out (one row of the fold's block,
    written at its first arrival), its new term in (one more row at the fold).
    ``ingest`` makes no cascade ``add``; the fold adds only the block's level
    sums to the kept expansion."""
    population, arrivals = 40, 5
    server = _server(SERVERS[algorithm], population, None, "float64", False)
    _window(server, range(arrivals), seed=0)
    server.aggregate_global()  # the first minority window re-sums, and keeps the sum
    assert sorted(term_calls) == list(range(population))
    assert len(add_calls) <= population + server.partial_components
    assert server.aggregate_counts == {("rebuild", "first"): 1}
    for window in range(1, 6):
        del add_calls[:], term_calls[:]
        cids = [(7 * window + i) % population for i in range(arrivals)]
        _window(server, cids + cids[:2], seed=window)  # two clients report twice
        assert not add_calls and term_calls == cids  # nothing is stashed, nothing is cascaded
        server.aggregate_global()
        # two evaluations per client heard from, whatever the population
        assert len(term_calls) == 2 * arrivals and sorted(term_calls[arrivals:]) == sorted(cids)
        assert 0 < len(add_calls) <= server.partial_components <= 4
    assert server.aggregate_counts[("incremental", "minority_window")] == 5


@pytest.mark.parametrize("algorithm", sorted(SERVERS))
def test_a_full_participation_round_costs_exactly_a_resum(algorithm, add_calls, term_calls):
    population = 12
    server = _server(SERVERS[algorithm], population, None, "float32", False)
    twin = _server(_resumming(SERVERS[algorithm]), population, None, "float32", False)
    for round_idx in range(4):
        adds = []
        for s in (server, twin):
            del add_calls[:], term_calls[:]
            _window(s, range(population), seed=round_idx)
            s.aggregate_global()
            assert term_calls == list(range(population))  # one evaluation each: no stale term was removed
            adds.append(len(add_calls))
        # the re-sum's few level sums, and no second cascade to round a local sum
        assert adds[0] == server.partial_components <= adds[1] <= population + server.partial_components
        assert server._running is None  # nothing is kept alive across the next client phase
    assert server.aggregate_counts == {("rebuild", "majority_window"): 4}


def test_a_window_that_turns_majority_drops_the_accumulator(add_calls):
    server = _server(IIADMMServer, 10, None, "float64", False)
    server.aggregate_global()  # an empty window: kept
    assert server._running is not None
    del add_calls[:]
    _window(server, range(4), seed=0)
    assert not add_calls and server._running._used == 4  # each old term leaves at its arrival, as a row
    _window(server, [4], seed=1)  # the fifth of ten: re-summing is now cheaper
    assert server._running is None and not add_calls
    server.aggregate_global()
    assert server.aggregate_counts == {("rebuild", "first"): 1, ("rebuild", "majority_window"): 1}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("algorithm", sorted(SERVERS))
def test_a_minority_window_past_one_block_carries_its_level_sums(algorithm, dtype, monkeypatch):
    """45 of 100 clients, 10 of them twice: 90 rows overflow the 64-row block,
    whose level sums are carried into the next one — bitwise the re-sum."""
    extracted = []
    original = ExactPartial._extract
    monkeypatch.setattr(ExactPartial, "_extract", lambda self, block: extracted.append(len(block)) or original(self, block))
    population = 100
    server = _server(SERVERS[algorithm], population, None, dtype, False)
    twin = _server(_resumming(SERVERS[algorithm]), population, None, dtype, False)
    for window, start in enumerate([0, 30, 55, 10]):
        cids = [(start + i) % population for i in range(45)]
        for s in (server, twin):
            _window(s, cids + cids[:10], seed=window)
        del extracted[:]
        server.aggregate_global()
        twin.aggregate_global()
        _assert_same_state(server, twin)
        if window:
            assert extracted[0] == server._running._block_rows == 64  # a full block, carried
    assert server.aggregate_counts[("incremental", "minority_window")] == 3


@pytest.mark.parametrize("algorithm", sorted(SERVERS))
def test_a_non_finite_term_is_summed_row_by_row_and_never_kept(algorithm):
    """An inf in a window's block: the block goes row by row through the
    cascade, as the re-sum's does, and the kept sum is dropped — an inf or NaN
    can never be taken out again, so no later window would match the re-sum.
    An ICEADMM replica is absolute state: once the client reports finite values
    again, the model is finite again too."""
    population = 12
    server = _server(SERVERS[algorithm], population, None, "float64", False)
    twin = _server(_resumming(SERVERS[algorithm]), population, None, "float64", False)
    dim = server.vectorizer.dim
    finite, kept = np.zeros(dim), []
    for window, poison in enumerate([False, True, False, False]):
        for s in (server, twin):
            rng = np.random.default_rng(window)
            for cid in (3, 4, 5):
                primal = rng.standard_normal(dim)
                if poison and cid == 4:
                    primal[1] = np.inf
                s.ingest(cid, {PRIMAL_KEY: primal, DUAL_KEY: rng.standard_normal(dim)}, finite)
        with np.errstate(invalid="ignore"):
            server.aggregate_global()
            twin.aggregate_global()
        assert server.global_params.tobytes() == twin.global_params.tobytes()
        kept.append(server._running is not None)
    recovers = algorithm == "iceadmm"  # an IIADMM dual replays increments: its inf stays
    assert kept == [True, False, recovers, recovers]
    assert server.aggregate_counts[("rebuild", "non_finite")] == (1 if recovers else 2)
    assert np.isfinite(server.global_params).all() == recovers


def test_restore_and_rho_growth_each_force_one_named_resum():
    server = _server(ICEADMMServer, 10, None, "float64", True)
    _window(server, [0], seed=0)
    server.aggregate_global()  # rho grows: the kept sum is void at once
    assert server._running is None
    _window(server, [1], seed=1)
    server.aggregate_global()
    server.load_server_state(server.server_state())
    server.aggregate_global()
    assert server.aggregate_counts == {
        ("rebuild", "first"): 1, ("rebuild", "adaptive_rho"): 1, ("rebuild", "restore"): 1,
    }


# --------------------------------------------------------------- end to end
def _datasets(count, seed=0):
    rng = np.random.default_rng(seed)
    return [TensorDataset(rng.standard_normal((8, 4)), rng.integers(0, 2, 8)) for _ in range(count)]


def _tiny_model():
    return MLP(4, 2, hidden_sizes=(3,), rng=np.random.default_rng(3))


def _always_resum(monkeypatch):
    monkeypatch.setattr(
        ADMMServer, "aggregate_global", lambda self: self.combine_partials([self.partial_sum().components])
    )


@pytest.mark.parametrize("algorithm", sorted(SERVERS))
def test_async_fedbuff_run_is_bitwise_the_resumming_run(algorithm, monkeypatch):
    def run():
        config = FLConfig(algorithm=algorithm, local_steps=1, batch_size=4, rho=2.0, zeta=2.0, seed=0)
        runner = build_async_federation(
            config, _tiny_model, _datasets(24), strategy=FedBuffStrategy(3),
            sampler=UniformSampler(24, fraction=0.5, seed=0), concurrency=6,
        )
        runner.run(12)
        return runner

    change = run()
    counts = change.server.aggregate_counts
    assert counts[("incremental", "minority_window")] == 11 and counts[("rebuild", "first")] == 1
    snapshot = MetricsRegistry().absorb_runner(change).snapshot()
    assert snapshot["counters"]["server_aggregate_total{mode=incremental,reason=minority_window}"] == 11
    assert snapshot["gauges"]["server_partial_components"] == change.server.partial_components > 0
    assert "server_aggregate_total{mode=incremental,reason=minority_window} = 11" in render_metrics(snapshot)
    _always_resum(monkeypatch)
    reference = run()
    assert change.server.global_params.tobytes() == reference.server.global_params.tobytes()
    for cid in range(24):
        assert change.server.duals[cid].tobytes() == reference.server.duals[cid].tobytes()


@pytest.mark.parametrize("root_codec", [None, "int8"])
def test_hier_async_minority_flushes_recover_bitwise_from_boundary_kills(root_codec):
    """4 of 16 clients per flush, a root hop where packet size is time, and a
    lossy root codec that quantises component by component: a summary's
    *components* must be a function of the edge's replicas alone, or the
    recovered edge (re-summed) and the crash-free one (history) ship different
    packets — the clock moves and, under int8, so does the model."""

    def run(plan=None):
        config = FLConfig(
            algorithm="iiadmm", local_steps=1, batch_size=4, rho=2.0, zeta=2.0, seed=0, root_codec=root_codec,
        )
        runner = build_hier_async_federation(
            config, _tiny_model, _datasets(32), test_dataset=_datasets(1, seed=9)[0], topology="edges:2",
            strategy=RootFedBuff(1), edge_fraction=0.25,
            client_link=LinkModel(latency=2e-4, bandwidth=6e8), root_link=LinkModel(latency=2e-4, bandwidth=1e5),
        )
        if plan is not None:
            runner.enable_faults(plan)
        return runner, runner.run(10)

    clean, clean_history = run()
    killed, killed_history = run(FaultPlan(seed=0, edge_boundary_kills={0: (1, 3), 1: (2,)}))
    assert killed.injector.stats.recoveries == 3
    assert histories_bitwise_equal(clean_history, killed_history)
    assert clean.server.global_params.tobytes() == killed.server.global_params.tobytes()
    for edge, twin in zip(clean.edges, killed.edges):
        assert not edge.server.aggregate_counts  # an edge never keeps a running sum
        for cid in edge.shard:
            assert edge.server.duals[cid].tobytes() == twin.server.duals[cid].tobytes()
