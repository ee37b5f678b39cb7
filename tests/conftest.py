"""Shared test configuration: the golden-trace update flag, and the exact
IIADMM dual-replica check for async runners (``check_dual_replicas``).

``pytest --update-golden`` regenerates the checked-in golden fixtures (see
``tests/test_golden_trace.py``) from the current code instead of comparing
against them.  Use it only after an *intentional* numerics change, and review
the resulting diff of ``tests/golden/`` like any other code change.
"""

import numpy as np
import pytest

from repro.asyncfl.flight import ARRIVAL, COMPUTE_DONE
from repro.core.base import GLOBAL_KEY, PRIMAL_KEY
from repro.core.iiadmm import dual_step


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ fixtures from the current implementation",
    )


@pytest.fixture
def check_dual_replicas():
    """IIADMM's "independent but identical" dual replicas on an async
    runner, stated exactly: every client's ``dual`` is bitwise the server's
    replica advanced by the line-6 replay of its upload still in transit, if
    any — one computed but not yet encoded (a version cohort or eager future
    ran it early) or one encoded but not yet arrived (replayed from its
    decoded echo).  Under a lossy wire an in-transit client's reconcile base
    is bitwise the replica too."""
    return _check_dual_replicas


def _check_dual_replicas(runner):
    server = runner.server
    in_transit = {}
    for ev in runner._clock.snapshot_events():
        data = ev.data
        if ev.kind == COMPUTE_DONE and "upload" in data:
            in_transit[data["cid"]] = (data["upload"][PRIMAL_KEY], data["payload"][GLOBAL_KEY])
        elif ev.kind == ARRIVAL:
            echo = runner.exchange.open_upload(data["upload"], data["dispatched_global"])
            in_transit[data["cid"]] = (echo[PRIMAL_KEY], data["dispatched_global"])
    for cid in range(server.num_clients):
        client = runner.population.checkout(cid)
        replica = server.duals[cid]
        expected = replica
        if cid in in_transit:
            primal, dispatched = in_transit[cid]
            expected = replica.copy()
            dual_step(dispatched, primal, expected, np.empty_like(expected), server.rho)
            if client._lossy_wire:
                np.testing.assert_array_equal(client._dual_base, replica)
        np.testing.assert_array_equal(client.dual, expected)
        runner.population.release(cid)
    return sorted(in_transit)
