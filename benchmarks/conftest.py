"""Shared pytest-benchmark configuration for the paper-reproduction benches.

Every benchmark regenerates one table or figure of the APPFL paper and prints
the reproduced rows/series so the ``--benchmark-only`` run doubles as the
experiment report.  Paper-scale runs are much larger; these benches default
to a scaled-down regime controlled by the ``REPRO_*`` environment variables.

``python -m pytest benchmarks -q`` runs everything in *smoke mode* (small
workloads, seeded); set ``REPRO_SMOKE=0`` for larger runs.  Throughput is
measured by ``perf/`` (``python3 perf/run.py``), not here.
"""

import os

import pytest


def pytest_configure(config):
    # Benchmarks are single-shot experiments, not micro-benchmarks: one round
    # with one iteration each is what we want by default.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
    # Default every bench to smoke mode so a plain `pytest benchmarks -q`
    # stays fast; REPRO_SMOKE=0 (or explicit REPRO_* overrides) scale up.
    os.environ.setdefault("REPRO_SMOKE", "1")


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments, not micro-benchmarks)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
