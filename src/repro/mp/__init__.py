"""Process-based multi-core execution backend.

``repro.mp`` gives the runners true multi-core local updates: a
:class:`~repro.mp.pool.ProcessWorkerPool` of spawn-context child processes,
each owning a contiguous client shard, exchanging packets through
``multiprocessing.shared_memory`` arenas (one read-only broadcast segment
per round, per-worker upload slots).  The parent folds uploads through
:class:`~repro.core.partial.ExactPartial`, so a process run is bitwise
identical to the serial run — see :mod:`repro.mp.pool`.

Select it with ``FLConfig(execution_backend="process")``; ``"thread"``
(default) keeps the GIL-bound thread pool, ``"serial"`` forces in-line
execution regardless of ``parallel_clients``.

This module imports lazily, so the pool machinery (and its
``multiprocessing`` import) loads on first use — a runner that never selects
the process backend never pays for it.
"""

from __future__ import annotations

__all__ = ["ProcessWorkerPool"]

_LAZY = {"ProcessWorkerPool": "pool"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
