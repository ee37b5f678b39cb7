"""Batched multi-client execution: run a cohort of clients as stacked kernels.

At 10k–100k virtual clients the models are tiny enough that per-client numpy
dispatch overhead swamps the arithmetic (``perf/``'s ``scale_store``
workload; ``core.batched.cohort_share`` is the share run here).  This module
stacks *B* same-shaped clients' flat parameter vectors into a ``(B, dim)``
matrix and runs their entire local update — forward, backward, and the
algorithm's fused parameter/dual steps — as single batched GEMM/ufunc calls
per mini-batch step, via the kernels in :mod:`repro.nn.batched` and the
stacked data movement of :class:`repro.data.CohortLoader`.  The algorithm
is not restated here: each client class has one body over rows,
``update_rows``, which ``update()`` runs at B=1 on the client's own buffers
and :func:`_run_cohort` runs on the pooled stacks of :class:`_CohortRows` —
DP's per-row clip and per-lane noise epilogue included.

Equivalence contract
--------------------
A batched cohort is **bitwise identical** to running each member's
``update()`` at float64 on the linear/MLP path (documented tolerance at
float32; see ``tests/test_batched.py``):

* the kernels replay the exact per-client op sequence (same GEMM shapes per
  lane, same reduction order within a client — see
  :mod:`repro.nn.batched`); the body's fused updates are elementwise, and
  its clip reduces each contiguous row as it does the lone vector;
* each lane's data order and DP noise come from that client's own RNG
  (:meth:`~repro.data.CohortLoader.epoch`, the lane's own ``privatize``), so
  client state — round counter, generator state, ADMM duals/primals, the
  model's parameter buffer — ends the round bit-identical to per-client
  execution, which keeps checkpoints, store spills, and mid-run fallback
  between the two paths interchangeable;
* per-client uploads are scattered back as individual payload dicts, so the
  server-side fold (``ExactPartial``) sees exactly the per-client terms it
  would have seen — aggregation stays bit-stable.

Eligibility & fallback
----------------------
Only exact instances of the three built-in clients (``FedAvgClient``,
``IIADMMClient``, ``ICEADMMClient``) with a compilable model (``MLP`` /
``LogisticRegression`` — a pure Linear/ReLU chain) qualify; user subclasses,
CNN models and leftover singleton groups run per client —
:func:`fallback_reason` names which, and
:class:`~repro.core.executor.LocalExecutor` counts them.  Neither DP nor the
wire matters: encode and ``reconcile`` stay per client after the cohort, and
the body writes IIADMM's reconcile stash per lane.  Configs that differ in a
stepping scalar or in the privacy settings never share a cohort
(:func:`_cohort_key`).  The gate lives in
:meth:`repro.core.executor.LocalExecutor.update`, keyed on
``FLConfig.client_batch``; ``client_batch=1`` never enters this module.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..data.dataloader import CohortLoader
from ..nn.batched import batched_step_gradient
from ..nn.functional import _pool
from .base import GLOBAL_KEY, BaseClient
from .fedavg import FedAvgClient
from .iceadmm import ICEADMMClient
from .iiadmm import IIADMMClient
from .models import MLP, LogisticRegression

__all__ = [
    "compile_model_spec",
    "supports_batched",
    "fallback_reason",
    "run_batched_updates",
    "count_client_steps",
]

#: Client classes with a batched kernel.  Exact types only: a subclass may
#: override update(), and silently batching it would bypass the override.
_BATCHABLE = (FedAvgClient, IIADMMClient, ICEADMMClient)


#: Memoized spec compilations.  Every client built by the same ``model_fn``
#: shares one architecture and one flat layout, so the (module-tree walking)
#: compilation runs once per architecture, not once per client per round —
#: the structural key below pins the exact model type and the full
#: name → (shape, offset) layout, which together determine the spec.
_spec_cache: Dict[Tuple, Optional[Tuple]] = {}


def compile_model_spec(client: BaseClient) -> Optional[Tuple]:
    """Compile a client's model into a layer spec for the batched kernels.

    Returns a tuple of ``("linear", weight_offset, out_features, in_features,
    bias_offset)`` / ``("relu",)`` ops — offsets into the client's flat
    parameter vector — or ``None`` when the model has no batched kernel
    (anything but an exact ``MLP``/``LogisticRegression`` built from
    Linear-with-bias and ReLU modules).
    """
    model = client.model
    vec = client.vectorizer
    cls = type(model)
    if cls is not MLP and cls is not LogisticRegression:
        return None
    # layout values are (shape_tuple, offset) — hashable as stored.
    cache_key = (cls.__name__, tuple(vec.layout.items()))
    if cache_key in _spec_cache:
        return _spec_cache[cache_key]
    spec = _compile_model_spec(model, vec)
    _spec_cache[cache_key] = spec
    return spec


def _compile_model_spec(model, vec) -> Optional[Tuple]:
    if type(model) is MLP:
        seq = model.net
        if type(seq) is not nn.Sequential:
            return None
        modules = [seq[i] for i in range(len(seq))]
    elif type(model) is LogisticRegression:
        modules = [model.linear]
    else:
        return None
    name_by_param = {id(p): name for name, p in model.named_parameters()}
    spec: List[Tuple] = []
    for mod in modules:
        if type(mod) is nn.Linear:
            if mod.bias is None:
                return None
            wname = name_by_param.get(id(mod.weight))
            bname = name_by_param.get(id(mod.bias))
            if wname is None or bname is None:
                return None
            wshape, woff = vec.layout[wname]
            _bshape, boff = vec.layout[bname]
            out_f, in_f = int(wshape[0]), int(wshape[1])
            spec.append(("linear", int(woff), out_f, in_f, int(boff)))
        elif type(mod) is nn.ReLU:
            spec.append(("relu",))
        else:
            return None
    if not spec or spec[-1][0] != "linear":
        return None
    return tuple(spec)


def supports_batched(client: BaseClient) -> bool:
    """Cheap structural gate (model compilability is checked separately)."""
    return type(client) in _BATCHABLE


def fallback_reason(client: BaseClient) -> str:
    """Why ``client`` ran per client although cohorts were requested:
    ``"client_type"`` | ``"model"``, else ``"singleton"`` (it qualifies, but
    no second lane shared its cohort key)."""
    if type(client) not in _BATCHABLE:
        return "client_type"
    if compile_model_spec(client) is None:
        return "model"
    return "singleton"


def count_client_steps(client: BaseClient) -> int:
    """Optimizer steps one ``update()`` call of this client performs.

    The unit of the throughput metric (``client_steps_per_sec``): ICEADMM
    takes ``local_steps`` full-gradient steps; the mini-batch algorithms take
    ``local_steps`` epochs of one step per batch.  Depends only on config and
    loader geometry, so it can be counted on either execution path.
    """
    cfg = client.config
    if isinstance(client, ICEADMMClient):
        return int(cfg.local_steps)
    loader = getattr(client, "loader", None)
    batches = max(1, len(loader)) if loader is not None else 1
    return int(cfg.local_steps) * batches


#: Per-FLConfig slice of the cohort key, memoized by object identity — every
#: client of a runner shares one config instance, so this tuple is built once
#: per population rather than once per client per round.  Each entry pins the
#: config object itself so its id() can never be recycled onto a different
#: config (configs are tiny and few; the pin is bounded by distinct configs).
_config_key_cache: Dict[int, Tuple] = {}


def _config_key(cfg) -> Tuple:
    entry = _config_key_cache.get(id(cfg))
    if entry is None:
        entry = (
            cfg,
            (
                cfg.local_steps,
                cfg.batch_size,
                cfg.lr,
                cfg.momentum,
                cfg.zeta,
                cfg.adaptive_rho,
                cfg.rho_growth,
                cfg.dtype,
                # Every lane is clipped and calibrated with these settings.
                cfg.privacy,
            ),
        )
        _config_key_cache[id(cfg)] = entry
    return entry[1]


def _cohort_key(client: BaseClient, spec: Tuple) -> Tuple:
    """Clients sharing this key step through identical batched shapes/scalars."""
    ld = client.loader
    return (
        type(client).__name__,
        spec,
        ld._inputs.shape,
        ld._inputs.dtype.str,
        ld._labels.dtype.str,
        int(ld.batch_size),
        float(getattr(client, "_rho", 0.0)),
        _config_key(client.config),
    )


def _same_cohort(client: BaseClient, rep: BaseClient) -> bool:
    """Fast equivalent of ``_cohort_key(client) == _cohort_key(rep)`` for an
    already-admitted representative: direct attribute comparisons, no tuple
    building or hashing.  Strictly implies key equality *and* eligibility —
    same exact client type, same config object (hence same scalars/privacy),
    same model class and flat layout (hence same compiled spec), same loader
    geometry, same rho.  A miss only costs falling back to the keyed path.
    """
    if type(client) is not type(rep) or client.config is not rep.config:
        return False
    if getattr(client, "_rho", 0.0) != getattr(rep, "_rho", 0.0):
        return False
    cl, rl = client.loader, rep.loader
    if (
        cl._inputs.shape != rl._inputs.shape
        or cl._inputs.dtype != rl._inputs.dtype
        or cl._labels.dtype != rl._labels.dtype
        or cl.batch_size != rl.batch_size
    ):
        return False
    if type(client.model) is not type(rep.model):
        return False
    return client.vectorizer.layout == rep.vectorizer.layout


# ---------------------------------------------------------------- cohort rows
class _CohortRows:
    """A cohort's rows for the algorithm bodies: pooled ``(B, dim)`` stacks
    (``Z`` starting at ``w``), gradients from :func:`batched_step_gradient`
    over the stacked lanes' data."""

    def __init__(self, lanes: Sequence[BaseClient], w: np.ndarray, spec: Tuple):
        self.lanes, self.spec = lanes, spec
        self._held: List[Tuple[Tuple, np.ndarray, Optional[str]]] = []
        self.Z = self._acquire("z")
        self.G = self._acquire("g")
        self.S = self._acquire("s")
        self.Z[:] = w  # local_params per lane: z ← w
        self.loader = CohortLoader([c.loader for c in lanes], pool=_pool)

    def _acquire(self, name: str, attr: Optional[str] = None) -> np.ndarray:
        vec = self.lanes[0].vectorizer
        shape = (len(self.lanes), vec.dim)
        key = ("cohort_" + name,) + shape + (vec.dtype.str,)
        buf = _pool.acquire(key, shape, vec.dtype)
        self._held.append((key, buf, attr))
        return buf

    def block(self, attr: str, keep: bool = True) -> np.ndarray:
        """The lanes' ``attr`` vectors as rows (``keep=False``: a round-local
        buffer, neither loaded nor written back)."""
        X = self._acquire(attr, attr if keep else None)
        if keep:
            for b, client in enumerate(self.lanes):
                np.copyto(X[b], getattr(client, attr))
        return X

    def batches(self):
        self.loader.epoch()
        for xb, yb in self.loader.batches():
            batched_step_gradient(self.spec, self.Z, self.G, xb, yb)
            yield self.G

    def full(self) -> np.ndarray:
        batched_step_gradient(self.spec, self.Z, self.G, *self.loader.full_stack())
        return self.G

    def write_back(self) -> None:
        """Hand every lane its parameters and kept blocks, as its own ``update()`` leaves them."""
        for b, client in enumerate(self.lanes):
            np.copyto(client.vectorizer.flat_params, self.Z[b])
            for _key, buf, attr in self._held:
                if attr is not None:
                    np.copyto(getattr(client, attr), buf[b])

    def release(self) -> None:
        self.loader.close()
        for key, buf, _attr in self._held:
            _pool.release(key, buf)


def _run_cohort(
    cohort: Sequence[BaseClient],
    spec: Tuple,
    payloads: Mapping[int, Mapping[str, np.ndarray]],
) -> Dict[int, Dict[str, np.ndarray]]:
    """One cohort's local update through its algorithm's body; returns the
    per-client upload payloads."""
    # The runners broadcast one global snapshot per round, so every member's
    # decoded payload is bitwise the same vector — lane 0's serves the stack.
    w = np.asarray(payloads[cohort[0].client_id][GLOBAL_KEY])
    rows = _CohortRows(cohort, w, spec)
    try:
        sent = type(cohort[0]).update_rows(cohort, w, rows)
        rows.write_back()
    finally:
        rows.release()
    return {client.client_id: upload for client, upload in zip(cohort, sent)}


def run_batched_updates(
    clients: Sequence[BaseClient],
    payloads: Mapping[int, Mapping[str, np.ndarray]],
    client_batch: int,
    tracer=None,
) -> Optional[Tuple[Dict[int, Dict[str, np.ndarray]], List[BaseClient], int]]:
    """Execute eligible clients as cohorts of up to ``client_batch`` lanes.

    Groups the clients by :func:`_cohort_key` (identical batched shapes and
    scalars), runs each group in ``client_batch``-sized chunks through
    :func:`_run_cohort`, and returns ``(uploads, leftover_clients,
    client_steps)`` — ``leftover_clients`` are the members without a batched
    kernel plus singleton chunks, to be run through the per-client path by
    the caller.  Returns ``None`` when no cohort of at least two lanes forms
    (the caller then takes the per-client path for everyone, untouched).

    With a tracer armed, one ``cohort_step`` span is emitted per cohort
    carrying the cohort size, member ids, and optimizer-step count.
    """
    # Group membership is decided by _same_cohort against each group's
    # representative (the homogeneous-population fast path: one comparison,
    # no key tuples); only a miss pays for key construction and hashing.
    # Representatives are scanned linearly, so they are capped — populations
    # with many distinct shapes route through the keyed dict instead.
    groups: Dict[Tuple, List[BaseClient]] = {}
    specs: Dict[Tuple, Tuple] = {}
    reps: List[Tuple[BaseClient, List[BaseClient], Tuple]] = []
    leftover: List[BaseClient] = []
    for client in clients:
        matched = None
        for rep, rep_members, _rep_spec in reps:
            if _same_cohort(client, rep):
                matched = rep_members
                break
        if matched is not None:
            matched.append(client)
            continue
        spec = compile_model_spec(client) if supports_batched(client) else None
        if spec is None:
            leftover.append(client)
            continue
        key = _cohort_key(client, spec)
        members = groups.get(key)
        if members is None:
            members = groups[key] = []
            specs[key] = spec
            if len(reps) < 8:
                reps.append((client, members, spec))
        members.append(client)
    if not any(len(members) > 1 for members in groups.values()):
        return None

    uploads: Dict[int, Dict[str, np.ndarray]] = {}
    total_steps = 0
    for key, members in groups.items():
        if len(members) == 1:
            leftover.append(members[0])
            continue
        spec = specs[key]
        for start in range(0, len(members), client_batch):
            cohort = members[start : start + client_batch]
            if len(cohort) == 1:
                leftover.append(cohort[0])
                continue
            t0 = time.perf_counter()
            uploads.update(_run_cohort(cohort, spec, payloads))
            t1 = time.perf_counter()
            # Cohort members share a key, hence config and loader geometry:
            # one count serves every lane.
            steps = count_client_steps(cohort[0]) * len(cohort)
            total_steps += steps
            if tracer is not None:
                tracer.emit_span(
                    "cohort_step",
                    "client",
                    t0,
                    t1,
                    lane="cohort",
                    cohort=len(cohort),
                    clients=[client.client_id for client in cohort],
                    steps=steps,
                )
    return uploads, leftover, total_steps
