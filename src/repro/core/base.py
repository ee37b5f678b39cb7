"""Plug-and-play FL base classes (`BaseServer`, `BaseClient`).

This is the extension API the APPFL paper describes in Section II-A:
"Additional user-defined FL algorithms can be implemented by inheriting our
Python class ``BaseServer`` and implementing the virtual function
``update()``. ... This additional work can be customized as well by
inheriting our ``BaseClient`` class and implementing the virtual function
``update()``."

All algorithms operate on the *flat parameter vector* view of the model (the
paper's ``w, z_p, λ_p ∈ R^m``); :class:`ModelVectorizer` converts between the
model's state dict and that vector.

Architecture & performance — the flat-parameter engine
------------------------------------------------------
:class:`ModelVectorizer` *owns* the model's memory: it allocates one
contiguous parameter buffer and one contiguous gradient buffer (each of
length ``dim``, in ``FLConfig.dtype`` precision) and rebinds every
``Parameter``'s ``.data`` and ``.grad`` to reshaped views into them.  The
invariant is:

* ``flat_params``/``flat_grads`` and the per-parameter tensors alias the same
  memory at all times.  In-place parameter mutation (``load_state_dict``,
  optimizer ``step()``, ``p.data[...] = v``) keeps the views valid; the views
  are only invalidated by re-homing the model into *another* vectorizer
  (create at most one flat vectorizer per model).
* ``load_vector`` is a single ``memcpy`` (a no-op when handed the buffer
  itself), ``grad_vector`` returns the gradient buffer *view*, ``zero_grad``
  is one fill, and ``to_vector`` returns a *copy* the caller owns.

The float64 global vectors of the seed's per-call flatten/unflatten engine are
frozen in ``tests/golden/flat_engine_params.json``; this engine still matches
them bit for bit.

The built-in algorithms are one body each over ``(B, dim)`` rows
(``update_rows``); :meth:`BaseClient.update` runs it at B=1 on
:class:`OwnRows`, whose ``Z`` *is* the model's parameter buffer — so the
fused in-place updates write straight into model memory.
"""

from __future__ import annotations

import math
from collections import Counter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..comm.codecs import UpdatePacket, resolve_codec
from ..comm.serialization import flatten_state_dict
from ..data import DataLoader, Dataset
from ..privacy import Mechanism, NoPrivacy, clip_by_norm, make_mechanism
from .config import FLConfig
from .partial import ExactPartial

__all__ = ["ModelVectorizer", "BaseClient", "OwnRows", "BaseServer", "ADMMClient", "ADMMServer"]

GLOBAL_KEY = "global"
PRIMAL_KEY = "primal"
DUAL_KEY = "dual"
SAMPLES_KEY = "num_samples"
_NO_PARTIALS = (
    "{} does not implement associative partial aggregation "
    "(partial_term/combine_partials), required for hierarchical federation"
)


class ModelVectorizer:
    """Converts a model's parameters to/from one flat vector.

    Parameters
    ----------
    model:
        The model to vectorise.
    dtype:
        Precision of the flat buffers (default float64).

    The model's parameters and gradients are re-homed as views into two
    preallocated contiguous buffers — the zero-copy engine described in the
    module docstring.  This object takes ownership of the model's parameter
    memory; create at most one vectorizer per model instance.
    """

    def __init__(self, model: nn.Module, dtype=None):
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        _, self.layout = flatten_state_dict(model.state_dict())
        self.dim = int(sum(int(np.prod(shape)) for shape, _ in self.layout.values()))
        #: the live parameter buffer — mutations hit the model
        self.flat_params = np.empty(self.dim, dtype=self.dtype)
        #: the live gradient buffer
        self.flat_grads = np.zeros(self.dim, dtype=self.dtype)
        self._pinned = []
        for name, p in model.named_parameters():
            shape, offset = self.layout[name]
            size = int(np.prod(shape)) if shape else 1
            view = self.flat_params[offset : offset + size].reshape(shape)
            np.copyto(view, p.data)
            p.data = view
            p.pin_grad(self.flat_grads[offset : offset + size].reshape(shape))
            self._pinned.append(p)

    # ------------------------------------------------------------------- API
    def to_vector(self) -> np.ndarray:
        """Snapshot the model's current parameters into a new flat vector."""
        return self.flat_params.copy()

    def load_vector(self, vector: np.ndarray) -> None:
        """Write a flat vector back into the model parameters (in place): one
        buffer copy, or a no-op when ``vector`` *is* the parameter buffer (the
        zero-copy hot path of ``batch_gradient``).
        """
        if vector.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {vector.shape}")
        if vector is not self.flat_params:
            np.copyto(self.flat_params, vector)

    def grad_vector(self) -> np.ndarray:
        """Current parameter gradients as one flat vector (zeros where absent):
        the persistent gradient buffer *view* (no copy), overwritten by the
        next backward pass after :meth:`zero_grad`.
        """
        return self.flat_grads

    def zero_grad(self) -> None:
        """Clear all gradients (one vectorised fill)."""
        self.flat_grads.fill(0.0)
        for p in self._pinned:
            p._grad_seen = False


class BaseClient:
    """Base class for FL clients.

    Subclasses implement :meth:`update`, which receives the server's payload
    (the global model) and returns the payload this client sends back.

    Parameters
    ----------
    client_id:
        Integer id of this client (0-based).
    model:
        The client's local copy of the training model.
    dataset:
        The client's private training data.
    config:
        Shared run configuration.
    rng:
        Random generator controlling batching and DP noise for this client.
    """

    def __init__(
        self,
        client_id: int,
        model: nn.Module,
        dataset: Dataset,
        config: FLConfig,
        rng: Optional[np.random.Generator] = None,
    ):
        self.model = model
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed + 1000 + client_id)
        self.vectorizer = ModelVectorizer(model, dtype=config.np_dtype)
        self._dtype = self.vectorizer.dtype
        # Round-local scratch vector for the algorithms' fused in-place updates.
        self._scratch = np.empty(self.vectorizer.dim, dtype=self._dtype)
        self.bind_data(client_id, dataset)
        self.loss_fn = nn.CrossEntropyLoss()
        self.mechanism: Mechanism = make_mechanism(
            config.privacy.epsilon,
            kind=config.privacy.mechanism,
            rng=self.rng,
            **({"delta": config.privacy.delta} if config.privacy.mechanism == "gaussian" else {}),
        )
        self.round = 0

    def bind_data(self, client_id: int, dataset: Dataset) -> None:
        """Take ``client_id``'s id and data, with a shuffling loader drawing from :attr:`rng`."""
        self.client_id = int(client_id)
        self.dataset = dataset
        self.loader = DataLoader(
            dataset,
            batch_size=self.config.batch_size,
            shuffle=True,
            rng=self.rng,
            # Cast batches once at materialisation so the forward pass never
            # converts per batch.
            dtype=self._dtype,
        )

    # ------------------------------------------------------------------ hooks
    def update(self, global_payload: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run one round of local training; return the payload to upload.

        Runs :meth:`update_rows` at B=1; a plug-and-play client overrides this
        instead.  Differential privacy note: clip/noise the returned values
        *here* (via :meth:`clip_gradient` / :meth:`privatize`).  The wire codec
        encodes the payload only after this method returns, so quantization
        and sparsification are post-processing of the already-released value
        and the DP guarantee survives any configured codec stack.
        """
        w = np.asarray(global_payload[GLOBAL_KEY])
        return self.update_rows([self], w, OwnRows(self, w))[0]

    @staticmethod
    def update_rows(lanes: Sequence["BaseClient"], w: np.ndarray, rows) -> List[Dict[str, np.ndarray]]:
        """One round of ``B`` same-config clients over ``(B, dim)`` rows: their uploads."""
        raise NotImplementedError("BaseClient subclasses must implement update() or update_rows()")

    def reconcile_upload(
        self, sent: Mapping[str, np.ndarray], echo: Mapping[str, np.ndarray]
    ) -> None:
        """React to what the server will actually decode from this upload.

        Called by the exchange layer after the payload returned by
        :meth:`update` was encoded with a *lossy* codec stack: ``sent`` is
        the exact payload this client produced, ``echo`` the decoded form
        every server-side consumer will see.  Stateful clients whose
        bookkeeping must mirror the server's — IIADMM's "independent but
        identical" dual replicas — replay that bookkeeping here against
        ``echo``.  Never called for lossless (identity) stacks; the default
        is a no-op.
        """

    # ------------------------------------------------------- persistent state
    def client_state(self) -> Dict[str, object]:
        """This client's *persistent* cross-round state as a plain tree.

        Everything a freshly constructed client (same id / dataset / config)
        needs to continue training bit-identically: the round counter and the
        RNG bit-generator state (one generator drives batching and DP noise —
        the loader and mechanism share ``self.rng``, so restoring it here
        restores theirs too).  Algorithm subclasses extend this with their
        own vectors (ADMM duals, primals, ρ).  Model parameters are *not*
        included: every round begins by overwriting them with the dispatched
        global (:meth:`local_params`), so they carry no information between
        rounds.

        The returned arrays are live references, not copies — serialise (see
        :func:`repro.comm.serialization.encode_state_blob`) or copy before
        mutating.  This is what :class:`repro.scale.ClientStateStore` spills
        on eviction and what run checkpoints persist per client.
        """
        return {"round": self.round, "rng": self.rng.bit_generator.state}

    def load_client_state(self, state: Mapping[str, object]) -> None:
        """Restore state captured by :meth:`client_state` (inverse, bit-exact)."""
        self.round = int(state["round"])  # type: ignore[arg-type]
        self.rng.bit_generator.state = state["rng"]

    # ------------------------------------------------------------- primitives
    @property
    def num_samples(self) -> int:
        """Number of private training samples this client holds."""
        return len(self.dataset)

    def local_params(self, init: np.ndarray) -> np.ndarray:
        """Round-local working parameters, initialised to ``init``: the
        model's own parameter buffer (zero-copy)."""
        z = self.vectorizer.flat_params
        np.copyto(z, init)
        return z

    def batch_gradient(self, params: np.ndarray, batch_x: np.ndarray, batch_y: np.ndarray) -> np.ndarray:
        """Mean loss gradient over one batch, evaluated at flat parameters ``params``.

        The returned vector is the persistent gradient buffer *view* — consume
        it before the next ``batch_gradient`` call.
        """
        self.vectorizer.load_vector(params)
        self.vectorizer.zero_grad()
        logits = self.model(nn.Tensor(batch_x, dtype=self._dtype))
        loss = self.loss_fn(logits, batch_y)
        loss.backward()
        return self.vectorizer.grad_vector()

    def full_gradient(self, params: np.ndarray) -> np.ndarray:
        """Mean loss gradient over this client's entire dataset (used by ICEADMM)."""
        x, y = self.loader.full_batch()
        return self.batch_gradient(params, x, y)

    def clip_gradient(self, grad: np.ndarray) -> np.ndarray:
        """Clip a gradient to the configured norm when privacy is enabled."""
        if not self.config.privacy.enabled:
            return grad
        return clip_by_norm(grad, self.config.privacy.clip_norm)

    def privatize(self, values: np.ndarray, sensitivity: float) -> np.ndarray:
        """Apply the configured output-perturbation mechanism to ``values``."""
        out = self.mechanism.perturb_array(values, sensitivity)
        # Keep the pipeline dtype: float64 noise must not upcast a float32 run.
        return np.asarray(out, dtype=values.dtype)

    def local_loss(self, params: np.ndarray) -> float:
        """Training loss of this client's data at flat parameters ``params``."""
        x, y = self.loader.full_batch()
        self.vectorizer.load_vector(params)
        with nn.no_grad():
            logits = self.model(nn.Tensor(x, dtype=self._dtype))
        return float(nn.functional.cross_entropy(logits, y).item())


class OwnRows:
    """Rows at B=1: ``(1, dim)`` views of one client's parameters ``Z`` (set to
    ``w``), scratch ``S`` and :meth:`block` vectors (its own, whatever ``keep``
    says); gradients from its tape."""

    def __init__(self, client: BaseClient, w: np.ndarray):
        self.client, self.z = client, client.local_params(w)
        self.Z, self.S = self.z[None], client._scratch[None]

    def block(self, attr: str, keep: bool = True) -> np.ndarray:
        return getattr(self.client, attr)[None]

    def batches(self):
        for batch_x, batch_y in self.client.loader:
            yield self.client.batch_gradient(self.z, batch_x, batch_y)[None]

    def full(self) -> np.ndarray:
        return self.client.full_gradient(self.z)[None]


class BaseServer:
    """Base class for FL servers.

    Subclasses implement the round aggregation — either the granular pair
    the runners drive directly:

    * :meth:`ingest` — per-upload decode + bookkeeping, called exactly once
      per arriving client upload (packets are decoded here, the single
      server-side decode point);
    * :meth:`finalize_round` — produce the next global model from the
      round's decoded uploads (stored in :attr:`global_params`);

    or the classic one-shot :meth:`update` of the paper's plug-and-play API
    ("inherit ``BaseServer`` and implement the virtual function
    ``update()``"), which the default :meth:`finalize_round` delegates to —
    existing user-defined algorithms keep working unchanged.

    Associative partial aggregation
    -------------------------------
    The built-in algorithms additionally split their aggregation into
    :meth:`partial_term` / :meth:`partial_sum` (fold per-client contributions
    into an :class:`~repro.core.partial.ExactPartial`) and
    :meth:`combine_partials` (turn merged partials into the next global
    model).  Because the partials are *exact*, the split is associative: the
    flat ``finalize_round`` (one partial over everyone) and a hierarchical
    run (one partial per edge shard, merged at the root — see
    :mod:`repro.hier`) produce bit-for-bit the same global model.

    ``shard`` restricts which client ids this server instance tracks
    per-client state for (ADMM primal/dual replicas).  ``num_clients`` and
    ``client_sample_counts`` always describe the *whole* population — the
    ``1/P`` and sample-weight terms of the global updates — so an edge
    aggregator over a shard computes exactly the per-client terms the flat
    server would.  ``None`` (the default) tracks everyone.
    """

    #: True when :meth:`ingest` absorbs every upload into per-client state that
    #: aggregation then spans (:class:`ADMMServer`): runners stream uploads in, collecting none.
    absorbs_uploads = False
    #: folds per ("incremental" | "rebuild", reason) and the latest one's
    #: component count; only :class:`ADMMServer` keeps a running sum to fold
    aggregate_counts: Mapping[Tuple[str, str], int] = MappingProxyType({})
    partial_components = 0

    def require_fixed_rho(self, where: str) -> None:
        """Raise if the penalty schedule cannot survive ``where`` (:class:`ADMMServer`)."""

    def __init__(
        self,
        model: nn.Module,
        config: FLConfig,
        num_clients: int,
        client_sample_counts: Optional[Sequence[int]] = None,
        shard: Optional[Sequence[int]] = None,
    ):
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        self.model = model
        self.config = config
        self.num_clients = int(num_clients)
        if shard is None:
            self.shard: Tuple[int, ...] = tuple(range(self.num_clients))
        else:
            self.shard = tuple(sorted(int(c) for c in shard))
            if any(not 0 <= c < self.num_clients for c in self.shard):
                raise ValueError(f"shard ids must lie in [0, {self.num_clients})")
            if len(set(self.shard)) != len(self.shard):
                raise ValueError("shard ids must be unique")
        self.vectorizer = ModelVectorizer(model, dtype=config.np_dtype)
        self.global_params = self.vectorizer.to_vector()
        # Scratch vector for in-place aggregation updates.
        self._scratch = np.empty(self.vectorizer.dim, dtype=self.vectorizer.dtype)
        if client_sample_counts is None:
            self.client_sample_counts = np.ones(num_clients)
        else:
            if len(client_sample_counts) != num_clients:
                raise ValueError("client_sample_counts length must equal num_clients")
            self.client_sample_counts = np.asarray(client_sample_counts, dtype=np.float64)
        self.round = 0

    # ------------------------------------------------------------------ hooks
    def ingest(
        self,
        cid: int,
        payload: "Mapping[str, np.ndarray] | UpdatePacket",
        dispatched_global: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Decode one client upload; returns the decoded payload.

        This is the *single* server-side decode point: an
        :class:`~repro.comm.codecs.UpdatePacket` is decoded here exactly
        once (``dispatched_global`` — the global snapshot the client trained
        against, as threaded through by the sync and async runners — is the
        delta-codec reference), and an already-decoded mapping passes
        through untouched.  Subclasses override to add per-upload state
        bookkeeping (e.g. IIADMM's dual replay) and must call ``super()``.
        """
        if isinstance(payload, UpdatePacket):
            return resolve_codec(payload.codec).decode_state(
                payload, reference={PRIMAL_KEY: np.asarray(dispatched_global)}
            )
        return dict(payload)

    @property
    def uses_legacy_update(self) -> bool:
        """True when this server's most-derived ``update()`` override is newer
        than its most-derived ``finalize_round()`` override.

        That is the signature of a plug-and-play server that customised only
        ``update()`` (possibly subclassing a built-in algorithm): the runners
        then drive ``update()`` directly — the pre-codec contract — instead
        of the ingest/finalize pair, so the override is never silently
        bypassed.
        """
        update_cls = next(c for c in type(self).__mro__ if "update" in vars(c))
        finalize_cls = next(c for c in type(self).__mro__ if "finalize_round" in vars(c))
        return update_cls is not finalize_cls and issubclass(update_cls, finalize_cls)

    def finalize_round(self, payloads: Mapping[int, Mapping[str, np.ndarray]]) -> None:
        """Produce the next global model from one round's *decoded* uploads.

        ``payloads`` were each passed through :meth:`ingest` already; no
        decoding happens here.  The default delegates to the legacy
        :meth:`update` so plug-and-play servers that only override
        ``update()`` keep working.
        """
        if type(self).update is BaseServer.update:
            raise NotImplementedError(
                "BaseServer subclasses must implement finalize_round() (or the legacy update())"
            )
        self.update(payloads)

    def update(self, payloads: Mapping[int, Mapping[str, np.ndarray]]) -> None:
        """Aggregate client payloads into a new global model (in place).

        One-shot convenience equal to ingesting every payload against the
        current global model and finalizing the round — the synchronous
        pre-codec contract.  Accepts raw dicts or ``UpdatePacket`` payloads.
        """
        if type(self).finalize_round is BaseServer.finalize_round:
            raise NotImplementedError("BaseServer subclasses must implement update()")
        if not payloads:
            raise ValueError("no client payloads to aggregate")
        w = self.global_params
        self.finalize_round({cid: self.ingest(cid, payload, w) for cid, payload in payloads.items()})

    # ------------------------------------------- associative partial aggregation
    def partial_term(
        self,
        cid: int,
        payload: Optional[Mapping[str, np.ndarray]] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Client ``cid``'s additive contribution to the global update.

        FedAvg derives it from the round's decoded ``payload``; the ADMM
        family from the per-client state :meth:`ingest` already absorbed
        (``payload`` unused).  Written into ``out`` when given (a row of an
        :class:`~repro.core.partial.ExactPartial` block — how
        :meth:`partial_sum` sums); otherwise the returned vector may alias
        scratch memory — consume it before the next call.
        """
        raise NotImplementedError(_NO_PARTIALS.format(type(self).__name__))

    def partial_sum(
        self, payloads: Optional[Mapping[int, Mapping[str, np.ndarray]]] = None
    ) -> ExactPartial:
        """Exactly fold per-client terms into one associative partial.

        With ``payloads`` (FedAvg style) the fold runs over the uploads'
        client ids; without (ADMM style) over every id this server tracks
        (:attr:`shard`).  Exactness makes the result independent of both the
        fold order and how clients are grouped across servers.
        """
        ids = sorted(payloads) if payloads is not None else self.shard
        acc = ExactPartial(self.vectorizer.dim, self.vectorizer.dtype)
        for cid in ids:
            self.partial_term(cid, None if payloads is None else payloads[cid], out=acc.row())
        return acc

    def combine_partials(
        self,
        partials: Sequence[Sequence[np.ndarray]],
        participants: Sequence[int] = (),
    ) -> None:
        """Produce the next global model from merged exact partials.

        ``partials`` are component sequences from :attr:`ExactPartial.
        components` (one per shard), or the flat run's one local
        :class:`~repro.core.partial.ExactPartial` itself;
        ``participants`` are the client ids behind them, for algorithms whose
        normaliser depends on who reported (FedAvg's weight renormalisation).
        Merging is exact, so any grouping of the same client terms yields a
        bit-identical global model.
        """
        raise NotImplementedError(_NO_PARTIALS.format(type(self).__name__))

    def merge_partials(self, partials: "Sequence[Sequence[np.ndarray] | ExactPartial]") -> np.ndarray:
        """The exact sum of ``partials``' components, correctly rounded.  A
        lone local accumulator is rounded as it stands; components that
        crossed a wire are merged (by the block) first."""
        if len(partials) == 1 and isinstance(partials[0], ExactPartial):
            return partials[0].round()
        acc = ExactPartial(self.vectorizer.dim, self.vectorizer.dtype)
        for components in partials:
            acc.merge(components)
        return acc.round()

    @property
    def supports_partials(self) -> bool:
        """True when this server implements the partial-aggregation split."""
        return (
            type(self).partial_term is not BaseServer.partial_term
            and type(self).combine_partials is not BaseServer.combine_partials
        )

    # ------------------------------------------------------- persistent state
    def server_state(self) -> Dict[str, object]:
        """The server's persistent state as a plain tree (see
        :meth:`BaseClient.client_state` for the contract).  Subclasses extend
        with their per-client aggregation state (ADMM primals/duals, ρ)."""
        return {"round": self.round, "global_params": self.global_params}

    def load_server_state(self, state: Mapping[str, object]) -> None:
        """Restore state captured by :meth:`server_state` (bit-exact); also
        rewrites the server model from the restored global vector."""
        self.round = int(state["round"])  # type: ignore[arg-type]
        self.global_params = np.array(state["global_params"], copy=True)
        self.sync_model()

    # ------------------------------------------------------------------- API
    def broadcast_payload(self) -> Dict[str, np.ndarray]:
        """Payload sent to every client at the start of a round."""
        return {GLOBAL_KEY: self.global_params.copy()}

    def client_weights(self) -> np.ndarray:
        """Aggregation weights: by sample count if configured, else uniform."""
        if self.config.weighted_aggregation:
            total = self.client_sample_counts.sum()
            if total > 0:
                return self.client_sample_counts / total
        return np.full(self.num_clients, 1.0 / self.num_clients)

    def sync_model(self) -> None:
        """Write the current global parameter vector into the server's model."""
        self.vectorizer.load_vector(self.global_params)


class ADMMClient(BaseClient):
    """Client state shared by the IADMM family: the dual ``λ_p`` (zero at first, like
    the server's replica — Algorithm 1 line 1), the last sent primal ``z_p``, and ``ρ_t``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dual = np.zeros(self.vectorizer.dim, dtype=self.vectorizer.dtype)
        self.primal = self.vectorizer.to_vector()
        self._rho = self.config.rho

    @property
    def rho(self) -> float:
        """Current penalty parameter ρ_t (may grow when adaptive_rho is set)."""
        return self._rho

    def client_state(self) -> Dict[str, object]:
        return {**super().client_state(), "dual": self.dual, "primal": self.primal, "rho": self._rho}

    def load_client_state(self, state: Mapping[str, object]) -> None:
        super().load_client_state(state)
        np.copyto(self.dual, np.asarray(state["dual"]))
        self.primal = np.array(state["primal"], copy=True)
        self._rho = float(state["rho"])  # type: ignore[arg-type]


class ADMMServer(BaseServer):
    """Server half shared by the IADMM family (ICEADMM, IIADMM): a last-known
    primal/dual replica per tracked client and the global update
    ``w = (1/P) Σ_p (z_p − λ_p/ρ)`` over *every* replica (the
    partial-participation form).  Subclasses say how one upload changes a
    replica — :meth:`_absorb`.

    **A flat aggregation costs O(arrivals), not O(population).**
    :meth:`aggregate_global` keeps the sum in one running
    :class:`~repro.core.partial.ExactPartial`: :meth:`ingest` writes the
    negated term of a client about to change as a row of its block (there and
    then, so nothing is stashed), the fold adds the new terms of everyone
    heard from as rows and reads the block once — two term evaluations per
    client heard from, no cascade ``add`` per arrival, and, the sum being
    exact, the same real number, so ``round()`` returns the re-sum's bits.
    The server picks the path from its own traffic: a window that touched
    fewer than half the shard updates in place; any other re-sums
    (:meth:`partial_sum`) and keeps nothing alive across the next client
    phase.  It is *derived* state: never in :meth:`server_state`, and dropped
    (the next fold re-sums) by :meth:`load_server_state`, whenever ρ changes
    (``adaptive_rho``: every round) and once it holds an inf or NaN, which no
    removal takes out.  Only its *value* is history-free, so it never leaves
    the server: :meth:`partial_sum` — what a hier edge puts on the wire —
    stays the fresh re-sum.  Change :attr:`primals` / :attr:`duals` only
    through ``ingest`` and ``load_server_state``.
    """

    absorbs_uploads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Replicas of the tracked ids only: everyone (flat) or one edge's shard.
        dim, dtype = self.vectorizer.dim, self.vectorizer.dtype
        self.duals = {cid: np.zeros(dim, dtype=dtype) for cid in self.shard}
        self.primals = {cid: self.vectorizer.to_vector() for cid in self.shard}
        self._rho = self.config.rho
        #: the kept sum, short of the terms of the clients heard from since the last fold
        self._running: Optional[ExactPartial] = None
        self._touched: set = set()
        self._stale_reason: Optional[str] = None
        self.aggregate_counts: Counter = Counter()

    @property
    def rho(self) -> float:
        """Current penalty parameter ρ_t (grows when ``adaptive_rho`` is set)."""
        return self._rho

    def require_fixed_rho(self, where: str) -> None:
        """Clients grow ρ per *their own* update, each server per aggregation of its
        own: under partial participation or a root/edge split the duals drift apart."""
        if self.config.adaptive_rho:
            raise ValueError(
                f"adaptive_rho is not supported by {where} for ADMM-family "
                f"algorithms: the per-client and per-server rho schedules diverge"
            )

    def _absorb(self, cid: int, payload: Mapping[str, np.ndarray], dispatched_global: np.ndarray) -> None:
        """Apply one decoded upload to client ``cid``'s replica."""
        raise NotImplementedError

    def ingest(self, cid: int, payload, dispatched_global: np.ndarray) -> Dict[str, np.ndarray]:
        """Decode one upload (``super().ingest``, the single decode point) and
        absorb it into the client's replica; call exactly once per upload."""
        if cid not in self.duals:
            raise KeyError(f"client {cid} is not tracked by this server (shard={self.shard[:8]}…)")
        if cid not in self._touched:  # a repeat arrival's stale term is already out
            self._touched.add(cid)
            if self._running is not None:
                if 2 * len(self._touched) >= len(self.shard):
                    self._running = None  # a majority window: re-summing is cheaper — free it now
                else:  # its stale term leaves as a row of the fold's block
                    stale = self.partial_term(cid, out=self._running.row())
                    np.negative(stale, out=stale)
        payload = super().ingest(cid, payload, dispatched_global)
        self._absorb(cid, payload, dispatched_global)
        return payload

    def _forget_running(self, reason: str) -> None:
        self._running, self._touched, self._stale_reason = None, set(), reason

    def partial_term(
        self, cid: int, payload: Optional[Mapping[str, np.ndarray]] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``z_p − λ_p/ρ`` from the last-known replica (into ``out``, else scratch memory)."""
        s = self._scratch if out is None else out
        np.divide(self.duals[cid], self._rho, out=s)
        np.subtract(self.primals[cid], s, out=s)
        return s

    def combine_partials(self, partials: Sequence[Sequence[np.ndarray]], participants: Sequence[int] = ()) -> None:
        """The global update over exactly merged shard partials.  ``participants``
        is unused: every client contributes its last-known state, so the
        normaliser is always the full population ``P``."""
        self.global_params = self.merge_partials(partials) / self.num_clients
        if self.config.adaptive_rho:
            self._rho *= self.config.rho_growth
            self._forget_running("adaptive_rho")
        self.round += 1
        self.sync_model()

    def aggregate_global(self) -> None:
        """The global update over all tracked clients' last-known state: the kept sum
        brought up to date, or :meth:`partial_sum`'s re-sum (kept after a minority window)."""
        touched, self._touched = self._touched, set()
        acc = self._running
        if acc is not None:
            for cid in touched:  # the new terms, as one block
                self.partial_term(cid, out=acc.row())
            key = ("incremental", "minority_window")
        else:
            acc = self.partial_sum()
            minority = 2 * len(touched) < len(self.shard)
            if minority:
                self._running = acc
            key = ("rebuild", self._stale_reason or ("first" if minority else "majority_window"))
            self._stale_reason = None
        self.aggregate_counts[key] += 1
        self.partial_components = len(acc)
        self.combine_partials([acc])
        if self._running is not None and not np.isfinite(self.global_params).all():
            self._forget_running("non_finite")

    def finalize_round(self, payloads: Mapping[int, Mapping[str, np.ndarray]]) -> None:
        """Per-upload state was absorbed by :meth:`ingest`; only the global update remains."""
        self.aggregate_global()

    def server_state(self) -> Dict[str, object]:
        return {**super().server_state(), "duals": self.duals, "primals": self.primals, "rho": self._rho}

    def load_server_state(self, state: Mapping[str, object]) -> None:
        super().load_server_state(state)
        self.duals = {int(c): np.array(v, copy=True) for c, v in state["duals"].items()}  # type: ignore[union-attr]
        self.primals = {int(c): np.array(v, copy=True) for c, v in state["primals"].items()}  # type: ignore[union-attr]
        self._rho = float(state["rho"])  # type: ignore[arg-type]
        self._forget_running("restore")
