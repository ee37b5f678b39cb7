"""Composable wire codecs and the typed :class:`UpdatePacket`.

Every model payload that crosses a (simulated) link — the server's global
broadcast and each client's local update — travels as one ``UpdatePacket``:
the codec-encoded tensors, the layout needed to rebuild them, the per-stage
codec metadata, and the *true* on-wire byte count that drives every
communication cost model in :mod:`repro.comm` and the asyncfl virtual clock.

A codec *stack* is a ``|``-separated spec string, applied left-to-right at
encode time and right-to-left at decode time::

    FLConfig(codec="identity")            # bit-for-bit passthrough (default)
    FLConfig(codec="fp16")                # half-precision cast (2x / 4x smaller)
    FLConfig(codec="int8")                # per-tensor symmetric affine quantization
    FLConfig(codec="topk:0.1")            # keep the 10% largest-magnitude entries
    FLConfig(codec="delta|int8")          # quantize the update *relative to* the
                                          # dispatched global model
    FLConfig(codec="delta|int8|topk:0.1") # sparse quantized delta

Stages
------
``identity``
    No-op.  A pure-identity stack is guaranteed bit-for-bit transparent and
    reports exactly the raw tensor bytes, so the default configuration
    reproduces the pre-codec behaviour of the repo exactly.
``fp16``
    Casts floating payloads to IEEE half precision (relative error
    ``<= 2^-11`` per element for values in the fp16 range).
``int8``
    Per-tensor *symmetric* affine quantization: ``scale = max|x| / 127``,
    ``q = round(x / scale)`` stored as int8, with the (always-zero)
    ``zero_point`` recorded alongside ``scale`` in the stage metadata.
    Symmetric quantization keeps real 0 exactly representable as integer 0,
    which is what makes ``int8`` compose soundly with ``delta`` (absent
    change decodes to exactly the reference) and with ``topk`` (dropped
    entries decode to exactly 0).
``topk:<fraction>``
    Magnitude sparsification: keeps the ``ceil(fraction * n)`` largest-|x|
    entries of the stage input and their (sorted) indices; everything else
    decodes to the stage's zero.
``delta``
    Encodes the tensor as its difference from a *reference* tensor that both
    endpoints already hold.  The runners supply the reference for the uplink
    primal: the **dispatched** global model the client trained against — the
    same snapshot PR 2's staleness bookkeeping already threads through
    ``ingest(cid, payload, dispatched_global)`` — so delta transmission stays
    correct under asynchronous staleness, buffering, and FedBuff overwrites.
    Keys without a reference (e.g. ICEADMM's dual, or any downlink tensor)
    pass through unchanged.

Ordering with differential privacy: clipping and noising happen inside
``BaseClient.update`` *before* the payload reaches any codec, so encoding is
post-processing of an already-released value and the DP guarantee is
preserved no matter which stack is configured.

Lossy stacks and the IIADMM dual invariant: any stack containing a lossy
stage (everything except pure identity) makes the server decode a value that
differs from what the client computed.  ``BaseClient.reconcile_upload`` (see
:mod:`repro.core.base`) is called with the decoded echo so stateful clients —
IIADMM's "independent but identical" dual replicas — can replay their
bookkeeping against exactly the bytes the server will see.
"""

from __future__ import annotations

import math
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Codec",
    "IdentityCodec",
    "Fp16Codec",
    "Int8QuantCodec",
    "TopKSparseCodec",
    "DeltaCodec",
    "CodecPipeline",
    "PacketEntry",
    "UpdatePacket",
    "parse_codec",
    "resolve_codec",
    "decode_packet_state",
]


# --------------------------------------------------------------------- stages
class Codec:
    """One stage of a codec stack.

    ``encode`` maps a 1-D array to its encoded 1-D form plus a metadata dict;
    ``decode`` inverts it.  Stages are stateless (safe to share across
    pipelines and threads); per-tensor state lives entirely in the metadata,
    which travels inside the :class:`UpdatePacket`.
    """

    name: str = "base"
    #: True when decode(encode(x)) is not guaranteed bit-for-bit equal to x
    lossy: bool = False

    @property
    def spec(self) -> str:
        """Canonical spec fragment of this stage (e.g. ``"topk:0.1"``)."""
        return self.name

    def encode(self, arr: np.ndarray, ref: Optional[np.ndarray]) -> Tuple[np.ndarray, Dict]:
        raise NotImplementedError

    def decode(self, arr: np.ndarray, meta: Mapping, ref: Optional[np.ndarray]) -> np.ndarray:
        raise NotImplementedError


class IdentityCodec(Codec):
    """Bit-for-bit passthrough (the default stack)."""

    name = "identity"

    def encode(self, arr, ref):
        return arr, {}

    def decode(self, arr, meta, ref):
        return arr


class Fp16Codec(Codec):
    """Cast floating tensors to IEEE half precision on the wire."""

    name = "fp16"
    lossy = True

    def encode(self, arr, ref):
        if arr.dtype.kind != "f" or arr.dtype == np.float16:
            return arr, {"applied": False}
        return arr.astype(np.float16), {"applied": True, "dtype": str(arr.dtype)}

    def decode(self, arr, meta, ref):
        if not meta.get("applied"):
            return arr
        return arr.astype(np.dtype(meta["dtype"]))


class Int8QuantCodec(Codec):
    """Per-tensor symmetric affine int8 quantization.

    ``scale`` and ``zero_point`` are recorded per tensor; symmetric mode
    (``zero_point = 0``) is used so real 0 quantizes to integer 0 exactly —
    the property that makes this stage compose with ``delta`` and ``topk``
    (see the module docstring).  Maximum absolute reconstruction error is
    ``scale / 2 = max|x| / 254``.
    """

    name = "int8"
    lossy = True

    def encode(self, arr, ref):
        if arr.dtype.kind != "f":
            return arr, {"applied": False}
        amax = float(np.max(np.abs(arr))) if arr.size else 0.0
        scale = amax / 127.0
        wide = np.promote_types(arr.dtype, np.float32)  # float16 (after fp16) divides in float32
        if wide.type(scale) == 0.0:  # all zeros, or max|x| so small the scale underflows there
            scale = 1.0
        q = np.clip(np.rint(arr.astype(wide, copy=False) / scale), -127, 127).astype(np.int8)
        return q, {"applied": True, "dtype": str(arr.dtype), "scale": scale, "zero_point": 0}

    def decode(self, arr, meta, ref):
        if not meta.get("applied"):
            return arr
        # Dequantize in float64 and cast once: casting the scale into a
        # narrow target dtype first (float16 after an fp16 stage) can shred
        # its precision — subnormal fp16 steps are coarser than scale/2 —
        # and break this stage's documented error bound.
        dtype = np.dtype(meta["dtype"])
        out = arr.astype(np.float64)
        out -= float(meta["zero_point"])
        out *= float(meta["scale"])
        return out.astype(dtype)


class TopKSparseCodec(Codec):
    """Keep only the ``ceil(fraction * n)`` largest-magnitude entries."""

    name = "topk"
    lossy = True

    def __init__(self, fraction: float = 0.1):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("topk fraction must be in (0, 1]")
        self.fraction = float(fraction)

    @property
    def spec(self) -> str:
        return f"topk:{self.fraction:g}"

    def encode(self, arr, ref):
        n = arr.size
        k = max(1, int(math.ceil(self.fraction * n)))
        if k >= n:
            return arr, {"applied": False}
        keep = np.argpartition(np.abs(arr), n - k)[n - k :]
        indices = np.sort(keep).astype(np.int64 if n > np.iinfo(np.int32).max else np.int32)
        return np.ascontiguousarray(arr[indices]), {"applied": True, "size": n, "indices": indices}

    def decode(self, arr, meta, ref):
        if not meta.get("applied"):
            return arr
        out = np.zeros(int(meta["size"]), dtype=arr.dtype)
        out[meta["indices"]] = arr
        return out


class DeltaCodec(Codec):
    """Encode a tensor as its difference from a shared reference tensor.

    Applies only where the pipeline was handed a reference of matching size
    (the runners pass the dispatched global model for the uplink primal);
    everything else passes through with ``applied = False``.
    """

    name = "delta"
    lossy = True  # (x - ref) + ref is not bit-exact in floating point

    def encode(self, arr, ref):
        if ref is None or arr.dtype.kind != "f" or ref.size != arr.size:
            return arr, {"applied": False}
        return arr - ref.reshape(-1).astype(arr.dtype, copy=False), {"applied": True}

    def decode(self, arr, meta, ref):
        if not meta.get("applied"):
            return arr
        if ref is None:
            raise ValueError("delta-encoded payload needs the reference tensor to decode")
        return arr + ref.reshape(-1).astype(arr.dtype, copy=False)


# -------------------------------------------------------------------- packets
def _meta_nbytes(meta: Mapping) -> int:
    """On-wire cost of one stage's metadata.

    Counts auxiliary arrays (e.g. top-k indices) at full size and scalar
    codec parameters (quantization scale / zero-point) at 8 bytes each;
    structural bookkeeping (``applied`` flags, the redundant ``size``, dtype
    strings — fixed schema-level fields) is not charged, so a pure identity
    stack reports exactly the raw tensor bytes.
    """
    total = 0
    for key, value in meta.items():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, bool) or key in ("size", "dtype", "applied"):
            continue
        elif isinstance(value, (int, float, np.integer, np.floating)):
            total += 8
    return total


@dataclass(frozen=True)
class PacketEntry:
    """One codec-encoded tensor inside an :class:`UpdatePacket`."""

    #: original shape, restored on decode
    shape: Tuple[int, ...]
    #: original dtype string, restored on decode
    dtype: str
    #: final encoded 1-D array (what actually crosses the wire)
    data: np.ndarray
    #: per-stage metadata, aligned with the pipeline's stages
    meta: Tuple[Dict, ...]

    @property
    def nbytes(self) -> int:
        """True on-wire bytes of this tensor (encoded data + codec metadata)."""
        return int(self.data.nbytes) + sum(_meta_nbytes(m) for m in self.meta)

    def copy(self) -> "PacketEntry":
        """Deep copy (fresh encoded arrays and metadata)."""
        meta = tuple(
            {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in m.items()}
            for m in self.meta
        )
        return PacketEntry(self.shape, self.dtype, self.data.copy(), meta)


@dataclass(frozen=True)
class UpdatePacket:
    """A codec-encoded model payload — the single unit of model movement.

    Self-describing: ``codec`` is the canonical stack spec (resolvable via
    :func:`resolve_codec`), ``entries`` map payload keys to their encoded
    tensors, and :attr:`nbytes` is the measured on-wire size that every
    communicator cost model and the asyncfl link latency charge.
    """

    codec: str
    entries: "OrderedDict[str, PacketEntry]"

    @property
    def nbytes(self) -> int:
        """Total true on-wire bytes of this packet."""
        return sum(entry.nbytes for entry in self.entries.values())

    def keys(self):
        return self.entries.keys()

    def copy(self) -> "UpdatePacket":
        """Deep copy (endpoint isolation for the in-process transports)."""
        return UpdatePacket(self.codec, OrderedDict((k, e.copy()) for k, e in self.entries.items()))

    def checksum(self) -> int:
        """CRC-32 over the packet's codec spec, entry names, and encoded bytes.

        The integrity check of the fault layer (:mod:`repro.faults`): a
        receiver compares the sender-side checksum against the delivered
        packet's and rejects on mismatch, turning simulated wire corruption
        into a detectable, retryable fault instead of silent numeric damage.
        """
        crc = zlib.crc32(self.codec.encode("utf-8"))
        for name, entry in self.entries.items():
            crc = zlib.crc32(name.encode("utf-8"), crc)
            crc = zlib.crc32(str(entry.dtype).encode("utf-8"), crc)
            data = np.ascontiguousarray(entry.data)
            crc = zlib.crc32(data.view(np.uint8) if data.nbytes else b"", crc)
        return crc


# ------------------------------------------------------------------- pipeline
class CodecPipeline:
    """An ordered stack of codec stages applied to every payload tensor."""

    def __init__(self, stages: Sequence[Codec]):
        self.stages: Tuple[Codec, ...] = tuple(stages) if stages else (IdentityCodec(),)

    @property
    def spec(self) -> str:
        """Canonical ``|``-joined spec of this stack."""
        return "|".join(stage.spec for stage in self.stages)

    @property
    def lossy(self) -> bool:
        """True when decode(encode(x)) may differ from x."""
        return any(stage.lossy for stage in self.stages)

    def __repr__(self) -> str:
        return f"CodecPipeline({self.spec!r})"

    # ------------------------------------------------------------- per tensor
    def encode_array(self, value: np.ndarray, ref: Optional[np.ndarray] = None) -> PacketEntry:
        arr = np.asarray(value)
        flat = arr.reshape(-1)
        ref_flat = None if ref is None else np.asarray(ref).reshape(-1)
        metas = []
        for stage in self.stages:
            flat, meta = stage.encode(flat, ref_flat)
            metas.append(meta)
        return PacketEntry(arr.shape, str(arr.dtype), np.ascontiguousarray(flat), tuple(metas))

    def decode_array(self, entry: PacketEntry, ref: Optional[np.ndarray] = None) -> np.ndarray:
        flat = entry.data
        ref_flat = None if ref is None else np.asarray(ref).reshape(-1)
        for stage, meta in zip(reversed(self.stages), reversed(entry.meta)):
            flat = stage.decode(flat, meta, ref_flat)
        out = flat.astype(np.dtype(entry.dtype), copy=False).reshape(entry.shape)
        if np.may_share_memory(out, entry.data):
            out = out.copy()  # decoded tensors never alias the wire buffer
        return out

    # -------------------------------------------------------------- per state
    def encode_state(
        self,
        state: Mapping[str, np.ndarray],
        reference: Optional[Mapping[str, np.ndarray]] = None,
    ) -> UpdatePacket:
        """Encode a payload dict into one :class:`UpdatePacket`.

        ``reference`` maps payload keys to the reference tensors available on
        *both* endpoints (used by ``delta``); keys without a reference are
        encoded standalone.
        """
        entries: "OrderedDict[str, PacketEntry]" = OrderedDict()
        for key, value in state.items():
            ref = None if reference is None else reference.get(key)
            entries[key] = self.encode_array(value, ref)
        return UpdatePacket(self.spec, entries)

    def decode_state(
        self,
        packet: UpdatePacket,
        reference: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "OrderedDict[str, np.ndarray]":
        """Inverse of :meth:`encode_state` (same ``reference`` required)."""
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for key, entry in packet.entries.items():
            ref = None if reference is None else reference.get(key)
            out[key] = self.decode_array(entry, ref)
        return out


# -------------------------------------------------------------------- parsing
def _make_stage(part: str) -> Codec:
    name, _, arg = part.partition(":")
    name = name.strip().lower()
    if name == "identity":
        stage: Codec = IdentityCodec()
    elif name == "fp16":
        stage = Fp16Codec()
    elif name == "int8":
        stage = Int8QuantCodec()
    elif name == "delta":
        stage = DeltaCodec()
    elif name == "topk":
        try:
            stage = TopKSparseCodec(float(arg) if arg else 0.1)
        except ValueError as exc:
            raise ValueError(f"bad topk fraction in codec stage {part!r}: {exc}") from None
        arg = ""
    else:
        raise ValueError(
            f"unknown codec stage {name!r} (choose from identity, fp16, int8, topk:<frac>, delta)"
        )
    if arg:
        raise ValueError(f"codec stage {name!r} takes no argument (got {part!r})")
    return stage


def parse_codec(spec: Union[str, Codec, CodecPipeline]) -> CodecPipeline:
    """Parse a ``|``-separated codec spec string into a :class:`CodecPipeline`.

    Also accepts an existing pipeline or a single stage (passed through /
    wrapped), so APIs can take either form.
    """
    if isinstance(spec, CodecPipeline):
        return spec
    if isinstance(spec, Codec):
        return CodecPipeline([spec])
    parts = [p for p in (part.strip() for part in str(spec).split("|")) if p]
    if not parts:
        raise ValueError(f"empty codec spec {spec!r}")
    return CodecPipeline([_make_stage(part) for part in parts])


#: pipelines are stateless — cache them per canonical spec so every layer
#: (config validation, clients, runners, server decode) shares one instance
_PIPELINES: Dict[str, CodecPipeline] = {}


def resolve_codec(spec: Union[str, Codec, CodecPipeline]) -> CodecPipeline:
    """Like :func:`parse_codec`, but memoised by spec string."""
    if isinstance(spec, CodecPipeline):
        return spec
    if isinstance(spec, Codec):
        return CodecPipeline([spec])
    key = str(spec)
    pipeline = _PIPELINES.get(key)
    if pipeline is None:
        pipeline = parse_codec(key)
        _PIPELINES[key] = pipeline
        _PIPELINES.setdefault(pipeline.spec, pipeline)
    return pipeline


def decode_packet_state(
    packet: UpdatePacket,
    reference: Optional[Mapping[str, np.ndarray]] = None,
) -> "OrderedDict[str, np.ndarray]":
    """Decode a self-describing packet using the pipeline named in it."""
    return resolve_codec(packet.codec).decode_state(packet, reference)
