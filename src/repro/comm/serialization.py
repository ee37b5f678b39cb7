"""Model-parameter serialisation utilities.

Two jobs:

1. *Sizing*: compute how many bytes a model update occupies on the wire.  The
   APPFL communication experiments (Figures 3-4, Section IV-D) are driven by
   the size of the local model parameters each client sends per round;
   ICEADMM sends primal *and* dual vectors (2x) while IIADMM and FedAvg send
   only the primal vector.

2. *Encoding*: a simple length-prefixed binary encoding of a state dict
   (name, dtype, shape, raw bytes), standing in for gRPC's protocol-buffer
   serialisation.  Encoding/decoding real bytes lets the gRPC simulator charge
   a realistic CPU cost and lets tests assert exact round-tripping.
   :func:`encode_packet`/:func:`decode_packet` do the same for the codec-aware
   :class:`~repro.comm.codecs.UpdatePacket` (encoded tensors + per-stage codec
   metadata), which is what the runners actually move since the wire-codec
   refactor.

3. *State blobs*: :func:`encode_state_blob`/:func:`decode_state_blob` encode
   an arbitrary tree of dicts/lists/tuples whose leaves are numpy arrays,
   scalars, strings, bytes, ``None``, or whole :class:`UpdatePacket` objects
   — reusing the same ``_pack_*`` machinery as the wire formats above.  This
   is the persistence format of the client-virtualization layer
   (:mod:`repro.scale`): evicted client state, run checkpoints, RNG
   bit-generator state (arbitrary-precision integers round-trip exactly), and
   pending virtual-clock events all serialise through it, bit-exactly.

Sizing is *post-codec* and dtype-aware: :func:`payload_nbytes` reports the
measured on-wire bytes of whatever crosses the link — the encoded arrays and
codec metadata of an ``UpdatePacket``, or the raw (correct-dtype) tensor
bytes of a plain state dict — never a float64 full-tensor assumption.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Mapping, Tuple, Union

import numpy as np

from .codecs import PacketEntry, UpdatePacket

__all__ = [
    "state_dict_nbytes",
    "payload_nbytes",
    "flatten_state_dict",
    "unflatten_state_dict",
    "encode_state_dict",
    "decode_state_dict",
    "encode_packet",
    "decode_packet",
    "encode_state_blob",
    "decode_state_blob",
]

_MAGIC = b"RPRO"
_PACKET_MAGIC = b"RPKT"
_BLOB_MAGIC = b"RBLB"


def state_dict_nbytes(state: Mapping[str, np.ndarray]) -> int:
    """Total payload size in bytes of the arrays in ``state``.

    Dtype-aware: a float32 pipeline (``FLConfig.dtype = "float32"``) halves
    the reported per-round communication volume, exactly as the narrower wire
    format would on a real deployment.
    """
    return int(sum(np.asarray(v).nbytes for v in state.values()))


def payload_nbytes(payload: Union[UpdatePacket, Mapping[str, np.ndarray]]) -> int:
    """True on-wire bytes of a transported payload.

    ``UpdatePacket``: the measured post-codec size (encoded tensors + codec
    metadata).  Plain state dict: the raw, dtype-correct tensor bytes.
    """
    if isinstance(payload, UpdatePacket):
        return payload.nbytes
    return state_dict_nbytes(payload)


def flatten_state_dict(state: Mapping[str, np.ndarray]) -> Tuple[np.ndarray, "OrderedDict[str, Tuple[Tuple[int, ...], int]]"]:
    """Concatenate all arrays into one flat float64 vector.

    Returns ``(vector, layout)`` where ``layout`` maps each name to
    ``(shape, offset)``; pass it to :func:`unflatten_state_dict` to reverse.
    The flat-vector view is what the ADMM algorithms operate on (the paper's
    ``w``, ``z_p``, ``λ_p`` ∈ R^m).  The float32 pipeline never flattens per
    batch — :class:`repro.core.base.ModelVectorizer` keeps its own flat
    buffer in the configured dtype and only uses the ``layout`` from here.
    """
    layout: "OrderedDict[str, Tuple[Tuple[int, ...], int]]" = OrderedDict()
    chunks = []
    offset = 0
    for name, value in state.items():
        arr = np.asarray(value, dtype=np.float64)
        layout[name] = (arr.shape, offset)
        chunks.append(arr.reshape(-1))
        offset += arr.size
    if not chunks:
        return np.zeros(0), layout
    return np.concatenate(chunks), layout


def unflatten_state_dict(vector: np.ndarray, layout: Mapping[str, Tuple[Tuple[int, ...], int]]) -> "OrderedDict[str, np.ndarray]":
    """Rebuild a state dict from a flat vector and a layout from :func:`flatten_state_dict`."""
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, (shape, offset) in layout.items():
        size = int(np.prod(shape)) if shape else 1
        out[name] = vector[offset : offset + size].reshape(shape).copy()
    return out


def encode_state_dict(state: Mapping[str, np.ndarray]) -> bytes:
    """Serialise a state dict to bytes (length-prefixed records)."""
    parts = [_MAGIC, struct.pack("<I", len(state))]
    for name, value in state.items():
        parts.append(_pack_str(name))
        parts.append(_pack_array(np.asarray(value)))
    return b"".join(parts)


def decode_state_dict(payload: bytes) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`encode_state_dict`."""
    if payload[:4] != _MAGIC:
        raise ValueError("not a repro-serialised state dict")
    offset = 4
    (count,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for _ in range(count):
        name, offset = _unpack_str(payload, offset)
        out[name], offset = _unpack_array(payload, offset)
    return out


# ------------------------------------------------------------ packet encoding
class _ShortRead(ValueError):
    """A read ran past the end of the buffer (a truncated payload)."""


def _take(payload: bytes, offset: int, length: int) -> Tuple[bytes, int]:
    end = offset + length
    if end > len(payload):
        raise _ShortRead(f"{length} bytes needed at offset {offset}, {len(payload) - offset} left")
    return payload[offset:end], end


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(payload: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("<H", payload, offset)
    raw, offset = _take(payload, offset + 2, length)
    return raw.decode("utf-8"), offset


def _pack_array(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    raw = arr.tobytes()
    return (
        _pack_str(str(arr.dtype))
        + struct.pack("<B", arr.ndim)
        + (struct.pack(f"<{arr.ndim}q", *arr.shape) if arr.ndim else b"")
        + struct.pack("<Q", len(raw))
        + raw
    )


def _unpack_array(payload: bytes, offset: int) -> Tuple[np.ndarray, int]:
    dtype_s, offset = _unpack_str(payload, offset)
    (ndim,) = struct.unpack_from("<B", payload, offset)
    offset += 1
    shape = struct.unpack_from(f"<{ndim}q", payload, offset) if ndim else ()
    offset += 8 * ndim
    (raw_len,) = struct.unpack_from("<Q", payload, offset)
    raw, offset = _take(payload, offset + 8, raw_len)
    return np.frombuffer(raw, dtype=np.dtype(dtype_s)).reshape(shape).copy(), offset


def _pack_meta_value(value) -> bytes:
    if isinstance(value, bool):
        return b"B" + struct.pack("<B", int(value))
    if isinstance(value, (int, np.integer)):
        return b"I" + struct.pack("<q", int(value))
    if isinstance(value, (float, np.floating)):
        return b"F" + struct.pack("<d", float(value))
    if isinstance(value, str):
        return b"S" + _pack_str(value)
    if isinstance(value, np.ndarray):
        return b"A" + _pack_array(value)
    raise TypeError(f"unsupported codec metadata value type {type(value).__name__}")


def _unpack_meta_value(payload: bytes, offset: int):
    tag = payload[offset : offset + 1]
    offset += 1
    if tag == b"B":
        (v,) = struct.unpack_from("<B", payload, offset)
        return bool(v), offset + 1
    if tag == b"I":
        (v,) = struct.unpack_from("<q", payload, offset)
        return int(v), offset + 8
    if tag == b"F":
        (v,) = struct.unpack_from("<d", payload, offset)
        return float(v), offset + 8
    if tag == b"S":
        return _unpack_str(payload, offset)
    if tag == b"A":
        return _unpack_array(payload, offset)
    raise ValueError(f"corrupt packet metadata tag {tag!r}")


def encode_packet(packet: UpdatePacket) -> bytes:
    """Serialise an :class:`~repro.comm.codecs.UpdatePacket` to wire bytes.

    This is the packet counterpart of :func:`encode_state_dict` — the format
    a real gRPC/MPI transport would put on the network: codec spec, then per
    tensor the layout header, the encoded data blob, and each codec stage's
    metadata (quantization scales, sparse indices, ...).
    """
    parts = [_PACKET_MAGIC, _pack_str(packet.codec), struct.pack("<I", len(packet.entries))]
    for key, entry in packet.entries.items():
        parts.append(_pack_str(key))
        parts.append(_pack_str(entry.dtype))
        parts.append(struct.pack("<B", len(entry.shape)))
        if entry.shape:
            parts.append(struct.pack(f"<{len(entry.shape)}q", *entry.shape))
        parts.append(_pack_array(entry.data))
        parts.append(struct.pack("<B", len(entry.meta)))
        for meta in entry.meta:
            parts.append(struct.pack("<H", len(meta)))
            for mkey, mval in meta.items():
                parts.append(_pack_str(mkey))
                parts.append(_pack_meta_value(mval))
    return b"".join(parts)


def decode_packet(payload: bytes) -> UpdatePacket:
    """Inverse of :func:`encode_packet`."""
    if payload[:4] != _PACKET_MAGIC:
        raise ValueError("not a repro-serialised update packet")
    offset = 4
    codec, offset = _unpack_str(payload, offset)
    (count,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    entries: "OrderedDict[str, PacketEntry]" = OrderedDict()
    for _ in range(count):
        key, offset = _unpack_str(payload, offset)
        dtype_s, offset = _unpack_str(payload, offset)
        (ndim,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        shape = tuple(struct.unpack_from(f"<{ndim}q", payload, offset)) if ndim else ()
        offset += 8 * ndim
        data, offset = _unpack_array(payload, offset)
        (nstages,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        metas = []
        for _ in range(nstages):
            (nitems,) = struct.unpack_from("<H", payload, offset)
            offset += 2
            meta = {}
            for _ in range(nitems):
                mkey, offset = _unpack_str(payload, offset)
                meta[mkey], offset = _unpack_meta_value(payload, offset)
            metas.append(meta)
        entries[key] = PacketEntry(shape, dtype_s, data, tuple(metas))
    return UpdatePacket(codec, entries)


# ---------------------------------------------------------------- state blobs
def _pack_tree(value) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B" + struct.pack("<B", int(value))
    if isinstance(value, (int, np.integer)):
        v = int(value)
        if -(2**63) <= v < 2**63:
            return b"I" + struct.pack("<q", v)
        # Arbitrary-precision integers (e.g. PCG64's 128-bit RNG state words)
        # travel as their decimal string.
        return b"J" + _pack_str(str(v))
    if isinstance(value, (float, np.floating)):
        return b"F" + struct.pack("<d", float(value))
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + struct.pack("<I", len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return b"Y" + struct.pack("<Q", len(value)) + bytes(value)
    if isinstance(value, np.ndarray):
        return b"A" + _pack_array(value)
    if isinstance(value, UpdatePacket):
        raw = encode_packet(value)
        return b"P" + struct.pack("<Q", len(raw)) + raw
    if isinstance(value, (frozenset, set)):
        items = sorted(value)  # deterministic encoding for id sets
        return b"Z" + struct.pack("<I", len(items)) + b"".join(_pack_tree(v) for v in items)
    if isinstance(value, tuple):
        return b"U" + struct.pack("<I", len(value)) + b"".join(_pack_tree(v) for v in value)
    if isinstance(value, list):
        return b"L" + struct.pack("<I", len(value)) + b"".join(_pack_tree(v) for v in value)
    if isinstance(value, Mapping):
        parts = [b"D", struct.pack("<I", len(value))]
        for k, v in value.items():
            parts.append(_pack_tree(k))
            parts.append(_pack_tree(v))
        return b"".join(parts)
    raise TypeError(f"unsupported state-blob value type {type(value).__name__}")


def _unpack_tree(payload: bytes, offset: int):
    tag, offset = _take(payload, offset, 1)
    if tag == b"N":
        return None, offset
    if tag == b"B":
        (v,) = struct.unpack_from("<B", payload, offset)
        return bool(v), offset + 1
    if tag == b"I":
        (v,) = struct.unpack_from("<q", payload, offset)
        return int(v), offset + 8
    if tag == b"J":
        s, offset = _unpack_str(payload, offset)
        return int(s), offset
    if tag == b"F":
        (v,) = struct.unpack_from("<d", payload, offset)
        return float(v), offset + 8
    if tag == b"S":
        (length,) = struct.unpack_from("<I", payload, offset)
        raw, offset = _take(payload, offset + 4, length)
        return raw.decode("utf-8"), offset
    if tag == b"Y":
        (length,) = struct.unpack_from("<Q", payload, offset)
        return _take(payload, offset + 8, length)
    if tag == b"A":
        return _unpack_array(payload, offset)
    if tag == b"P":
        (length,) = struct.unpack_from("<Q", payload, offset)
        raw, offset = _take(payload, offset + 8, length)
        return decode_packet(raw), offset
    if tag in (b"Z", b"U", b"L"):
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _unpack_tree(payload, offset)
            items.append(item)
        if tag == b"Z":
            return frozenset(items), offset
        return (tuple(items) if tag == b"U" else items), offset
    if tag == b"D":
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        out = {}
        for _ in range(count):
            key, offset = _unpack_tree(payload, offset)
            out[key], offset = _unpack_tree(payload, offset)
        return out, offset
    raise ValueError(f"unknown tag {tag!r}")


def encode_state_blob(tree) -> bytes:
    """Serialise a state tree (dicts/lists/arrays/scalars/packets) to bytes.

    The persistence format of :mod:`repro.scale`: evicted client state blobs
    and run checkpoints.  Exact: arrays keep dtype/shape, Python ints of any
    magnitude (RNG bit-generator words) round-trip losslessly, dict insertion
    order is preserved, and nested :class:`UpdatePacket` objects travel in
    their wire encoding.  Sets are stored sorted, so encoding is deterministic.
    """
    return _BLOB_MAGIC + _pack_tree(tree)


def decode_state_blob(payload: bytes):
    """Inverse of :func:`encode_state_blob`.

    A damaged blob fails by name, always as ``ValueError``: ``"truncated
    state blob: ..."`` when a read runs past its end, ``"corrupt state blob:
    ..."`` when its content does not decode.
    """
    if payload[:4] != _BLOB_MAGIC:
        if _BLOB_MAGIC.startswith(payload[:4]):
            raise ValueError(f"truncated state blob: {len(payload)} bytes, not even its header")
        raise ValueError("not a repro state blob")
    try:
        tree, offset = _unpack_tree(payload, 4)
    except (_ShortRead, struct.error) as exc:
        raise ValueError(f"truncated state blob: {exc}") from exc
    except (ValueError, TypeError, OverflowError, SyntaxError) as exc:
        # SyntaxError: numpy parses some malformed dtype strings as literals.
        raise ValueError(f"corrupt state blob: {exc}") from exc
    if offset != len(payload):
        raise ValueError(f"corrupt state blob: {len(payload) - offset} trailing bytes")
    return tree
