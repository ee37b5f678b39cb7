"""Communication substrates: serial, simulated MPI (RDMA), simulated gRPC (TCP).

All substrates transport :class:`~repro.comm.codecs.UpdatePacket` payloads —
codec-encoded tensors whose measured ``nbytes`` drive every cost model — and
accept raw state dicts for direct/low-level use.
"""

from .base import Communicator, client_endpoint, edge_endpoint, server_endpoint
from .codecs import (
    CodecPipeline,
    DeltaCodec,
    Fp16Codec,
    IdentityCodec,
    Int8QuantCodec,
    TopKSparseCodec,
    UpdatePacket,
    decode_packet_state,
    parse_codec,
    resolve_codec,
)
from .grpc_sim import GRPCSimCommunicator
from .latency import (
    GRPCChannelModel,
    JitterModel,
    LinkModel,
    MPIChannelModel,
    RDMALinkModel,
    SerializationModel,
    TCPLinkModel,
)
from .mpi_sim import MPISimCommunicator
from .records import CommLog, CommRecord, DeadLetter
from .serial import SerialCommunicator
from .serialization import (
    decode_packet,
    decode_state_dict,
    encode_packet,
    encode_state_dict,
    flatten_state_dict,
    payload_nbytes,
    state_dict_nbytes,
    unflatten_state_dict,
)

__all__ = [
    "CodecPipeline",
    "IdentityCodec",
    "Fp16Codec",
    "Int8QuantCodec",
    "TopKSparseCodec",
    "DeltaCodec",
    "UpdatePacket",
    "parse_codec",
    "resolve_codec",
    "decode_packet_state",
    "Communicator",
    "SerialCommunicator",
    "MPISimCommunicator",
    "GRPCSimCommunicator",
    "client_endpoint",
    "edge_endpoint",
    "server_endpoint",
    "CommLog",
    "CommRecord",
    "DeadLetter",
    "LinkModel",
    "RDMALinkModel",
    "TCPLinkModel",
    "SerializationModel",
    "JitterModel",
    "MPIChannelModel",
    "GRPCChannelModel",
    "state_dict_nbytes",
    "payload_nbytes",
    "flatten_state_dict",
    "unflatten_state_dict",
    "encode_state_dict",
    "decode_state_dict",
    "encode_packet",
    "decode_packet",
]
