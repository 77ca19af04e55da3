"""Simulated network: typed messages, a bit-exact little-endian binary
codec, per-channel FIFO queues, and a log of every message sent.

The bus is in-process, but every message transits the codec so the byte
counts and the wire format stay honest for a future socket backend.
"""

from __future__ import annotations

import enum
import math
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAGIC = b"SPL1"
VERSION = 1

_HEADER = struct.Struct("<4sBBHHIIB")  # magic, version, type, sender, receiver, round, seq, rank
HEADER_LEN = _HEADER.size  # 19
_MAX_RANK = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # numpy's most dims
_DIMS = tuple(struct.Struct(f"<{rank}I") for rank in range(_MAX_RANK + 1))  # by tensor rank
_WIRE_FLOAT = np.dtype("<f8")


class MsgType(enum.IntEnum):
    SMASHED_ACTIVATIONS = 1
    BODY_OUTPUT = 2
    BODY_OUTPUT_GRAD = 3
    SMASHED_GRAD = 4
    PARAM_BLOB = 5
    LABELS = 6


_MSG_TYPES = {int(t): t for t in MsgType}


class CodecError(ValueError):
    pass


class CorruptStream(CodecError):
    """Bad magic or version byte."""


class Truncated(CodecError):
    """Frame shorter than its declared payload."""


class UnsupportedMessage(CodecError):
    """Unknown msg_type code, or a tensor rank numpy cannot hold."""


class TrailingBytes(CodecError):
    """Frame longer than its declared payload."""


class FieldOutOfRange(CodecError):
    """A header field (sender, receiver, round, seq) does not fit its
    wire width."""


class EmptyChannel(Exception):
    """recv on a channel with no pending message."""


class ProtocolViolation(RuntimeError):
    """A message arrived out of the protocol's expected order."""


class LogRecord(NamedTuple):
    """A message's header fields and frame length, as the sender's bus
    logs them and `decode` reads them off the frame."""
    round: int
    seq: int
    sender: int
    receiver: int
    msg_type: MsgType
    nbytes: int


def encode(msg_type: MsgType, sender: int, receiver: int, rnd: int, seq: int, payload) -> bytes:
    """Serialize one message to the fixed wire layout; deterministic.
    Raises CodecError for a None payload, and FieldOutOfRange when a
    header field does not fit its wire width.
    The one place a payload turns float64: any array-like is converted
    here (no copy when it already is a C-contiguous float64 array), then
    copied once, straight from its buffer into the frame."""
    if payload is None:
        raise CodecError("tensor message without payload")
    tensor = np.asarray(payload, dtype=_WIRE_FLOAT, order="C")
    try:
        header = _HEADER.pack(MAGIC, VERSION, int(msg_type), sender, receiver, rnd, seq,
                              tensor.ndim)
    except struct.error as exc:
        raise FieldOutOfRange(str(exc)) from None
    dims = _DIMS[tensor.ndim].pack(*tensor.shape)
    return b"".join((header, dims, tensor))


def decode(data: bytes) -> tuple[LogRecord, np.ndarray]:
    """Inverse of encode: the frame's record, whose `nbytes` is the
    frame's length, and its payload. Raises CorruptStream / Truncated /
    UnsupportedMessage / TrailingBytes.

    The payload is a read-only view of the frame, not a copy (a mutable
    frame is copied to bytes first), so writing to it raises."""
    if not isinstance(data, bytes):
        data = bytes(data)
    size = len(data)
    if size < HEADER_LEN:
        raise Truncated("frame shorter than header")
    magic, version, type_code, sender, receiver, rnd, seq, rank = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptStream(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptStream(f"unsupported version {version}")
    msg_type = _MSG_TYPES.get(type_code)
    if msg_type is None:
        raise UnsupportedMessage(f"unknown msg_type {type_code}")
    if rank > _MAX_RANK:
        raise UnsupportedMessage(f"tensor rank {rank} exceeds {_MAX_RANK}")
    off = HEADER_LEN
    if size < off + 4 * rank:
        raise Truncated("missing dims")
    shape = _DIMS[rank].unpack_from(data, off)
    off += 4 * rank
    end = off + 8 * math.prod(shape)
    if size < end:
        raise Truncated("payload shorter than declared dims product")
    if size > end:
        raise TrailingBytes("bytes after the declared payload")
    tensor = np.ndarray(shape, _WIRE_FLOAT, data, off)
    return LogRecord(rnd, seq, sender, receiver, msg_type, size), tensor


@dataclass
class ChannelBus:
    """FIFO queues keyed by (sender, receiver), and a log with one
    `LogRecord` per message sent: the bus's one record of its traffic,
    which every byte and message count reads."""

    queues: dict = field(default_factory=dict)
    seq_counts: dict = field(default_factory=dict)
    log: list = field(default_factory=list)

    def send(self, msg_type: MsgType, sender: int, receiver: int, rnd: int, payload) -> int:
        """Encode and enqueue one message, numbered next on its channel,
        and log its record. Returns the encoded length. A message that
        does not encode raises and commits nothing."""
        key = (sender, receiver)
        seq = self.seq_counts.get(key, 0)
        data = encode(msg_type, sender, receiver, rnd, seq, payload)
        self.seq_counts[key] = seq + 1
        queue = self.queues.get(key)
        if queue is None:
            queue = self.queues[key] = deque()
        queue.append(data)
        n = len(data)
        self.log.append(LogRecord(rnd, seq, sender, receiver, msg_type, n))
        return n

    def recv(self, receiver: int, sender: int, msg_type: MsgType) -> np.ndarray:
        """Pop and decode the oldest pending message from sender to
        receiver, and return its payload. Raises EmptyChannel when
        nothing is pending, and ProtocolViolation when the message is not
        of `msg_type`."""
        q = self.queues.get((sender, receiver))
        if not q:
            raise EmptyChannel(f"no message from {sender} to {receiver}")
        record, payload = decode(q.popleft())
        if record.msg_type != msg_type:
            raise ProtocolViolation(
                f"expected {msg_type.name} from {sender}, got {record.msg_type.name}")
        return payload

    def bytes_sent(self) -> int:
        return sum(rec.nbytes for rec in self.log)

    def bytes_by_type(self, msg_type: MsgType) -> int:
        return sum(rec.nbytes for rec in self.log if rec.msg_type == msg_type)

    def count_by_type(self, msg_type: MsgType) -> int:
        return sum(rec.msg_type == msg_type for rec in self.log)

    def restore_log(self, log: list) -> None:
        """Make a copy of `log` this bus's traffic so far, and continue
        each channel's sequence numbers after its last record. Only for
        a bus with nothing queued, which could hold no message the log
        lacks."""
        if any(self.queues.values()):
            raise ValueError("cannot restore the log of a bus with messages queued")
        self.log = list(log)
        self.seq_counts = {(rec.sender, rec.receiver): rec.seq + 1 for rec in self.log}

    def dump_log(self, path) -> None:
        """One line per message: round seq sender receiver type bytes."""
        with open(path, "w") as f:
            for rec in self.log:
                f.write(f"{rec.round} {rec.seq} {rec.sender} {rec.receiver} "
                        f"{rec.msg_type.name} {rec.nbytes}\n")
