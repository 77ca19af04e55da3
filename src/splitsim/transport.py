"""Simulated network: typed messages, a bit-exact little-endian binary
codec, per-channel FIFO queues, and byte counters.

The bus is in-process, but every message transits the codec so the byte
counters and the wire format stay honest for a future socket backend.
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
_DIMS = tuple(struct.Struct(f"<{rank}I") for rank in range(256))  # by tensor rank
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
    """Unknown msg_type code."""


class TrailingBytes(CodecError):
    """Frame longer than its declared payload."""


class FieldOutOfRange(CodecError):
    """A header field (sender, receiver, round, seq) does not fit its
    wire width."""


class EmptyChannel(Exception):
    """recv on a channel with no pending message."""


@dataclass
class Message:
    msg_type: MsgType
    sender: int
    receiver: int
    round: int = 0
    seq: int = 0
    payload: np.ndarray | None = None  # the tensor; encode rejects None

    def __post_init__(self):
        p = self.payload
        if p is not None and not (type(p) is np.ndarray and p.dtype == np.float64):
            self.payload = np.asarray(p, dtype=np.float64)

    def __eq__(self, other):
        if not isinstance(other, Message):
            return NotImplemented
        if (self.msg_type, self.sender, self.receiver, self.round, self.seq) != (
                other.msg_type, other.sender, other.receiver, other.round, other.seq):
            return False
        if (self.payload is None) != (other.payload is None):
            return False
        if self.payload is None:
            return True
        return (self.payload.shape == other.payload.shape
                and np.array_equal(self.payload, other.payload))


def encode(message: Message) -> bytes:
    """Serialize to the fixed wire layout; deterministic. Raises
    FieldOutOfRange when a header field does not fit its wire width.
    The payload is copied once, straight from its buffer into the frame."""
    tensor = message.payload
    if tensor is None:
        raise CodecError("tensor message without payload")
    if tensor.ndim > 255:
        raise CodecError("tensor rank exceeds 255")
    try:
        header = _HEADER.pack(MAGIC, VERSION, int(message.msg_type),
                              message.sender, message.receiver,
                              message.round, message.seq, tensor.ndim)
    except struct.error as exc:
        raise FieldOutOfRange(str(exc)) from None
    dims = _DIMS[tensor.ndim].pack(*tensor.shape)
    return b"".join((header, dims, np.ascontiguousarray(tensor, dtype=_WIRE_FLOAT)))


def decode(data: bytes) -> Message:
    """Inverse of encode; raises CorruptStream / Truncated /
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
    return Message(msg_type, sender, receiver, rnd, seq, tensor)


class LogRecord(NamedTuple):
    round: int
    seq: int
    sender: int
    receiver: int
    msg_type: MsgType
    nbytes: int


@dataclass
class ChannelBus:
    """FIFO queues keyed by (sender, receiver), with exact byte counters
    per direction and per message type. A bus built with `record=True`
    also keeps a log, one `LogRecord` per message sent."""

    record: bool = False
    queues: dict = field(default_factory=dict)
    byte_counts: dict = field(default_factory=dict)
    seq_counts: dict = field(default_factory=dict)
    type_bytes: dict = field(default_factory=dict)
    type_counts: dict = field(default_factory=dict)
    log: list = field(default_factory=list)

    def send(self, message: Message) -> int:
        """Encode and enqueue; assigns the per-channel sequence number.
        Returns the encoded length."""
        key = (message.sender, message.receiver)
        message.seq = self.seq_counts.get(key, 0)
        data = encode(message)  # may raise: commit nothing before it
        self.seq_counts[key] = message.seq + 1
        queue = self.queues.get(key)
        if queue is None:
            queue = self.queues[key] = deque()
        queue.append(data)
        n = len(data)
        self.byte_counts[key] = self.byte_counts.get(key, 0) + n
        t = message.msg_type
        self.type_bytes[t] = self.type_bytes.get(t, 0) + n
        self.type_counts[t] = self.type_counts.get(t, 0) + 1
        if self.record:
            self.log.append(LogRecord(message.round, message.seq, message.sender,
                                      message.receiver, t, n))
        return n

    def recv(self, receiver: int, sender: int) -> Message:
        """Pop the oldest pending message from sender to receiver; raises
        EmptyChannel when nothing is pending."""
        q = self.queues.get((sender, receiver))
        if not q:
            raise EmptyChannel(f"no message from {sender} to {receiver}")
        return decode(q.popleft())

    def bytes_sent(self, sender: int | None = None, receiver: int | None = None) -> int:
        total = 0
        for (s, r), n in self.byte_counts.items():
            if sender is not None and s != sender:
                continue
            if receiver is not None and r != receiver:
                continue
            total += n
        return total

    def bytes_by_type(self, msg_type: MsgType) -> int:
        return self.type_bytes.get(msg_type, 0)

    def count_by_type(self, msg_type: MsgType) -> int:
        return self.type_counts.get(msg_type, 0)

    def counters(self) -> tuple[dict, dict, dict, dict]:
        """Copies of the per-channel sequence and byte counters and the
        per-type byte and message counters."""
        return (dict(self.seq_counts), dict(self.byte_counts),
                dict(self.type_bytes), dict(self.type_counts))

    def restore_counters(self, counters: tuple[dict, dict, dict, dict]) -> None:
        """Set the counters to copies of a `counters()` result. Only for a
        bus with nothing queued and no log, which could not hold the
        messages those counts stand for."""
        if self.record or any(self.queues.values()):
            raise ValueError("cannot restore the counters of a recording or busy bus")
        self.seq_counts, self.byte_counts, self.type_bytes, self.type_counts = (
            dict(c) for c in counters)

    def dump_log(self, path) -> None:
        """One line per message: round seq sender receiver type bytes."""
        if not self.record:
            raise ValueError("the bus was not built to record its log")
        with open(path, "w") as f:
            for rec in self.log:
                f.write(f"{rec.round} {rec.seq} {rec.sender} {rec.receiver} "
                        f"{rec.msg_type.name} {rec.nbytes}\n")
