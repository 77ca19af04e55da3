"""Simulated network: typed messages, a bit-exact little-endian binary
codec, per-channel FIFO queues, and byte counters.

The bus is in-process, but every message transits the codec so the byte
counters and the wire format stay honest for a future socket backend.
"""

from __future__ import annotations

import enum
import math
import struct
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"SPL1"
VERSION = 1

_HEADER = struct.Struct("<4sBBHHIIB")  # magic, version, type, sender, receiver, round, seq, rank
HEADER_LEN = _HEADER.size  # 19


class MsgType(enum.IntEnum):
    SMASHED_ACTIVATIONS = 1
    BODY_OUTPUT = 2
    BODY_OUTPUT_GRAD = 3
    SMASHED_GRAD = 4
    PARAM_BLOB = 5
    LABELS = 6
    CONTROL = 7


class CodecError(ValueError):
    pass


class CorruptStream(CodecError):
    """Bad magic or version byte."""


class Truncated(CodecError):
    """Frame shorter than its declared payload."""


class UnsupportedMessage(CodecError):
    """Unknown msg_type code."""


class TrailingBytes(CodecError):
    """Frame longer than its declared payload or control code."""


class FieldOutOfRange(CodecError):
    """A header field (sender, receiver, round, seq) or the control code
    does not fit its wire width."""


class EmptyChannel(Exception):
    """recv on a channel with no pending message."""


@dataclass
class Message:
    msg_type: MsgType
    sender: int
    receiver: int
    round: int = 0
    seq: int = 0
    payload: np.ndarray | None = None  # tensor payload; None for control
    control: int = 0                   # control code, CONTROL messages only

    def __post_init__(self):
        if self.payload is not None:
            self.payload = np.asarray(self.payload, dtype=np.float64)

    def __eq__(self, other):
        if not isinstance(other, Message):
            return NotImplemented
        if (self.msg_type, self.sender, self.receiver, self.round, self.seq,
                self.control) != (other.msg_type, other.sender, other.receiver,
                                  other.round, other.seq, other.control):
            return False
        if (self.payload is None) != (other.payload is None):
            return False
        if self.payload is None:
            return True
        return (self.payload.shape == other.payload.shape
                and np.array_equal(self.payload, other.payload))


def encode(message: Message) -> bytes:
    """Serialize to the fixed wire layout; deterministic. Raises
    FieldOutOfRange when a header field does not fit its wire width."""
    control = message.msg_type == MsgType.CONTROL
    tensor = message.payload
    if not control and tensor is None:
        raise CodecError("tensor message without payload")
    if not control and tensor.ndim > 255:
        raise CodecError("tensor rank exceeds 255")
    try:
        header = _HEADER.pack(MAGIC, VERSION, int(message.msg_type),
                              message.sender, message.receiver,
                              message.round, message.seq, 0 if control else tensor.ndim)
        if control:
            return header + struct.pack("<B", message.control)
    except struct.error as exc:
        raise FieldOutOfRange(str(exc)) from None
    dims = struct.pack(f"<{tensor.ndim}I", *tensor.shape)
    payload = np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    return header + dims + payload


def decode(data: bytes) -> Message:
    """Inverse of encode; raises CorruptStream / Truncated /
    UnsupportedMessage / TrailingBytes."""
    if len(data) < HEADER_LEN:
        raise Truncated("frame shorter than header")
    magic, version, type_code, sender, receiver, rnd, seq, rank = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptStream(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptStream(f"unsupported version {version}")
    try:
        msg_type = MsgType(type_code)
    except ValueError:
        raise UnsupportedMessage(f"unknown msg_type {type_code}") from None
    off = HEADER_LEN
    if msg_type == MsgType.CONTROL:
        if len(data) < off + 1:
            raise Truncated("missing control code")
        if len(data) > off + 1:
            raise TrailingBytes("bytes after the control code")
        (control,) = struct.unpack_from("<B", data, off)
        return Message(msg_type, sender, receiver, rnd, seq, None, control)
    if len(data) < off + 4 * rank:
        raise Truncated("missing dims")
    shape = struct.unpack_from(f"<{rank}I", data, off)
    off += 4 * rank
    count = math.prod(shape)
    if len(data) < off + 8 * count:
        raise Truncated("payload shorter than declared dims product")
    if len(data) > off + 8 * count:
        raise TrailingBytes("bytes after the declared payload")
    tensor = np.frombuffer(data, dtype="<f8", count=count, offset=off).reshape(shape).copy()
    return Message(msg_type, sender, receiver, rnd, seq, tensor)


@dataclass
class LogRecord:
    round: int
    seq: int
    sender: int
    receiver: int
    msg_type: MsgType
    nbytes: int


@dataclass
class ChannelBus:
    """FIFO queues keyed by (sender, receiver), with exact byte counters
    per direction and an optional message log.

    Safe for one producer plus one consumer per channel across threads;
    single-threaded use is the default.
    """

    queues: dict = field(default_factory=dict)
    byte_counts: dict = field(default_factory=dict)
    seq_counts: dict = field(default_factory=dict)
    log: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def send(self, message: Message) -> int:
        """Encode and enqueue; assigns the per-channel sequence number.
        Returns the encoded length."""
        key = (message.sender, message.receiver)
        with self._lock:
            message.seq = self.seq_counts.get(key, 0)
            data = encode(message)  # may raise: commit nothing before it
            self.seq_counts[key] = message.seq + 1
            self.queues.setdefault(key, deque()).append(data)
            self.byte_counts[key] = self.byte_counts.get(key, 0) + len(data)
            self.log.append(LogRecord(message.round, message.seq, message.sender,
                                      message.receiver, message.msg_type, len(data)))
        return len(data)

    def recv(self, receiver: int, sender: int | None = None) -> Message:
        """Pop the oldest pending message for receiver (optionally from a
        specific sender); raises EmptyChannel when nothing is pending."""
        with self._lock:
            if sender is not None:
                q = self.queues.get((sender, receiver))
                if not q:
                    raise EmptyChannel(f"no message from {sender} to {receiver}")
                return decode(q.popleft())
            for (s, r), q in self.queues.items():
                if r == receiver and q:
                    return decode(q.popleft())
        raise EmptyChannel(f"no message for {receiver}")

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
        return sum(rec.nbytes for rec in self.log if rec.msg_type == msg_type)

    def count_by_type(self, msg_type: MsgType) -> int:
        return sum(1 for rec in self.log if rec.msg_type == msg_type)

    def dump_log(self, path) -> None:
        """One line per message: round seq sender receiver type bytes."""
        with open(path, "w") as f:
            for rec in self.log:
                f.write(f"{rec.round} {rec.seq} {rec.sender} {rec.receiver} "
                        f"{rec.msg_type.name} {rec.nbytes}\n")
