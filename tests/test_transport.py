import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import transport
from splitsim.transport import (HEADER_LEN, ChannelBus, CodecError, CorruptStream,
                                EmptyChannel, FieldOutOfRange, LogRecord, MsgType,
                                ProtocolViolation, TrailingBytes, Truncated,
                                UnsupportedMessage, decode, encode)

TENSOR_TYPES = list(MsgType)
SMASHED = MsgType.SMASHED_ACTIVATIONS


def round_trips(msg_type, sender, receiver, rnd, seq, payload) -> bool:
    """decode(encode(...)) gives back the header fields, with the frame's
    length as `nbytes`, and the payload in shape and value."""
    frame = encode(msg_type, sender, receiver, rnd, seq, payload)
    record, decoded = decode(frame)
    return (record == LogRecord(rnd, seq, sender, receiver, msg_type, len(frame))
            and decoded.shape == np.shape(payload) and np.array_equal(decoded, payload))


def tensor(shape=(2, 3)):
    return np.random.default_rng(0).normal(size=shape)


def tensor_frame(msg_type=SMASHED, shape=(2, 3), sender=1, receiver=0, rnd=0, seq=0):
    return encode(msg_type, sender, receiver, rnd, seq, tensor(shape))


class TestLayout:
    def test_2x3_tensor_length(self):
        data = tensor_frame(shape=(2, 3))
        assert HEADER_LEN == 19
        assert len(data) == 19 + 2 * 4 + 48 == 75

    def test_deterministic(self):
        payload = tensor()
        assert encode(SMASHED, 1, 0, 0, 0, payload) == encode(SMASHED, 1, 0, 0, 0, payload)


class TestRoundTrip:
    @pytest.mark.parametrize("msg_type", TENSOR_TYPES)
    def test_tensor_variants(self, msg_type):
        assert round_trips(msg_type, 1, 0, 0, 0, tensor((4,)))

    @settings(max_examples=200, deadline=None)
    @given(
        msg_type=st.sampled_from(TENSOR_TYPES),
        sender=st.integers(0, 65535),
        receiver=st.integers(0, 65535),
        rnd=st.integers(0, 2**32 - 1),
        seq=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        seed=st.integers(0, 2**31),
    )
    def test_random_messages(self, msg_type, sender, receiver, rnd, seq, shape, seed):
        payload = np.random.default_rng(seed).normal(size=shape)
        assert round_trips(msg_type, sender, receiver, rnd, seq, payload)


class TestDecodeErrors:
    def test_bad_magic(self):
        data = b"XXXX" + tensor_frame()[4:]
        with pytest.raises(CorruptStream):
            decode(data)

    def test_bad_version(self):
        data = bytearray(tensor_frame())
        data[4] = 99
        with pytest.raises(CorruptStream):
            decode(bytes(data))

    def test_unknown_msg_type(self):
        for code in (0, 7, 250):  # codes no message type has
            data = bytearray(tensor_frame())
            data[5] = code
            with pytest.raises(UnsupportedMessage):
                decode(bytes(data))

    def test_truncated_payload(self):
        data = tensor_frame(shape=(2, 3))
        with pytest.raises(Truncated):
            decode(data[:-8])

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            decode(b"SPL1")

    def test_truncated_dims(self):
        data = tensor_frame(shape=(2, 3))
        with pytest.raises(Truncated):
            decode(data[:HEADER_LEN + 2])

    @pytest.mark.parametrize("payload", [[[1, 0], [0, 1]], np.array([[1, 0], [0, 1]]),
                                         np.array([3, -2], dtype=np.int64), (0.5, 2)])
    def test_encode_converts_the_payload_and_leaves_it_as_given(self, payload):
        # encode is the one place a payload turns float64: the frame of an
        # int64 array or a list is the frame of its float64 array
        before = (type(payload), np.asarray(payload).dtype, np.array(payload))
        as_float = np.asarray(payload, dtype=np.float64)
        assert encode(MsgType.LABELS, 1, 0, 0, 0, payload) == encode(
            MsgType.LABELS, 1, 0, 0, 0, as_float)
        assert type(payload) is before[0] and np.asarray(payload).dtype == before[1]
        assert np.array_equal(payload, before[2])

    def test_non_contiguous_payload_encodes_its_values(self):
        strided = np.arange(12.0).reshape(3, 4)[:, ::2]
        frame = encode(MsgType.BODY_OUTPUT, 0, 1, 0, 0, strided)
        assert frame == encode(MsgType.BODY_OUTPUT, 0, 1, 0, 0, strided.copy())
        assert decode(frame)[1].tobytes() == strided.tobytes()

    @pytest.mark.parametrize("rank", [65, 255])
    def test_rank_numpy_cannot_hold_is_a_codec_error(self, rank):
        # well-formed but for its rank: dims of 1, one float64 of payload
        frame = (struct.pack("<4sBBHHIIB", b"SPL1", 1, int(SMASHED), 1, 0, 0, 0, rank)
                 + struct.pack(f"<{rank}I", *[1] * rank) + bytes(8))
        with pytest.raises(CodecError):
            decode(frame)

    def test_highest_rank_numpy_holds_round_trips(self):
        assert round_trips(SMASHED, 1, 0, 0, 0, np.full((1,) * transport._MAX_RANK, 2.5))

    def test_rank_zero_round_trip(self):
        payload = np.float64(2.5)
        assert len(encode(MsgType.LABELS, 1, 0, 0, 0, payload)) == HEADER_LEN + 8
        assert round_trips(MsgType.LABELS, 1, 0, 0, 0, payload)


frames = st.builds(lambda t, shape, seed: encode(t, 1, 0, 2, 3,
                                                 np.random.default_rng(seed).normal(size=shape)),
                   st.sampled_from(TENSOR_TYPES),
                   st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
                   st.integers(0, 2**31))


class TestFrameBoundaries:
    @settings(max_examples=200, deadline=None)
    @given(frame=frames, data=st.data())
    def test_any_truncation_is_truncated_and_any_extension_trailing_bytes(self, frame, data):
        cut = data.draw(st.integers(1, len(frame)))
        with pytest.raises(Truncated):
            decode(frame[:len(frame) - cut])
        with pytest.raises(TrailingBytes):
            decode(frame + data.draw(st.binary(min_size=1, max_size=24)))

    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple),
           seed=st.integers(0, 2**31), mutable=st.booleans())
    def test_decoded_payload_is_a_read_only_view_equal_to_the_tensor(self, shape, seed, mutable):
        sent = np.random.default_rng(seed).normal(size=shape)
        frame = encode(MsgType.BODY_OUTPUT, 0, 1, 0, 0, sent)
        source = bytearray(frame) if mutable else frame
        _, payload = decode(source)
        assert payload.shape == sent.shape
        assert payload.tobytes() == sent.tobytes()
        assert not payload.flags.writeable
        with pytest.raises(ValueError):
            payload[...] = 0.0
        if mutable:  # a mutable frame is copied: changing it later changes nothing
            source[-8:] = bytes(8)
            assert payload.tobytes() == sent.tobytes()


class TestEncodeErrors:
    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(["sender", "receiver", "rnd", "seq"]),
           value=st.one_of(st.integers(-2**40, -1), st.integers(2**32, 2**40)))
    def test_out_of_range_header_field(self, field, value):
        with pytest.raises(FieldOutOfRange):
            tensor_frame(**{field: value})

    @pytest.mark.parametrize("field, value", [("sender", 70000), ("receiver", 65536)])
    def test_sixteen_bit_ids(self, field, value):
        with pytest.raises(FieldOutOfRange) as info:
            tensor_frame(**{field: value})
        assert isinstance(info.value, CodecError)

    def test_none_payload(self):
        with pytest.raises(CodecError, match="without payload"):
            encode(SMASHED, 1, 0, 0, 0, None)


class TestBus:
    def test_fifo_per_channel(self):
        bus = ChannelBus()
        first, second = tensor((1,)), tensor((2,)) + 1.0
        bus.send(SMASHED, 1, 0, 0, first)
        bus.send(SMASHED, 1, 0, 0, second)
        assert np.array_equal(bus.recv(0, 1, SMASHED), first)
        assert np.array_equal(bus.recv(0, 1, SMASHED), second)

    def test_counter_exact(self):
        bus = ChannelBus()
        assert bus.send(SMASHED, 1, 0, 0, tensor((2, 3))) == 75
        assert bus.bytes_sent() == 75

    def test_empty_channel_signal(self):
        bus = ChannelBus()
        with pytest.raises(EmptyChannel):
            bus.recv(0, 1, SMASHED)

    def test_recv_of_another_type_is_a_protocol_violation(self):
        bus = ChannelBus()
        bus.send(MsgType.PARAM_BLOB, 1, 0, 0, tensor((3,)))
        with pytest.raises(ProtocolViolation,
                           match="expected SMASHED_GRAD from 1, got PARAM_BLOB"):
            bus.recv(0, 1, MsgType.SMASHED_GRAD)

    def test_seq_assigned_per_channel(self):
        bus = ChannelBus()
        for value in range(3):
            bus.send(SMASHED, 1, 0, 0, [value])
        bus.send(SMASHED, 2, 0, 0, [9])
        assert [(rec.sender, rec.seq) for rec in bus.log] == [(1, 0), (1, 1), (1, 2), (2, 0)]
        assert [bus.recv(0, 1, SMASHED)[0] for _ in range(3)] == [0, 1, 2]
        assert bus.recv(0, 2, SMASHED)[0] == 9

    def test_interleaved_channels_keep_per_channel_order(self):
        rng = np.random.default_rng(3)
        bus = ChannelBus()
        sent = {(1, 0): [], (2, 0): [], (1, 3): []}
        channels = list(sent)
        for value in range(60):
            s, r = channels[rng.integers(len(channels))]
            bus.send(SMASHED, s, r, 0, [value])
            sent[(s, r)].append(value)
        for (s, r), values in sent.items():
            assert [rec.seq for rec in bus.log if (rec.sender, rec.receiver) == (s, r)] == list(
                range(len(values)))
            assert [bus.recv(r, s, SMASHED)[0] for _ in values] == values

    def test_byte_count_per_direction(self):
        bus = ChannelBus()
        bus.send(SMASHED, 1, 0, 0, tensor((2, 3)))
        bus.send(SMASHED, 0, 1, 0, tensor((2, 3)))
        assert [(rec.sender, rec.receiver, rec.nbytes) for rec in bus.log] == [
            (1, 0, 75), (0, 1, 75)]
        assert bus.bytes_sent() == 150

    def test_log_records(self):
        bus = ChannelBus()
        bus.send(SMASHED, 1, 0, 4, tensor((2, 3)))
        rec = bus.log[0]
        assert (rec.round, rec.sender, rec.receiver, rec.nbytes) == (4, 1, 0, 75)
        assert rec.msg_type == SMASHED

    @settings(max_examples=200, deadline=None)
    @given(msg_type=st.sampled_from(TENSOR_TYPES), sender=st.integers(0, 65535),
           receiver=st.integers(0, 65535), rnd=st.integers(0, 2**32 - 1),
           earlier=st.integers(0, 3),
           shape=st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
           seed=st.integers(0, 2**31))
    def test_decoded_frame_is_the_senders_log_record_and_payload(
            self, msg_type, sender, receiver, rnd, earlier, shape, seed):
        payload = np.random.default_rng(seed).normal(size=shape)
        bus = ChannelBus()
        for _ in range(earlier):  # earlier messages on the channel number this one
            bus.send(msg_type, sender, receiver, rnd, [0.0])
        nbytes = bus.send(msg_type, sender, receiver, rnd, payload)
        record, decoded = decode(bus.queues[(sender, receiver)][-1])
        assert record == bus.log[-1] == LogRecord(rnd, earlier, sender, receiver, msg_type,
                                                  nbytes)
        assert decoded.shape == payload.shape and decoded.tobytes() == payload.tobytes()

    def test_rejected_send_commits_nothing(self):
        bus = ChannelBus()
        bus.send(SMASHED, 1, 0, 0, tensor())
        with pytest.raises(FieldOutOfRange):
            bus.send(SMASHED, 2, 0, 2**33, tensor())
        with pytest.raises(CodecError, match="without payload"):
            bus.send(SMASHED, 2, 0, 0, None)
        assert [rec.sender for rec in bus.log] == [1]
        assert bus.bytes_sent() == 75
        bus.send(SMASHED, 2, 0, 0, [7.0])
        assert bus.log[-1].seq == 0
        assert bus.recv(0, 2, SMASHED)[0] == 7.0
        with pytest.raises(EmptyChannel):
            bus.recv(0, 2, SMASHED)

    def test_dump_log(self, tmp_path):
        bus = ChannelBus()
        bus.send(SMASHED, 1, 0, 1, tensor((2, 3)))
        path = tmp_path / "messages.log"
        bus.dump_log(path)
        assert path.read_text() == "1 0 1 0 SMASHED_ACTIVATIONS 75\n"

    def test_counts_read_the_log(self):
        bus = ChannelBus()
        bus.send(SMASHED, 1, 0, 0, tensor((2, 3)))
        bus.send(MsgType.LABELS, 1, 0, 0, tensor((4,)))
        bus.send(SMASHED, 0, 1, 0, tensor((1,)))
        assert [rec.nbytes for rec in bus.log] == [75, 55, 31]
        assert bus.bytes_by_type(SMASHED) == 75 + 31
        assert bus.count_by_type(SMASHED) == 2
        assert (bus.bytes_by_type(MsgType.LABELS), bus.count_by_type(MsgType.LABELS)) == (55, 1)
        assert (bus.bytes_by_type(MsgType.PARAM_BLOB), bus.count_by_type(MsgType.PARAM_BLOB)) == (0, 0)
        assert bus.bytes_sent() == 75 + 55 + 31

    def test_log_restores_into_a_fresh_bus(self):
        bus = ChannelBus()
        bus.send(SMASHED, 1, 0, 0, tensor((2, 3)))
        bus.send(SMASHED, 0, 1, 0, tensor())
        bus.recv(0, 1, SMASHED)
        bus.recv(1, 0, SMASHED)
        saved = list(bus.log)
        bus.send(SMASHED, 1, 0, 0, tensor())
        fresh = ChannelBus()
        fresh.restore_log(saved)
        saved.clear()  # the bus holds a copy
        assert fresh.log == bus.log[:2] and fresh.bytes_sent() == 150
        fresh.send(SMASHED, 1, 0, 0, tensor())
        fresh.send(SMASHED, 2, 0, 0, [2.0])
        assert [rec.seq for rec in fresh.log[-2:]] == [1, 0]
        assert np.array_equal(fresh.recv(0, 1, SMASHED), tensor())
        assert fresh.recv(0, 2, SMASHED)[0] == 2.0
        assert fresh.log == bus.log + [fresh.log[-1]]
        with pytest.raises(ValueError):  # a message is queued
            bus.restore_log(fresh.log)
