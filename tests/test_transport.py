
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.transport import (HEADER_LEN, ChannelBus, CodecError, CorruptStream,
                                EmptyChannel, FieldOutOfRange, Message, MsgType,
                                TrailingBytes, Truncated, UnsupportedMessage,
                                decode, encode)

TENSOR_TYPES = list(MsgType)


def messages_equal(a: Message, b: Message) -> bool:
    """Equal header fields, and equal payloads in shape and value."""
    if (a.msg_type, a.sender, a.receiver, a.round, a.seq) != (
            b.msg_type, b.sender, b.receiver, b.round, b.seq):
        return False
    if a.payload is None or b.payload is None:
        return a.payload is None and b.payload is None
    return a.payload.shape == b.payload.shape and np.array_equal(a.payload, b.payload)


def tensor_message(msg_type=MsgType.SMASHED_ACTIVATIONS, shape=(2, 3), **kw):
    rng = np.random.default_rng(0)
    return Message(msg_type, kw.pop("sender", 1), kw.pop("receiver", 0),
                   kw.pop("round", 0), kw.pop("seq", 0),
                   payload=rng.normal(size=shape), **kw)


class TestLayout:
    def test_2x3_tensor_length(self):
        data = encode(tensor_message(shape=(2, 3)))
        assert HEADER_LEN == 19
        assert len(data) == 19 + 2 * 4 + 48 == 75

    def test_deterministic(self):
        m = tensor_message()
        assert encode(m) == encode(m)


class TestRoundTrip:
    @pytest.mark.parametrize("msg_type", TENSOR_TYPES)
    def test_tensor_variants(self, msg_type):
        m = tensor_message(msg_type, shape=(4,))
        assert messages_equal(decode(encode(m)), m)

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
        m = Message(msg_type, sender, receiver, rnd, seq, payload)
        assert messages_equal(decode(encode(m)), m)


class TestDecodeErrors:
    def test_bad_magic(self):
        data = b"XXXX" + encode(tensor_message())[4:]
        with pytest.raises(CorruptStream):
            decode(data)

    def test_bad_version(self):
        data = bytearray(encode(tensor_message()))
        data[4] = 99
        with pytest.raises(CorruptStream):
            decode(bytes(data))

    def test_unknown_msg_type(self):
        for code in (0, 7, 250):  # codes no message type has
            data = bytearray(encode(tensor_message()))
            data[5] = code
            with pytest.raises(UnsupportedMessage):
                decode(bytes(data))

    def test_truncated_payload(self):
        data = encode(tensor_message(shape=(2, 3)))
        with pytest.raises(Truncated):
            decode(data[:-8])

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            decode(b"SPL1")

    def test_truncated_dims(self):
        data = encode(tensor_message(shape=(2, 3)))
        with pytest.raises(Truncated):
            decode(data[:HEADER_LEN + 2])

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(1, 74))
    def test_any_truncation_is_an_error_not_a_crash(self, cut):
        data = encode(tensor_message(shape=(2, 3)))
        with pytest.raises((Truncated, CorruptStream)):
            decode(data[:len(data) - cut])

    @settings(max_examples=100, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=16))
    def test_trailing_bytes_rejected(self, extra):
        with pytest.raises(TrailingBytes):
            decode(encode(tensor_message()) + extra)

    @pytest.mark.parametrize("payload", [[[1, 0], [0, 1]], np.array([[1, 0], [0, 1]]),
                                         np.array([3, -2], dtype=np.int64), (0.5, 2)])
    def test_message_keeps_its_payload_and_encode_converts_it(self, payload):
        # encode is the one place a payload turns float64: the frame of an
        # int64 array or a list is the frame of its float64 array
        m = Message(MsgType.LABELS, 1, 0, payload=payload)
        assert m.payload is payload
        as_float = Message(MsgType.LABELS, 1, 0, payload=np.asarray(payload, dtype=np.float64))
        assert encode(m) == encode(as_float)
        assert m.payload is payload

    def test_non_contiguous_payload_encodes_its_values(self):
        tensor = np.arange(12.0).reshape(3, 4)[:, ::2]
        frame = encode(Message(MsgType.BODY_OUTPUT, 0, 1, payload=tensor))
        assert frame == encode(Message(MsgType.BODY_OUTPUT, 0, 1, payload=tensor.copy()))
        assert decode(frame).payload.tobytes() == tensor.tobytes()

    def test_rank_zero_round_trip(self):
        m = Message(MsgType.LABELS, 1, 0, payload=np.float64(2.5))
        assert len(encode(m)) == HEADER_LEN + 8
        assert messages_equal(decode(encode(m)), m)


frames = st.builds(lambda t, shape, seed: Message(t, 1, 0, 2, 3,
                                                  np.random.default_rng(seed).normal(size=shape)),
                   st.sampled_from(TENSOR_TYPES),
                   st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
                   st.integers(0, 2**31)).map(encode)


class TestFrameBoundaries:
    @settings(max_examples=200, deadline=None)
    @given(frame=frames, data=st.data())
    def test_any_truncation_or_extension_is_a_codec_error(self, frame, data):
        cut = data.draw(st.integers(1, len(frame)))
        with pytest.raises(CodecError):
            decode(frame[:len(frame) - cut])
        with pytest.raises(CodecError):
            decode(frame + data.draw(st.binary(min_size=1, max_size=24)))

    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple),
           seed=st.integers(0, 2**31), mutable=st.booleans())
    def test_decoded_payload_is_a_read_only_view_equal_to_the_tensor(self, shape, seed, mutable):
        tensor = np.random.default_rng(seed).normal(size=shape)
        frame = encode(Message(MsgType.BODY_OUTPUT, 0, 1, payload=tensor))
        source = bytearray(frame) if mutable else frame
        payload = decode(source).payload
        assert payload.shape == tensor.shape
        assert payload.tobytes() == tensor.tobytes()
        assert not payload.flags.writeable
        with pytest.raises(ValueError):
            payload[...] = 0.0
        if mutable:  # a mutable frame is copied: changing it later changes nothing
            source[-8:] = bytes(8)
            assert payload.tobytes() == tensor.tobytes()


class TestEncodeErrors:
    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(["sender", "receiver", "round", "seq"]),
           value=st.one_of(st.integers(-2**40, -1), st.integers(2**32, 2**40)))
    def test_out_of_range_header_field(self, field, value):
        msg = tensor_message()
        setattr(msg, field, value)
        with pytest.raises(FieldOutOfRange):
            encode(msg)

    @pytest.mark.parametrize("field, value", [("sender", 70000), ("receiver", 65536)])
    def test_sixteen_bit_ids(self, field, value):
        msg = tensor_message(**{field: value})
        with pytest.raises(FieldOutOfRange) as info:
            encode(msg)
        assert isinstance(info.value, CodecError)


class TestBus:
    def test_fifo_per_channel(self):
        bus = ChannelBus()
        m1 = tensor_message(shape=(1,), sender=1, receiver=0)
        m2 = tensor_message(shape=(2,), sender=1, receiver=0)
        bus.send(m1)
        bus.send(m2)
        assert messages_equal(bus.recv(0, 1), m1)
        assert messages_equal(bus.recv(0, 1), m2)

    def test_counter_exact(self):
        bus = ChannelBus()
        bus.send(tensor_message(shape=(2, 3)))
        assert bus.bytes_sent() == 75

    def test_empty_channel_signal(self):
        bus = ChannelBus()
        with pytest.raises(EmptyChannel):
            bus.recv(0, 1)

    def test_seq_assigned_per_channel(self):
        bus = ChannelBus()
        for _ in range(3):
            bus.send(tensor_message(sender=1, receiver=0))
        bus.send(tensor_message(sender=2, receiver=0))
        seqs = [bus.recv(0, 1).seq for _ in range(3)]
        assert seqs == [0, 1, 2]
        assert bus.recv(0, 2).seq == 0

    def test_interleaved_channels_keep_per_channel_order(self):
        rng = np.random.default_rng(3)
        bus = ChannelBus()
        sent = {(1, 0): [], (2, 0): [], (1, 3): []}
        channels = list(sent)
        for _ in range(60):
            s, r = channels[rng.integers(len(channels))]
            m = tensor_message(shape=(1,), sender=s, receiver=r)
            bus.send(m)
            sent[(s, r)].append(m.seq)
        for (s, r), seqs in sent.items():
            got = [bus.recv(r, s).seq for _ in range(len(seqs))]
            assert got == seqs

    def test_byte_count_per_direction(self):
        bus = ChannelBus()
        bus.send(tensor_message(sender=1, receiver=0, shape=(2, 3)))
        bus.send(tensor_message(sender=0, receiver=1, shape=(2, 3)))
        assert [(rec.sender, rec.receiver, rec.nbytes) for rec in bus.log] == [
            (1, 0, 75), (0, 1, 75)]
        assert bus.bytes_sent() == 150

    def test_log_records(self):
        bus = ChannelBus()
        bus.send(tensor_message(shape=(2, 3), round=4))
        rec = bus.log[0]
        assert (rec.round, rec.sender, rec.receiver, rec.nbytes) == (4, 1, 0, 75)
        assert rec.msg_type == MsgType.SMASHED_ACTIVATIONS

    def test_rejected_send_commits_nothing(self):
        bus = ChannelBus()
        bus.send(tensor_message(sender=1, receiver=0))
        with pytest.raises(FieldOutOfRange):
            bus.send(tensor_message(sender=2, receiver=0, round=2**33))
        assert [rec.sender for rec in bus.log] == [1]
        assert bus.bytes_sent() == 75
        bus.send(tensor_message(sender=2, receiver=0))
        assert bus.recv(0, 2).seq == 0
        with pytest.raises(EmptyChannel):
            bus.recv(0, 2)

    def test_dump_log(self, tmp_path):
        bus = ChannelBus()
        bus.send(tensor_message(shape=(2, 3), round=1))
        path = tmp_path / "messages.log"
        bus.dump_log(path)
        assert path.read_text() == "1 0 1 0 SMASHED_ACTIVATIONS 75\n"

    def test_counts_read_the_log(self):
        bus = ChannelBus()
        bus.send(tensor_message(shape=(2, 3)))
        bus.send(tensor_message(MsgType.LABELS, shape=(4,)))
        bus.send(tensor_message(shape=(1,), sender=0, receiver=1))
        assert [rec.nbytes for rec in bus.log] == [75, 55, 31]
        assert bus.bytes_by_type(MsgType.SMASHED_ACTIVATIONS) == 75 + 31
        assert bus.count_by_type(MsgType.SMASHED_ACTIVATIONS) == 2
        assert (bus.bytes_by_type(MsgType.LABELS), bus.count_by_type(MsgType.LABELS)) == (55, 1)
        assert (bus.bytes_by_type(MsgType.PARAM_BLOB), bus.count_by_type(MsgType.PARAM_BLOB)) == (0, 0)
        assert bus.bytes_sent() == 75 + 55 + 31

    def test_log_restores_into_a_fresh_bus(self):
        bus = ChannelBus()
        bus.send(tensor_message(sender=1, receiver=0, shape=(2, 3)))
        bus.send(tensor_message(sender=0, receiver=1))
        bus.recv(0, 1)
        bus.recv(1, 0)
        saved = list(bus.log)
        bus.send(tensor_message(sender=1, receiver=0))
        fresh = ChannelBus()
        fresh.restore_log(saved)
        saved.clear()  # the bus holds a copy
        assert fresh.log == bus.log[:2] and fresh.bytes_sent() == 150
        fresh.send(tensor_message(sender=1, receiver=0))
        fresh.send(tensor_message(sender=2, receiver=0))
        assert (fresh.recv(0, 1).seq, fresh.recv(0, 2).seq) == (1, 0)
        assert fresh.log == bus.log + [fresh.log[-1]]
        with pytest.raises(ValueError):  # a message is queued
            bus.restore_log(fresh.log)
