import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.transport import (HEADER_LEN, ChannelBus, CodecError, CorruptStream,
                                EmptyChannel, FieldOutOfRange, Message, MsgType,
                                TrailingBytes, Truncated, UnsupportedMessage,
                                decode, encode)

TENSOR_TYPES = [t for t in MsgType if t != MsgType.CONTROL]


def tensor_message(msg_type=MsgType.SMASHED_ACTIVATIONS, shape=(2, 3), **kw):
    rng = np.random.default_rng(0)
    return Message(msg_type, kw.pop("sender", 1), kw.pop("receiver", 0),
                   kw.pop("round", 0), kw.pop("seq", 0),
                   payload=rng.normal(size=shape), **kw)


class TestLayout:
    def test_control_message_length(self):
        msg = Message(MsgType.CONTROL, 1, 0, control=7)
        data = encode(msg)
        assert HEADER_LEN == 19
        assert len(data) == 19 + 1

    def test_2x3_tensor_length(self):
        data = encode(tensor_message(shape=(2, 3)))
        assert len(data) == 19 + 2 * 4 + 48 == 75

    def test_deterministic(self):
        m = tensor_message()
        assert encode(m) == encode(m)


class TestRoundTrip:
    @pytest.mark.parametrize("msg_type", TENSOR_TYPES)
    def test_tensor_variants(self, msg_type):
        m = tensor_message(msg_type, shape=(4,))
        assert decode(encode(m)) == m

    def test_control_variant(self):
        m = Message(MsgType.CONTROL, 2, 3, round=9, seq=4, control=200)
        assert decode(encode(m)) == m

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
        assert decode(encode(m)) == m


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
        data = bytearray(encode(tensor_message()))
        data[5] = 250
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
    @given(extra=st.binary(min_size=1, max_size=16), control=st.booleans())
    def test_trailing_bytes_rejected(self, extra, control):
        msg = Message(MsgType.CONTROL, 1, 0, control=3) if control else tensor_message()
        with pytest.raises(TrailingBytes):
            decode(encode(msg) + extra)

    def test_rank_zero_round_trip(self):
        m = Message(MsgType.LABELS, 1, 0, payload=np.float64(2.5))
        assert len(encode(m)) == HEADER_LEN + 8
        assert decode(encode(m)) == m


class TestEncodeErrors:
    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(["sender", "receiver", "round", "seq"]),
           value=st.one_of(st.integers(-2**40, -1), st.integers(2**32, 2**40)),
           control=st.booleans())
    def test_out_of_range_header_field(self, field, value, control):
        msg = Message(MsgType.CONTROL, 1, 0) if control else tensor_message()
        setattr(msg, field, value)
        with pytest.raises(FieldOutOfRange):
            encode(msg)

    @pytest.mark.parametrize("field, value", [("sender", 70000), ("receiver", 65536)])
    def test_sixteen_bit_ids(self, field, value):
        msg = tensor_message(**{field: value})
        with pytest.raises(FieldOutOfRange) as info:
            encode(msg)
        assert isinstance(info.value, CodecError)

    def test_out_of_range_control_code(self):
        with pytest.raises(FieldOutOfRange):
            encode(Message(MsgType.CONTROL, 1, 0, control=256))


class TestBus:
    def test_fifo_per_channel(self):
        bus = ChannelBus()
        m1 = tensor_message(shape=(1,), sender=1, receiver=0)
        m2 = tensor_message(shape=(2,), sender=1, receiver=0)
        bus.send(m1)
        bus.send(m2)
        assert bus.recv(0, 1) == m1
        assert bus.recv(0, 1) == m2

    def test_counter_exact(self):
        bus = ChannelBus()
        bus.send(tensor_message(shape=(2, 3)))
        assert bus.bytes_sent() == 75

    def test_empty_channel_signal(self):
        bus = ChannelBus()
        with pytest.raises(EmptyChannel):
            bus.recv(0, 1)
        with pytest.raises(EmptyChannel):
            bus.recv(5)

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
        assert bus.bytes_sent(sender=1) == 75
        assert bus.bytes_sent(receiver=1) == 75
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
        assert bus.bytes_sent(sender=2) == 0
        assert len(bus.log) == 1
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

    def test_one_producer_one_consumer_threads(self):
        bus = ChannelBus()
        n = 200
        received = []

        def producer():
            for _ in range(n):
                bus.send(tensor_message(shape=(1,), sender=1, receiver=0))

        def consumer():
            while len(received) < n:
                try:
                    received.append(bus.recv(0, 1).seq)
                except EmptyChannel:
                    pass

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert received == list(range(n))
