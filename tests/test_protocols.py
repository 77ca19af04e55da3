import gc
import itertools
import math
import mmap
import os
import weakref

import numpy as np
import pytest

from splitsim import datagen, nn, protocols, transport
from splitsim.model_split import U_SHAPED, VANILLA, split_model
from splitsim.protocols import (FL, PROTOCOLS, SFV1, SFV2, SFV3, SL,
                                SERVER, PlanError, average_models,
                                composed_model, iter_batches, make_clients,
                                run_round)
from splitsim.transport import ChannelBus, MsgType, ProtocolViolation
from test_nn import models_equal

WIDTHS = [8, 16, 16, 16, 8, 1]
SPLIT = (1, 4)          # (front_cut, tail_cut) under U_SHAPED
SPLIT_VANILLA = (1, 5)  # under VANILLA: no tail
LR = 1e-3
BATCH = 32


def make_setup(n_clients, protocol, kind=U_SHAPED, seed=0, shift=0.6):
    datasets = datagen.generate_clients(datagen.desk_manifest(n_clients),
                                        shift_scale=shift, seed=seed)
    model = nn.init_model(WIDTHS, seed)
    cuts = None if protocol == FL else (SPLIT_VANILLA if kind == VANILLA else SPLIT)
    clients, server = make_clients(datasets, model, protocol, cuts, LR)
    return datasets, model, clients, server


def run_rounds(protocol, clients, server, order, epochs, bus=None):
    bus = bus or ChannelBus()
    for e in range(epochs):
        run_round(clients, server, protocol, tuple(order), e, bus, BATCH)
    return bus


def centralized_training(dataset, seed, epochs, lr=LR, batch=BATCH, widths=WIDTHS):
    """Independent oracle: plain uncut training on the same batch stream."""
    model = nn.init_model(list(widths), seed)
    state = nn.AdamState.for_params(model.flat, lr=lr)
    for _ in range(epochs):
        for xb, yb in iter_batches(dataset.train_x, dataset.train_y, batch):
            probs, outputs = nn.forward(model, xb)
            grads, _ = nn.backward(model, outputs, nn.bce_grad(probs, yb))
            nn.adam_step(model.flat, grads, state)
    return model


def expected_channels(protocol, kind, counts, widths, cuts, batch, rounds):
    """Every channel's (type, round, seq, bytes) sequence in closed form,
    keyed by (sender, receiver): `rounds` rounds of clients with
    `counts[cid]` training samples, in batches of `batch`, a model of
    `widths` cut at `cuts` (None under FL). A batch's frames follow from
    its size and the cut widths; at round end, FL, SFv1 and SFv2 send
    each client segment (the whole model under FL; front, and tail if it
    holds a layer) up and its average back down."""
    n_layers = len(widths) - 1

    def frame(*shape):
        return transport.HEADER_LEN + 4 * len(shape) + 8 * math.prod(shape)

    def params(lo, hi):  # the parameter count of layers lo..hi-1
        return sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(lo, hi))

    if protocol == FL:
        segments = [params(0, n_layers)]
    else:
        segments = [params(0, cuts[0])] + ([params(cuts[1], n_layers)]
                                           if cuts[1] < n_layers else [])
    expected = {}
    for rnd in range(rounds):
        for cid, n in counts.items():
            up = (protocols.wire_id(cid), SERVER)
            down = up[::-1]

            def add(channel, msg_type, nbytes):
                expected.setdefault(channel, []).append((msg_type, rnd, nbytes))

            for b in ([] if protocol == FL else [min(batch, n - lo) for lo in range(0, n, batch)]):
                add(up, MsgType.SMASHED_ACTIVATIONS, frame(b, widths[cuts[0]]))
                if kind == VANILLA:
                    add(up, MsgType.LABELS, frame(b))
                else:
                    add(down, MsgType.BODY_OUTPUT, frame(b, widths[cuts[1]]))
                    add(up, MsgType.BODY_OUTPUT_GRAD, frame(b, widths[cuts[1]]))
                add(down, MsgType.SMASHED_GRAD, frame(b, widths[cuts[0]]))
            if protocol in (FL, SFV1, SFV2):  # segments averaged at round end
                for size in segments:
                    add(up, MsgType.PARAM_BLOB, frame(size))
                    add(down, MsgType.PARAM_BLOB, frame(size))
    return {channel: [(t, rnd, seq, nbytes) for seq, (t, rnd, nbytes) in enumerate(msgs)]
            for channel, msgs in expected.items()}


def observed_channels(log):
    """Every channel's (type, round, seq, bytes) sequence in a bus log,
    keyed by (sender, receiver)."""
    observed = {}
    for rec in log:
        observed.setdefault((rec.sender, rec.receiver), []).append(
            (rec.msg_type, rec.round, rec.seq, rec.nbytes))
    return observed


class TestAverageModels:
    def test_simple_mean(self):
        avg = average_models([(0, np.array([0.0])), (1, np.array([2.0]))], {0: 1.0, 1: 1.0})
        assert avg[0] == 1.0

    def test_weighted_mean(self):
        avg = average_models([(0, np.array([0.0])), (1, np.array([4.0]))], {0: 1.0, 1: 3.0})
        assert avg[0] == 3.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError):
            average_models([(0, np.array([1.0])), (1, nn.init_model([2, 1], 0).flat)],
                           {0: 1.0, 1: 1.0})

    def test_order_of_input_list_irrelevant(self):
        vecs = [(i, np.array([float(i)])) for i in range(3)]
        w = {0: 1.0, 1: 2.0, 2: 3.0}
        a = average_models(vecs, w)
        b = average_models(vecs[::-1], w)
        assert a.tobytes() == b.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            average_models([], {})


class TestSingleClientEquivalence:
    @pytest.mark.parametrize("protocol,kind", [
        (SL, U_SHAPED), (SL, VANILLA), (SFV1, U_SHAPED), (SFV2, U_SHAPED),
        (SFV3, U_SHAPED), (FL, U_SHAPED),
    ])
    def test_equals_centralized(self, protocol, kind):
        datasets, model, clients, server = make_setup(1, protocol, kind, seed=5)
        run_rounds(protocol, clients, server, (0,), 3)
        final = composed_model(clients[0], server.body)
        ref = centralized_training(datasets[0], seed=5, epochs=3)
        assert models_equal(final, ref)


def separate_step_training(datasets, protocol, kind, order, epochs, seed=0):
    """Oracle for split training: every segment and every body replica
    is its own model with its own Adam state, each gradient is copied
    out before the next backward, and the tail steps right after its own
    backward. Returns each client's (front, body, tail) vector."""
    seg = split_model(nn.init_model(WIDTHS, seed), *(SPLIT_VANILLA if kind == VANILLA else SPLIT))
    ids = [ds.client_id for ds in datasets]
    fronts = {c: seg.front.clone() for c in ids}
    tails = {c: seg.tail.clone() for c in ids}
    states = {m: nn.AdamState.for_params(m.flat, lr=LR)
              for m in [*fronts.values(), *tails.values()]}
    replicas = protocols.SPECS[protocol].replicas
    if replicas:
        bodies = {c: seg.body.clone() for c in ids}
    else:
        bodies = dict.fromkeys(ids, seg.body.clone())
    states.update({m: nn.AdamState.for_params(m.flat, lr=LR) for m in bodies.values()})

    def step(model, grads):
        nn.adam_step(model.flat, grads.copy(), states[model])

    for _ in range(epochs):
        for c in sorted(ids) if replicas else order:
            ds = datasets[ids.index(c)]
            for xb, yb in iter_batches(ds.train_x, ds.train_y, BATCH):
                a_front, front_outputs = nn.forward(fronts[c], xb)
                a_body, body_outputs = nn.forward(bodies[c], a_front)
                if kind == U_SHAPED:
                    probs, tail_outputs = nn.forward(tails[c], a_body)
                    grads, d_out = nn.backward(tails[c], tail_outputs, nn.bce_grad(probs, yb))
                    step(tails[c], grads)
                else:
                    d_out = nn.bce_grad(a_body, yb)
                grads, d_smashed = nn.backward(bodies[c], body_outputs, d_out)
                step(bodies[c], grads)
                grads, _ = nn.backward(fronts[c], front_outputs, d_smashed)
                step(fronts[c], grads)
        if replicas:
            avg = average_models([(c, body.flat) for c, body in bodies.items()],
                                 {c: float(datasets[ids.index(c)].sample_count) for c in ids})
            for body in bodies.values():
                body.flat[...] = avg
    return {c: (fronts[c].flat, bodies[c].flat, tails[c].flat) for c in ids}


class TestOneStepPerParticipant:
    """A client steps front and tail in one Adam call, the body and its
    replicas share one gradient buffer, and gradients are not copied: the
    result equals training each part separately."""

    @pytest.mark.parametrize("kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", [SL, SFV3])
    def test_equals_separate_steps(self, protocol, kind):
        order = (2, 0, 1)
        datasets, model, clients, server = make_setup(3, protocol, kind, seed=0)
        run_rounds(protocol, clients, server, order, 2)
        expected = separate_step_training(datasets, protocol, kind, order, 2)
        for c, parts in expected.items():
            got = composed_model(clients[c], server.body).flat
            assert got.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("protocol", [SL, SFV1])
    def test_layout(self, protocol):
        _, model, clients, server = make_setup(3, protocol, seed=0)
        for client in clients.values():
            # front and tail are views of the client's vectors, end to end
            for vec, (front, tail) in ((client.flat, (client.front.flat, client.tail.flat)),
                                       (client.grad, (client.front.grad, client.tail.grad))):
                assert np.shares_memory(front, vec) and np.shares_memory(tail, vec)
                assert front.ctypes.data == vec.ctypes.data
                assert tail.ctypes.data == vec.ctypes.data + front.nbytes
                assert front.size + tail.size == vec.size
            assert client.opt.m.shape == client.flat.shape
        # one body; under replicas, one Adam state per client and two
        # replicas (the first client's and the one between), all over
        # the body's one gradient buffer
        replicas = protocols.SPECS[protocol].replicas
        opts = {id(opt) for opt in server.opts.values()}
        assert sorted(server.opts) == sorted(clients)
        assert len(opts) == (3 if replicas else 1)
        assert len(server.replicas) == (2 if replicas else 0)
        models = [server.body, *server.replicas]
        assert all(m.grad is server.body.grad and m.layers[0].weights.shape
                   == server.body.layers[0].weights.shape for m in models)
        assert len({m.flat.ctypes.data for m in models}) == len(models)


class TestAlignedVectors:
    @pytest.mark.parametrize("kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_training_vectors_start_on_a_cache_line(self, protocol, kind):
        """Every client's and the body's parameter and gradient vector,
        every Adam moment, the replicas and the scratch pair start on a
        64-byte line, and rounds (averaging included) write into the same
        vectors."""
        _, _, clients, server = make_setup(3, protocol, kind, seed=0)

        def owned():
            vecs = [v for c in clients.values() for v in (c.flat, c.grad, c.opt.m, c.opt.v)]
            vecs += [v for opt in server.opts.values() for v in (opt.m, opt.v)]
            return vecs + [v for m in [server.body, *server.replicas] if m is not None
                           for v in (m.flat, m.grad)]

        assert (server.body is None) == (protocol == FL)
        kept = owned()
        assert all(v.ctypes.data % 64 == 0 for v in kept)
        run_rounds(protocol, clients, server, (2, 0, 1), 2)
        assert all(v.ctypes.data % 64 == 0 and v.size == nn.CHUNK for v in nn._scratch())
        assert all(a is b for a, b in zip(owned(), kept))


    def test_mapped_training_vectors_start_on_a_cache_line(self):
        # a 17,544-element body: its vector, replicas, gradient buffer and
        # Adam moments are blocks of at least MAP_MIN bytes
        widths, cuts = [8, 128, 128, 8, 1], (1, 3)
        datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=0)
        clients, server = make_clients(datasets, nn.init_model(widths, 0), SFV1, cuts, LR)
        assert 8 * server.body.flat.size >= nn.MAP_MIN
        vecs = [v for m in [server.body, *server.replicas] for v in (m.flat, m.grad)]
        vecs += [v for opt in server.opts.values() for v in (opt.m, opt.v)]
        assert all(_mapping(v) is not None and v.ctypes.data % 64 == 0 for v in vecs)
        assert server.body.flat.ctypes.data % mmap.PAGESIZE == 0

    @pytest.mark.parametrize("sizes", [(nn.MAP_MIN // 8,), (3, nn.MAP_MIN // 8 - 9, 5),
                                       (148_032, 148_032), (1, 9, 17, 2 * nn.CHUNK + 9)])
    def test_mapped_vectors_start_on_a_cache_line_zeroed(self, sizes):
        vecs = nn.vectors(*sizes)
        assert [v.size for v in vecs] == list(sizes)
        assert all(v.ctypes.data % 64 == 0 and not np.any(v) for v in vecs)
        assert vecs[0].ctypes.data % mmap.PAGESIZE == 0
        for v in vecs:
            v[...] = 1.0  # no vector overlaps the next
        assert all(np.all(v == 1.0) for v in vecs)
        # the mapping goes with the last view of its block
        mapping = weakref.ref(_mapping(vecs[0]))
        tail = vecs[-1][-1:]
        del vecs, v
        gc.collect()
        assert mapping() is not None
        del tail
        gc.collect()
        assert mapping() is None

    def test_small_blocks_are_not_mapped(self):
        assert _mapping(nn.vectors(nn.MAP_MIN // 8 - 8)[0]) is None

    def test_a_forked_child_s_writes_stay_in_the_child(self):
        # private, not shared: a sweep's worker never writes into the
        # parent's vectors
        (vec,) = nn.vectors(nn.MAP_MIN // 8)
        vec[...] = 1.0
        pid = os.fork()
        if pid == 0:  # the child: write, check the write, and leave
            try:
                vec[...] = 2.0
                os._exit(0 if np.all(vec == 2.0) else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert np.all(vec == 1.0)


def _mapping(vec):
    """The mmap that vec's block is a view of, or None."""
    base = vec.base.base if vec.base is not None else None
    return base.obj if isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap) else None


class TestReplicaMemory:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("protocol", [SFV1, SFV3])
    def test_at_most_three_body_vectors_and_no_more_than_clients(self, monkeypatch, protocol,
                                                                  n):
        """The body-size parameter vectors a replica run allocates (every
        body-size vector but the gradient buffer and the Adam moments),
        over make_clients and two rounds: at most 3, at most n."""
        nn._scratch()  # the scratch pair, made before the spy: no pass allocates another
        made, original = [], nn.vectors

        def spied(*sizes):
            out = original(*sizes)
            made.extend(out)
            return out

        monkeypatch.setattr(nn, "vectors", spied)
        _, _, clients, server = make_setup(n, protocol)
        run_rounds(protocol, clients, server, range(n), 2)
        others = [server.body.grad] + [v for opt in server.opts.values() for v in (opt.m, opt.v)]
        params = [v for v in made if v.size == server.body.flat.size
                  and not any(v is other for other in others)]
        assert len(params) == min(3, n)
        assert any(v is server.body.flat for v in params)


class TestMessageSequences:
    def test_u_shaped_batch_trace(self):
        datasets, model, clients, server = make_setup(1, SL)
        bus = run_rounds(SL, clients, server, (0,), 1)
        n_batches = -(-datasets[0].sample_count // BATCH)
        types = [rec.msg_type for rec in bus.log]
        expected = [MsgType.SMASHED_ACTIVATIONS, MsgType.BODY_OUTPUT,
                    MsgType.BODY_OUTPUT_GRAD, MsgType.SMASHED_GRAD] * n_batches
        assert types == expected

    def test_vanilla_batch_trace(self):
        datasets, model, clients, server = make_setup(1, SL, VANILLA)
        bus = run_rounds(SL, clients, server, (0,), 1)
        n_batches = -(-datasets[0].sample_count // BATCH)
        types = [rec.msg_type for rec in bus.log]
        expected = [MsgType.SMASHED_ACTIVATIONS, MsgType.LABELS,
                    MsgType.SMASHED_GRAD] * n_batches
        assert types == expected

    @pytest.mark.parametrize("kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_channel_sequences(self, protocol, kind):
        """Every channel's exact (type, round, seq, bytes) sequence over
        two rounds of two clients, from batch counts and segment sizes."""
        datasets, _, clients, server = make_setup(2, protocol, kind)
        bus = run_rounds(protocol, clients, server, (1, 0), 2)
        cuts = None if protocol == FL else (SPLIT_VANILLA if kind == VANILLA else SPLIT)
        counts = {ds.client_id: ds.sample_count for ds in datasets}
        assert observed_channels(bus.log) == expected_channels(
            protocol, kind, counts, WIDTHS, cuts, BATCH, 2)

    def test_out_of_order_message_rejected(self):
        _, model, clients, server = make_setup(1, SL)
        bus = ChannelBus()
        # a stray parameter blob jumps the queue on the client->server channel
        bus.send(MsgType.PARAM_BLOB, protocols.wire_id(0), protocols.SERVER, 0, np.zeros(3))
        with pytest.raises(ProtocolViolation,
                           match="expected SMASHED_ACTIVATIONS from 1, got PARAM_BLOB"):
            run_rounds(SL, clients, server, (0,), 1, bus=bus)


class TestAfterTurn:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sees_each_turn_as_it_ends_and_changes_nothing(self, protocol):
        # a round's clients train in the given order against a shared
        # body (SL, SFv2), else in ascending id
        order = (2, 0, 1)
        trained = order if protocol in (SL, SFV2) else (0, 1, 2)
        runs = []
        for hook in (False, True):
            datasets, _, clients, server = make_setup(3, protocol)
            bus, seen = ChannelBus(), []

            def after_turn(cid):  # the client's Adam steps so far show its turn trained
                seen.append((cid, clients[cid].opt.step))

            for rnd in range(2):
                run_round(clients, server, protocol, order, rnd, bus, BATCH,
                          after_turn if hook else None)
            bits = [nn.flatten_params(composed_model(clients[cid], server.body)).tobytes()
                    for cid in sorted(clients)]
            runs.append((seen, bits, bus.log))
        batches = {ds.client_id: -(-ds.sample_count // BATCH) for ds in datasets}
        assert runs[1][0] == [(cid, (rnd + 1) * batches[cid]) for rnd in range(2)
                              for cid in trained]
        assert runs[1][1:] == runs[0][1:]


class TestOrderInvariance:
    @pytest.mark.parametrize("protocol", [FL, SFV1, SFV3])
    def test_all_permutations_bit_identical(self, protocol):
        finals = set()
        for perm in itertools.permutations(range(3)):
            _, model, clients, server = make_setup(3, protocol, seed=1)
            run_rounds(protocol, clients, server, perm, 2)
            parts = [nn.flatten_params(composed_model(clients[c], server.body))
                     for c in sorted(clients)]
            blob = np.concatenate(parts)
            finals.add(blob.tobytes())
        assert len(finals) == 1


class TestOrderSensitivity:
    @pytest.mark.parametrize("protocol", [SL, SFV2])
    def test_body_depends_on_order(self, protocol):
        bodies = []
        for order in ((0, 1, 2), (2, 1, 0)):
            _, model, clients, server = make_setup(3, protocol, seed=2)
            run_rounds(protocol, clients, server, order, 1)
            bodies.append(nn.flatten_params(server.body).tobytes())
        assert bodies[0] != bodies[1]


class TestAveragingPlacement:
    def test_sfv2_fronts_identical_after_round(self):
        _, model, clients, server = make_setup(3, SFV2, seed=3)
        run_rounds(SFV2, clients, server, (0, 1, 2), 1)
        blobs = {nn.flatten_params(clients[c].front).tobytes() for c in clients}
        assert len(blobs) == 1
        tails = {nn.flatten_params(clients[c].tail).tobytes() for c in clients}
        assert len(tails) == 1

    def test_sfv3_bodies_identical_fronts_unique(self):
        # one body: the replicas' mean; the last client's replica is the
        # body itself before the mean overwrites it
        _, model, clients, server = make_setup(3, SFV3, seed=3)
        run_rounds(SFV3, clients, server, (0, 1, 2), 1)
        replicas = {r.flat.tobytes() for r in server.replicas}
        assert len(replicas) == 2 and server.body.flat.tobytes() not in replicas
        fronts = {nn.flatten_params(clients[c].front).tobytes() for c in clients}
        assert len(fronts) == 3

    def test_sfv1_fronts_and_bodies_identical(self):
        _, model, clients, server = make_setup(3, SFV1, seed=3)
        run_rounds(SFV1, clients, server, (0, 1, 2), 1)
        replicas = {r.flat.tobytes() for r in server.replicas}
        fronts = {nn.flatten_params(clients[c].front).tobytes() for c in clients}
        assert len(replicas) == 2 and server.body.flat.tobytes() not in replicas
        assert len(fronts) == 1

    @pytest.mark.parametrize("protocol", [FL, SFV1, SFV2])
    def test_segments_averaged_from_the_received_blobs(self, monkeypatch, protocol):
        # the averages read the decoded payloads; no client model is copied
        _, model, clients, server = make_setup(3, protocol, seed=3)
        monkeypatch.setattr(nn.SequentialModel, "clone", None)
        run_rounds(protocol, clients, server, (0, 1, 2), 1)
        fronts = {clients[c].front.flat.tobytes() for c in clients}
        assert len(fronts) == 1


class TestLabelPrivacy:
    def test_u_shaped_never_ships_labels(self):
        for protocol in (SL, SFV1, SFV2, SFV3):
            _, model, clients, server = make_setup(2, protocol, seed=4)
            bus = run_rounds(protocol, clients, server, (0, 1), 2)
            assert bus.count_by_type(MsgType.LABELS) == 0

    def test_vanilla_ships_one_labels_message_per_batch(self):
        datasets, model, clients, server = make_setup(2, SL, VANILLA)
        epochs = 2
        bus = run_rounds(SL, clients, server, (0, 1), epochs)
        n_batches = sum(-(-ds.sample_count // BATCH) for ds in datasets) * epochs
        assert bus.count_by_type(MsgType.LABELS) == n_batches


class TestCommunicationAccounting:
    def test_sfv1_param_bytes_exceed_sfv3(self):
        byte_counts = {}
        for protocol in (SFV1, SFV3):
            _, model, clients, server = make_setup(3, protocol, seed=6)
            bus = run_rounds(protocol, clients, server, (0, 1, 2), 2)
            byte_counts[protocol] = bus.bytes_by_type(MsgType.PARAM_BLOB)
        assert byte_counts[SFV1] > byte_counts[SFV3]
        assert byte_counts[SFV3] == 0  # replicas live server-side
