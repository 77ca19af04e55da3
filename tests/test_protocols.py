import itertools

import numpy as np
import pytest

from splitsim import datagen, nn, protocols
from splitsim.model_split import U_SHAPED, VANILLA, SplitConfig
from splitsim.protocols import (FL, SFV1, SFV2, SFV3, SL, SHARED_BODY,
                                PlanError, ProtocolViolation, RoundPlan,
                                average_models, body_for_client,
                                composed_model, iter_batches, make_clients,
                                run_round)
from splitsim.transport import ChannelBus, Message, MsgType

WIDTHS = [8, 16, 16, 16, 8, 1]
SPLIT = SplitConfig(U_SHAPED, 1, 4)
SPLIT_VANILLA = SplitConfig(VANILLA, 1, 5)
LR = 1e-3
BATCH = 32


def make_setup(n_clients, protocol, kind=U_SHAPED, seed=0, shift=0.6):
    datasets = datagen.generate_clients(datagen.desk_manifest(n_clients),
                                        shift_scale=shift, seed=seed)
    model = nn.init_model(WIDTHS, seed)
    config = None if protocol == FL else (SPLIT_VANILLA if kind == VANILLA else SPLIT)
    clients, server = make_clients(datasets, model, config, LR)
    return datasets, model, clients, server


def run_rounds(protocol, clients, server, model, order, epochs, kind=U_SHAPED,
               bus=None):
    bus = bus or ChannelBus()
    global_model = model.clone() if protocol == FL else None
    for e in range(epochs):
        new = run_round(protocol, clients, server, global_model,
                        RoundPlan(protocol, tuple(order), e), bus, kind, BATCH)
        if new is not None:
            global_model = new
    return global_model, bus


def centralized_training(dataset, seed, epochs, lr=LR, batch=BATCH):
    """Independent oracle: plain uncut training on the same batch stream."""
    model = nn.init_model(WIDTHS, seed)
    state = nn.AdamState.for_params(model.flat, lr=lr)
    for _ in range(epochs):
        for xb, yb in iter_batches(dataset.train_x, dataset.train_y, batch):
            probs, cache = nn.forward(model, xb)
            _, dprobs = nn.bce_loss(probs, yb)
            grads, _ = nn.backward(model, cache, dprobs)
            nn.adam_step(model.flat, grads, state)
    return model


def scalar_model(value):
    return nn.SequentialModel([nn.DenseLayer([[value]], [0.0], "linear")])


class TestAverageModels:
    def test_identical_models_exact(self):
        m = nn.init_model([4, 3, 1], seed=0)
        avg = average_models([(0, m.clone()), (1, m.clone()), (2, m.clone())],
                             {0: 182.0, 1: 377.0, 2: 115.0})
        assert nn.models_equal(avg, m)
        assert avg.flat.tobytes() == m.flat.tobytes()

    def test_simple_mean(self):
        avg = average_models([(0, scalar_model(0.0)), (1, scalar_model(2.0))],
                             {0: 1.0, 1: 1.0})
        assert avg.layers[0].weights[0, 0] == 1.0

    def test_weighted_mean(self):
        avg = average_models([(0, scalar_model(0.0)), (1, scalar_model(4.0))],
                             {0: 1.0, 1: 3.0})
        assert avg.layers[0].weights[0, 0] == 3.0

    def test_structural_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError):
            average_models([(0, scalar_model(1.0)), (1, nn.init_model([2, 1], 0))],
                           {0: 1.0, 1: 1.0})

    def test_order_of_input_list_irrelevant(self):
        models = [(i, scalar_model(float(i))) for i in range(3)]
        w = {0: 1.0, 1: 2.0, 2: 3.0}
        a = average_models(models, w)
        b = average_models(models[::-1], w)
        assert a.layers[0].weights.tobytes() == b.layers[0].weights.tobytes()

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
        global_model, _ = run_rounds(protocol, clients, server, model, (0,), 3, kind)
        if protocol == FL:
            final = global_model
        else:
            final = composed_model(clients[0], body_for_client(protocol, server, 0))
        ref = centralized_training(datasets[0], seed=5, epochs=3)
        assert nn.models_equal(final, ref)


class TestMessageSequences:
    def test_u_shaped_batch_trace(self):
        datasets, model, clients, server = make_setup(1, SL)
        _, bus = run_rounds(SL, clients, server, model, (0,), 1)
        n_batches = -(-datasets[0].sample_count // BATCH)
        types = [rec.msg_type for rec in bus.log]
        expected = [MsgType.SMASHED_ACTIVATIONS, MsgType.BODY_OUTPUT,
                    MsgType.BODY_OUTPUT_GRAD, MsgType.SMASHED_GRAD] * n_batches
        assert types == expected

    def test_vanilla_batch_trace(self):
        datasets, model, clients, server = make_setup(1, SL, VANILLA)
        _, bus = run_rounds(SL, clients, server, model, (0,), 1, VANILLA)
        n_batches = -(-datasets[0].sample_count // BATCH)
        types = [rec.msg_type for rec in bus.log]
        expected = [MsgType.SMASHED_ACTIVATIONS, MsgType.LABELS,
                    MsgType.SMASHED_GRAD] * n_batches
        assert types == expected

    def test_out_of_order_message_rejected(self):
        _, model, clients, server = make_setup(1, SL)
        bus = ChannelBus()
        # stray control frame jumps the queue on the client->server channel
        bus.send(Message(MsgType.CONTROL, protocols.wire_id(0), protocols.SERVER,
                         control=1))
        with pytest.raises(ProtocolViolation):
            run_rounds(SL, clients, server, model, (0,), 1, bus=bus)


class TestOrderInvariance:
    @pytest.mark.parametrize("protocol", [FL, SFV1, SFV3])
    def test_all_permutations_bit_identical(self, protocol):
        finals = set()
        for perm in itertools.permutations(range(3)):
            _, model, clients, server = make_setup(3, protocol, seed=1)
            global_model, _ = run_rounds(protocol, clients, server, model, perm, 2)
            if protocol == FL:
                blob = nn.flatten_params(global_model)
            else:
                parts = [nn.flatten_params(composed_model(
                    clients[c], body_for_client(protocol, server, c)))
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
            run_rounds(protocol, clients, server, model, order, 1)
            bodies.append(nn.flatten_params(server.bodies[SHARED_BODY]).tobytes())
        assert bodies[0] != bodies[1]


class TestAveragingPlacement:
    def test_sfv2_fronts_identical_after_round(self):
        _, model, clients, server = make_setup(3, SFV2, seed=3)
        run_rounds(SFV2, clients, server, model, (0, 1, 2), 1)
        blobs = {nn.flatten_params(clients[c].front).tobytes() for c in clients}
        assert len(blobs) == 1
        tails = {nn.flatten_params(clients[c].tail).tobytes() for c in clients}
        assert len(tails) == 1

    def test_sfv3_bodies_identical_fronts_unique(self):
        _, model, clients, server = make_setup(3, SFV3, seed=3)
        run_rounds(SFV3, clients, server, model, (0, 1, 2), 1)
        bodies = {nn.flatten_params(server.bodies[c]).tobytes() for c in clients}
        assert len(bodies) == 1
        fronts = {nn.flatten_params(clients[c].front).tobytes() for c in clients}
        assert len(fronts) == 3

    def test_sfv1_fronts_and_bodies_identical(self):
        _, model, clients, server = make_setup(3, SFV1, seed=3)
        run_rounds(SFV1, clients, server, model, (0, 1, 2), 1)
        bodies = {nn.flatten_params(server.bodies[c]).tobytes() for c in clients}
        fronts = {nn.flatten_params(clients[c].front).tobytes() for c in clients}
        assert len(bodies) == 1 and len(fronts) == 1


class TestLabelPrivacy:
    def test_u_shaped_never_ships_labels(self):
        for protocol in (SL, SFV1, SFV2, SFV3):
            _, model, clients, server = make_setup(2, protocol, seed=4)
            _, bus = run_rounds(protocol, clients, server, model, (0, 1), 2)
            assert bus.count_by_type(MsgType.LABELS) == 0

    def test_vanilla_ships_one_labels_message_per_batch(self):
        datasets, model, clients, server = make_setup(2, SL, VANILLA)
        epochs = 2
        _, bus = run_rounds(SL, clients, server, model, (0, 1), epochs, VANILLA)
        n_batches = sum(-(-ds.sample_count // BATCH) for ds in datasets) * epochs
        assert bus.count_by_type(MsgType.LABELS) == n_batches


class TestCommunicationAccounting:
    def test_sfv1_param_bytes_exceed_sfv3(self):
        byte_counts = {}
        for protocol in (SFV1, SFV3):
            _, model, clients, server = make_setup(3, protocol, seed=6)
            _, bus = run_rounds(protocol, clients, server, model, (0, 1, 2), 2)
            byte_counts[protocol] = bus.bytes_by_type(MsgType.PARAM_BLOB)
        assert byte_counts[SFV1] > byte_counts[SFV3]
        assert byte_counts[SFV3] == 0  # replicas live server-side


class TestPlanValidation:
    def test_zero_clients_rejected(self):
        with pytest.raises(PlanError):
            RoundPlan(SL, ()).validate([])

    def test_wrong_permutation_rejected(self):
        with pytest.raises(PlanError):
            RoundPlan(SL, (0, 0, 1)).validate([0, 1, 2])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(PlanError):
            RoundPlan("gossip", (0,)).validate([0])
