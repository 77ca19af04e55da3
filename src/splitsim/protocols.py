"""The five training protocols as message-driven round engines.

All engines speak through a ChannelBus; activations, gradients, labels
(vanilla only) and parameter blobs genuinely transit the binary codec.
Engines are deterministic state machines: parallel-protocol clients
(FL, SFv1, SFv3) are executed sequentially in ascending client id, and
all averaging accumulates in ascending client id, so "order invariance"
is a bit-exact property, not an approximate one.

Server-side optimizer state: the single body of SL/SFv2 carries its
Adam moments across clients and rounds (it is one continuously trained
model). Per-replica states in SFv1/SFv3 are local to their replica and
never averaged; they persist across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .datagen import ClientDataset
from .model_split import U_SHAPED, VANILLA, ModelSegments, SplitConfig, split_model
from .nn import AdamState, SequentialModel, adam_step, backward, bce_loss, forward
from .transport import ChannelBus, Message, MsgType

SERVER = 0          # wire id of the server participant
SHARED_BODY = -1    # bodies-dict key for the single shared body of SL/SFv2

FL = "fl"
SL = "sl"
SFV1 = "sfv1"
SFV2 = "sfv2"
SFV3 = "sfv3"
PROTOCOLS = (FL, SL, SFV1, SFV2, SFV3)

# protocols whose result must be invariant to the client order
PARALLEL = (FL, SFV1, SFV3)


class PlanError(ValueError):
    """Round plan rejected (empty, bad order, unknown protocol)."""


class ProtocolViolation(RuntimeError):
    """A message arrived out of the protocol's expected order."""


def wire_id(client_id: int) -> int:
    return client_id + 1


@dataclass
class ClientState:
    """One participant: its model segments, optimizer states and data.

    Under FL, `front` holds the full uncut model and `tail` is empty.
    """

    id: int
    front: SequentialModel
    tail: SequentialModel
    opt_front: AdamState
    opt_tail: AdamState
    dataset: ClientDataset

    @property
    def sample_count(self) -> int:
        return self.dataset.sample_count


@dataclass
class ServerState:
    """Server bodies: {SHARED_BODY: model} for SL/SFv2, one replica per
    client id for SFv1/SFv3, empty for FL."""

    bodies: dict[int, SequentialModel] = field(default_factory=dict)
    opts: dict[int, AdamState] = field(default_factory=dict)


@dataclass(frozen=True)
class RoundPlan:
    protocol: str
    order: tuple[int, ...]  # permutation of participating client ids
    round_index: int = 0

    def validate(self, client_ids) -> None:
        if self.protocol not in PROTOCOLS:
            raise PlanError(f"unknown protocol {self.protocol!r}")
        if not self.order:
            raise PlanError("round plan has zero clients")
        if sorted(self.order) != sorted(client_ids):
            raise PlanError("order is not a permutation of the participating clients")


def iter_batches(x: np.ndarray, y: np.ndarray, batch_size: int):
    """Sequential fixed-size slices; no shuffling (determinism first)."""
    for start in range(0, len(y), batch_size):
        yield x[start:start + batch_size], y[start:start + batch_size]


def make_clients(datasets: list[ClientDataset], model: SequentialModel,
                 config: SplitConfig | None, lr: float) -> tuple[dict[int, ClientState], ServerState]:
    """Deal out per-client segments (or full copies for FL) from one
    freshly initialized model; every client starts bit-identical."""
    clients = {}
    server = ServerState()
    # clones of the segments, so no client holds the whole model's vector
    seg = None if config is None else split_model(model, config)
    for ds in datasets:
        if seg is None:  # FL: full model per client
            front = model.clone()
            tail = SequentialModel([])
        else:
            front, tail = seg.front.clone(), seg.tail.clone()
        clients[ds.client_id] = ClientState(
            id=ds.client_id, front=front, tail=tail,
            opt_front=AdamState.for_params(front.flat, lr=lr),
            opt_tail=AdamState.for_params(tail.flat, lr=lr),
            dataset=ds)
    if seg is not None:
        body_template = seg.body.clone()
        server.bodies[SHARED_BODY] = body_template
        server.opts[SHARED_BODY] = AdamState.for_params(body_template.flat, lr=lr)
    return clients, server


def ensure_replicas(server: ServerState, client_ids, lr: float) -> None:
    """SFv1/SFv3: turn the shared body into identically seeded per-client
    replicas (first round), keeping one replica and optimizer per client."""
    if SHARED_BODY in server.bodies:
        template = server.bodies.pop(SHARED_BODY)
        server.opts.pop(SHARED_BODY)
        for cid in client_ids:
            replica = template.clone()
            server.bodies[cid] = replica
            server.opts[cid] = AdamState.for_params(replica.flat, lr=lr)


def composed_model(client: ClientState, body: SequentialModel | None) -> SequentialModel:
    """A detached copy of front (+ body) (+ tail) for evaluation."""
    parts = [client.front] + ([] if body is None else [body]) + [client.tail]
    return SequentialModel([layer for part in parts for layer in part.layers],
                           np.concatenate([part.flat for part in parts]))


def average_models(models: list[tuple[int, SequentialModel]],
                   weights: dict[int, float]) -> SequentialModel:
    """Sample-count-weighted parameter mean, accumulated in ascending
    client id order so the result is independent of call order.

    Identical inputs short-circuit to an exact copy (a weighted mean of
    equal values must be bit-equal to them)."""
    if not models:
        raise PlanError("cannot average zero models")
    ordered = sorted(models, key=lambda kv: kv[0])
    first = ordered[0][1]
    shapes = [layer.weights.shape for layer in first.layers]
    if any([layer.weights.shape for layer in m.layers] != shapes for _, m in ordered[1:]):
        raise nn.ShapeError("models structurally different")
    if all(nn.models_equal(m, first) for _, m in ordered[1:]):
        return first.clone()
    total = sum(weights[cid] for cid, _ in ordered)
    avg = SequentialModel(first.layers, np.zeros_like(first.flat))
    for lo in range(0, avg.flat.size, nn.CHUNK):  # temporaries of one chunk
        s = slice(lo, lo + nn.CHUNK)
        for cid, m in ordered:
            avg.flat[s] += weights[cid] * m.flat[s]
    avg.flat /= total
    return avg


def select_checkpoint(history: list):
    """history: list of (mean_val_loss, snapshot). Returns (epoch_index,
    snapshot) of the least loss; ties break to the earliest epoch."""
    if not history:
        raise PlanError("empty checkpoint history")
    best = min(range(len(history)), key=lambda i: (history[i][0], i))
    return best, history[best][1]


# --- message plumbing -----------------------------------------------------

def _expect(bus: ChannelBus, receiver: int, sender: int, msg_type: MsgType) -> Message:
    msg = bus.recv(receiver, sender)
    if msg.msg_type != msg_type:
        raise ProtocolViolation(
            f"expected {msg_type.name} from {sender}, got {msg.msg_type.name}")
    return msg


def _train_batch_split(client: ClientState, body: SequentialModel,
                       opt_body: AdamState, xb, yb, bus: ChannelBus,
                       kind: str, rnd: int) -> float:
    """One batch of split training for one client; returns the batch loss.

    U-shaped exchange: SmashedActivations -> BodyOutput -> BodyOutputGrad
    -> SmashedGrad. Vanilla: SmashedActivations + Labels -> SmashedGrad
    (the server holds the output head and the loss)."""
    cw = wire_id(client.id)

    # client: front forward, ship cut-layer activations
    a_front, cache_front = forward(client.front, xb)
    bus.send(Message(MsgType.SMASHED_ACTIVATIONS, cw, SERVER, rnd, payload=a_front))
    if kind == VANILLA:
        bus.send(Message(MsgType.LABELS, cw, SERVER, rnd,
                         payload=np.asarray(yb, dtype=np.float64)))

    # server: body forward
    msg = _expect(bus, SERVER, cw, MsgType.SMASHED_ACTIVATIONS)
    a_body, cache_body = forward(body, msg.payload)

    if kind == U_SHAPED:
        bus.send(Message(MsgType.BODY_OUTPUT, SERVER, cw, rnd, payload=a_body))

        # client: tail forward, loss on local labels, tail backward
        msg = _expect(bus, cw, SERVER, MsgType.BODY_OUTPUT)
        probs, cache_tail = forward(client.tail, msg.payload)
        loss, dprobs = bce_loss(probs, yb)
        grads_tail, d_body_out = backward(client.tail, cache_tail, dprobs)
        adam_step(client.tail.flat, grads_tail, client.opt_tail)
        bus.send(Message(MsgType.BODY_OUTPUT_GRAD, cw, SERVER, rnd, payload=d_body_out))

        # server: body backward + update
        msg = _expect(bus, SERVER, cw, MsgType.BODY_OUTPUT_GRAD)
        grads_body, d_smashed = backward(body, cache_body, msg.payload)
        adam_step(body.flat, grads_body, opt_body)
        bus.send(Message(MsgType.SMASHED_GRAD, SERVER, cw, rnd, payload=d_smashed))
    else:
        # server: loss on shared labels, body backward + update
        lab = _expect(bus, SERVER, cw, MsgType.LABELS)
        loss, dprobs = bce_loss(a_body, lab.payload)
        grads_body, d_smashed = backward(body, cache_body, dprobs)
        adam_step(body.flat, grads_body, opt_body)
        bus.send(Message(MsgType.SMASHED_GRAD, SERVER, cw, rnd, payload=d_smashed))

    # client: front backward + update
    msg = _expect(bus, cw, SERVER, MsgType.SMASHED_GRAD)
    grads_front, _ = backward(client.front, cache_front, msg.payload)
    adam_step(client.front.flat, grads_front, client.opt_front)
    return loss


def _train_epoch_split(client: ClientState, body, opt_body, bus, kind,
                       rnd, batch_size) -> float:
    """One pass over the client's training split; returns mean batch loss."""
    losses = []
    for xb, yb in iter_batches(client.dataset.train_x, client.dataset.train_y,
                               batch_size):
        losses.append(_train_batch_split(client, body, opt_body, xb, yb,
                                         bus, kind, rnd))
    return float(np.mean(losses))


def _train_epoch_local(client: ClientState, bus, rnd, batch_size) -> float:
    """FL local epoch: full model lives in client.front, trained in place."""
    losses = []
    for xb, yb in iter_batches(client.dataset.train_x, client.dataset.train_y,
                               batch_size):
        probs, cache = forward(client.front, xb)
        loss, dprobs = bce_loss(probs, yb)
        grads, _ = backward(client.front, cache, dprobs)
        adam_step(client.front.flat, grads, client.opt_front)
        losses.append(loss)
    return float(np.mean(losses))


def _send_param_blob(bus, sender, receiver, rnd, model: SequentialModel) -> None:
    bus.send(Message(MsgType.PARAM_BLOB, sender, receiver, rnd, payload=model.flat))


def _recv_param_blob(bus, receiver, sender, model: SequentialModel) -> None:
    msg = _expect(bus, receiver, sender, MsgType.PARAM_BLOB)
    nn.unflatten_params(model, msg.payload)


# --- round engines --------------------------------------------------------

def run_round_fl(clients: dict[int, ClientState], global_model: SequentialModel,
                 plan: RoundPlan, bus: ChannelBus, batch_size: int) -> SequentialModel:
    """FedAvg round: distribute, train locally in parallel, average.
    Clients execute in ascending id order; the plan order is inert."""
    plan.validate(clients.keys())
    rnd = plan.round_index
    weights = {cid: float(c.sample_count) for cid, c in clients.items()}
    for cid in sorted(clients):
        client = clients[cid]
        _send_param_blob(bus, SERVER, wire_id(cid), rnd, global_model)
        _recv_param_blob(bus, wire_id(cid), SERVER, client.front)
        _train_epoch_local(client, bus, rnd, batch_size)
        _send_param_blob(bus, wire_id(cid), SERVER, rnd, client.front)
    received = []
    for cid in sorted(clients):
        blob_model = global_model.clone()
        _recv_param_blob(bus, SERVER, wire_id(cid), blob_model)
        received.append((cid, blob_model))
    new_global = average_models(received, weights)
    for cid in sorted(clients):  # redistribute for next-round evaluation
        clients[cid].front.flat[...] = new_global.flat
    return new_global


def run_round_sl(clients: dict[int, ClientState], server: ServerState,
                 plan: RoundPlan, bus: ChannelBus, kind: str, batch_size: int) -> None:
    """Sequential split learning: one shared body updated in place by
    every client in plan order; client segments stay per-client."""
    plan.validate(clients.keys())
    body = server.bodies[SHARED_BODY]
    opt = server.opts[SHARED_BODY]
    for cid in plan.order:
        _train_epoch_split(clients[cid], body, opt, bus, kind,
                           plan.round_index, batch_size)


def run_round_sfv2(clients: dict[int, ClientState], server: ServerState,
                   plan: RoundPlan, bus: ChannelBus, kind: str, batch_size: int) -> None:
    """SL round plus round-end averaging of the client-side segments only
    (the sequential body is not averaged)."""
    run_round_sl(clients, server, plan, bus, kind, batch_size)
    _average_client_segments(clients, bus, plan.round_index)


def run_round_sfv1(clients: dict[int, ClientState], server: ServerState,
                   plan: RoundPlan, bus: ChannelBus, kind: str, batch_size: int) -> None:
    """Parallel round against per-client body replicas; both client
    segments and body replicas are averaged at round end."""
    plan.validate(clients.keys())
    ensure_replicas(server, sorted(clients), clients[next(iter(clients))].opt_front.lr)
    for cid in sorted(clients):
        _train_epoch_split(clients[cid], server.bodies[cid], server.opts[cid],
                           bus, kind, plan.round_index, batch_size)
    _average_bodies(clients, server)
    _average_client_segments(clients, bus, plan.round_index)


def run_round_sfv3(clients: dict[int, ClientState], server: ServerState,
                   plan: RoundPlan, bus: ChannelBus, kind: str, batch_size: int) -> None:
    """Parallel round against per-client body replicas; only the body
    replicas are averaged, client segments stay unique."""
    plan.validate(clients.keys())
    ensure_replicas(server, sorted(clients), clients[next(iter(clients))].opt_front.lr)
    for cid in sorted(clients):
        _train_epoch_split(clients[cid], server.bodies[cid], server.opts[cid],
                           bus, kind, plan.round_index, batch_size)
    _average_bodies(clients, server)


def _average_bodies(clients, server: ServerState) -> None:
    weights = {cid: float(c.sample_count) for cid, c in clients.items()}
    avg = average_models([(cid, server.bodies[cid]) for cid in sorted(clients)], weights)
    for cid in sorted(clients):
        server.bodies[cid].flat[...] = avg.flat


def _average_client_segments(clients, bus: ChannelBus, rnd: int) -> None:
    """Client fronts (and tails, if any) transit to the server as
    ParamBlobs, get averaged, and transit back."""
    weights = {cid: float(c.sample_count) for cid, c in clients.items()}
    has_tail = any(c.tail.layers for c in clients.values())
    for cid in sorted(clients):
        _send_param_blob(bus, wire_id(cid), SERVER, rnd, clients[cid].front)
        if has_tail:
            _send_param_blob(bus, wire_id(cid), SERVER, rnd, clients[cid].tail)
    fronts, tails = [], []
    for cid in sorted(clients):
        front = clients[cid].front.clone()
        _recv_param_blob(bus, SERVER, wire_id(cid), front)
        fronts.append((cid, front))
        if has_tail:
            tail = clients[cid].tail.clone()
            _recv_param_blob(bus, SERVER, wire_id(cid), tail)
            tails.append((cid, tail))
    avg_front = average_models(fronts, weights)
    avg_tail = average_models(tails, weights) if has_tail else None
    for cid in sorted(clients):
        _send_param_blob(bus, SERVER, wire_id(cid), rnd, avg_front)
        _recv_param_blob(bus, wire_id(cid), SERVER, clients[cid].front)
        if avg_tail is not None:
            _send_param_blob(bus, SERVER, wire_id(cid), rnd, avg_tail)
            _recv_param_blob(bus, wire_id(cid), SERVER, clients[cid].tail)


def run_round(protocol: str, clients, server, global_model, plan, bus,
              kind: str, batch_size: int):
    """Dispatch one global epoch of the given protocol. Returns the new
    global model for FL, None otherwise."""
    if protocol == FL:
        return run_round_fl(clients, global_model, plan, bus, batch_size)
    engine = {SL: run_round_sl, SFV1: run_round_sfv1,
              SFV2: run_round_sfv2, SFV3: run_round_sfv3}[protocol]
    engine(clients, server, plan, bus, kind, batch_size)
    return None


def body_for_client(protocol: str, server: ServerState, cid: int) -> SequentialModel | None:
    """The body a client composes with for evaluation."""
    if protocol == FL:
        return None
    if protocol in (SL, SFV2):
        return server.bodies[SHARED_BODY]
    return server.bodies.get(cid, server.bodies.get(SHARED_BODY))
