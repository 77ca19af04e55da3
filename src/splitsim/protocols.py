"""The five training protocols as one message-driven round engine.

Each protocol is a row of `SPECS`, after how SplitFed (Thapa et al.,
arXiv 2004.12088) defines v1 and v2 against SL and FedAvg: whether the
model is cut around a server body, whether each client trains its own
replica of the round's starting body or all train the body in turn, and
what is averaged at round end. `run_round` reads the row.

All traffic goes through a ChannelBus; activations, gradients, labels
(vanilla only) and parameter blobs genuinely transit the binary codec.
The engine is a deterministic state machine: with replicas or without a
body (FL, SFv1, SFv3) clients run in ascending client id whatever the
given order, and all averaging accumulates in ascending client id, so
"order invariance" is a bit-exact property, not an approximate one.

Server state: every split protocol has one server body. Under SL/SFv2
it is one continuously trained model, and its one Adam state carries
across clients and rounds. Under SFv1/SFv3 each client keeps its own
body Adam state, never averaged, across rounds; each turn trains a
replica that starts from the round's starting body, and the replicas'
sample-weighted mean, summed as the turns end (`nn.WeightedMean`),
becomes the body at round end. The turns run one after another, so a
run holds at most three body vectors, and no more than it has clients:
the body, which the last client trains in place, the first client's
replica, which becomes the mean's running sum, and one replica that
every client between trains in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .datagen import ClientDataset
from .model_split import split_model
from .nn import AdamState, SequentialModel, adam_step, backward, bce_grad, forward
from .nn import bce_loss  # noqa: F401 - the benchmark's tracer wraps protocols.bce_loss
from .transport import ChannelBus, MsgType

SERVER = 0          # wire id of the server participant

FL = "fl"
SL = "sl"
SFV1 = "sfv1"
SFV2 = "sfv2"
SFV3 = "sfv3"


@dataclass(frozen=True)
class ProtocolSpec:
    split: bool             # cut around a server body (False: FL trains the whole model locally)
    replicas: bool          # each client trains a replica of the round's body, and their mean
                            # becomes the body at round end; else clients train the body in turn
    average_segments: bool  # client segments go up as ParamBlobs, are averaged, come back down

    @property
    def shared_body(self) -> bool:
        """Clients train one after another against one body (SL, SFv2),
        so the round's order matters."""
        return self.split and not self.replicas

    def training_order(self, order) -> tuple[int, ...]:
        """The order a round's clients really train in: `order` against a
        shared body, else ascending ids, where `order` is inert."""
        return tuple(order) if self.shared_body else tuple(sorted(order))


SPECS = {
    FL: ProtocolSpec(split=False, replicas=False, average_segments=True),
    SL: ProtocolSpec(split=True, replicas=False, average_segments=False),
    SFV1: ProtocolSpec(split=True, replicas=True, average_segments=True),
    SFV2: ProtocolSpec(split=True, replicas=False, average_segments=True),
    SFV3: ProtocolSpec(split=True, replicas=True, average_segments=False),
}
PROTOCOLS = tuple(SPECS)


class PlanError(ValueError):
    """A round step asked for what it cannot do: averaging no models, turn
    states outside round 0 against a shared body, or saved turns that do
    not start the round's order."""


def wire_id(client_id: int) -> int:
    return client_id + 1


@dataclass
class ClientState:
    """One participant: its model segments, optimizer state and data.

    `front` and `tail` are views of one parameter vector, `flat`, and of
    one gradient buffer, `grad`; `opt` is the Adam state of the whole
    vector, so one step updates both segments. Under FL, `front` holds
    the full uncut model and `tail` is empty.
    """

    id: int
    front: SequentialModel
    tail: SequentialModel
    flat: np.ndarray
    grad: np.ndarray
    opt: AdamState
    dataset: ClientDataset

    @property
    def sample_count(self) -> int:
        return self.dataset.sample_count


@dataclass
class ServerState:
    """The server body (None under FL) and each client id's Adam state
    for it: one state for every client under SL/SFv2, one per client
    under SFv1/SFv3. `replicas` (SFv1/SFv3 with 2 or more clients) are
    the models the turns before the last train, over the body's layers
    and gradient buffer: the first client's, then one for every client
    between."""

    body: SequentialModel | None = None
    opts: dict[int, AdamState] = field(default_factory=dict)
    replicas: list[SequentialModel] = field(default_factory=list)


def iter_batches(x: np.ndarray, y: np.ndarray, batch_size: int):
    """Sequential fixed-size slices; no shuffling (determinism first)."""
    for start in range(0, len(y), batch_size):
        yield x[start:start + batch_size], y[start:start + batch_size]


def make_clients(datasets: list[ClientDataset], model: SequentialModel, protocol: str,
                 cuts: tuple[int, int] | None, lr: float) -> tuple[dict[int, ClientState], ServerState]:
    """Deal out per-client segments (or full copies for FL, where `cuts`
    is None) from one freshly initialized model, and the server body and
    replicas `SPECS[protocol]` asks for; every client starts
    bit-identical. `cuts` is `(front_cut, tail_cut)`, as
    `ExperimentConfig.split_config` returns it."""
    clients = {}
    server = ServerState()
    seg = None if cuts is None else split_model(model, *cuts)
    for ds in datasets:
        # FL: the full model per client; split: a copy of front and tail
        flat, grad, parts = nn.pack([model] if seg is None else [seg.front, seg.tail])
        front, tail = (parts[0], SequentialModel([])) if seg is None else parts
        clients[ds.client_id] = ClientState(
            id=ds.client_id, front=front, tail=tail, flat=flat, grad=grad,
            opt=AdamState.for_params(flat, lr=lr), dataset=ds)
    if seg is None:
        return clients, server
    # the body and its replicas train one at a time, so they share one
    # gradient buffer; no participant owns temporaries: every Adam step
    # and mean writes them into the one pair `nn` keeps for the process
    size = seg.body.flat.size
    (body_grad,) = nn.vectors(size)
    server.body = SequentialModel(seg.body.layers, nn.aligned_copy(seg.body.flat), body_grad)
    if SPECS[protocol].replicas:
        server.opts = {cid: AdamState.for_params(server.body.flat, lr=lr) for cid in clients}
        server.replicas = [SequentialModel(seg.body.layers, vec, body_grad)
                           for vec in nn.vectors(*[size] * min(2, len(clients) - 1))]
    else:
        server.opts = dict.fromkeys(clients, AdamState.for_params(server.body.flat, lr=lr))
    return clients, server


def composed_model(client: ClientState, body: SequentialModel | None) -> SequentialModel:
    """A detached copy of front (+ body) (+ tail) for evaluation."""
    parts = [client.front] + ([] if body is None else [body]) + [client.tail]
    return SequentialModel([layer for part in parts for layer in part.layers],
                           np.concatenate([part.flat for part in parts]))


def average_models(models: list[tuple[int, SequentialModel]],
                   weights: dict[int, float]) -> SequentialModel:
    """Sample-count-weighted parameter mean, accumulated in ascending
    client id order so the result is independent of call order
    (`nn.weighted_mean_into`)."""
    if not models:
        raise PlanError("cannot average zero models")
    ordered = sorted(models, key=lambda kv: kv[0])
    first = ordered[0][1]
    shapes = [layer.weights.shape for layer in first.layers]
    if any([layer.weights.shape for layer in m.layers] != shapes for _, m in ordered[1:]):
        raise nn.ShapeError("models structurally different")
    avg = SequentialModel(first.layers, nn.vectors(first.flat.size)[0])
    nn.weighted_mean_into(avg.flat, [m.flat for _, m in ordered],
                          [weights[cid] for cid, _ in ordered])
    return avg


def _train_batch_split(client: ClientState, body: SequentialModel,
                       opt_body: AdamState, xb, yb, bus: ChannelBus, rnd: int) -> None:
    """One batch of split training for one client.

    U-shaped (the client holds a tail): SmashedActivations -> BodyOutput
    -> BodyOutputGrad -> SmashedGrad. Vanilla (no tail): SmashedActivations
    + Labels -> SmashedGrad (the server holds the output head and the
    loss). So a client sends Labels exactly when it holds no tail. Each
    side takes the payload of the message type it expects next.

    The client takes one Adam step over front and tail together, after
    the front's backward. Stepping the tail right after its own backward
    gives the same bits: Adam is elementwise, both segments share one step
    count, and nothing reads the tail's weights again in this batch."""
    cw = wire_id(client.id)
    u_shaped = bool(client.tail.layers)

    # client: front forward, ship cut-layer activations
    a_front, front_outputs = forward(client.front, xb)
    bus.send(MsgType.SMASHED_ACTIVATIONS, cw, SERVER, rnd, a_front)
    if not u_shaped:
        bus.send(MsgType.LABELS, cw, SERVER, rnd, yb)

    # server: body forward
    a_body, body_outputs = forward(body, bus.recv(SERVER, cw, MsgType.SMASHED_ACTIVATIONS))

    if u_shaped:
        bus.send(MsgType.BODY_OUTPUT, SERVER, cw, rnd, a_body)

        # client: tail forward, loss on local labels, tail backward
        probs, tail_outputs = forward(client.tail, bus.recv(cw, SERVER, MsgType.BODY_OUTPUT))
        _, d_body_out = backward(client.tail, tail_outputs, bce_grad(probs, yb))
        bus.send(MsgType.BODY_OUTPUT_GRAD, cw, SERVER, rnd, d_body_out)
        d_body_out = bus.recv(SERVER, cw, MsgType.BODY_OUTPUT_GRAD)
    else:
        # server: loss on the labels the client shipped
        d_body_out = bce_grad(a_body, bus.recv(SERVER, cw, MsgType.LABELS))

    # server: body backward + update
    grads_body, d_smashed = backward(body, body_outputs, d_body_out)
    adam_step(body.flat, grads_body, opt_body)
    bus.send(MsgType.SMASHED_GRAD, SERVER, cw, rnd, d_smashed)

    # client: front backward, then one update of front and tail
    backward(client.front, front_outputs, bus.recv(cw, SERVER, MsgType.SMASHED_GRAD),
             input_grad=False)
    adam_step(client.flat, client.grad, client.opt)


def _train_batch_local(client: ClientState, xb, yb) -> None:
    """FL: the full model lives in client.front and trains in place."""
    probs, outputs = forward(client.front, xb)
    backward(client.front, outputs, bce_grad(probs, yb), input_grad=False)
    adam_step(client.flat, client.grad, client.opt)


# --- round-0 turn states ---------------------------------------------------

def _copy_params(flat: np.ndarray, opt: AdamState) -> tuple:
    return flat.copy(), opt.m.copy(), opt.v.copy(), opt.step


def _put_params(saved: tuple, flat: np.ndarray, opt: AdamState) -> None:
    flat[...], opt.m[...], opt.v[...], opt.step = saved


class TurnStates:
    """Round-0 turns shared by runs that start from the same model, data
    and hyperparameters and differ in their client order, `orders`, given
    in the order the runs train. Each run restores the turns it shares
    with the run before it and trains the rest. With the orders sorted,
    those are the most turns it shares with any earlier run, so each
    distinct round-0 prefix trains once.

    `saved` is a stack: entry k holds what turn k + 1 of the current order
    changed: that client's id, `[front | tail]` vector and Adam state (m,
    v, step), the body and its Adam state, and a copy of the bus log; any
    other client is as `make_clients` dealt it. A run keeps the stack only
    as deep as it shares turns with the next run, so it never holds more
    entries than the runs have clients."""

    def __init__(self, orders):
        self.saved: list[tuple] = []
        self._keeps = iter([_shared_turns(a, b) for a, b in zip(orders, orders[1:])] + [0])
        self._keep = 0

    def restore(self, order: tuple[int, ...], clients, server: ServerState,
                bus: ChannelBus) -> int:
        """Restore the turns that the run in `order` shares with the run
        before it: the whole stack. Returns how many, 0 for none."""
        if tuple(cid for cid, *_ in self.saved) != order[:len(self.saved)]:
            raise PlanError(f"order {order} does not start with the saved turns")
        for cid, saved, _, _ in self.saved:
            _put_params(saved, clients[cid].flat, clients[cid].opt)
        if self.saved:
            _, _, body, log = self.saved[-1]
            _put_params(body, server.body.flat, server.opts[order[0]])
            bus.restore_log(log)
        done, self._keep = len(self.saved), next(self._keeps)
        del self.saved[self._keep:]
        return done

    def offer(self, cid: int, clients, server: ServerState, bus: ChannelBus) -> None:
        """Save what client `cid`'s turn, the next on the stack, changed if
        the next run shares that turn."""
        if len(self.saved) < self._keep:
            self.saved.append((cid, _copy_params(clients[cid].flat, clients[cid].opt),
                               _copy_params(server.body.flat, server.opts[cid]),
                               list(bus.log)))


def _shared_turns(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The length of the longest prefix orders `a` and `b` share."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


# --- round engine ---------------------------------------------------------

def run_round(clients: dict[int, ClientState], server: ServerState, protocol: str,
              order: tuple[int, ...], rnd: int, bus: ChannelBus, batch_size: int,
              turns: TurnStates | None = None) -> None:
    """Round `rnd` of `protocol` as its SPECS row describes it. `order` is
    a permutation of the clients' ids (`harness.run_experiment` checks it).

    Clients train one after another, in the row's `training_order` of
    `order`. With replicas, each turn trains a replica of the round's
    starting body (`ServerState`), and the mean of the replicas, summed
    as the turns end, becomes the body. Then the client segments are
    averaged if the row says so.

    `turns` (round 0 against a shared body only) holds the first turns of
    this round that the run before trained: they are restored and
    skipped, and what each turn trained here changed is offered to it."""
    spec = SPECS[protocol]
    order = spec.training_order(order)
    done = 0
    if turns is not None:
        if rnd != 0 or not spec.shared_body:
            raise PlanError("turn states exist only for round 0 against a shared body")
        done = turns.restore(order, clients, server, bus)
    mean = None
    for k in range(done, len(order)):
        client = clients[order[k]]
        body = server.body
        if spec.replicas and k + 1 < len(order):
            body = server.replicas[min(k, 1)]
            body.flat[...] = server.body.flat
        for xb, yb in iter_batches(client.dataset.train_x, client.dataset.train_y,
                                   batch_size):
            if spec.split:
                _train_batch_split(client, body, server.opts[client.id], xb, yb, bus, rnd)
            else:
                _train_batch_local(client, xb, yb)
        if spec.replicas:
            if mean is None:
                mean = nn.WeightedMean(body.flat, float(client.sample_count))
            else:
                mean.add(body.flat, float(client.sample_count))
        if turns is not None:
            turns.offer(client.id, clients, server, bus)
    if spec.replicas:
        mean.into(server.body.flat)
    if spec.average_segments:
        _average_client_segments(clients, bus, rnd)


def _average_client_segments(clients, bus: ChannelBus, rnd: int) -> None:
    """Each client's segments (front, then tail if it has one) transit to
    the server as ParamBlobs; the server averages each segment over the
    clients, read without a copy from the decoded payloads, and sends the
    averages back down, client by client."""
    ids = sorted(clients)
    weights = {cid: float(clients[cid].sample_count) for cid in ids}
    n_segments = 2 if any(c.tail.layers for c in clients.values()) else 1

    def segments(cid):
        return (clients[cid].front, clients[cid].tail)[:n_segments]

    for cid in ids:
        for segment in segments(cid):
            bus.send(MsgType.PARAM_BLOB, wire_id(cid), SERVER, rnd, segment.flat)
    received = [[] for _ in range(n_segments)]
    for cid in ids:
        for models, segment in zip(received, segments(cid)):
            blob = bus.recv(SERVER, wire_id(cid), MsgType.PARAM_BLOB)
            models.append((cid, SequentialModel(segment.layers, blob)))
    averages = [average_models(models, weights) for models in received]
    for cid in ids:
        for segment, avg in zip(segments(cid), averages):
            bus.send(MsgType.PARAM_BLOB, SERVER, wire_id(cid), rnd, avg.flat)
            nn.unflatten_params(segment, bus.recv(wire_id(cid), SERVER, MsgType.PARAM_BLOB))
