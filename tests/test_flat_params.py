"""Properties of the flat parameter representation: every model keeps its
parameters in one vector, `flat`, and layers, segments and clones are
defined by how they share (or do not share) that vector."""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitsim import nn, protocols
from splitsim.model_split import split_model
from splitsim.protocols import average_models
from test_nn import models_equal

widths_st = st.lists(st.integers(1, 12), min_size=1, max_size=5).map(lambda w: w + [1])

# 200*200 + 200 + 200 + 1 parameters: longer than one chunk, not a multiple of it
WIDE = [200, 200, 1]


def element_offset(view, vec):
    """Where view starts in vec, in float64 elements."""
    return (view.ctypes.data - vec.ctypes.data) // vec.itemsize


def reference_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Per-array Adam, one loop over a list of separately allocated arrays."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for p, g, m_, v_ in zip(params, grads, m, v):
            m_ *= b1
            m_ += (1.0 - b1) * g
            v_ *= b2
            v_ += (1.0 - b2) * (g * g)
            p -= lr * (m_ / bc1) / (np.sqrt(v_ / bc2) + eps)


def per_layer_arrays(model):
    return [a.copy() for layer in model.layers for a in (layer.weights, layer.bias)]


def split_like(vec, arrays):
    """vec cut into consecutive pieces shaped like arrays."""
    bounds = np.cumsum([a.size for a in arrays])[:-1]
    return [piece.reshape(a.shape) for piece, a in zip(np.split(vec, bounds), arrays)]


@settings(max_examples=40, deadline=None)
@given(widths=widths_st, seed=st.integers(0, 2**31), steps=st.integers(1, 4),
       lr=st.sampled_from([1e-4, 1e-3, 3e-3]))
@example(widths=WIDE, seed=0, steps=3, lr=1e-3)
def test_chunked_adam_bit_equals_per_array_reference(widths, seed, steps, lr):
    model = nn.init_model(widths, seed)
    rng = np.random.default_rng(seed)
    grad_steps = [rng.normal(size=model.flat.size) for _ in range(steps)]

    ref = per_layer_arrays(model)
    reference_adam(ref, [split_like(g, ref) for g in grad_steps], lr)

    state = nn.AdamState.for_params(model.flat, lr=lr)
    for g in grad_steps:
        nn.adam_step(model.flat, g, state)
    assert state.step == steps
    assert model.flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()


def test_wide_vector_spans_chunks():
    size = nn.init_model(WIDE, 0).flat.size
    assert size > nn.CHUNK and size % nn.CHUNK != 0


@settings(max_examples=40, deadline=None)
@given(widths=widths_st, seed=st.integers(0, 2**31))
def test_clone_shares_no_memory_and_views_track_flat(widths, seed):
    model = nn.init_model(widths, seed)
    before = model.flat.copy()
    twin = model.clone()
    assert models_equal(twin, model)
    assert not np.shares_memory(twin.flat, model.flat)
    for layer in twin.layers:
        assert np.shares_memory(layer.weights, twin.flat)
        assert not np.shares_memory(layer.weights, model.flat)

    twin.flat += 1.0
    assert model.flat.tobytes() == before.tobytes()

    model.layers[-1].bias[...] = 7.0
    assert model.flat[-1] == 7.0
    model.flat[0] = -3.0
    assert model.layers[0].weights[0, 0] == -3.0
    assert twin.layers[-1].bias[0] == before[-1] + 1.0


@settings(max_examples=40, deadline=None)
@given(widths=st.lists(st.integers(1, 8), min_size=2, max_size=5).map(lambda w: w + [1]),
       data=st.data())
def test_split_segments_alias_parent_vector(widths, data):
    n_layers = len(widths) - 1
    front_cut = data.draw(st.integers(1, n_layers - 1))
    tail_cut = data.draw(st.integers(front_cut, n_layers - 1))
    model = nn.init_model(widths, 0)
    seg = split_model(model, front_cut, tail_cut)
    joined = np.concatenate([seg.front.flat, seg.body.flat, seg.tail.flat])
    assert joined.tobytes() == model.flat.tobytes()
    for part in (seg.front, seg.body, seg.tail):
        assert part.flat.size == 0 or np.shares_memory(part.flat, model.flat)

    seg.tail.layers[0].weights[...] = 5.0
    assert np.all(model.layers[tail_cut].weights == 5.0)
    seg.front.flat[...] = 0.0
    assert np.all(model.layers[0].weights == 0.0)


@settings(max_examples=40, deadline=None)
@given(widths=widths_st, n=st.integers(2, 5), data=st.data())
def test_average_bit_equals_per_array_reference(widths, n, data):
    ids = data.draw(st.permutations(range(n)))
    counts = {cid: float(data.draw(st.integers(1, 400))) for cid in range(n)}
    models = [(cid, nn.init_model(widths, seed=cid)) for cid in ids]

    ref = [np.zeros_like(p) for p in per_layer_arrays(models[0][1])]
    for cid, m in sorted(models, key=lambda kv: kv[0]):
        for acc, p in zip(ref, per_layer_arrays(m)):
            acc += counts[cid] * p
    for acc in ref:
        acc /= sum(counts.values())

    avg = average_models(models, counts)
    assert avg.flat.tobytes() == np.concatenate([p.ravel() for p in ref]).tobytes()
    assert all(not np.shares_memory(avg.flat, m.flat) for _, m in models)


def replicas(vectors):
    """Body replicas over aligned copies of vectors, with their Adam
    states, as `make_clients` deals them."""
    layers = [nn.DenseLayer(np.zeros((1, vectors[0].size - 1)), np.zeros(1))]
    bodies = {cid: nn.SequentialModel(layers, nn.aligned_copy(vec))
              for cid, vec in enumerate(vectors)}
    return protocols.ServerState(bodies, {cid: nn.AdamState.for_params(body.flat)
                                          for cid, body in bodies.items()})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5),
       size=st.integers(1, 40) | st.sampled_from([nn.CHUNK, nn.CHUNK + 1, 2 * nn.CHUNK + 9]),
       equal=st.booleans(), seed=st.integers(0, 2**32 - 1),
       counts=st.lists(st.integers(1, 400), min_size=5, max_size=5))
@example(n=1, size=5, equal=False, seed=0, counts=[1, 2, 3, 4, 5])
@example(n=3, size=2 * nn.CHUNK + 9, equal=True, seed=1, counts=[182, 377, 115, 88, 109])
def test_in_place_body_average_bit_equals_average_models(n, size, equal, seed, counts):
    # zeros of either sign in every replica: with `equal`, replicas that
    # differ only in the signs of their zeros, so the all-equal
    # short-circuit must hand every replica the first one's bits
    rng = np.random.default_rng(seed)
    base, zeros = rng.normal(size=size), rng.random(size) < 0.25
    vectors = []
    for _ in range(n):
        vec = base.copy() if equal else rng.normal(size=size)
        vec[zeros] = np.where(rng.random(size) < 0.5, 0.0, -0.0)[zeros]
        vectors.append(vec)
    weights = {cid: float(counts[cid]) for cid in range(n)}
    server = replicas(vectors)
    expected = average_models(list(server.bodies.items()), weights).flat.copy()
    if not all(np.array_equal(vec, vectors[0]) for vec in vectors):
        # one whole-vector pass, ascending ids, from zero: the chunked mean's oracle
        ref = np.zeros(size)
        for cid in range(n):
            ref += weights[cid] * vectors[cid]
        assert expected.tobytes() == (ref / sum(weights.values())).tobytes()

    flats = {cid: body.flat for cid, body in server.bodies.items()}
    protocols._average_bodies({cid: SimpleNamespace(sample_count=counts[cid])
                               for cid in range(n)}, server)
    for cid, body in server.bodies.items():
        assert body.flat is flats[cid]
        assert body.flat.tobytes() == expected.tobytes()


sizes_st = st.integers(0, 2 * nn.CHUNK + 3)  # zero, one and several chunks


@settings(max_examples=40, deadline=None)
@given(front=sizes_st, tail=sizes_st, seed=st.integers(0, 2**31), steps=st.integers(1, 3),
       lr=st.sampled_from([1e-4, 3e-3]))
@example(front=nn.CHUNK - 1, tail=2, seed=0, steps=2, lr=1e-3)
def test_fused_adam_equals_two_separate_steps(front, tail, seed, steps, lr):
    rng = np.random.default_rng(seed)
    params = rng.normal(size=front + tail)
    grad_steps = [rng.normal(size=front + tail) for _ in range(steps)]

    parts = [params[:front].copy(), params[front:].copy()]
    states = [nn.AdamState.for_params(p, lr=lr) for p in parts]
    fused = params.copy()
    fused_state = nn.AdamState.for_params(fused, lr=lr)
    for g in grad_steps:
        nn.adam_step(parts[1], g[front:].copy(), states[1])  # tail first, as before
        nn.adam_step(parts[0], g[:front].copy(), states[0])
        nn.adam_step(fused, g, fused_state)
    assert fused.tobytes() == np.concatenate(parts).tobytes()
    assert fused_state.m.tobytes() == np.concatenate([s.m for s in states]).tobytes()
    assert fused_state.v.tobytes() == np.concatenate([s.v for s in states]).tobytes()


def test_passes_of_different_sizes_share_the_scratch_pair():
    """A 153-element Adam step, a 2 * CHUNK + 9 weighted mean, then the
    step and the mean again, back to back through the one scratch pair
    (which the mean grows to a chunk, and every pass leaves dirty): each
    result is bit-equal to the same pass run alone, on a fresh pair."""
    rng = np.random.default_rng(0)
    params, grads = rng.normal(size=153), rng.normal(size=153)
    vecs = [rng.normal(size=2 * nn.CHUNK + 9) for _ in range(3)]
    weights = [182.0, 377.0, 115.0]

    def step():
        p, state = params.copy(), nn.AdamState.for_params(params, lr=1e-3)
        nn.adam_step(p, grads, state)
        return p.tobytes() + state.m.tobytes() + state.v.tobytes()

    def mean():
        (out,) = nn.vectors(vecs[0].size)
        nn.weighted_mean_into([out], vecs, weights)
        return out.tobytes()

    alone = []
    for run in (step, mean, step, mean):
        nn._SCRATCH.clear()
        alone.append(run())
    nn._SCRATCH.clear()
    assert [step(), mean(), step(), mean()] == alone
    assert max(nn._SCRATCH) == nn.CHUNK
    # every length's views are the leading part of one pair
    starts = {(t1.ctypes.data, t2.ctypes.data) for t1, t2 in nn._SCRATCH.values()}
    assert len(starts) == 1


@settings(max_examples=40, deadline=None)
@given(widths=widths_st, seed=st.integers(0, 2**31))
def test_backward_reuses_the_gradient_buffer(widths, seed):
    model = nn.init_model(widths, seed)
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(3, widths[0])) for _ in range(2)]
    out_grad = rng.normal(size=(3, 1))

    first, _ = nn.backward(model, nn.forward(model, batches[0])[1], out_grad)
    kept = first.copy()  # what a caller must do to keep it past the next call
    second, _ = nn.backward(model, nn.forward(model, batches[1])[1], out_grad)
    assert second is first is model.grad
    for layer, (d_weights, d_bias) in zip(model.layers, model.grad_views):
        assert np.shares_memory(d_weights, model.grad) and np.shares_memory(d_bias, model.grad)
        assert d_weights.shape == layer.weights.shape

    # each call's values are those of a model that never ran backward
    for x, expected in zip(batches, (kept, second)):
        fresh = model.clone()
        grads, _ = nn.backward(fresh, nn.forward(fresh, x)[1], out_grad)
        assert grads is not model.grad
        assert grads.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(widths=st.lists(st.integers(1, 8), min_size=2, max_size=5).map(lambda w: w + [1]),
       seed=st.integers(0, 2**16))
def test_backward_without_input_grad_gives_the_same_grads(widths, seed):
    model = nn.init_model(widths, seed)
    rng = np.random.default_rng(seed)
    outputs = nn.forward(model, rng.normal(size=(3, widths[0])))[1]
    out_grad = rng.normal(size=(3, 1))
    full = nn.backward(model.clone(), outputs, out_grad)[0].copy()
    grads, input_grad = nn.backward(model, outputs, out_grad, input_grad=False)
    assert grads is model.grad
    assert input_grad is None
    assert grads.tobytes() == full.tobytes()


@settings(max_examples=40, deadline=None)
@given(widths=st.lists(st.integers(1, 8), min_size=2, max_size=5).map(lambda w: w + [1]),
       data=st.data())
def test_pack_lays_models_end_to_end(widths, data):
    n_layers = len(widths) - 1
    front_cut = data.draw(st.integers(1, n_layers - 1))
    tail_cut = data.draw(st.integers(front_cut, n_layers - 1))
    seg = split_model(nn.init_model(widths, 0), front_cut, tail_cut)
    flat, grad, (front, tail) = nn.pack([seg.front, seg.tail])
    assert flat.tobytes() == np.concatenate([seg.front.flat, seg.tail.flat]).tobytes()
    assert not np.shares_memory(flat, seg.front.flat)
    # each copy's vectors are views of the packed ones, end to end
    for vec, (lo, hi) in ((flat, (front.flat, tail.flat)), (grad, (front.grad, tail.grad))):
        assert np.shares_memory(lo, vec) and np.shares_memory(hi, vec)
        assert element_offset(lo, vec) == 0 and element_offset(hi, vec) == lo.size
    assert front.grad.size + tail.grad.size == grad.size == flat.size
