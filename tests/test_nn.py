import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import nn


def random_model(rng, widths=None, hidden="relu"):
    widths = widths or [4, 6, 5, 1]
    layers = []
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        last = i == len(widths) - 2
        layers.append(nn.DenseLayer(rng.normal(size=(w_out, w_in)),
                                    rng.normal(size=w_out),
                                    "sigmoid" if last else hidden))
    return nn.SequentialModel(layers)


def models_equal(a: nn.SequentialModel, b: nn.SequentialModel) -> bool:
    """Bit-exact structural and parameter equality."""
    return ([(layer.weights.shape, layer.activation) for layer in a.layers]
            == [(layer.weights.shape, layer.activation) for layer in b.layers]
            and np.array_equal(a.flat, b.flat))


class TestForward:
    def test_identity_linear_layer(self):
        m = nn.SequentialModel([nn.DenseLayer(np.eye(2), np.zeros(2), "linear")])
        out, _ = nn.forward(m, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_relu_layer(self):
        m = nn.SequentialModel([nn.DenseLayer(np.eye(2), np.zeros(2), "relu")])
        out, _ = nn.forward(m, np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_matches_naive_evaluation(self):
        # independent oracle: explicit per-sample, per-neuron loops
        rng = np.random.default_rng(7)
        m = random_model(rng)
        x = rng.normal(size=(5, 4))
        out, _ = nn.forward(m, x)
        for s in range(5):
            a = x[s]
            for layer in m.layers:
                z = np.array([sum(layer.weights[o][i] * a[i] for i in range(len(a)))
                              + layer.bias[o] for o in range(layer.out_width)])
                if layer.activation == "relu":
                    a = np.maximum(0.0, z)
                elif layer.activation == "sigmoid":
                    a = 1.0 / (1.0 + np.exp(-z))
                else:
                    a = z
            assert out[s] == pytest.approx(a, abs=0, rel=1e-15)

    def test_shape_mismatch_rejected(self):
        m = random_model(np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            nn.forward(m, np.zeros((3, 7)))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(1)
        m = random_model(rng)
        before = m.flat.copy()
        nn.forward(m, rng.normal(size=(3, 4)))
        assert np.array_equal(m.flat, before)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        m = random_model(rng)
        out, _ = nn.forward(m, rng.normal(size=(10, 4)) * 10)
        assert np.all(out > 0) and np.all(out < 1)


class TestBackward:
    def test_zero_loss_grad_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        m = random_model(rng)
        out, outputs = nn.forward(m, rng.normal(size=(4, 4)))
        grads, dx = nn.backward(m, outputs, np.zeros_like(out))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(dx == 0)

    def test_forward_returns_the_outputs_backward_reads(self):
        # [x, a_1, ..., a_L]: the input itself and each layer's output
        rng = np.random.default_rng(8)
        m = random_model(rng)
        x = rng.normal(size=(3, 4))
        out, outputs = nn.forward(m, x)
        assert len(outputs) == len(m.layers) + 1
        assert outputs[0] is x and outputs[-1] is out
        for k in range(1, len(outputs)):
            assert outputs[k].tobytes() == nn.forward(m.segment(0, k), x)[0].tobytes()

    def test_relu_mask_on_the_output_equals_the_pre_activation_mask(self):
        # z = x * 1.0 + (-0.0) keeps every x, -0.0 included; backward
        # masks with relu(z) > 0, which must pass exactly where z > 0
        m = nn.SequentialModel([nn.DenseLayer([[1.0]], [-0.0], "relu")])
        x = np.array([[np.nan], [-0.0], [0.0], [-1.0], [2.0], [np.inf], [-np.inf], [5e-324]])
        z = x * 1.0 + -0.0
        assert np.signbit(z[1, 0]) and np.isnan(z[0, 0])
        _, outputs = nn.forward(m, x)
        _, dx = nn.backward(m, outputs, np.ones_like(x))
        assert dx.tobytes() == (z > 0.0).astype(np.float64).tobytes()

    def test_single_neuron_by_hand(self):
        # y = wx + b, w=2, b=0, x=3, dL/dy=1 -> dw=3, db=1, dx=2
        m = nn.SequentialModel([nn.DenseLayer([[2.0]], [0.0], "linear")])
        _, outputs = nn.forward(m, np.array([[3.0]]))
        grads, dx = nn.backward(m, outputs, np.array([[1.0]]))
        assert np.allclose(grads[0], [[3.0]])
        assert np.allclose(grads[1], [1.0])
        assert np.allclose(dx, [[2.0]])

    def test_outputs_of_another_layer_count_rejected(self):
        # a 3-layer model's outputs (4 arrays) for a 2-layer model, the
        # reverse, and the 3-layer outputs cut short
        rng = np.random.default_rng(4)
        m = random_model(rng)
        other = random_model(rng, widths=[4, 3, 1])
        _, outputs = nn.forward(m, rng.normal(size=(2, 4)))
        _, other_outputs = nn.forward(other, rng.normal(size=(2, 4)))
        for model, wrong in ((other, outputs), (m, other_outputs), (m, outputs[:-1])):
            with pytest.raises(nn.StateError):
                nn.backward(model, wrong, np.zeros((2, 1)))

    @pytest.mark.parametrize("trial", range(10))
    def test_finite_differences(self, trial):
        assert max_grad_check_error(trial) < 1e-5


def max_grad_check_error(seed: int) -> float:
    """Central finite differences (h=1e-6) on a random small model;
    returns the worst relative error across all parameters."""
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(1, 4))
    widths = [int(rng.integers(2, 9)) for _ in range(n_layers)] + [1]
    m = random_model(rng, widths=widths)
    for layer in m.layers:
        # fan-in scaling keeps the output sigmoid away from its clamp,
        # where the loss plateaus and finite differences go blind
        layer.weights *= 1.0 / np.sqrt(layer.in_width)
    x = rng.normal(size=(3, widths[0]))
    y = rng.integers(0, 2, size=3).astype(float)
    h = 1e-6

    def loss_value():
        probs, _ = nn.forward(m, x)
        return nn.bce_loss(probs, y)

    probs, outputs = nn.forward(m, x)
    grads, _ = nn.backward(m, outputs, nn.bce_grad(probs, y))

    worst = 0.0
    for i in range(m.flat.size):
        orig = m.flat[i]
        m.flat[i] = orig + h
        up = loss_value()
        m.flat[i] = orig - h
        down = loss_value()
        m.flat[i] = orig
        numeric = (up - down) / (2 * h)
        # denominator floor guards against fd roundoff (~1e-10 abs)
        # dominating the ratio on near-zero gradients
        denom = max(abs(numeric), abs(grads[i]), 1e-3)
        worst = max(worst, abs(numeric - grads[i]) / denom)
    return worst


class TestBceLoss:
    def test_half_prob(self):
        loss = nn.bce_loss(np.array([[0.5]]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2), rel=1e-12)

    def test_perfect_prediction(self):
        loss = nn.bce_loss(np.array([[1.0 - 1e-12]]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-11)

    def test_batch_mean(self):
        loss = nn.bce_loss(np.array([[0.9], [0.2]]), np.array([1.0, 0.0]))
        expected = (-np.log(0.9) - np.log(0.8)) / 2
        assert loss == pytest.approx(expected, rel=1e-14)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(0, 1, size=(8, 1))
            y = rng.integers(0, 2, size=8).astype(float)
            loss = nn.bce_loss(p, y)
            assert loss >= 0

    def test_grad_consistent_with_finite_differences(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.1, 0.9, size=(5, 1))
        y = rng.integers(0, 2, size=5).astype(float)
        grad = nn.bce_grad(p, y)
        h = 1e-7
        for i in range(5):
            up = p.copy(); up[i, 0] += h
            dn = p.copy(); dn[i, 0] -= h
            numeric = (nn.bce_loss(up, y) - nn.bce_loss(dn, y)) / (2 * h)
            assert grad[i, 0] == pytest.approx(numeric, rel=1e-5)


class TestAdam:
    def test_zero_grad_fixed_point(self):
        p = np.array([1.0, -2.0])
        st = nn.AdamState.for_params(p, lr=1e-4)
        nn.adam_step(p, np.zeros(2), st)
        assert np.array_equal(p, [1.0, -2.0])
        assert np.all(st.m == 0) and np.all(st.v == 0)
        assert st.step == 1

    def test_first_step_closed_form(self):
        p = np.array([0.0])
        g = 0.1
        st = nn.AdamState.for_params(p, lr=1e-4)
        nn.adam_step(p, np.array([g]), st)
        # bias-corrected first step: -lr * g / (|g| + eps)
        expected = -1e-4 * g / (abs(g) + 1e-8)
        assert p[0] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        st = nn.AdamState.for_params(p)
        with pytest.raises(nn.ShapeError):
            nn.adam_step(p, np.zeros(4), st)

    def test_determinism(self):
        results = []
        for _ in range(2):
            p = np.array([0.5, -0.5])
            st = nn.AdamState.for_params(p, lr=1e-3)
            for g in ([0.1, 0.2], [-0.3, 0.4]):
                nn.adam_step(p, np.array(g), st)
            results.append(p.tobytes())
        assert results[0] == results[1]


class TestInitModel:
    def test_same_seed_identical(self):
        a = nn.init_model([4, 8, 1], seed=42)
        b = nn.init_model([4, 8, 1], seed=42)
        assert models_equal(a, b)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_different_seed_differs(self):
        a = nn.init_model([4, 8, 1], seed=1)
        b = nn.init_model([4, 8, 1], seed=2)
        assert not models_equal(a, b)

    def test_biases_zero(self):
        m = nn.init_model([4, 8, 8, 1], seed=0)
        for layer in m.layers:
            assert np.all(layer.bias == 0)

    def test_glorot_bounds(self):
        m = nn.init_model([4, 8, 1], seed=0)
        for layer in m.layers:
            bound = np.sqrt(6.0 / (layer.in_width + layer.out_width))
            assert np.all(np.abs(layer.weights) <= bound)

    def test_head_is_sigmoid_width_one(self):
        m = nn.init_model([4, 8, 1], seed=0)
        assert m.layers[-1].out_width == 1
        assert m.layers[-1].activation == "sigmoid"

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            nn.init_model([], seed=0)
        with pytest.raises(ValueError):
            nn.init_model([4, 8, 2], seed=0)


class TestParamFlattening:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        m = random_model(rng)
        vec = nn.flatten_params(m)
        m2 = random_model(np.random.default_rng(10))
        nn.unflatten_params(m2, vec)
        assert models_equal(m, m2)

    def test_wrong_length_rejected(self):
        m = random_model(np.random.default_rng(0))
        with pytest.raises(nn.ShapeError):
            nn.unflatten_params(m, np.zeros(3))


def clip_bce_grad(probs, labels):
    """The BCE gradient of the probs clamped with np.clip: an oracle for
    bce_grad's clamp by np.minimum and np.maximum."""
    n = probs.shape[0]
    p = np.clip(probs[:, 0], nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return ((p - y) / (p * (1.0 - p)) / n).reshape(n, 1)


edge_probs = st.sampled_from([0.0, 1e-300, 1e-13, nn.PROB_CLAMP, 0.5,
                              1.0 - nn.PROB_CLAMP, 1.0 - 1e-13, 1.0])


@settings(max_examples=200, deadline=None)
@given(probs=st.lists(edge_probs | st.floats(0.0, 1.0), min_size=1, max_size=40),
       data=st.data(), label_dtype=st.sampled_from([np.int64, np.float64]))
def test_bce_grad_bit_equals_bce_loss_gradient(probs, data, label_dtype):
    probs = np.array(probs).reshape(-1, 1)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(probs),
                                         max_size=len(probs))), dtype=label_dtype)
    grad = nn.bce_grad(probs, labels)
    assert grad.shape == probs.shape
    assert grad.tobytes() == clip_bce_grad(probs, labels).tobytes()


def test_bce_grad_rejects_bad_shapes():
    with pytest.raises(nn.ShapeError):
        nn.bce_grad(np.zeros(3), np.zeros(3))
    with pytest.raises(nn.ShapeError):
        nn.bce_grad(np.zeros((3, 1)), np.zeros(2))
