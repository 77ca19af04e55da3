"""Minimal dense-network training core.

Plain numpy float64 throughout: tight gradient-check tolerances and
bit-exact equality assertions elsewhere in the simulator depend on it.

Parameters: each `SequentialModel` keeps all of its parameters in one
contiguous vector, `model.flat`, in canonical order W0, b0, W1, b1, ...;
layer weights and biases are reshaped views into it, and `backward`
returns gradients in the same flat layout. Split segments are slices of
their parent's vector, so training a segment trains the parent.

What mutates: `adam_step` updates the parameter vector and optimizer
state it is handed, and `unflatten_params` overwrites a model's vector.
Everything else is pure; `clone` and `flatten_params` return copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("linear", "relu", "sigmoid")

PROB_CLAMP = 1e-12

# Elements per Adam pass: each temporary is 64 KiB, half of glibc's
# initial mmap threshold. Temporaries of 512 KiB or more (a whole-vector
# pass, or 65,536-element chunks) made malloc map and trim fresh pages on
# every step of a wide model, tripling the page faults of per-array Adam.
# Every model at the default widths fits in one chunk.
CHUNK = 8_192


class ShapeError(ValueError):
    """Input rejected because its shape does not match the model."""


class StateError(ValueError):
    """Operation rejected because of a stale or mismatched state argument."""


def _apply_activation(name, z):
    if name == "linear":
        return z
    if name == "relu":
        return np.maximum(0.0, z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name, z, a):
    # derivative of activation wrt z, using cached pre/post values
    if name == "linear":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    """Fully connected layer: y = act(x @ W.T + b)."""

    weights: np.ndarray  # [out, in]
    bias: np.ndarray     # [out]
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("weights must be 2-D [out, in]")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("bias shape must match weight rows")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]


class SequentialModel:
    """Ordered dense-layer stack over one parameter vector, `flat`. An
    empty stack acts as the identity (needed for vanilla split
    configurations with no client tail).

    `SequentialModel(layers)` copies the layers' values into a new vector;
    `SequentialModel(layers, flat)` binds the layers as views of `flat`.
    """

    def __init__(self, layers=(), flat: np.ndarray | None = None):
        layers = list(layers)
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_width != nxt.in_width:
                raise ShapeError("layer widths do not chain")
        if flat is None:
            flat = np.concatenate(
                [a.ravel() for layer in layers for a in (layer.weights, layer.bias)]
                or [np.zeros(0)])
        if flat.shape != (sum(layer.weights.size + layer.bias.size for layer in layers),):
            raise ShapeError("flat vector length does not match the layers")
        self.flat = flat
        self.layers = []
        off = 0
        for layer in layers:
            w_end = off + layer.weights.size
            b_end = w_end + layer.bias.size
            self.layers.append(DenseLayer(flat[off:w_end].reshape(layer.weights.shape),
                                          flat[w_end:b_end], layer.activation))
            off = b_end

    @property
    def in_width(self) -> int | None:
        return self.layers[0].in_width if self.layers else None

    @property
    def out_width(self) -> int | None:
        return self.layers[-1].out_width if self.layers else None

    def clone(self) -> "SequentialModel":
        """An independent copy: one vector copy, views rebound to it."""
        return SequentialModel(self.layers, self.flat.copy())

    def segment(self, start: int, stop: int) -> "SequentialModel":
        """layers[start:stop] as a model over the matching slice of `flat`;
        it shares storage with this model."""
        sizes = [layer.weights.size + layer.bias.size for layer in self.layers]
        lo = sum(sizes[:start])
        return SequentialModel(self.layers[start:stop],
                               self.flat[lo:lo + sum(sizes[start:stop])])


def models_equal(a: SequentialModel, b: SequentialModel) -> bool:
    """Bit-exact structural and parameter equality."""
    return ([(layer.weights.shape, layer.activation) for layer in a.layers]
            == [(layer.weights.shape, layer.activation) for layer in b.layers]
            and np.array_equal(a.flat, b.flat))


def init_model(widths: list[int], seed: int, hidden_activation: str = "relu") -> SequentialModel:
    """Deterministic Glorot-uniform init, zero biases, sigmoid output head.

    widths = [d_in, h1, ..., 1]; the final layer always gets a sigmoid
    activation so the model is a binary classifier.
    """
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    if widths[-1] != 1:
        raise ValueError("classifier head must have output width 1")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        bound = np.sqrt(6.0 / (w_in + w_out))
        weights = rng.uniform(-bound, bound, size=(w_out, w_in))
        bias = np.zeros(w_out)
        last = i == len(widths) - 2
        layers.append(DenseLayer(weights, bias, "sigmoid" if last else hidden_activation))
    return SequentialModel(layers)


def forward(model: SequentialModel, x: np.ndarray):
    """Run the model on a batch; returns (output, cache).

    cache holds the layer inputs and pre/post activations needed by
    `backward`. An empty model is the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("input must be 2-D [n, features]")
    if model.layers and x.shape[1] != model.in_width:
        raise ShapeError(
            f"input width {x.shape[1]} != model input width {model.in_width}")
    cache = {"input": x, "pre": [], "post": [], "n_layers": len(model.layers)}
    a = x
    for layer in model.layers:
        z = a @ layer.weights.T + layer.bias
        a = _apply_activation(layer.activation, z)
        cache["pre"].append(z)
        cache["post"].append(a)
    return a, cache


def backward(model: SequentialModel, cache, out_grad: np.ndarray):
    """Backprop through the model; returns (grads, input_grad).

    grads is one flat vector laid out like model.flat; each layer's dW and
    db are written straight into their views of it. cache must come from a
    matching forward call on this model.
    """
    if cache.get("n_layers") != len(model.layers):
        raise StateError("cache does not match model (stale or wrong model)")
    out_grad = np.asarray(out_grad, dtype=np.float64)
    if model.layers and out_grad.shape != cache["post"][-1].shape:
        raise StateError("out_grad shape does not match cached forward output")
    if not model.layers and out_grad.shape != cache["input"].shape:
        raise StateError("out_grad shape does not match cached forward output")

    grads = np.empty(model.flat.size)
    end = grads.size
    da = out_grad
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        z = cache["pre"][i]
        a = cache["post"][i]
        x_in = cache["input"] if i == 0 else cache["post"][i - 1]
        dz = da * _activation_grad(layer.activation, z, a)
        w_end = end - layer.bias.size
        start = w_end - layer.weights.size
        # dW = dz.T @ x_in and db = dz.sum(axis=0), written into their views
        np.matmul(dz.T, x_in, grads[start:w_end].reshape(layer.weights.shape))
        np.add.reduce(dz, 0, None, grads[w_end:end])
        da = dz @ layer.weights             # d input of this layer
        end = start
    return grads, da


def bce_loss(probs: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy and its gradient wrt probs.

    probs is [n, 1] in (0, 1); labels is [n] with values in {0, 1}.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 1:
        raise ShapeError("probs must be [n, 1]")
    if labels.shape != (probs.shape[0],):
        raise ShapeError("labels must be [n] matching probs")
    n = probs.shape[0]
    p = np.clip(probs[:, 0], PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = labels
    loss = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    grad = ((p - y) / (p * (1.0 - p)) / n).reshape(n, 1)
    return loss, grad


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector; shapes mirror it."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-4, **kw) -> "AdamState":
        return cls(lr=lr, m=np.zeros_like(params), v=np.zeros_like(params), **kw)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Standard Adam update with bias correction; mutates params and state.

    Runs over CHUNK-element slices of the flat vectors. Every op is
    elementwise, so the result is bit-identical to one whole-vector pass.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError("parameter/gradient/moment shape mismatch")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for lo in range(0, params.size, CHUNK):
        s = slice(lo, lo + CHUNK)
        p, g, m, v = params[s], grads[s], state.m[s], state.v[s]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def flatten_params(model: SequentialModel) -> np.ndarray:
    """A copy of the model's parameter vector, canonical order."""
    return model.flat.copy()


def unflatten_params(model: SequentialModel, vec: np.ndarray) -> None:
    """Write a flat vector into the model's parameters in place."""
    if vec.size != model.flat.size:
        raise ShapeError("flat vector length does not match model")
    model.flat[...] = vec.reshape(-1)
