"""Minimal dense-network training core.

Plain numpy float64 throughout: tight gradient-check tolerances and
bit-exact equality assertions elsewhere in the simulator depend on it.

Parameters: each `SequentialModel` keeps all of its parameters in one
contiguous vector, `model.flat`, in canonical order W0, b0, W1, b1, ...;
layer weights and biases are reshaped views into it. Split segments are
slices of their parent's vector, so training a segment trains the parent.
`pack` lays several models end to end over one vector and one gradient
buffer, so one `adam_step` updates them all.

Alignment: every long-lived training vector (a model's own vector, a
packed vector and its gradient buffer, Adam's moments, the server's body
replicas, the scratch pair) comes from `vectors`, which starts each one
on a 64-byte cache line. numpy's own large allocations start 16 bytes past
one, and a cheap elementwise pass that writes into such a vector runs
about half as fast: a multiply into 8,192 in-cache elements took 0.68 ns
per element against 0.35 into an aligned vector (a divide, 0.85 either
way; 2-vCPU Xeon VM). Adam is fourteen such passes.

Memory: a block of `vectors` of at least MAP_MIN bytes (glibc's default
mmap threshold) is its own private anonymous mapping, page-aligned,
zeroed by the kernel and unmapped when its last view goes, so the
process's resident memory follows the training state that is alive.
From the heap, such a block's pages stay resident once it is freed:
glibc raises its mmap threshold to a freed mapped block's size, and
later blocks of that size come from the heap. The mapping is private
(`MAP_PRIVATE`), not Python's default `MAP_SHARED`: a sweep's forked
worker gets copy-on-write pages, so its training never writes into the
parent's vectors.

What mutates: `backward` writes the gradients into the model's gradient
buffer, `model.grad` (laid out like `flat`, allocated on the first call
and reused by every later one), and returns that buffer: a caller
consumes it before the next `backward` on the same model. `adam_step`
updates the parameter vector and optimizer state it is handed, a
`WeightedMean` the vector it sums into and the vector it writes the mean
to, and `unflatten_params` overwrites a model's vector. The chunked
passes (Adam steps and weighted means) walk their vectors with one
generator, `_chunks`, and put their temporaries in this module's one
scratch pair, two CHUNK-element vectors made on first use (`_scratch`):
the process is single-threaded and no pass runs inside another, so no
two passes use it at once, and a forked worker writes its own copy.
The pair is one private mapping, so a pass over fewer elements than a
chunk makes resident only the pages it touches. Everything else is
pure; `clone` and `flatten_params` return copies.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("linear", "relu", "sigmoid")

PROB_CLAMP = 1e-12

# Elements per chunked pass (an Adam step's or a weighted mean's). The
# passes share one scratch pair of a chunk each (`_scratch`), so the
# size trades cache reuse and per-pass call overhead against the pair's
# memory, not malloc behaviour. On aligned vectors, a 148,032-element
# Adam step right after a 16 MiB write took 1,214 us at 8,192, 1,121 at
# 16,384, 1,089 at 32,768, 1,161 at 65,536 and 1,296 in one pass (medians
# of 15; 2-vCPU Xeon VM). Whole wide-body ops ran as fast at 16,384 as at
# 32,768 (interleaved), and 32,768's larger scratch raised the wide-body
# benchmark's peak RSS by about 0.5 MB. Every model at the default
# widths fits in one chunk. A multiple of ALIGN // 8, so every chunk of
# an aligned vector starts on a cache line.
CHUNK = 16_384

ALIGN = 64  # bytes: one cache line

MAP_MIN = 128 * 1024  # bytes: a block this large is its own mapping (glibc's default threshold)


class ShapeError(ValueError):
    """Input rejected because its shape does not match the model."""


class StateError(ValueError):
    """Operation rejected because of a stale or mismatched state argument."""


def vectors(*sizes: int) -> list[np.ndarray]:
    """Zeroed float64 vectors of the given sizes, each starting on an
    ALIGN-byte boundary, carved from one block: a vector's owner is the
    block, not the vector. A block of at least MAP_MIN bytes is a private
    anonymous mapping, page-aligned; a smaller one comes from numpy and
    pays for one address query (about 0.5 us) however many vectors it
    holds."""
    per_line = ALIGN // 8
    widths = [-(-n // per_line) * per_line for n in sizes]
    if 8 * sum(widths) >= MAP_MIN:
        block = np.frombuffer(mmap.mmap(-1, 8 * sum(widths), flags=mmap.MAP_PRIVATE))
        lo = 0
    else:
        block = np.zeros(sum(widths) + per_line)
        lo = -ctypes.addressof(ctypes.c_char.from_buffer(block)) % ALIGN // 8
    out = []
    for n, width in zip(sizes, widths):
        out.append(block[lo:lo + n])
        lo += width
    return out


def aligned_copy(vec: np.ndarray) -> np.ndarray:
    """An aligned copy of vec."""
    (out,) = vectors(vec.size)
    out[...] = vec
    return out


def _f64(x) -> np.ndarray:
    """x as a float64 ndarray; x itself when it already is one."""
    if type(x) is np.ndarray and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


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


def _views(layers, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weights, bias) as views of vec, in the flat layout."""
    views, off = [], 0
    for layer in layers:
        w_end = off + layer.weights.size
        b_end = w_end + layer.bias.size
        views.append((vec[off:w_end].reshape(layer.weights.shape), vec[w_end:b_end]))
        off = b_end
    return views


class SequentialModel:
    """Ordered dense-layer stack over one parameter vector, `flat`. An
    empty stack acts as the identity (needed for vanilla split
    configurations with no client tail).

    `SequentialModel(layers)` copies the layers' values into a new vector;
    `SequentialModel(layers, flat)` binds the layers as views of `flat`.
    `grad`, when given, is the gradient buffer `backward` writes into;
    otherwise the first `backward` allocates one.
    """

    def __init__(self, layers=(), flat: np.ndarray | None = None,
                 grad: np.ndarray | None = None):
        layers = list(layers)
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_width != nxt.in_width:
                raise ShapeError("layer widths do not chain")
        size = sum(layer.weights.size + layer.bias.size for layer in layers)
        if flat is None:
            (flat,) = vectors(size)
            if layers:
                np.concatenate([a.ravel() for layer in layers
                                for a in (layer.weights, layer.bias)], out=flat)
        if flat.shape != (size,):
            raise ShapeError("flat vector length does not match the layers")
        self.flat = flat
        self.layers = [DenseLayer(w, b, layer.activation)
                       for layer, (w, b) in zip(layers, _views(layers, flat))]
        self.grad = self.grad_views = None
        if grad is not None:
            self._bind_grad(grad)

    def _bind_grad(self, grad: np.ndarray) -> None:
        if grad.shape != self.flat.shape:
            raise ShapeError("gradient buffer length does not match the layers")
        self.grad = grad
        self.grad_views = _views(self.layers, grad)

    @property
    def in_width(self) -> int | None:
        return self.layers[0].in_width if self.layers else None

    def clone(self) -> "SequentialModel":
        """An independent copy: one vector copy, views rebound to it."""
        return SequentialModel(self.layers, aligned_copy(self.flat))

    def segment(self, start: int, stop: int) -> "SequentialModel":
        """layers[start:stop] as a model over the matching slice of `flat`;
        it shares storage with this model."""
        sizes = [layer.weights.size + layer.bias.size for layer in self.layers]
        lo = sum(sizes[:start])
        return SequentialModel(self.layers[start:stop],
                               self.flat[lo:lo + sum(sizes[start:stop])])


def pack(models) -> tuple[np.ndarray, np.ndarray, list[SequentialModel]]:
    """Copies of `models` laid end to end over one new parameter vector
    and one gradient buffer; returns (vector, buffer, copies)."""
    size = sum(m.flat.size for m in models)
    flat, grad = vectors(size, size)
    np.concatenate([m.flat for m in models], out=flat)
    copies, lo = [], 0
    for m in models:
        hi = lo + m.flat.size
        copies.append(SequentialModel(m.layers, flat[lo:hi], grad[lo:hi]))
        lo = hi
    return flat, grad, copies


def init_model(widths: list[int], seed: int) -> SequentialModel:
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
        layers.append(DenseLayer(weights, bias, "sigmoid" if last else "relu"))
    return SequentialModel(layers)


@np.errstate(over="ignore")
def _exp_saturating(a: np.ndarray) -> None:
    """a = exp(a) in place, without the overflow warning: exp overflows to
    inf for a above about 709, where the sigmoid is 0.0, as it should be.
    As a decorator, errstate costs about half as much per call as a
    `with np.errstate` block (0.8 against 1.5 us)."""
    np.exp(a, a)


def forward(model: SequentialModel, x: np.ndarray):
    """Run the model on a batch; returns (output, outputs).

    outputs = [x, a_1, ..., a_L] holds the input and each layer's output,
    what `backward` reads; output is outputs[-1]. An empty model is the
    identity. Each activation is applied in place over its layer's
    pre-activation, which nothing keeps.
    """
    x = _f64(x)
    if x.ndim != 2:
        raise ShapeError("input must be 2-D [n, features]")
    if model.layers and x.shape[1] != model.layers[0].weights.shape[1]:
        raise ShapeError(
            f"input width {x.shape[1]} != model input width {model.in_width}")
    outputs = [x]
    for layer in model.layers:
        a = outputs[-1] @ layer.weights.T
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(0.0, a, out=a)
        elif layer.activation == "sigmoid":
            # 1 / (1 + exp(-z))
            np.negative(a, a)
            _exp_saturating(a)
            np.add(a, 1.0, a)
            np.divide(1.0, a, a)
        outputs.append(a)
    return outputs[-1], outputs


def backward(model: SequentialModel, outputs, out_grad: np.ndarray, input_grad: bool = True):
    """Backprop through the model; returns (grads, input_grad).

    grads is model.grad, one flat vector laid out like model.flat; each
    layer's dW and db are written straight into their views of it. The
    next backward on this model overwrites it. outputs must come from a
    matching forward call on this model. With input_grad=False, for a
    caller with no use for the gradient wrt the model's input, the first
    layer's matmul that computes it is skipped and None is returned in
    its place.
    """
    if len(outputs) != len(model.layers) + 1:
        raise StateError("outputs do not match model (stale or wrong model)")
    out_grad = _f64(out_grad)
    if out_grad.shape != outputs[-1].shape:
        raise StateError("out_grad shape does not match the forward output")

    if model.grad is None:
        model._bind_grad(vectors(model.flat.size)[0])
    da = out_grad
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        a = outputs[i + 1]
        # da times the activation's derivative (a float64 x bool product
        # has the bits of one by the bool cast to float64); relu's mask
        # a > 0 equals z > 0 for every pre-activation z, nan and -0.0 too
        if layer.activation == "relu":
            dz = da * (a > 0.0)
        elif layer.activation == "sigmoid":
            dz = da * (a * (1.0 - a))
        else:  # linear: the derivative is 1, and da * 1.0 is da
            dz = da
        # dW = dz.T @ (layer input) and db = dz.sum(axis=0), into their views
        d_weights, d_bias = model.grad_views[i]
        np.matmul(dz.T, outputs[i], d_weights)
        np.add.reduce(dz, 0, None, d_bias)
        if i or input_grad:
            da = dz @ layer.weights         # d input of this layer
    return model.grad, (da if input_grad else None)


def _clamped(probs, labels):
    """(p, y): probs [n, 1] as a clamped [n] vector and labels [n], both
    float64."""
    probs = _f64(probs)
    labels = _f64(labels)
    if probs.ndim != 2 or probs.shape[1] != 1:
        raise ShapeError("probs must be [n, 1]")
    if labels.shape != (probs.shape[0],):
        raise ShapeError("labels must be [n] matching probs")
    return np.minimum(np.maximum(probs[:, 0], PROB_CLAMP), 1.0 - PROB_CLAMP), labels


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy.

    probs is [n, 1] in (0, 1); labels is [n] with values in {0, 1}.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    p, y = _clamped(probs, labels)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def bce_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The gradient of bce_loss wrt probs, [n, 1], at the clamped probs."""
    p, y = _clamped(probs, labels)
    n = p.shape[0]
    return ((p - y) / (p * (1.0 - p)) / n).reshape(n, 1)


@functools.cache
def _scratch() -> tuple[np.ndarray, np.ndarray]:
    """The chunked passes' one pair of CHUNK-element temporaries, made on
    first use: one private mapping, so a pass makes resident only the
    pages it touches."""
    return tuple(vectors(CHUNK, CHUNK))


def _chunks(*vecs: np.ndarray):
    """Each CHUNK-element slice of the equal-length vecs (the whole vecs,
    unsliced, when they fit in one chunk), followed by the scratch pair's
    leading part of the same length."""
    t1, t2 = _scratch()
    n = vecs[0].size
    if n <= CHUNK:
        yield (*vecs, t1[:n], t2[:n])
        return
    for lo in range(0, n, CHUNK):
        k = min(CHUNK, n - lo)
        yield (*(vec[lo:lo + k] for vec in vecs), t1[:k], t2[:k])


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's usual constants


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector; shapes mirror it."""

    lr: float = 1e-4
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-4) -> "AdamState":
        """Zero moments for params."""
        m, v = vectors(params.size, params.size)
        return cls(lr=lr, m=m, v=v)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Standard Adam update with bias correction; mutates params and state.

    Runs over CHUNK-element slices of the flat vectors. Every op is
    elementwise, so the result is bit-identical to one whole-vector pass.
    The temporaries go to the scratch pair (output-argument forms of the
    same ops, in the same order), so a step allocates nothing once the
    pair is made.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError("parameter/gradient/moment shape mismatch")
    state.step += 1
    t = state.step
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v, t1, t2 in _chunks(params, grads, state.m, state.v):
        # each ufunc's output as its positional third argument: on a small
        # model the per-call cost is most of a step, and this form costs
        # less per call than `out=` or the in-place operators
        np.multiply(m, beta1, m)                          # m = b1 m + (1 - b1) g
        np.add(m, np.multiply(1.0 - beta1, g, t1), m)
        np.multiply(v, beta2, v)                          # v = b2 v + (1 - b2) g g
        np.multiply(g, g, t1)
        np.add(v, np.multiply(1.0 - beta2, t1, t1), v)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(state.lr, np.divide(m, bc1, t1), t1)
        np.sqrt(np.divide(v, bc2, t2), t2)
        np.add(t2, ADAM_EPS, t2)
        np.divide(t1, t2, t1)
        np.subtract(p, t1, p)


class WeightedMean:
    """The weighted mean sum(w * vec) / sum(w) of vectors added one at a
    time, accumulated from zero in the order added: per element,
    ((0.0 + w1 v1) + w2 v2 + ...) / sum(w), chunk by chunk through the
    scratch pair, whatever the values. `acc` holds the first vector, of
    weight `weight`, and becomes the running sum at the first `add`; a
    mean of one vector is that vector's bits."""

    def __init__(self, acc: np.ndarray, weight: float):
        self.acc, self.weights = acc, [weight]

    def add(self, vec: np.ndarray, weight: float) -> None:
        first = len(self.weights) == 1
        for acc, v, _, tmp in _chunks(self.acc, vec):
            if first:  # acc = 0.0 + w1 v1
                np.add(np.multiply(self.weights[0], acc, tmp), 0.0, acc)
            acc += np.multiply(weight, v, out=tmp)
        self.weights.append(weight)

    def into(self, out: np.ndarray) -> None:
        """Write the mean into out, which may be `acc` or any vector
        added."""
        if len(self.weights) > 1:
            np.divide(self.acc, sum(self.weights), out)
        elif out is not self.acc:
            out[...] = self.acc


def flatten_params(model: SequentialModel) -> np.ndarray:
    """A copy of the model's parameter vector, canonical order."""
    return model.flat.copy()


def unflatten_params(model: SequentialModel, vec: np.ndarray) -> None:
    """Write a flat vector into the model's parameters in place."""
    if vec.size != model.flat.size:
        raise ShapeError("flat vector length does not match model")
    model.flat[...] = vec.reshape(-1)
