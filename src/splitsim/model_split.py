"""Cutting a dense model into client-front / server-body / client-tail
segments, plus the composed forward/backward used to prove the cut is
equivalent to the uncut model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import SequentialModel, backward, forward

VANILLA = "vanilla"
U_SHAPED = "u_shaped"


class ConfigError(ValueError):
    """Split configuration rejected for the given model."""


@dataclass(frozen=True)
class SplitConfig:
    """Where to cut: front = layers[:front_cut], body =
    layers[front_cut:tail_cut], tail = layers[tail_cut:].

    vanilla keeps the tail empty (tail_cut == layer count) and the
    server holds the output head; u_shaped keeps at least one tail
    layer on the client so labels never leave it.
    """

    kind: str
    front_cut: int
    tail_cut: int

    def validate(self, n_layers: int) -> None:
        if self.kind not in (VANILLA, U_SHAPED):
            raise ConfigError(f"unknown split kind {self.kind!r}")
        if not (1 <= self.front_cut <= self.tail_cut <= n_layers):
            raise ConfigError(
                f"cuts ({self.front_cut}, {self.tail_cut}) invalid for {n_layers} layers")
        if self.kind == VANILLA and self.tail_cut != n_layers:
            raise ConfigError("vanilla split requires an empty tail")
        if self.kind == U_SHAPED and self.tail_cut >= n_layers:
            raise ConfigError("u_shaped split requires at least one tail layer")


@dataclass
class ModelSegments:
    front: SequentialModel
    body: SequentialModel
    tail: SequentialModel  # empty under vanilla

    def concat(self) -> SequentialModel:
        return SequentialModel(self.front.layers + self.body.layers + self.tail.layers)


def split_model(model: SequentialModel, config: SplitConfig) -> ModelSegments:
    """Cut at layer boundaries. Each segment views its slice of
    model.flat, so segment training updates the parent's parameters."""
    config.validate(len(model.layers))
    return ModelSegments(
        front=model.segment(0, config.front_cut),
        body=model.segment(config.front_cut, config.tail_cut),
        tail=model.segment(config.tail_cut, len(model.layers)),
    )


def composed_forward(segments: ModelSegments, x: np.ndarray):
    """Forward through front, body, tail in order.

    Bit-identical to forward on the uncut model: the per-layer operation
    sequence is the same. Returns (output, (cache_f, cache_b, cache_t)).
    """
    a, cache_f = forward(segments.front, x)
    a, cache_b = forward(segments.body, a)
    a, cache_t = forward(segments.tail, a)
    return a, (cache_f, cache_b, cache_t)


def composed_backward(segments: ModelSegments, caches, out_grad: np.ndarray):
    """Backward through tail, body, front; returns per-segment param grads
    and the gradient wrt the original input."""
    cache_f, cache_b, cache_t = caches
    grads_t, d_body_out = backward(segments.tail, cache_t, out_grad)
    grads_b, d_front_out = backward(segments.body, cache_b, d_body_out)
    grads_f, d_input = backward(segments.front, cache_f, d_front_out)
    return (grads_f, grads_b, grads_t), d_input
