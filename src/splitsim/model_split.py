"""Cutting a dense model into client-front / server-body / client-tail
segments."""

from __future__ import annotations

from dataclasses import dataclass

from .nn import SequentialModel

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


def split_model(model: SequentialModel, config: SplitConfig) -> ModelSegments:
    """Cut at layer boundaries. Each segment views its slice of
    model.flat, so segment training updates the parent's parameters."""
    config.validate(len(model.layers))
    return ModelSegments(
        front=model.segment(0, config.front_cut),
        body=model.segment(config.front_cut, config.tail_cut),
        tail=model.segment(config.tail_cut, len(model.layers)),
    )

