"""Cutting a dense model into client-front / server-body / client-tail
segments."""

from __future__ import annotations

from dataclasses import dataclass

from .nn import SequentialModel

VANILLA = "vanilla"    # the server holds the output head: the tail is empty
U_SHAPED = "u_shaped"  # the client keeps at least one tail layer, so labels never leave it


@dataclass
class ModelSegments:
    front: SequentialModel
    body: SequentialModel
    tail: SequentialModel  # empty under vanilla


def split_model(model: SequentialModel, front_cut: int, tail_cut: int) -> ModelSegments:
    """Cut at layer boundaries: front = layers[:front_cut], body =
    layers[front_cut:tail_cut], tail = layers[tail_cut:]. The cuts are
    the ones `ExperimentConfig.split_config` returns, which its validate
    checks. Each segment views its slice of model.flat, so segment
    training updates the parent's parameters."""
    return ModelSegments(
        front=model.segment(0, front_cut),
        body=model.segment(front_cut, tail_cut),
        tail=model.segment(tail_cut, len(model.layers)),
    )
