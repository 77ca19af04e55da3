import numpy as np
import pytest

from splitsim import nn
from splitsim.harness import ConfigurationError, ExperimentConfig
from splitsim.model_split import U_SHAPED, VANILLA, split_model
from tests.test_nn import models_equal, random_model


def four_layer_model(seed=0):
    return random_model(np.random.default_rng(seed), widths=[4, 6, 5, 3, 1])


def segments(seg):
    return (seg.front, seg.body, seg.tail)


def chained_forward(seg, x):
    """Forward through front, body, tail in turn; returns the output and
    each segment's forward outputs."""
    outputs = []
    for part in segments(seg):
        x, part_outputs = nn.forward(part, x)
        outputs.append(part_outputs)
    return x, outputs


def chained_backward(seg, outputs, grad):
    """Backward through tail, body, front in turn; returns the segments'
    gradients in front, body, tail order and the input gradient."""
    grads = []
    for part, part_outputs in reversed(list(zip(segments(seg), outputs))):
        part_grads, grad = nn.backward(part, part_outputs, grad)
        grads.insert(0, part_grads)
    return grads, grad


def four_layer_config(**changes):
    """A split config over four_layer_model's widths."""
    return ExperimentConfig(protocol="sl", widths=(4, 6, 5, 3, 1), **changes)


class TestSplitConfig:
    """The cuts `ExperimentConfig.split_config` derives, and the rules its
    validate checks once, for `split_model` to cut at."""

    def test_u_shaped_counts(self):
        cuts = four_layer_config(split_kind=U_SHAPED, front_cut=1, tail_cut=3).split_config()
        seg = split_model(four_layer_model(), *cuts)
        assert len(seg.front.layers) == 1
        assert len(seg.body.layers) == 2
        assert len(seg.tail.layers) == 1

    def test_vanilla_counts(self):
        cuts = four_layer_config(split_kind=VANILLA, front_cut=2).split_config()
        seg = split_model(four_layer_model(), *cuts)
        assert len(seg.front.layers) == 2
        assert len(seg.body.layers) == 2
        assert len(seg.tail.layers) == 0

    def test_u_shaped_needs_tail(self):
        with pytest.raises(ConfigurationError, match="at least one tail layer"):
            four_layer_config(split_kind=U_SHAPED, front_cut=1, tail_cut=4).validate()

    def test_vanilla_needs_empty_tail(self):
        # vanilla's tail cut is the layer count, whatever tail_cut says
        cfg = four_layer_config(split_kind=VANILLA, front_cut=1, tail_cut=3)
        cfg.validate()
        assert cfg.split_config() == (1, 4)
        assert split_model(four_layer_model(), *cfg.split_config()).tail.layers == []

    def test_out_of_range_cuts(self):
        for kind in (VANILLA, U_SHAPED):
            for front_cut in (0, 5):
                with pytest.raises(ConfigurationError,
                                   match=rf"cuts \({front_cut}, \d\) invalid for 4 layers"):
                    four_layer_config(split_kind=kind, front_cut=front_cut,
                                      tail_cut=3).validate()

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown split kind 'diagonal'"):
            four_layer_config(split_kind="diagonal").validate()


class TestRoundTrip:
    @pytest.mark.parametrize("config", [  # (front_cut, tail_cut)
        (1, 3),
        (2, 3),
        (1, 2),
        (1, 4),
        (3, 4),
    ])
    def test_split_concat_identity(self, config):
        m = four_layer_model()
        seg = split_model(m, *config)
        rejoined = nn.SequentialModel([layer for part in segments(seg) for layer in part.layers])
        assert models_equal(rejoined, m)

    def test_parameter_conservation(self):
        m = four_layer_model()
        total = m.flat.size
        seg = split_model(m, 1, 3)
        assert seg.front.flat.size + seg.body.flat.size + seg.tail.flat.size == total

    def test_parameters_moved_not_copied(self):
        m = four_layer_model()
        seg = split_model(m, 1, 3)
        seg.front.layers[0].weights[0, 0] = 123.0
        assert m.layers[0].weights[0, 0] == 123.0


class TestComposedEquivalence:
    @pytest.mark.parametrize("config", [  # (front_cut, tail_cut)
        (1, 3),
        (2, 3),
        (2, 4),
    ])
    def test_forward_bit_identical_to_uncut(self, config):
        rng = np.random.default_rng(11)
        m = four_layer_model(seed=11)
        x = rng.normal(size=(6, 4))
        ref, _ = nn.forward(m, x)
        seg = split_model(m, *config)
        out, _ = chained_forward(seg, x)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("config", [  # (front_cut, tail_cut)
        (1, 3),
        (2, 4),
    ])
    def test_backward_bit_identical_to_uncut(self, config):
        rng = np.random.default_rng(12)
        m = four_layer_model(seed=12)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6).astype(float)

        ref_out, ref_outputs = nn.forward(m, x)
        ref_grads, ref_dx = nn.backward(m, ref_outputs, nn.bce_grad(ref_out, y))

        seg = split_model(m, *config)
        out, outputs = chained_forward(seg, x)
        (gf, gb, gt), dx = chained_backward(seg, outputs, nn.bce_grad(out, y))
        flat = list(gf) + list(gb) + list(gt)
        assert len(flat) == len(ref_grads)
        for a, b in zip(flat, ref_grads):
            assert a.tobytes() == b.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()

    def test_identity_front_equals_body_tail(self):
        # front = identity linear layer: composing adds nothing
        body_tail = random_model(np.random.default_rng(13), widths=[4, 5, 1])
        front = nn.DenseLayer(np.eye(4), np.zeros(4), "linear")
        m = nn.SequentialModel([front] + body_tail.layers)
        seg = split_model(m, 1, 2)
        x = np.random.default_rng(14).normal(size=(3, 4))
        out, _ = chained_forward(seg, x)
        ref, _ = nn.forward(body_tail, x)
        assert out.tobytes() == ref.tobytes()

    def test_random_cuts_property(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n_layers = int(rng.integers(2, 6))
            widths = [int(rng.integers(2, 6)) for _ in range(n_layers)] + [1]
            m = random_model(rng, widths=widths)
            front_cut = int(rng.integers(1, n_layers))
            tail_cut = int(rng.integers(front_cut, n_layers))
            if tail_cut == n_layers:
                continue
            x = rng.normal(size=(4, widths[0]))
            ref, _ = nn.forward(m, x)
            seg = split_model(m, front_cut, tail_cut)
            out, _ = chained_forward(seg, x)
            assert out.tobytes() == ref.tobytes()
