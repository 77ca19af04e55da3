import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import datagen, nn
from splitsim.datagen import (ClientDataset, ManifestError, PartitionManifest,
                              desk_manifest, generate_clients, load_clients,
                              save_clients)
from splitsim.transport import CodecError, TrailingBytes


def prevalence(labels: np.ndarray) -> float:
    """The share of positive labels in a split."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty split has no prevalence")
    return float(np.mean(labels == 1))


class TestManifest:
    def test_desk_counts_match_scaled_cohort(self):
        m = desk_manifest(5)
        assert m.train_counts == (182, 377, 115, 88, 109)
        assert m.val_counts == (50,) * 5
        assert m.test_counts == (50,) * 5

    def test_too_small_counts_rejected(self):
        with pytest.raises(ManifestError):
            PartitionManifest((10,), (3,), (3,))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ManifestError):
            PartitionManifest((100, 100), (50,), (50,))

    def test_eval_count_sizes_both_eval_splits(self):
        m = desk_manifest(3, eval_count=20)
        assert m.train_counts == (182, 377, 115)
        assert m.val_counts == m.test_counts == (20,) * 3

    @pytest.mark.parametrize("eval_count", [5, 4, 1, 0, -1])
    def test_eval_count_below_one_positive_rejected(self, eval_count):
        # 10% of 5 is 0.5, which rounds half to even: no positive sample
        with pytest.raises(ManifestError):
            desk_manifest(2, eval_count=eval_count)
        assert desk_manifest(2, eval_count=6).val_counts == (6, 6)


class TestGeneration:
    def test_counts_exact(self):
        clients = generate_clients(desk_manifest(5), seed=0)
        for k, c in enumerate(clients):
            assert len(c.train_y) == (182, 377, 115, 88, 109)[k]
            assert len(c.val_y) == 50
            assert len(c.test_y) == 50

    def test_prevalence_targets(self):
        clients = generate_clients(desk_manifest(5), seed=1)
        for c in clients:
            assert prevalence(c.train_y) == pytest.approx(0.5, abs=1.0 / len(c.train_y))
            assert prevalence(c.val_y) == pytest.approx(0.1, abs=1.0 / len(c.val_y))
            assert prevalence(c.test_y) == pytest.approx(0.1, abs=1.0 / len(c.test_y))

    def test_deterministic(self):
        a = generate_clients(desk_manifest(3), seed=7)
        b = generate_clients(desk_manifest(3), seed=7)
        for ca, cb in zip(a, b):
            assert ca.train_x.tobytes() == cb.train_x.tobytes()
            assert np.array_equal(ca.train_y, cb.train_y)
            assert ca.test_x.tobytes() == cb.test_x.tobytes()

    def test_seed_changes_data(self):
        a = generate_clients(desk_manifest(2), seed=1)
        b = generate_clients(desk_manifest(2), seed=2)
        assert a[0].train_x.tobytes() != b[0].train_x.tobytes()

    def test_zero_shift_is_iid(self):
        clients = generate_clients(desk_manifest(3), shift_scale=0.0, seed=0)
        assert all(c.angle == 0.0 for c in clients)

    def test_angles_scale_with_index(self):
        clients = generate_clients(desk_manifest(3), shift_scale=0.5, seed=0)
        assert [c.angle for c in clients] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("n_clients, shift_scale", [(3, 1e308), (5, 1e308), (1, math.inf),
                                                        (2, math.nan), (2, -0.5)])
    def test_a_non_finite_or_negative_angle_is_rejected(self, n_clients, shift_scale):
        with pytest.raises(ValueError, match="shift_scale"):
            generate_clients(desk_manifest(n_clients), shift_scale=shift_scale, seed=0)

    def test_1e308_with_two_clients_gives_finite_data(self):
        clients = generate_clients(desk_manifest(2), shift_scale=1e308, seed=0)
        assert clients[1].angle == 1e308
        assert all(np.all(np.isfinite(c.train_x)) for c in clients)

    def test_prevalence_empty_split_rejected(self):
        with pytest.raises(ValueError):
            prevalence(np.array([]))

    def test_all_negative_prevalence(self):
        assert prevalence(np.zeros(10)) == 0.0


class TestNonIidSeparation:
    def test_probe_classifier_transfers_badly(self):
        # bias-inducing precondition: a model fit on client 0 does worse
        # on the most-shifted client's test data than on its own
        clients = generate_clients(desk_manifest(5), shift_scale=0.6, seed=3)
        model = nn.init_model([8, 16, 1], seed=0)
        state = nn.AdamState.for_params(model.flat, lr=1e-2)
        for _ in range(30):
            probs, outputs = nn.forward(model, clients[0].train_x)
            grad = nn.bce_grad(probs, clients[0].train_y)
            grads, _ = nn.backward(model, outputs, grad)
            nn.adam_step(model.flat, grads, state)

        def accuracy(c):
            probs, _ = nn.forward(model, c.test_x)
            return np.mean((probs[:, 0] >= 0.5) == (c.test_y == 1))

        assert accuracy(clients[0]) > accuracy(clients[4]) + 0.1


class TestFileRoundTrip:
    def test_dataset_file(self, tmp_path):
        clients = generate_clients(desk_manifest(3), shift_scale=0.4, seed=5)
        path = tmp_path / "clients.sds"
        save_clients(path, clients)
        loaded = load_clients(path)
        assert len(loaded) == 3
        for a, b in zip(clients, loaded):
            assert a.client_id == b.client_id
            assert a.angle == b.angle
            assert a.train_x.tobytes() == b.train_x.tobytes()
            assert np.array_equal(a.train_y, b.train_y)
            assert a.val_x.tobytes() == b.val_x.tobytes()
            assert a.test_x.tobytes() == b.test_x.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sds"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_clients(path)

    @staticmethod
    def _saved(tmp: str, seed: int) -> tuple[pathlib.Path, bytes]:
        path = pathlib.Path(tmp) / "clients.sds"
        manifest = PartitionManifest((4, 6), (6, 8), (8, 6))
        save_clients(path, generate_clients(manifest, d=2, seed=seed))
        return path, path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 3))
    def test_every_truncation_is_a_codec_error(self, data, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path, full = self._saved(tmp, seed)
            path.write_bytes(full[:data.draw(st.integers(0, len(full) - 1))])
            with pytest.raises(CodecError):
                load_clients(path)

    @settings(max_examples=60, deadline=None)
    @given(suffix=st.binary(min_size=1, max_size=64), seed=st.integers(0, 3))
    def test_every_appended_suffix_is_a_codec_error(self, suffix, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path, full = self._saved(tmp, seed)
            path.write_bytes(full + suffix)
            with pytest.raises(TrailingBytes):
                load_clients(path)
