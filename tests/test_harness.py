import contextlib
import functools
import itertools
import json
import multiprocessing
import os
import pathlib
import pickle
import platform
import re
import signal
import string
import subprocess
import sys
import time
import tracemalloc
import typing
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from splitsim import cli, datagen, harness, metrics, nn, protocols
from splitsim.harness import (ConfigurationError, DivergenceError, ExperimentConfig, ReportRow,
                              ReportTable, SaturationError, TurnStates, config_from,
                              parse_config_file, render_manifest, render_table, run_experiment,
                              sweep, sweep_client_count, sweep_order)
from splitsim.metrics import MetricReport
from splitsim.model_split import U_SHAPED, VANILLA
from splitsim.protocols import PROTOCOLS, composed_model, make_clients, run_round
from splitsim.transport import ChannelBus

FAST = ExperimentConfig(protocol="sl", epochs=2, n_clients=2, lr=1e-3, seed=0)
BIAS_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bias.cfg"


def _forbid(monkeypatch, name: str, what: str = "training started") -> None:
    """Make `harness.<name>` raise AssertionError(what), for a call that
    must stop before it gets there."""
    def forbidden(*args, **kwargs):
        raise AssertionError(what)

    monkeypatch.setattr(harness, name, forbidden)


def _clients_with_ids(ids):
    """Three generated clients' data under the given client ids."""
    datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=0)
    return [replace(ds, client_id=cid) for ds, cid in zip(datasets, ids)]


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            replace(FAST, protocol="gossip").validate()

    def test_feature_dim_width_mismatch(self):
        # feature_dim is the first width, so the two cannot disagree
        assert replace(FAST, widths=(5, 3, 1)).feature_dim == 5
        with pytest.raises(TypeError):
            replace(FAST, feature_dim=8)
        with pytest.raises(ConfigurationError):
            config_from({"feature_dim": 8}, {})

    def test_sweep_sizes_are_2_to_n_clients(self):
        assert [replace(FAST, n_clients=n).sweep_sizes for n in (1, 2, 5)] == [
            (), (2,), (2, 3, 4, 5)]

    def test_probe_out_of_range(self):
        # the probe is checked against a run's clients, which FAST's are 0 and 1
        replace(FAST, probe=2).validate()
        with pytest.raises(ConfigurationError):
            run_experiment(replace(FAST, probe=2))

    def test_vanilla_split_has_empty_tail(self):
        cfg = replace(FAST, split_kind="vanilla")
        assert cfg.split_config() == (cfg.front_cut, len(cfg.widths) - 1)

    def test_fl_needs_no_split(self):
        assert replace(FAST, protocol="fl").split_config() is None

    @pytest.mark.parametrize("changes", [
        dict(eval_count=3), dict(eval_count=5), dict(n_clients=6), dict(n_clients=0),
    ])
    def test_ungeneratable_data_rejected(self, changes):
        cfg = replace(ExperimentConfig(), **changes)
        with pytest.raises(ConfigurationError):
            cfg.validate()
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)

    def test_dataset_file_lifts_the_generated_cohort_bounds(self):
        replace(ExperimentConfig(), n_clients=6, dataset_path="clients.sds").validate()


class TestConfigFile:
    def test_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "protocol = sfv3\n"
            "epochs = 4   # trailing comment\n"
            "lr = 0.01\n"
            "widths = 8,16,16,16,8,1\n"
            "n_clients = 3\n")
        values = parse_config_file(path)
        cfg = config_from(values, {"seed": 9, "epochs": None})
        assert cfg.protocol == "sfv3"
        assert cfg.epochs == 4  # None override leaves file value alone
        assert cfg.lr == 0.01
        assert cfg.seed == 9
        assert cfg.widths == (8, 16, 16, 16, 8, 1)

    def test_bad_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_repeated_key_names_file_and_line(self, tmp_path, capsys):
        # not the last value winning: epochs = 5 would silently replace 2
        path = tmp_path / "exp.cfg"
        path.write_text("# header\nepochs = 2\nprotocol = sl\nepochs = 5\n")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{path}:4: repeated key 'epochs'")):
            parse_config_file(path)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"input error: {path}:4: repeated key 'epochs'\n"
        assert not (tmp_path / "out").exists()

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("epochs 4\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_invalid_merged_config_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from({"protocol": "nope"}, {})

    @pytest.mark.parametrize("line", ["epochs = abc", "order = None", "widths = 8,x",
                                      "lr = fast", "seed = 1.5", "sweep_sizes = 2,,3",
                                      "order = 0,,1", "eval_count = 2e2"])
    def test_malformed_value_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text("# header\nprotocol = sl\n" + line + "\n")
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}:3: bad")):
            parse_config_file(path)

    @pytest.mark.parametrize("line", ["feature_dim = 8", "sensitivity = 0.8",
                                      "sweep_sizes = 2,3,4,5"])
    def test_0_1_0_manifest_key_is_a_bad_key(self, tmp_path, capsys, line):
        # 0.1.0 manifests wrote these; the config now derives the first
        # two from widths and n_clients and holds the third constant
        path = tmp_path / "result.manifest.txt"
        path.write_text(f"# splitsim 0.1.0\nprotocol = sl\n{line}\nepochs = 2\n")
        key = line.split()[0]
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}:3: bad key {key!r}")):
            parse_config_file(path)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"input error: {path}:3: bad key {key!r}\n"

    def test_manifest_is_a_config_file(self, tmp_path):
        path = tmp_path / "result.manifest.txt"
        path.write_text(render_manifest(FAST))
        text = path.read_text()
        assert text.startswith("# splitsim ")
        assert "order" not in text and "dataset_path" not in text  # None fields
        assert config_from(parse_config_file(path), {}) == FAST

    def test_bias_fixture_file(self):
        assert config_from(parse_config_file(BIAS_CFG), {}) == ExperimentConfig(
            protocol="sl", epochs=2, lr=0.003, batch_size=4, shift_scale=0.75,
            n_clients=5, probe=0, eval_count=200)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bias_fixture_data_is_its_first_n_clients(self, n):
        cfg = config_from(parse_config_file(BIAS_CFG), {"n_clients": n, "seed": 2})
        evals = (cfg.eval_count,) * n
        expected = datagen.generate_clients(
            datagen.PartitionManifest(datagen.DESK_TRAIN_COUNTS[:n], evals, evals),
            shift_scale=cfg.shift_scale, seed=cfg.seed)
        got = harness.load_or_generate(cfg)
        assert len(got) == n
        for a, b in zip(got, expected):
            assert a.client_id == b.client_id and a.angle == b.angle
            for split in ("train", "val", "test"):
                for x, y in zip(a.split(split), b.split(split)):
                    assert x.tobytes() == y.tobytes()


class TestCheckpointRule:
    """`_checkpoint` keeps the epoch of the least mean validation loss, and
    scores the test split only at an epoch whose loss is strictly below
    every earlier one. Each epoch's record is scripted."""

    @staticmethod
    def run(losses):
        """`_checkpoint` of one record per loss, epoch i's mean validation
        loss losses[i], its validation probabilities away from the clamp
        bounds. Returns the checkpoint epoch, or the DivergenceError
        raised, and the epochs at which `test_probs` was called; checks
        that the fold kept that epoch's validation probabilities and what
        the last call returned."""
        val = [{0: np.full((3, 1), 0.5)} for _ in losses]
        epoch, tested = [-1], []  # the record drawn; (its epoch, probs) per test_probs call

        def records():
            for epoch[0], loss in enumerate(losses):
                yield epoch[0], val[epoch[0]], loss

        def test_probs():
            tested.append((epoch[0], {0: np.zeros((2, 1))}))
            return tested[-1][1]

        try:
            val_losses, checkpoint_epoch, val_probs, kept = harness._checkpoint(records(),
                                                                                test_probs)
        except DivergenceError as exc:
            return exc, [e for e, _ in tested]
        assert val_losses == losses
        assert checkpoint_epoch == tested[-1][0] and kept is tested[-1][1]
        assert val_probs is val[checkpoint_epoch]
        return checkpoint_epoch, [e for e, _ in tested]

    def test_least_loss_wins(self):
        # at its first epoch: the least loss comes again at epoch 3
        assert self.run([0.9, 0.5, 0.7, 0.5]) == (1, [0, 1])

    def test_tie_keeps_the_earliest_epoch(self):
        assert self.run([0.5, 0.5]) == (0, [0])

    def test_falling_loss_keeps_the_last_epoch(self):
        assert self.run([1.0 - 0.05 * i for i in range(10)]) == (9, list(range(10)))

    def test_test_split_scored_only_on_strict_improvement(self):
        assert self.run([0.9, 0.9, 0.7, 0.8, 0.7, 0.6]) == (5, [0, 2, 5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_loss_names_the_epoch(self, bad):
        raised, tested = self.run([0.5, bad, 0.4])
        assert isinstance(raised, DivergenceError)
        assert str(raised) == f"epoch 1: mean validation loss is {bad}"
        assert tested == [0]


def _history_reference(cfg, datasets):
    """The per-epoch snapshot path: compose every client's model after
    every epoch and score the composed copies. Returns the losses and
    the snapshots."""
    ds_by_id = {ds.client_id: ds for ds in datasets}
    order = cfg.order or tuple(sorted(ds_by_id))
    model = nn.init_model(list(cfg.widths), cfg.seed)
    clients, server = make_clients(datasets, model, cfg.protocol, cfg.split_config(), cfg.lr)
    bus = ChannelBus()
    losses, snapshots = [], []
    for epoch in range(cfg.epochs):
        run_round(clients, server, cfg.protocol, order, epoch, bus, cfg.batch_size)
        snap = {cid: composed_model(clients[cid], server.body)
                for cid in sorted(clients)}
        losses.append(float(np.mean([
            nn.bce_loss(nn.forward(snap[cid], ds_by_id[cid].val_x)[0],
                        ds_by_id[cid].val_y) for cid in sorted(snap)])))
        snapshots.append(snap)
    return losses, snapshots


class TestStreamingCheckpoint:
    @settings(max_examples=30, deadline=None)
    @given(protocol=st.sampled_from(PROTOCOLS),
           split_kind=st.sampled_from(["vanilla", "u_shaped"]),
           epochs=st.integers(1, 4), seed=st.integers(0, 3),
           lr=st.sampled_from([1e-4, 1e-2, 0.2]))
    def test_matches_per_epoch_snapshots(self, protocol, split_kind, epochs, seed, lr):
        cfg = ExperimentConfig(protocol=protocol, split_kind=split_kind,
                               epochs=epochs, seed=seed, lr=lr, n_clients=3)
        datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=seed)
        res = run_experiment(cfg, datasets)
        losses, snapshots = _history_reference(cfg, datasets)
        assert res.val_losses == losses
        earliest_argmin = min(range(epochs), key=lambda i: (losses[i], i))
        assert res.checkpoint_epoch == earliest_argmin
        for ds in datasets:
            model = snapshots[earliest_argmin][ds.client_id]
            report = metrics.evaluate(nn.forward(model, ds.test_x)[0][:, 0], ds.test_y,
                                      nn.forward(model, ds.val_x)[0][:, 0], ds.val_y)
            assert res.per_client[ds.client_id] == report

    @pytest.mark.parametrize("protocol", ["fl", "sl", "sfv1"])
    def test_peak_memory_does_not_grow_with_epochs(self, protocol):
        widths = (8, 128, 128, 128, 8, 1)
        cfg = ExperimentConfig(protocol=protocol, widths=widths)
        datasets = datagen.generate_clients(datagen.desk_manifest(cfg.n_clients), seed=0)
        peaks = {}
        for epochs in (2, 8):
            tracemalloc.start()
            try:
                run_experiment(replace(cfg, epochs=epochs), datasets)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        snapshot_bytes = cfg.n_clients * 8 * sum(
            w_in * w_out + w_out for w_in, w_out in zip(widths, widths[1:]))
        assert peaks[8] - peaks[2] < snapshot_bytes

    @pytest.mark.parametrize("protocol", ["sl", "sfv2"])
    def test_shared_body_is_kept_once_whatever_the_client_count(self, protocol):
        # one shared body: three more clients add their small segments,
        # not another copy of the body
        widths = (8, 128, 128, 128, 8, 1)
        peaks = {}
        for n in (2, 5):
            cfg = ExperimentConfig(protocol=protocol, widths=widths, n_clients=n)
            datasets = datagen.generate_clients(datagen.desk_manifest(n), seed=0)
            tracemalloc.start()
            try:
                run_experiment(cfg, datasets)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        body = zip(widths[cfg.front_cut:cfg.tail_cut], widths[cfg.front_cut + 1:cfg.tail_cut + 1])
        body_bytes = 8 * sum(w_in * w_out + w_out for w_in, w_out in body)
        assert peaks[5] - peaks[2] < body_bytes

    # the kept snapshot of a 5-client run is each client's predictions at
    # the best epoch, not copies of its parameter vectors: one (n_val, 1)
    # and one (n_test, 1) probability array per client, and nothing else,
    # whose columns are what metrics.evaluate scores
    @pytest.mark.parametrize("protocol, split_kind", [
        ("fl", U_SHAPED), ("sl", U_SHAPED), ("sfv1", U_SHAPED),
        ("sfv2", VANILLA), ("sfv3", U_SHAPED), ("sfv3", VANILLA)])
    def test_kept_snapshot_holds_one_copy_per_distinct_vector(self, monkeypatch, protocol,
                                                              split_kind):
        evaluate, kept = metrics.evaluate, []

        def recording(scores, y, val_scores, val_y):
            kept.append((scores, y, val_scores, val_y))
            return evaluate(scores, y, val_scores, val_y)

        monkeypatch.setattr(metrics, "evaluate", recording)
        cfg = replace(FAST, protocol=protocol, split_kind=split_kind, n_clients=5)
        datasets = harness.load_or_generate(cfg)
        run_experiment(cfg, datasets)
        assert len(kept) == len(datasets)  # one call per client, in client order
        for ds, (scores, y, val_scores, val_y) in zip(datasets, kept):
            assert y is ds.test_y and val_y is ds.val_y
            assert scores.base.shape == (ds.test_y.size, 1)
            assert val_scores.base.shape == (ds.val_y.size, 1)

    @pytest.mark.parametrize("protocol", ["fl", "sl"])
    def test_divergence_raises(self, protocol):
        cfg = replace(FAST, protocol=protocol, lr=1e200, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0"):
            run_experiment(cfg)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_saturation_raises(self, protocol):
        # lr 10 pins every validation probability at 0 or 1 in round 0
        cfg = replace(FAST, protocol=protocol, lr=10.0)
        with warnings.catch_warnings(), pytest.raises(SaturationError, match="epoch 0"):
            warnings.simplefilter("error", RuntimeWarning)  # a saturated sigmoid warns nothing
            run_experiment(cfg)

    @pytest.mark.parametrize("off", [None, 2e-12, 0.5, 1 - 2e-12])
    def test_saturation_needs_every_probability_at_a_bound(self, off):
        # every validation probability at a clamp bound, or all but one
        probs = {cid: np.array([[nn.PROB_CLAMP], [1.0], [1 - nn.PROB_CLAMP]]) for cid in (0, 1)}
        if off is not None:
            probs[1][0, 0] = off
        records = [(0, probs, 0.5)]
        if off is None:
            with pytest.raises(SaturationError, match="epoch 0"):
                harness._checkpoint(records, dict)
        else:
            assert harness._checkpoint(records, dict) == ([0.5], 0, probs, {})


class TestRunExperiment:
    def test_byte_identical_reruns(self):
        a = run_experiment(FAST)
        b = run_experiment(FAST)
        assert a.to_json() == b.to_json()

    def test_result_shape(self):
        res = run_experiment(FAST)
        assert sorted(res.per_client) == [0, 1]
        assert len(res.val_losses) == FAST.epochs
        assert 0 <= res.checkpoint_epoch < FAST.epochs
        assert res.total_bytes > 0
        d = json.loads(res.to_json())
        assert set(d["per_client"]) == {"0", "1"}

    def test_single_client_protocols_agree(self):
        # with one participant every protocol collapses to the same
        # centralized trajectory, so the reports must match exactly
        reports = []
        for protocol in ("fl", "sl", "sfv1", "sfv2", "sfv3"):
            cfg = replace(FAST, protocol=protocol, n_clients=1)
            reports.append(run_experiment(cfg).per_client[0])
        assert all(r == reports[0] for r in reports)

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(replace(FAST, order=(0, 0)))

    def test_repeated_client_id_rejected(self):
        with pytest.raises(ConfigurationError, match="client id 0 is repeated"):
            run_experiment(ExperimentConfig(epochs=1, n_clients=3, lr=1e-3),
                           _clients_with_ids((0, 0, 2)))

    def test_probe_outside_the_clients_rejected(self):
        # the default probe 0 is not one of clients 5-7
        with pytest.raises(ConfigurationError, match=r"probe 0 is not one of the clients \[5, 6, 7\]"):
            run_experiment(ExperimentConfig(epochs=1, n_clients=3, lr=1e-3),
                           _clients_with_ids((5, 6, 7)))

    def test_clients_need_not_be_0_to_n(self):
        # the rule is about taking part: clients 5-7 train and score as
        # clients 0-2 do on the same data in the same order
        cfg = ExperimentConfig(epochs=1, n_clients=3, lr=1e-3)
        relabelled = run_experiment(replace(cfg, order=(5, 6, 7), probe=5),
                                    _clients_with_ids((5, 6, 7)))
        plain = run_experiment(cfg, _clients_with_ids((0, 1, 2)))
        assert relabelled.config.order == (5, 6, 7)
        assert [relabelled.per_client[cid] for cid in (5, 6, 7)] == [
            plain.per_client[cid] for cid in (0, 1, 2)]
        assert relabelled.val_losses == plain.val_losses

    def test_probe_is_checked_against_the_clients_without_an_order(self):
        # no order: the clients 1, 3 and 4 train ascending, and probe 3,
        # one of them, is accepted; they train as clients 0-2 do on the
        # same data
        cfg = ExperimentConfig(epochs=1, n_clients=3, lr=1e-3)
        relabelled = run_experiment(replace(cfg, probe=3), _clients_with_ids((1, 3, 4)))
        plain = run_experiment(cfg, _clients_with_ids((0, 1, 2)))
        assert relabelled.config.order == (1, 3, 4)
        assert [relabelled.per_client[cid] for cid in (1, 3, 4)] == [
            plain.per_client[cid] for cid in (0, 1, 2)]
        assert relabelled.val_losses == plain.val_losses

    def test_label_accounting_vanilla_vs_ushaped(self):
        u = run_experiment(FAST)
        v = run_experiment(replace(FAST, split_kind="vanilla"))
        assert u.labels_messages == 0
        assert v.labels_messages > 0


class TestSweeps:
    def test_probe_pair_keys(self):
        (table,) = sweep(replace(FAST, epochs=1), [0], "probe", [1])
        (row,) = table.rows
        assert row.key == "client1"
        assert isinstance(row.first, MetricReport) and isinstance(row.last, MetricReport)

    def test_order_sweep_row_count(self):
        table = sweep_order(replace(FAST, epochs=1))
        assert [r.key for r in table.rows] == ["client0", "client1"]

    def test_order_sweep_needs_two_clients(self):
        with pytest.raises(ConfigurationError):
            sweep_order(replace(FAST, n_clients=1))

    def test_client_count_sweep(self):
        cfg = replace(FAST, epochs=1, n_clients=3)
        table = sweep_client_count(cfg)
        assert [r.key for r in table.rows] == ["2 client setting", "3 client setting"]
        drops = harness.drops_over_seeds([table])
        assert list(drops) == ["2 client setting", "3 client setting"]
        assert all(isinstance(v, float) for per_metric in drops.values()
                   for (v,) in per_metric.values())

    @pytest.mark.parametrize("probe", [0, 3])
    def test_client_count_sweep_rows_are_probe_pairs(self, probe):
        # probe 3 is beyond the smallest setting's client count
        cfg = replace(FAST, epochs=1, n_clients=5, probe=probe)
        datasets = harness.load_or_generate(cfg)
        table = sweep_client_count(cfg, datasets)
        assert [r.key for r in table.rows] == [f"{n} client setting" for n in cfg.sweep_sizes]
        others = [cid for cid in range(5) if cid != probe]
        for n, row in zip(cfg.sweep_sizes, table.rows):
            subset = [ds for ds in datasets if ds.client_id in [probe] + others[:n - 1]]
            rest = tuple(sorted(ds.client_id for ds in subset if ds.client_id != probe))
            # two standalone runs, no store: probe first, then probe last
            first, last = (run_experiment(replace(cfg, n_clients=n, order=order),
                                          subset).per_client[probe]
                           for order in ((probe, *rest), (*rest, probe)))
            assert (row.first, row.last) == (first, last)

    def test_sweep_size_exceeding_clients_rejected(self, tmp_path):
        # the largest setting is n_clients: a dataset file with fewer
        # clients cannot hold it
        data = tmp_path / "clients.sds"
        datagen.save_clients(data, datagen.generate_clients(datagen.desk_manifest(2), seed=0))
        with pytest.raises(ConfigurationError, match="too few clients"):
            sweep_client_count(replace(FAST, n_clients=3, dataset_path=str(data)))

    def test_too_few_datasets_rejected(self):
        # 3 clients for n_clients 4: not a "4 client setting" row trained
        # on the 3 clients of the "3 client setting"
        datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=0)
        cfg = ExperimentConfig(epochs=1, n_clients=4, lr=1e-3)
        for call in (sweep_client_count, sweep_order, run_experiment):
            with pytest.raises(ConfigurationError, match="too few clients"):
                call(cfg, datasets)

    @pytest.mark.parametrize("sweep", [sweep_order, sweep_client_count])
    @pytest.mark.parametrize("ids", [(0, 2, 3), (0, 0, 1), (1, 2, 3)])
    def test_datasets_without_clients_0_to_n_rejected(self, sweep, ids):
        # the client ids a dataset file must hold
        with pytest.raises(ConfigurationError, match=r"client ids \[.*\] are not 0\.\.2"):
            sweep(replace(FAST, n_clients=3), _clients_with_ids(ids))

    # left to training, the label 2 was scored silently, and the others
    # raised MetricError, DivergenceError or ShapeError once trained
    @pytest.mark.parametrize("d, field, index, value, message", [
        (8, "train_y", 0, 2, "datasets client 1 train split has a label not in {0, 1}"),
        (8, "val_y", slice(None), 0, "datasets client 1 val split has no positive"),
        (8, "val_x", (0, 0), np.nan, "datasets client 1 val split has a non-finite feature"),
        (6, None, None, None, "datasets has 6 features, config feature_dim is 8"),
    ])
    def test_bad_datasets_rejected_before_training(self, monkeypatch, d, field, index, value,
                                                   message):
        datasets = datagen.generate_clients(datagen.desk_manifest(3), d=d, seed=0)
        if field is not None:
            getattr(datasets[1], field)[index] = value
        _forbid(monkeypatch, "_train_ahead")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            sweep_order(replace(FAST, epochs=1, n_clients=3), datasets)

    def test_client_count_sweep_needs_two_clients(self):
        with pytest.raises(ConfigurationError):
            sweep_client_count(replace(FAST, n_clients=1))

    def test_row_probe_not_a_client_rejected_before_training(self, monkeypatch):
        _forbid(monkeypatch, "_train_ahead")
        with pytest.raises(ConfigurationError,
                           match=r"^probe 7 is not one of the clients \[0, 1, 2\]$"):
            next(sweep(ExperimentConfig(epochs=1, n_clients=3, lr=1e-3), [0], "probe", [7]))

    def test_row_of_one_client_rejected_before_training(self, monkeypatch):
        _forbid(monkeypatch, "_train_ahead")
        with pytest.raises(ConfigurationError, match="^a sweep needs at least 2 clients$"):
            next(sweep(ExperimentConfig(epochs=1, n_clients=3, lr=1e-3), [0], "n_clients", [1]))

    @pytest.mark.parametrize("field", ["epochs", "seed", "order", "bogus"])
    def test_unsupported_field_rejected_before_data_or_training(self, monkeypatch, field):
        _forbid(monkeypatch, "_train_ahead")
        _forbid(monkeypatch, "load_or_generate", "data made")
        with pytest.raises(ConfigurationError) as raised:
            next(sweep(ExperimentConfig(epochs=1, n_clients=3, lr=1e-3), [0], field, [1, 2]))
        message = str(raised.value)
        assert all(name in message for name in harness.ROW_KEYS) and repr(field) in message

    def test_row_beyond_the_seeds_clients_rejected_before_training(self, monkeypatch):
        # the seed's data holds the base config's 3 clients, not a 4-client row
        _forbid(monkeypatch, "_train_ahead")
        with pytest.raises(ConfigurationError, match=r"too few clients \(3 for n_clients 4\)"):
            next(sweep(ExperimentConfig(epochs=1, n_clients=3, lr=1e-3), [0], "n_clients", [4]))


def _recording_runs(monkeypatch):
    """Wrap harness.run_experiment the way the benchmark's
    counting_wire_bytes does; returns the list of (args, kwargs, result)
    of every call made through the name the sweeps look up."""
    original, calls = harness.run_experiment, []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(harness, "run_experiment", recorded)
    return calls


def _report_bits(report: MetricReport) -> list[str]:
    # repr round-trips a float exactly and tells -0.0 from 0.0
    return [repr(getattr(report, f.name)) for f in fields(report)]


class TestTrainAhead:
    """A sweep's runs train ahead together (`harness._train_ahead`) and its
    calls read their results from one store; every table cell and every
    run's result must be what a standalone run gives."""

    @pytest.mark.parametrize("split_kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_shared_sweeps_equal_standalone_runs(self, monkeypatch, protocol, split_kind):
        cfg = replace(FAST, protocol=protocol, split_kind=split_kind, n_clients=4, probe=1,
                      batch_size=16)
        datasets = harness.load_or_generate(cfg)
        for sweep in (sweep_order, sweep_client_count):
            calls = _recording_runs(monkeypatch)
            table = sweep(cfg, datasets)
            monkeypatch.undo()
            assert all(kwargs["store"] is calls[0][1]["store"] for _, kwargs, _ in calls)
            # the runs again, each with no store; the table cells in call order
            alone = [run_experiment(*args) for args, _, _ in calls]
            assert ([_report_bits(r) for row in table.rows for r in (row.first, row.last)]
                    == [_report_bits(res.per_client[args[0].probe])
                        for (args, _, _), res in zip(calls, alone)])
            for (_, _, shared), res in zip(calls, alone):
                assert shared.to_json() == res.to_json()
                assert shared.total_bytes == res.total_bytes

    @pytest.mark.parametrize("protocol", ["sl", "fl"])
    def test_counting_wrapper_sees_every_cell(self, monkeypatch, protocol):
        # shaped like bench/workloads.counting_wire_bytes: one call per
        # table cell, and the wire bytes of standalone runs
        cfg = replace(FAST, protocol=protocol, n_clients=4)
        for sweep in (sweep_order, sweep_client_count):
            calls = _recording_runs(monkeypatch)
            table = sweep(cfg)
            monkeypatch.undo()
            assert len(calls) == 2 * len(table.rows)
            alone = [run_experiment(*args).total_bytes for args, _, _ in calls]
            assert sum(res.total_bytes for _, _, res in calls) == sum(alone)

    def _count_steps(self, monkeypatch, fn, *args):
        # in shared memory: a sweep's forked workers inherit the counter
        # with the wrapper, so the steps they take are counted here too
        steps = multiprocessing.get_context("fork").Value("q", 0)
        original = protocols.adam_step

        def counted(*a):
            with steps.get_lock():
                steps.value += 1
            return original(*a)

        monkeypatch.setattr(protocols, "adam_step", counted)
        fn(*args)
        monkeypatch.undo()
        return steps.value

    @staticmethod
    @functools.cache
    def _small_data(n_clients):
        return datagen.generate_clients(datagen.desk_manifest(n_clients, 20), seed=0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(orders=st.integers(3, 4).flatmap(lambda n: st.lists(
               st.permutations(range(n)).map(tuple), min_size=1, max_size=6, unique=True)),
           protocol=st.sampled_from(["sl", "sfv2"]),
           split_kind=st.sampled_from([VANILLA, U_SHAPED]), epochs=st.integers(1, 2))
    # a group whose call order is not sorted: (0, 1, 3, 2) shares more with
    # (0, 1, 2, 3) than with the run called before it
    @example(orders=[(0, 1, 2, 3), (0, 2, 3, 1), (0, 1, 3, 2)], protocol="sfv2",
             split_kind=U_SHAPED, epochs=2)
    def test_runs_trained_ahead_equal_standalone_runs(self, orders, protocol, split_kind,
                                                       epochs):
        n = len(orders[0])
        datasets = self._small_data(n)
        cfg = replace(FAST, protocol=protocol, split_kind=split_kind, epochs=epochs,
                      n_clients=n)
        runs = [(replace(cfg, order=order), datasets) for order in orders]
        # each run keeps its bus, and the turns its group saved are counted
        # as it ends, when they are the most they will be before the next run
        steps, saved, original, train = [], [], protocols.adam_step, harness._train

        def kept(config, datasets, keep_bus=False, turns=None):
            result = train(config, datasets, True, turns)
            saved.append(len(turns.saved))
            return result

        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 1)
            mp.setattr(protocols, "adam_step", lambda *a: steps.append(a) or original(*a))
            mp.setattr(harness, "_train", kept)
            trained = harness._train_ahead(runs)
        assert len(trained) == len(runs)
        for run, _ in runs:
            alone = run_experiment(run, datasets, keep_bus=True)
            ahead = trained[harness._run_key(run, run.order)]
            assert (ahead.to_json(), ahead.bus.log) == (alone.to_json(), alone.bus.log)
        # round 0 trains each node of the orders' prefix tree once, every
        # later round each run's every turn; a batch takes two Adam steps,
        # the client's and the body's
        batches = {ds.client_id: -(-ds.sample_count // cfg.batch_size) for ds in datasets}
        nodes = {order[:k] for order in orders for k in range(1, n + 1)}
        later = (epochs - 1) * len(orders) * sum(batches.values())
        assert len(steps) == 2 * (sum(batches[node[-1]] for node in nodes) + later)
        assert max(saved) <= n

    def test_bias_sweeps_train_shared_turns_once(self, monkeypatch):
        # batch 4 gives 46/95/29/22/28 batches per client and epoch, two
        # Adam steps per batch; standalone runs take 8,800 and 5,784 steps.
        # In-process and in workers alike.
        bias = config_from(parse_config_file(BIAS_CFG), {})
        for cpus in (1, 2):
            for sweep, steps in ((sweep_order, 7016), (sweep_client_count, 4048)):
                _cpus(monkeypatch, cpus)
                starts = _worker_counts(monkeypatch)
                assert self._count_steps(monkeypatch, sweep, bias) == steps
                assert starts == ([] if cpus == 1 else [2])

    @pytest.mark.parametrize("protocol", ["fl", "sfv1", "sfv3"])
    def test_order_sweep_is_one_training_where_order_is_inert(self, monkeypatch, protocol):
        cfg = replace(config_from(parse_config_file(BIAS_CFG), {}), protocol=protocol)
        one_run = self._count_steps(monkeypatch, run_experiment, cfg)
        assert self._count_steps(monkeypatch, sweep_order, cfg) == one_run
        pair = []
        assert self._count_steps(monkeypatch, lambda: pair.extend(
            sweep(cfg, [cfg.seed], "probe", [2]))) == one_run
        (row,) = pair[0].rows
        assert row.first == row.last and metrics.percent_drop(row.first.kappa,
                                                              row.last.kappa) == 0.0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_key_order_is_the_order_run_round_trains_in(self, monkeypatch, protocol):
        datasets = self._small_data(3)
        cfg = replace(FAST, protocol=protocol, n_clients=3)
        trained = []

        def spy(original):
            def spied(client, *args):
                if not trained or trained[-1] != client.id:
                    trained.append(client.id)
                return original(client, *args)
            return spied

        for name in ("_train_batch_split", "_train_batch_local"):
            monkeypatch.setattr(protocols, name, spy(getattr(protocols, name)))
        for order in itertools.permutations(range(3)):
            trained.clear()
            clients, server = make_clients(datasets, nn.init_model(list(cfg.widths), cfg.seed),
                                           protocol, cfg.split_config(), cfg.lr)
            run_round(clients, server, protocol, order, 0, ChannelBus(), cfg.batch_size)
            assert tuple(trained) == harness._run_key(replace(cfg, order=order), order)[1]

    def test_store_keeps_only_what_a_later_run_restores(self, monkeypatch):
        cfg = replace(FAST, n_clients=4)
        datasets = harness.load_or_generate(cfg)
        runs = [c for _, *pair, _ in harness._rows(cfg, datasets, "probe", range(4)) for c in pair]
        assert [c.order for c in runs[-2:]] == [(3, 0, 1, 2), (0, 1, 2, 3)]
        # per run, as it trained: its order, the turns it restored (the
        # stack before it) and the turns it kept for the next run
        original, live = harness._train, []

        def path(turns):
            return tuple(cid for cid, *_ in turns.saved)

        def train(config, datasets, keep_bus=False, turns=None):
            restored = path(turns)
            result = original(config, datasets, keep_bus, turns)
            live.append((config.order, restored, path(turns)))
            return result

        monkeypatch.setattr(harness, "_train", train)
        _cpus(monkeypatch, 1)
        store = harness._train_ahead([(run, datasets) for run in runs])
        # groups by first client, in call order, each in sorted order of its
        # orders; in group 0, (0, 1, 3, 2) restores (0, 1) and (0, 2, 3, 1)
        # restores (0,); in group 1, (1, 2, 3, 0) restores (1,); the last
        # run equals the first
        assert live == [
            ((0, 1, 2, 3), (), (0, 1)),
            ((0, 1, 3, 2), (0, 1), (0,)),
            ((0, 2, 3, 1), (0,), ()),
            ((1, 0, 2, 3), (), (1,)),
            ((1, 2, 3, 0), (1,), ()),
            ((2, 0, 1, 3), (), ()),
            ((3, 0, 1, 2), (), ())]
        assert sorted(order for _, order in store) == sorted(order for order, _, _ in live)
        monkeypatch.undo()
        # a run that keeps its bus trains: a stored result has none
        kept = run_experiment(runs[0], datasets, keep_bus=True, store=store)
        assert kept.bus is not None and kept.to_json() == run_experiment(runs[0]).to_json()

    @pytest.mark.parametrize("protocol", ["sl", "sfv2"])
    def test_restored_prefix_carries_its_traffic(self, protocol):
        cfg = replace(FAST, protocol=protocol, n_clients=4)
        datasets = harness.load_or_generate(cfg)
        runs = [replace(cfg, order=order) for order in ((0, 1, 2, 3), (0, 1, 3, 2))]
        turns = TurnStates([run.order for run in runs])
        first = harness._train(runs[0], datasets, keep_bus=True, turns=turns)
        assert [cid for cid, *_ in turns.saved] == [0, 1]
        second = harness._train(runs[1], datasets, keep_bus=True, turns=turns)
        assert not turns.saved  # restored, and dropped as the last run's
        for run, result in zip(runs, (first, second)):
            alone = harness._train(run, datasets, keep_bus=True)
            assert result.bus.log == alone.bus.log
            assert result.to_json() == alone.to_json()

    def test_a_run_off_the_saved_turns_raises(self):
        cfg = replace(FAST, n_clients=3)
        datasets = harness.load_or_generate(cfg)
        turns = TurnStates([(0, 1, 2), (0, 2, 1)])  # (0, 1, 2) saves client 0's turn
        harness._train(replace(cfg, order=(0, 1, 2)), datasets, turns=turns)
        with pytest.raises(protocols.PlanError, match="does not start with the saved turns"):
            harness._train(replace(cfg, order=(1, 0, 2)), datasets, turns=turns)


def _cpus(monkeypatch, n: int) -> None:
    """Make the sweeps see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _worker_counts(monkeypatch) -> list:
    """Spy on the sweeps' worker starts (`harness._train_forked`); returns
    the list of how many workers each start forked (`os.fork`). The spy
    holds the list as `harness._train_forked.counts`."""
    start, fork, forks, counts = harness._train_forked, os.fork, [0], []

    def spied_fork():
        pid = fork()
        forks[0] += pid != 0  # counted in the parent
        return pid

    def spied_start(groups, workers):
        before = forks[0]
        try:
            return start(groups, workers)
        finally:  # never reached in a worker, which exits
            counts.append(forks[0] - before)

    spied_start.counts = counts
    monkeypatch.setattr(os, "fork", spied_fork)
    monkeypatch.setattr(harness, "_train_forked", spied_start)
    return counts


def _sweep_order_and_worker_counts(config):
    """`sweep_order(config)` in this process, and the workers each of its
    worker starts forked here (`_worker_counts`, spying since before this
    process was forked)."""
    table = sweep_order(config)
    return table, harness._train_forked.counts


class Injected(RuntimeError):
    pass


class AlsoInjected(RuntimeError):
    pass


class TestParallelSweeps:
    """A sweep's groups train ahead in forked workers; every call, table
    cell and error is what the in-process path gives."""

    CFG = replace(FAST, n_clients=4, probe=1, batch_size=16)

    @pytest.mark.parametrize("split_kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", ["sl", "sfv2"])
    def test_workers_equal_the_in_process_path(self, monkeypatch, protocol, split_kind):
        cfg = replace(self.CFG, protocol=protocol, split_kind=split_kind)
        datasets = harness.load_or_generate(cfg)
        for sweep in (sweep_order, sweep_client_count):
            outputs = []
            for cpus in (1, 2):
                _cpus(monkeypatch, cpus)
                starts = _worker_counts(monkeypatch)
                calls = _recording_runs(monkeypatch)
                table = sweep(cfg, datasets)
                monkeypatch.undo()
                assert starts == ([] if cpus == 1 else [2])
                outputs.append(([_report_bits(r) for row in table.rows
                                 for r in (row.first, row.last)],
                                [(res.to_json(), res.total_bytes) for _, _, res in calls]))
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("failing", [
        {(2, 0, 1, 3): Injected},
        # two groups fail: the run that comes first in the sweep's calls wins,
        # whichever group finishes first
        {(2, 0, 1, 3): Injected, (1, 0, 2, 3): AlsoInjected},
        {(3, 0, 1, 2): Injected, (0, 2, 3, 1): AlsoInjected},
    ])
    def test_a_worker_error_is_raised_by_its_call(self, monkeypatch, failing):
        calls_in_order = [(0, 1, 2, 3), (1, 2, 3, 0), (1, 0, 2, 3), (0, 2, 3, 1),
                          (2, 0, 1, 3), (0, 1, 3, 2), (3, 0, 1, 2), (0, 1, 2, 3)]
        first = min(failing, key=calls_in_order.index)
        original = harness.run_round

        def failing_round(clients, server, protocol, order, *args, **kwargs):
            if order in failing:
                raise failing[order](order)
            return original(clients, server, protocol, order, *args, **kwargs)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "run_round", failing_round)  # the workers inherit it
        starts = _worker_counts(monkeypatch)
        calls = _recording_runs(monkeypatch)
        with pytest.raises(failing[first]) as raised:
            sweep_order(self.CFG)
        assert starts == [2] and raised.value.args == (first,)
        assert [args[0].order for args, _, _ in calls] == calls_in_order[:calls_in_order.index(first)]

    def test_a_killed_worker_leaves_its_group_to_the_calls(self, monkeypatch):
        _cpus(monkeypatch, 1)
        alone = sweep_order(self.CFG)
        monkeypatch.undo()
        parent, original = os.getpid(), harness.run_round

        def dies_in_a_worker(clients, server, protocol, order, *args, **kwargs):
            if order == (1, 0, 2, 3) and os.getpid() != parent:
                os._exit(9)  # as a worker the kernel kills ends
            return original(clients, server, protocol, order, *args, **kwargs)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "run_round", dies_in_a_worker)
        starts = _worker_counts(monkeypatch)
        assert sweep_order(self.CFG) == alone and starts == [2]

    @pytest.mark.parametrize("cpus, protocol, sweep, workers", [
        (8, "sl", sweep_client_count, [2]),   # groups: probe first, probe last
        (3, "sl", sweep_order, [3]),          # 4 groups, one per first client
        (2, "sfv2", sweep_order, [2]),
        (1, "sl", sweep_order, []),           # in-process
        (2, "fl", sweep_order, []),           # one distinct run: the order is inert
        (2, "sfv1", sweep_client_count, [2]), # 3 distinct runs, one group each
    ])
    def test_pool_has_at_most_one_worker_per_cpu_and_group(self, monkeypatch, cpus, protocol,
                                                           sweep, workers):
        _cpus(monkeypatch, cpus)
        starts = _worker_counts(monkeypatch)
        sweep(replace(self.CFG, protocol=protocol))
        assert starts == workers

    @pytest.mark.parametrize("protocol", ["fl", "sfv1", "sfv3"])
    def test_order_inert_client_count_sweep_uses_the_pool(self, monkeypatch, protocol):
        # the distinct runs all train clients from 0 up, one group each
        cfg = replace(self.CFG, protocol=protocol, n_clients=5, probe=0)
        datasets = harness.load_or_generate(cfg)
        tables = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            starts = _worker_counts(monkeypatch)
            table = sweep_client_count(cfg, datasets)
            tables.append([[row.key] + _report_bits(row.first) + _report_bits(row.last)
                           for row in table.rows])
            assert starts == ([] if cpus == 1 else [2])
        assert tables[0] == tables[1] and len(tables[0]) == 4

    def test_probe_pair_alone_trains_each_run_in_a_worker(self, monkeypatch):
        lone = replace(self.CFG, probe=2)
        _cpus(monkeypatch, 4)
        starts = _worker_counts(monkeypatch)
        (table,) = sweep(lone, [lone.seed], "probe", [lone.probe])
        monkeypatch.undo()
        assert starts == [2]
        _cpus(monkeypatch, 1)
        assert list(sweep(lone, [lone.seed], "probe", [lone.probe])) == [table]

    def test_a_sweep_in_another_pool_s_worker_runs_in_process(self, monkeypatch):
        # a daemonic process, whose pool already uses the CPUs, forks no
        # workers of its own
        _cpus(monkeypatch, 2)
        starts = _worker_counts(monkeypatch)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            ((table, in_worker),) = pool.map(_sweep_order_and_worker_counts, [self.CFG])
        assert in_worker == [] and starts == []
        assert table == sweep_order(self.CFG) and starts == [2]

    @staticmethod
    def _left_behind(monkeypatch, sweep_in_workers):
        """Run `sweep_in_workers()` on 2 CPUs; assert that it forked 2
        workers and left no child to reap and no descriptor open, nor one
        for the garbage collector to close."""
        fds = sorted(os.listdir("/proc/self/fd"))
        _cpus(monkeypatch, 2)
        starts = _worker_counts(monkeypatch)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                sweep_in_workers()
        finally:
            assert starts == [2]
            assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert sorted(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("fault", [None, "raises", "dies"])
    def test_a_sweep_leaves_no_child_and_no_descriptor(self, monkeypatch, fault):
        parent, original = os.getpid(), harness.run_round

        def faulty_round(clients, server, protocol, order, *args, **kwargs):
            if order == (1, 0, 2, 3) and fault == "raises":
                raise Injected(order)
            if order == (1, 0, 2, 3) and fault == "dies" and os.getpid() != parent:
                os._exit(9)
            return original(clients, server, protocol, order, *args, **kwargs)

        def sweep_in_workers():
            with pytest.raises(Injected) if fault == "raises" else contextlib.nullcontext():
                sweep_order(self.CFG)

        monkeypatch.setattr(harness, "run_round", faulty_round)
        self._left_behind(monkeypatch, sweep_in_workers)

    def test_an_interrupt_in_the_parent_kills_and_reaps_every_worker(self, monkeypatch):
        kill, waitpid = os.kill, os.waitpid
        events = []  # ("kill", pid, signal), then ("reaped", pid, whether SIGKILL ended it)

        def spied_kill(pid, sig):
            events.append(("kill", pid, sig))
            return kill(pid, sig)

        def spied_waitpid(pid, options):
            reaped, status = waitpid(pid, options)
            if reaped:
                events.append(("reaped", reaped, os.WIFSIGNALED(status)
                               and os.WTERMSIG(status) == signal.SIGKILL))
            return reaped, status

        def interrupted_load(file):  # as a Ctrl-C while the parent reads a reply
            raise KeyboardInterrupt

        # a worker would train each group for a minute
        monkeypatch.setattr(harness, "_train_group", lambda group: time.sleep(60))
        monkeypatch.setattr(pickle, "load", interrupted_load)
        monkeypatch.setattr(os, "kill", spied_kill)
        monkeypatch.setattr(os, "waitpid", spied_waitpid)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self._left_behind(monkeypatch, lambda: sweep_order(self.CFG))
        assert time.monotonic() - started < 30
        pids = [event[1] for event in events if event[0] == "kill"]
        assert len(set(pids)) == 2
        assert events == [event for pid in pids
                          for event in (("kill", pid, signal.SIGKILL), ("reaped", pid, True))]

    def test_more_indices_than_a_pipe_holds_come_back_complete(self, monkeypatch):
        # 20,000 4-byte indices overflow a 64 KiB pipe buffer: the parent
        # can write them all only once the workers exist to read them, and a
        # worker sees their end only once every worker closed the write end
        groups = [{("run", index): None} for index in range(20_000)]
        monkeypatch.setattr(harness, "_train_group", lambda group: dict.fromkeys(group, "trained"))

        def timed_out(signum, frame):
            raise TimeoutError("the workers did not finish")

        handler = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)  # not inherited by a forked worker
        try:
            trained = harness._train_forked(groups, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert trained == {("run", index): "trained" for index in range(20_000)}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_single_runs_do_not_import_multiprocessing(self):
        # nor does a sweep in two forked workers
        code = ("import os, sys\n"
                "from splitsim import cli, harness\n"
                "harness.run_experiment(harness.ExperimentConfig(epochs=1))\n"
                "assert 'multiprocessing' not in sys.modules\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
                "harness.sweep_order(harness.ExperimentConfig(epochs=1, n_clients=3))\n"
                "imported = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
                "sys.exit(f'forks {forks}, imported {imported}' if imported or len(forks) != 2 else 0)\n")
        src = pathlib.Path(harness.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _numpy_reports_openblas() -> bool:
    config = getattr(np.__config__, "CONFIG", None)  # numpy 1.26 and later
    return config is not None and "openblas" in config["Build Dependencies"]["blas"]["name"]


@pytest.fixture
def blas(monkeypatch):
    """The (get, set) thread-count pair of numpy's OpenBLAS
    (`harness._openblas`), set to 2 threads for the test, so a run that
    left the count alone would show; the count it had is put back after.
    Skips the test without OpenBLAS."""
    pair = harness._openblas()
    if pair is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = pair
    before = get()
    put(2)
    yield pair
    put(before)


def _logged(log, name: str, get, original):
    """`original`, which first appends `name pid count` to `log`: one
    short append per call, so forked workers write whole lines."""
    def spied(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{name} {os.getpid()} {get()}\n")
        return original(*args, **kwargs)
    return spied


class TestBlasThreads:
    """Every run trains on one OpenBLAS thread, and the process stays on
    one: `harness._one_blas_thread`, called by `harness._train`, and by
    `harness._train_forked` before its first fork, so that the workers
    start on one and never set it."""

    @staticmethod
    def _counts_seen(monkeypatch, get) -> list:
        """The thread count at each `run_round` call from now on."""
        original, seen = harness.run_round, []

        def spied_round(*args, **kwargs):
            seen.append(get())
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "run_round", spied_round)
        return seen

    def test_a_run_trains_on_one_thread_and_leaves_it_at_one(self, monkeypatch, blas):
        get, _ = blas
        seen = self._counts_seen(monkeypatch, get)
        run_experiment(FAST)
        assert seen == [1] * FAST.epochs and get() == 1

    def test_a_run_that_raises_trained_on_one_thread(self, monkeypatch, blas):
        get, _ = blas
        seen = self._counts_seen(monkeypatch, get)
        with pytest.raises(SaturationError):
            run_experiment(ExperimentConfig(lr=10))  # CI's saturated run
        assert seen == [1] and get() == 1  # it saturates in epoch 0

    def test_a_count_of_one_is_not_set_again(self, monkeypatch, tmp_path, blas):
        # in a forked worker, setting the count restarts OpenBLAS's pool
        get, put = blas
        log = tmp_path / "threads"
        monkeypatch.setattr(harness, "_openblas", lambda: (get, _logged(log, "set", get, put)))
        run_experiment(FAST)
        run_experiment(FAST)
        assert log.read_text() == f"set {os.getpid()} 2\n" and get() == 1

    def test_the_lookup_finds_the_openblas_numpy_was_built_with(self):
        # so that a lookup that stopped finding OpenBLAS fails here rather
        # than skipping every other test of this class
        if not _numpy_reports_openblas():
            pytest.skip("numpy does not report an OpenBLAS build")
        assert harness._openblas() is not None

    def test_a_forked_sweep_worker_starts_and_trains_on_one_thread(self, monkeypatch, tmp_path,
                                                                   blas):
        # the parent sets the count once, before its first fork; a worker
        # inherits the count of one and never sets it
        get, put = blas
        parent, log = str(os.getpid()), tmp_path / "threads"
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "_openblas", lambda: (get, _logged(log, "set", get, put)))
        for name in ("_train_group", "run_round"):
            monkeypatch.setattr(harness, name, _logged(log, name, get, getattr(harness, name)))
        starts = _worker_counts(monkeypatch)
        monkeypatch.setattr(os, "fork", _logged(log, "fork", get, os.fork))
        sweep_order(TestParallelSweeps.CFG)
        rows = [line.split() for line in log.read_text().splitlines()]
        assert starts == [2] and get() == 1
        assert rows[:3] == [["set", parent, "2"], ["fork", parent, "1"], ["fork", parent, "1"]]
        assert {name for name, pid, _ in rows if pid != parent} == {"_train_group", "run_round"}
        assert [name for name, _, _ in rows].count("set") == 1
        assert {count for name, _, count in rows if name != "set"} == {"1"}

    def test_without_openblas_runs_train_and_give_the_same_result(self, monkeypatch, blas):
        get, put = blas
        found = run_experiment(FAST).to_json()
        put(2)
        monkeypatch.setattr(harness, "_openblas", lambda: None)
        seen = self._counts_seen(monkeypatch, get)
        assert run_experiment(FAST).to_json() == found
        assert seen == [2] * FAST.epochs  # the count was left alone


# prints the name of the kernel that numpy's OpenBLAS picked at load time
CORENAME = ("import ctypes, numpy as np\n"
            "lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)\n"
            "for name in ('openblas_get_corename', 'openblas_get_corename64_',\n"
            "             'scipy_openblas_get_corename', 'scipy_openblas_get_corename64_'):\n"
            "    if hasattr(lib, name):\n"
            "        getattr(lib, name).restype = ctypes.c_char_p\n"
            "        print(getattr(lib, name)().decode())\n"
            "        break\n")


def test_order_sweep_tables_are_the_same_bytes_on_another_openblas_kernel(tmp_path):
    # OpenBLAS picks its kernels for the CPU when it loads; OPENBLAS_CORETYPE
    # forces another. A run's floats may differ in their last bits (a bias
    # run's result.json does), but the tables, at 2 or 4 decimals, do not.
    if platform.machine() not in ("x86_64", "AMD64") or not _numpy_reports_openblas():
        pytest.skip("not an x86-64 machine with numpy on OpenBLAS")
    src = pathlib.Path(harness.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(src)
    cores = []
    for kernel, extra in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        cores.append(subprocess.run([sys.executable, "-c", CORENAME], env={**env, **extra},
                                    check=True, capture_output=True, text=True).stdout)
        subprocess.run([sys.executable, "-m", "splitsim.cli", "sweep-order", "--config",
                        str(BIAS_CFG), "--seeds", "2", "--out", str(tmp_path / kernel)],
                       env={**env, **extra}, check=True, stdout=subprocess.DEVNULL)
    if not cores[0]:
        pytest.skip("OpenBLAS does not report its kernel")
    assert cores[0] != cores[1]  # the variable took effect
    for seed in (0, 1):
        default, prescott = (tmp_path / kernel / f"order_sweep_seed{seed}.csv"
                             for kernel in ("default", "prescott"))
        assert default.read_bytes() == prescott.read_bytes()


class TestMultiSeedSweep:
    """`sweep` trains every seed's runs in one pool; each seed's table is
    what that seed's one-seed sweep gives."""

    CFG = TestParallelSweeps.CFG
    SEEDS = (0, 1, 2)
    # the field each one-seed sweep varies, and its values
    AXES = {"order": ("probe", range(CFG.n_clients)),
            "client_count": ("n_clients", CFG.sweep_sizes)}

    @staticmethod
    def _bits(table):
        return [[row.key] + _report_bits(row.first) + _report_bits(row.last)
                for row in table.rows]

    @pytest.mark.parametrize("cpus", [1, None])  # None: the CPUs the process has
    @pytest.mark.parametrize("kind, one_seed", [("order", sweep_order),
                                                ("client_count", sweep_client_count)])
    def test_each_table_equals_its_one_seed_sweep(self, monkeypatch, kind, one_seed, cpus):
        alone = [self._bits(one_seed(replace(self.CFG, seed=s))) for s in self.SEEDS]
        if cpus is not None:
            _cpus(monkeypatch, cpus)
        assert [self._bits(t) for t in sweep(self.CFG, self.SEEDS, *self.AXES[kind])] == alone

    @pytest.mark.parametrize("kind, runs_per_seed", [("order", 8), ("client_count", 6)])
    def test_one_pool_per_call_and_calls_in_seed_order(self, monkeypatch, kind, runs_per_seed):
        _cpus(monkeypatch, 2)
        starts = _worker_counts(monkeypatch)
        calls = _recording_runs(monkeypatch)
        tables = list(sweep(self.CFG, self.SEEDS, *self.AXES[kind]))
        assert starts == [2] and len(tables) == len(self.SEEDS)
        assert [args[0].seed for args, _, _ in calls] == [
            s for s in self.SEEDS for _ in range(runs_per_seed)]

    def test_tables_are_made_as_they_are_asked_for(self, monkeypatch):
        _cpus(monkeypatch, 1)
        calls = _recording_runs(monkeypatch)
        tables = sweep(self.CFG, self.SEEDS, "probe", [self.CFG.probe])
        assert calls == []
        next(tables)
        assert [args[0].seed for args, _, _ in calls] == [0, 0]


class TestRenderTable:
    def test_formatting_rules(self):
        same = MetricReport(auprc=0.51234, f1=0.4, kappa=0.3, threshold=0.5)
        table = ReportTable([ReportRow("client0", same, same)])
        text = render_table(table)
        lines = text.splitlines()
        assert lines[0] == harness.REPORT_HEADER
        cells = lines[1].split(",")
        assert len(cells) == 10
        assert cells[1] == "0.5123" and cells[3] == "0.00"

    def test_drop_signs(self):
        first = MetricReport(auprc=0.4, f1=0.4, kappa=0.4, threshold=0.5)
        last = MetricReport(auprc=0.5, f1=0.2, kappa=0.4, threshold=0.5)
        row = ReportRow("x", first, last)
        drops = row.drops()
        assert drops["auprc"] == pytest.approx(20.0)
        assert drops["f1"] == pytest.approx(-100.0)
        assert drops["kappa"] == 0.0

    def test_undefined_drop_raises_unless_given_its_text(self):
        first = MetricReport(auprc=0.4, f1=0.2, kappa=0.1, threshold=0.5)
        last = MetricReport(auprc=0.5, f1=0.0, kappa=0.0, threshold=0.5)
        table = ReportTable([ReportRow("x", first, last)])
        with pytest.raises(metrics.MetricError):
            render_table(table)
        assert render_table(table, "undefined").splitlines()[1] == (
            "x,0.4000,0.5000,20.00,0.2000,0.0000,undefined,0.1000,0.0000,undefined")


class TestCli:
    def _write_cfg(self, tmp_path, extra=""):
        # a key is set once in a config file: a line of `extra` replaces
        # the base line of its key
        base = {"protocol": "sl", "epochs": "2", "n_clients": "2", "lr": "0.001"}
        for line in extra.splitlines():
            base.pop(line.partition("=")[0].strip(), None)
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in base.items()) + extra)
        return path

    def test_sweep_clients_probe_beyond_smallest_size(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("protocol = sl\nepochs = 1\nlr = 0.001\n")
        out = tmp_path / "out"
        assert cli.main(["sweep-clients", "--config", str(cfg), "--probe", "3",
                         "--out", str(out)]) == 0

    # sweep-order without --probe sweeps every client, whatever the file's probe
    @pytest.mark.parametrize("command", [["run"], ["sweep-order", "--probe", "7"],
                                         ["sweep-clients"]])
    def test_probe_not_a_client_exits_1_before_training(self, tmp_path, capsys, monkeypatch,
                                                         command):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("probe = 7\n")
        _forbid(monkeypatch, "make_clients")
        out = tmp_path / "out"
        assert cli.main(command + ["--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "input error: probe 7 is not one of the clients [0, 1, 2, 3, 4]\n")
        assert not out.exists()

    def test_gen_data(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "clients.sds").exists()
        assert (out / "manifest.txt").exists()

    def test_gen_data_manifest_regenerates_the_data(self, tmp_path):
        a, b = tmp_path / "A", tmp_path / "B"
        assert cli.main(["gen-data", "--config", str(BIAS_CFG), "--seed", "4",
                         "--out", str(a)]) == 0
        assert cli.main(["gen-data", "--config", str(a / "manifest.txt"),
                         "--out", str(b)]) == 0
        assert (a / "clients.sds").read_bytes() == (b / "clients.sds").read_bytes()
        assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()

    def test_run_then_report(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--message-log"]) == 0
        assert (out / "result.json").exists()
        assert (out / "messages.log").exists()
        capsys.readouterr()
        assert cli.main(["report", str(out / "result.json")]) == 0
        text = capsys.readouterr().out
        assert "client,auprc,f1,kappa,threshold" in text

    @pytest.mark.parametrize("content", ["protocol = sl\n", "[1, 2]", "{}"])
    def test_report_on_a_file_that_is_not_a_result_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "result.json"
        path.write_text(content)
        assert cli.main(["report", str(path)]) == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sweep-order", "--seeds", "0"],
                                      ["sweep-clients", "--seeds", "-2"]])
    def test_seeds_below_1_exits_1(self, tmp_path, argv):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert not out.exists()

    def test_sweep_order_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["sweep-order", "--config", str(cfg), "--epochs", "1",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "order_sweep_seed0.csv").exists()

    def test_sweep_order_summarises_several_seeds(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        capsys.readouterr()
        assert cli.main(["sweep-order", "--config", str(cfg), "--epochs", "1", "--probe", "1",
                         "--seeds", "2", "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4] == "client1 over 2 seeds:"
        for line, metric in zip(lines[-3:], ("auprc", "f1", "kappa")):
            assert re.fullmatch(rf"{metric}: positive drop in [012]/2 seeds, median -?\d+\.\d%, "
                                r"sign test p = (0\.5|1)", line)

    @pytest.mark.parametrize("command, name", [("sweep-order", "order_sweep_seed7"),
                                               ("sweep-clients", "client_sweep_seed7")])
    def test_sweep_that_raises_leaves_its_manifest(self, tmp_path, monkeypatch, command, name):
        # a run of seed 7 raises: seed 6 keeps its table, seed 7 its manifest
        argv = [command, "--config", str(BIAS_CFG), "--probe", "0", "--seed", "6"]
        assert cli.main(argv + ["--out", str(tmp_path / "alone")]) == 0
        original = harness.run_experiment

        def fails_at_seed_7(config, *args, **kwargs):
            if config.seed == 7:
                raise Injected(config.order)
            return original(config, *args, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", fails_at_seed_7)
        out, stem = tmp_path / "A", name.removesuffix("7")
        assert cli.main(argv + ["--seeds", "3", "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == [
            f"{stem}6.csv", f"{stem}6.manifest.txt", f"{name}.manifest.txt"]
        assert (out / f"{stem}6.csv").read_bytes() == (
            tmp_path / "alone" / f"{stem}6.csv").read_bytes()
        manifest = out / f"{name}.manifest.txt"
        assert config_from(parse_config_file(manifest), {}).seed == 7
        assert cli.main([command, "--config", str(manifest), "--probe", "0",
                         "--out", str(tmp_path / "B")]) == 2
        assert (tmp_path / "B" / f"{name}.manifest.txt").read_text() == manifest.read_text()

    def test_undefined_drop_is_written_not_raised(self, tmp_path):
        # the bias fixture's seed 7: probe 0 scores kappa 0 when trained
        # last at 4 and 5 clients
        out = tmp_path / "out"
        assert cli.main(["sweep-clients", "--config", str(BIAS_CFG), "--seed", "7",
                         "--out", str(out)]) == 0
        rows = (out / "client_sweep_seed7.csv").read_text().splitlines()
        assert [row.endswith(",0.0000,undefined") for row in rows[1:]] == [
            False, False, True, True]
        bias = config_from(parse_config_file(BIAS_CFG), {"seed": 7})
        with pytest.raises(metrics.MetricError):
            render_table(sweep_client_count(bias))

    def test_summary_counts_undefined_drops_as_worst(self, capsys):
        def report(kappa):
            return MetricReport(auprc=0.5, f1=0.5, kappa=kappa, threshold=0.5)

        tables = [ReportTable([ReportRow("client0", report(first), report(last))])
                  for first, last in ((0.2, 0.0), (0.1, 0.2), (-0.1, 0.0))]
        cli._print_summary(harness.drops_over_seeds(tables))
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "client0 over 3 seeds:"
        assert lines[1] == "auprc: positive drop in 0/3 seeds, median 0.0%, sign test p = 1"
        # (-0.1, 0.0): the probe is worse off first, an undefined drop of +inf
        assert lines[3] == ("kappa: positive drop in 2/3 seeds, median 50.0%, "
                            "sign test p = 1, 1 undefined counted as +inf, 1 as -inf")

    def test_sweep_clients_summarises_each_setting(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "n_clients = 3\n")
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.main(["sweep-clients", "--config", str(cfg), "--epochs", "1",
                         "--seeds", "2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        tables = [harness.sweep_client_count(config_from(parse_config_file(cfg),
                                                         {"epochs": 1, "seed": s}))
                  for s in (0, 1)]
        drops = harness.drops_over_seeds(tables)
        for key in ("2 client setting", "3 client setting"):
            at = lines.index(f"{key} over 2 seeds:")
            assert [line.split(":")[0] for line in lines[at + 1:at + 4]] == ["auprc", "f1", "kappa"]
        trend = (out / "client_sweep_trend.csv").read_text().splitlines()
        assert trend == ["setting,median_kappa_drop"] + [
            f"{key},{(d['kappa'][0] + d['kappa'][1]) / 2:.2f}" for key, d in drops.items()]
        assert lines[-3:] == trend

    def test_sweep_prints_the_table_it_writes(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.main(["sweep-order", "--config", str(cfg), "--epochs", "1",
                         "--out", str(out)]) == 0
        table = (out / "order_sweep_seed0.csv").read_text()
        assert capsys.readouterr().out == table
        config = config_from(parse_config_file(cfg), {"epochs": 1})
        assert table == render_table(sweep_order(config), "undefined")
        assert (out / "order_sweep_seed0.manifest.txt").read_text() == render_manifest(config)

    def test_bias_fixture_order_sweep(self, tmp_path):
        a, b = tmp_path / "A", tmp_path / "B"
        assert cli.main(["sweep-order", "--config", str(BIAS_CFG), "--probe", "0",
                         "--out", str(a)]) == 0
        cells = (a / "order_sweep_seed0.csv").read_text().splitlines()[1].split(",")
        assert cells[0] == "client0"
        assert cells[1:3] == ["0.1377", "0.3774"]  # auprc first, last
        assert cells[7:9] == ["0.0055", "0.1712"]  # kappa first, last
        assert cli.main(["sweep-order", "--config", str(a / "order_sweep_seed0.manifest.txt"),
                         "--probe", "0", "--out", str(b)]) == 0
        assert (a / "order_sweep_seed0.csv").read_bytes() == (b / "order_sweep_seed0.csv").read_bytes()

    def test_bad_config_exits_1(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n")
        assert cli.main(["run", "--config", str(path)]) == 1

    # the sensitivity, feature_dim and sweep_sizes lines set keys of 0.1.0
    # that are now derived or constant: bad keys
    @pytest.mark.parametrize("line", [
        "lr = -1", "lr = 0", "lr = nan", "lr = inf",
        "sensitivity = 1.5", "sensitivity = -0.1",
        "batch_size = 0",
        "widths = 8", "widths = 8,16,2",
        "front_cut = 0", "tail_cut = 5", "front_cut = 3\ntail_cut = 2",
        "split_kind = vanilla\nwidths = 8,16,1\nfront_cut = 3",
        "feature_dim = 1\nwidths = 1,16,16,16,8,1", "widths = 1,16,16,16,8,1",
        "widths = 8,0,16,16,8,1",
        "shift_scale = -0.5", "shift_scale = nan", "shift_scale = inf",
        "shift_scale = 1e308\nn_clients = 3",
        "sweep_sizes =", "sweep_sizes = 0,2", "seed = -1",
        "epochs = abc", "order = None", "widths = 8,x", "dataset_path = .",
        "eval_count = 4", "eval_count = 0", "eval_count = -1",
    ])
    def test_invalid_config_exits_1(self, tmp_path, line):
        cfg = self._write_cfg(tmp_path, line + "\n")
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 1

    def test_divergence_exits_2(self, tmp_path):
        cfg = self._write_cfg(tmp_path, "lr = 1e200\n")
        with np.errstate(all="ignore"):
            assert cli.main(["run", "--config", str(cfg), "--out",
                             str(tmp_path / "out")]) == 2

    def test_saturation_exits_2_and_names_the_epoch(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "lr = 10\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a saturated sigmoid warns nothing
            assert cli.main(["run", "--config", str(cfg), "--out",
                             str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "runtime error: epoch 0: every validation probability is at a clamp bound\n")

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_corrupt_dataset_exits_1(self, tmp_path):
        junk = tmp_path / "junk.sds"
        junk.write_bytes(b"NOPE" + b"\0" * 32)
        cfg = self._write_cfg(tmp_path, f"dataset_path = {junk}\n")
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 1

    def test_truncated_dataset_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data" / "clients.sds"
        assert cli.main(["gen-data", "--out", str(data.parent)]) == 0
        data.write_bytes(data.read_bytes()[:500])
        cfg = self._write_cfg(tmp_path, f"dataset_path = {data}\n")
        capsys.readouterr()
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "dataset file ends at byte 500" in capsys.readouterr().err

    # a file save_clients writes, with client 1's data changed. Left to
    # training, the label 2 trains to a scored result and the others
    # fail only at runtime (exit 2), the one-class test split at the end
    @pytest.mark.parametrize("field, index, value, message", [
        ("train_y", 0, 2, "train split has a label not in {0, 1}"),
        ("val_x", (0, 0), np.nan, "val split has a non-finite feature"),
        ("val_y", slice(None), 0, "val split has no positive"),
        ("test_y", slice(None), 1, "test split does not hold both classes"),
    ])
    def test_bad_dataset_contents_exit_1_before_training(self, tmp_path, capsys, monkeypatch,
                                                         field, index, value, message):
        datasets = datagen.generate_clients(datagen.desk_manifest(2), seed=0)
        getattr(datasets[1], field)[index] = value
        data = tmp_path / "clients.sds"
        datagen.save_clients(data, datasets)
        cfg = self._write_cfg(tmp_path, f"dataset_path = {data}\n")
        _forbid(monkeypatch, "make_clients")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"input error: dataset file client 1 {message}\n"

    # a file save_clients writes, with its clients' ids changed: the
    # loader's client-id rule rejects it before training starts
    @pytest.mark.parametrize("command", [["run"], ["sweep-order", "--probe", "0"],
                                         ["sweep-clients"]])
    @pytest.mark.parametrize("ids", [(0, 0, 2, 3, 4), (10, 11, 12, 13, 14)])
    def test_bad_client_ids_exit_1_before_training(self, tmp_path, capsys, monkeypatch,
                                                   ids, command):
        datasets = datagen.generate_clients(datagen.desk_manifest(5), seed=0)
        data = tmp_path / "clients.sds"
        datagen.save_clients(data, [replace(ds, client_id=cid)
                                    for ds, cid in zip(datasets, ids)])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"epochs = 1\ndataset_path = {data}\n")
        _forbid(monkeypatch, "make_clients")
        assert cli.main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"input error: dataset file {data}: client ids {sorted(ids)} are not 0..4\n")

    # read as given, a dataset file's n_clients 0 failed on datasets[0] (exit
    # 2) and -1 named the ids of datasets[:-1]
    @pytest.mark.parametrize("command", ["run", "gen-data", "sweep-order", "sweep-clients"])
    @pytest.mark.parametrize("n_clients", [0, -1])
    def test_n_clients_below_1_exits_1_before_training(self, tmp_path, capsys, monkeypatch,
                                                        command, n_clients):
        data = tmp_path / "clients.sds"
        datagen.save_clients(data, datagen.generate_clients(datagen.desk_manifest(5), seed=0))
        cfg = self._write_cfg(tmp_path, f"dataset_path = {data}\nn_clients = {n_clients}\n")
        _forbid(monkeypatch, "make_clients")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "input error: n_clients must be >= 1\n"
        assert not out.exists()

    # client k's angle is k * shift_scale: at 1e308 it was inf from client 2
    # on, so run trained on NaN features and gen-data wrote them
    @pytest.mark.parametrize("command", ["run", "gen-data", "sweep-order", "sweep-clients"])
    def test_overflowing_shift_scale_exits_1_before_generating(self, tmp_path, capsys,
                                                               monkeypatch, command):
        cfg = self._write_cfg(tmp_path, "shift_scale = 1e308\nn_clients = 5\n")
        _forbid(monkeypatch, "generate_clients", "data generated")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "input error: shift_scale overflows the last client's angle\n")
        assert not out.exists()

    def test_shift_scale_1e308_runs_at_two_clients(self, tmp_path):
        # every angle is finite: 0 and 1e308 (three clients: test_invalid_config_exits_1)
        cfg = self._write_cfg(tmp_path, "shift_scale = 1e308\nn_clients = 2\nepochs = 1\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_dataset_feature_width_mismatch_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data" / "clients.sds"
        assert cli.main(["gen-data", "--out", str(data.parent)]) == 0
        cfg = self._write_cfg(tmp_path, f"dataset_path = {data}\nwidths = 4,8,8,8,8,1\n")
        capsys.readouterr()
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "dataset file has 8 features" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [], ["run", "--epochs", "abc"], ["run", "--protocol", "gossip"],
        ["run", "--split", "ushape"], ["run", "--seeds", "2"], ["run", "--probe", "1"],
        ["gen-data", "--epochs", "2"], ["gen-data", "--protocol", "sl"],
        ["sweep-order", "--message-log"], ["sweep-clients", "--message-log"],
    ])
    def test_usage_error_exits_1(self, argv):
        assert cli.main(argv) == 1

    def test_help_exits_0(self):
        assert cli.main(["run", "--help"]) == 0

    def test_each_command_registers_only_the_flags_it_reads(self):
        counts = {name: len(flags) for name, (_, _, flags) in cli.COMMANDS.items()}
        assert counts == {"gen-data": 3, "run": 7, "sweep-order": 8, "sweep-clients": 8}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("split", [VANILLA, U_SHAPED])
    def test_result_manifest_reruns_byte_identical(self, tmp_path, protocol, split):
        # the first run also writes messages.log, the rerun does not: the
        # log leaves result.json alone and sums to its counts
        a, b = tmp_path / "A", tmp_path / "B"
        assert cli.main(["run", "--protocol", protocol, "--split", split,
                         "--epochs", "2", "--message-log", "--out", str(a)]) == 0
        assert cli.main(["run", "--config", str(a / "result.manifest.txt"),
                         "--out", str(b)]) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
        assert (a / "result.manifest.txt").read_text() == (b / "result.manifest.txt").read_text()
        rows = [line.split() for line in (a / "messages.log").read_text().splitlines()]
        counted = {"total_bytes": sum(int(r[5]) for r in rows),  # round seq sender receiver type bytes
                   "param_blob_bytes": sum(int(r[5]) for r in rows if r[4] == "PARAM_BLOB"),
                   "labels_messages": sum(r[4] == "LABELS" for r in rows)}
        result = json.loads((a / "result.json").read_text())
        assert counted == {key: result[key] for key in counted}
        assert (counted["labels_messages"] > 0) == (split == VANILLA and protocol != "fl")

    @pytest.mark.parametrize("command, stem", [("sweep-order", "order_sweep_seed3"),
                                               ("sweep-clients", "client_sweep_seed3")],
                             ids=["sweep-order", "sweep-clients"])
    def test_sweep_manifest_reruns_identical(self, tmp_path, command, stem):
        cfg = self._write_cfg(tmp_path, "n_clients = 3\n")
        a, b = tmp_path / "A", tmp_path / "B"
        assert cli.main([command, "--config", str(cfg), "--epochs", "1",
                         "--seed", "3", "--out", str(a)]) == 0
        assert cli.main([command, "--config", str(a / f"{stem}.manifest.txt"),
                         "--out", str(b)]) == 0
        for name in (f"{stem}.csv", f"{stem}.manifest.txt"):
            assert (a / name).read_text() == (b / name).read_text()


def _letters():
    return st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)


@st.composite
def valid_configs(draw):
    """Configs that validate, over every field; dataset_path is drawn from
    the text a config file can hold (no '#', line break or surrounding
    blank)."""
    widths = (draw(st.integers(2, 16)),
              *draw(st.lists(st.integers(1, 64), min_size=1, max_size=5)), 1)
    front_cut = draw(st.integers(1, len(widths) - 1))
    n_clients = draw(st.integers(1, 5))
    cfg = ExperimentConfig(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        split_kind=draw(st.sampled_from([VANILLA, U_SHAPED])),
        widths=widths, front_cut=front_cut,
        tail_cut=draw(st.integers(front_cut, len(widths) - 1)),
        epochs=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64)),
        batch_size=draw(st.integers(1, 4096)),
        lr=draw(st.floats(0, 1e6, exclude_min=True)),
        n_clients=n_clients,
        shift_scale=draw(st.floats(0, 1e3)),
        eval_count=draw(st.integers(6, 10**6)),
        probe=draw(st.integers(0, n_clients - 1)),
        order=draw(st.none() | st.permutations(range(n_clients)).map(tuple)),
        dataset_path=draw(st.none() | st.text(alphabet="ab/._- ", max_size=12).map(str.strip)))
    try:
        cfg.validate()
    except ConfigurationError:
        reject()
    return cfg


def _malformed(key: str, hint, tmp):
    """Values that are not a valid setting of the key."""
    if key == "protocol":
        return _letters().filter(lambda v: v not in PROTOCOLS)
    if key == "split_kind":
        return _letters().filter(lambda v: v != VANILLA)  # letters never spell u_shaped
    if key == "dataset_path":  # a missing file, or a directory
        return _letters().map(lambda v: str(tmp / v)) | st.just(str(tmp))
    numeric = {int: ["1.5", "1e3", "1,2", "-"], float: ["1,5", "1.2.3", "--1", "0x10"]}
    # letters never parse as an int; as a float only nan and inf[inity]
    # parse, and validate rejects both for every float field
    return _letters() | st.sampled_from(numeric.get(hint, ["8,x", "1.5", "1,,2"]))


class TestConfigProperties:
    @settings(max_examples=200, deadline=None)
    @given(cfg=valid_configs())
    def test_manifest_round_trips(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("manifest") / "result.manifest.txt"
        path.write_text(render_manifest(cfg))
        assert config_from(parse_config_file(path), {}) == cfg

    @settings(max_examples=200, deadline=None)
    @given(cfg=valid_configs(), dataset_path=st.text())
    @example(cfg=FAST, dataset_path="runs/a#1.sds")
    @example(cfg=FAST, dataset_path=" lead.sds")
    @example(cfg=FAST, dataset_path="a\nb.sds")
    @example(cfg=FAST, dataset_path="a\rb.sds")
    def test_any_dataset_path_round_trips_or_is_refused(self, tmp_path_factory, cfg,
                                                        dataset_path):
        cfg = replace(cfg, dataset_path=dataset_path)
        try:
            text = render_manifest(cfg)
        except ConfigurationError as exc:
            assert str(exc).startswith(f"dataset_path {dataset_path!r} ")
            return
        path = tmp_path_factory.mktemp("manifest") / "result.manifest.txt"
        path.write_text(text)
        assert config_from(parse_config_file(path), {}) == cfg

    # every field, and the keys of 0.1.0 that are now derived or constant,
    # whose every value is a bad key
    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)]
                             + ["feature_dim", "sensitivity", "sweep_sizes"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_malformed_value_exits_1(self, tmp_path_factory, key, data):
        tmp = tmp_path_factory.mktemp("malformed")
        hint = typing.get_type_hints(ExperimentConfig).get(key, int)
        value = data.draw(_malformed(key, hint, tmp))
        path = tmp / "exp.cfg"
        path.write_text(f"{key} = {value}\n")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp / "out")]) == 1

    @settings(max_examples=60, deadline=None)
    @given(n_clients=st.integers(-1, 7), eval_count=st.integers(-2, 40),
           protocol=st.sampled_from(PROTOCOLS), split_kind=st.sampled_from([VANILLA, U_SHAPED]),
           probe=st.integers(0, 6), seed=st.integers(0, 3))
    def test_config_runs_or_raises_configuration_error(self, n_clients, eval_count, protocol,
                                                       split_kind, probe, seed):
        cfg = ExperimentConfig(protocol=protocol, split_kind=split_kind, widths=(2, 3, 3, 1),
                               front_cut=1, tail_cut=2, epochs=1,
                               batch_size=64, lr=3e-3, n_clients=n_clients,
                               eval_count=eval_count, probe=probe, seed=seed)
        try:
            run_experiment(cfg)
        except ConfigurationError:
            pass

    # out-of-range values for the fields whose gaps validate closes, and
    # eval_counts too small for the eval prevalence (the manifest rejects them)
    GAPS = {
        "eval_count": st.sampled_from([5, 4, 0, -1]),
        "input_width": st.sampled_from([1, 0, -1]),
        "hidden": st.lists(st.integers(-1, 3), min_size=1, max_size=3).filter(
            lambda h: min(h) < 1),
        # 1e308 overflows the angle of client 2 and later: it runs at 1 or 2 clients
        "shift_scale": st.sampled_from([-0.5, -1e-300, float("nan"), float("inf"), 1e308]),
        "seed": st.integers(-3, -1),
    }

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_config_runs_or_exits_1(self, tmp_path_factory, data):
        """A valid config, or one with one of the GAPS fields out of range.
        `run` computes no percent drop, so the sweeps' degenerate-kappa
        MetricError is outside this property."""
        draw = data.draw
        values = {"input_width": draw(st.integers(2, 3)),
                  "hidden": draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)),
                  "shift_scale": draw(st.sampled_from([0.0, 0.75])),
                  "eval_count": draw(st.sampled_from([6, 50])),
                  "seed": draw(st.integers(0, 2))}
        gap = draw(st.sampled_from([None, *sorted(self.GAPS)]))
        if gap is not None:
            values[gap] = draw(self.GAPS[gap])
        hidden, input_width = values.pop("hidden"), values.pop("input_width")
        n_clients = draw(st.integers(1, 5))
        cfg = ExperimentConfig(
            protocol=draw(st.sampled_from(PROTOCOLS)),
            split_kind=draw(st.sampled_from([VANILLA, U_SHAPED])),
            widths=(input_width, *hidden, 1), front_cut=1, tail_cut=len(hidden),
            epochs=draw(st.integers(1, 2)), batch_size=draw(st.sampled_from([8, 64])),
            lr=3e-3, n_clients=n_clients, probe=draw(st.integers(0, n_clients - 1)), **values)
        tmp = tmp_path_factory.mktemp("drawn")
        path = tmp / "exp.cfg"
        path.write_text(render_manifest(cfg))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp / "out")]) in (0, 1)
