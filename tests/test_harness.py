import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import cli, datagen, harness, metrics, nn
from splitsim.harness import (BestCheckpoint, ConfigurationError,
                              DivergenceError, ExperimentConfig, ReportRow,
                              ReportTable, config_from, parse_config_file,
                              render_table, run_experiment, run_probe_pair,
                              sweep_client_count, sweep_order, trend_series)
from splitsim.metrics import MetricReport
from splitsim.protocols import (FL, PROTOCOLS, PlanError, RoundPlan,
                                body_for_client, composed_model, make_clients,
                                run_round)
from splitsim.transport import ChannelBus

FAST = ExperimentConfig(protocol="sl", epochs=2, n_clients=2, lr=1e-3, seed=0)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            replace(FAST, protocol="gossip").validate()

    def test_feature_dim_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            replace(FAST, feature_dim=5).validate()

    def test_probe_out_of_range(self):
        with pytest.raises(ConfigurationError):
            replace(FAST, probe=2).validate()

    def test_vanilla_split_has_empty_tail(self):
        cfg = replace(FAST, split_kind="vanilla")
        sc = cfg.split_config()
        assert sc.tail_cut == len(cfg.widths) - 1

    def test_fl_needs_no_split(self):
        assert replace(FAST, protocol="fl").split_config() is None


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

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("epochs 4\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(path)

    def test_invalid_merged_config_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from({"protocol": "nope"}, {})


class TestBestCheckpoint:
    @staticmethod
    def offer_all(history):
        checkpoint = BestCheckpoint()
        for loss, snap in history:
            checkpoint.offer(loss, lambda snap=snap: snap)
        return checkpoint.best()

    def test_argmin(self):
        idx, snap = self.offer_all([(0.9, "a"), (0.5, "b"), (0.7, "c")])
        assert (idx, snap) == (1, "b")

    def test_tie_breaks_earliest(self):
        idx, snap = self.offer_all([(0.5, "a"), (0.5, "b")])
        assert (idx, snap) == (0, "a")

    def test_monotone_decreasing_takes_last(self):
        hist = [(1.0 - 0.05 * i, i) for i in range(10)]
        idx, snap = self.offer_all(hist)
        assert (idx, snap) == (9, 9)

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            BestCheckpoint().best()

    def test_snapshot_built_only_on_strict_improvement(self):
        built = []
        checkpoint = BestCheckpoint()
        for epoch, loss in enumerate([0.9, 0.9, 0.7, 0.8, 0.7, 0.6]):
            checkpoint.offer(loss, lambda epoch=epoch: built.append(epoch) or epoch)
        assert built == [0, 2, 5]
        assert checkpoint.best() == (5, 5)
        assert checkpoint.losses == [0.9, 0.9, 0.7, 0.8, 0.7, 0.6]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_loss_names_the_epoch(self, bad):
        checkpoint = BestCheckpoint()
        checkpoint.offer(0.5, lambda: "a")
        with pytest.raises(DivergenceError, match="epoch 1"):
            checkpoint.offer(bad, lambda: "b")
        assert checkpoint.best() == (0, "a")


def _history_reference(cfg, datasets):
    """The per-epoch snapshot path: compose every client's model after
    every epoch and score the composed copies. Returns the losses and
    the snapshots."""
    ds_by_id = {ds.client_id: ds for ds in datasets}
    order = cfg.order or tuple(sorted(ds_by_id))
    model = nn.init_model(list(cfg.widths), cfg.seed)
    clients, server = make_clients(datasets, model, cfg.split_config(), cfg.lr)
    bus = ChannelBus()
    global_model = model.clone() if cfg.protocol == FL else None
    losses, snapshots = [], []
    for epoch in range(cfg.epochs):
        new_global = run_round(cfg.protocol, clients, server, global_model,
                               RoundPlan(cfg.protocol, order, epoch), bus,
                               cfg.split_kind, cfg.batch_size)
        if new_global is not None:
            global_model = new_global
        snap = {cid: (global_model.clone() if cfg.protocol == FL
                      else composed_model(clients[cid],
                                          body_for_client(cfg.protocol, server, cid)))
                for cid in sorted(clients)}
        losses.append(float(np.mean([
            nn.bce_loss(nn.forward(snap[cid], ds_by_id[cid].val_x)[0],
                        ds_by_id[cid].val_y)[0] for cid in sorted(snap)])))
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
                                      nn.forward(model, ds.val_x)[0][:, 0], ds.val_y,
                                      cfg.sensitivity)
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

    @pytest.mark.parametrize("protocol", ["fl", "sl"])
    def test_divergence_raises(self, protocol):
        cfg = replace(FAST, protocol=protocol, lr=1e200, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0"):
            run_experiment(cfg)


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

    def test_label_accounting_vanilla_vs_ushaped(self):
        u = run_experiment(FAST)
        v = run_experiment(replace(FAST, split_kind="vanilla"))
        assert u.labels_messages == 0
        assert v.labels_messages > 0


class TestSweeps:
    def test_probe_pair_keys(self):
        row = run_probe_pair(replace(FAST, epochs=1), probe=1)
        assert row.key == "client1"
        assert isinstance(row.first, MetricReport)

    def test_order_sweep_row_count(self):
        table = sweep_order(replace(FAST, epochs=1))
        assert [r.key for r in table.rows] == ["client0", "client1"]

    def test_order_sweep_needs_two_clients(self):
        with pytest.raises(ConfigurationError):
            sweep_order(replace(FAST, n_clients=1))

    def test_client_count_sweep(self):
        cfg = replace(FAST, epochs=1, n_clients=3, sweep_sizes=(2, 3))
        table = sweep_client_count(cfg)
        assert [r.key for r in table.rows] == ["2 client setting", "3 client setting"]
        series = trend_series(table)
        assert len(series) == 2 and all(isinstance(v, float) for _, v in series)

    def test_sweep_size_exceeding_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_client_count(replace(FAST, sweep_sizes=(2, 3)))


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

    def test_emit_and_reread_identical(self, tmp_path):
        rep = MetricReport(auprc=0.6, f1=0.5, kappa=0.4, threshold=0.5)
        table = ReportTable([ReportRow("client0", rep, rep)])
        paths = harness.emit_report(table, tmp_path, config=FAST)
        assert paths[0].read_text() == render_table(table)
        assert "protocol = sl" in paths[1].read_text()


class TestCli:
    def _write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "exp.cfg"
        path.write_text("protocol = sl\nepochs = 2\nn_clients = 2\nlr = 0.001\n" + extra)
        return path

    def test_gen_data(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "clients.sds").exists()
        assert (out / "manifest.txt").exists()

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

    def test_sweep_order_command(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["sweep-order", "--config", str(cfg), "--epochs", "1",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "order_sweep_seed0.csv").exists()

    def test_bad_config_exits_1(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus = 1\n")
        assert cli.main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("line", [
        "lr = -1", "lr = 0", "lr = nan", "lr = inf",
        "sensitivity = 1.5", "sensitivity = -0.1",
        "batch_size = 0",
        "widths = 8", "widths = 8,16,2",
        "front_cut = 0", "tail_cut = 5", "front_cut = 3\ntail_cut = 2",
        "split_kind = vanilla\nwidths = 8,16,1\nfront_cut = 3",
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

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_corrupt_dataset_exits_2(self, tmp_path):
        junk = tmp_path / "junk.sds"
        junk.write_bytes(b"NOPE" + b"\0" * 32)
        cfg = self._write_cfg(tmp_path, f"dataset_path = {junk}\n")
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2
