import concurrent.futures
import json
import multiprocessing
import os
import pathlib
import re
import string
import subprocess
import sys
import tracemalloc
import typing
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from splitsim import cli, datagen, harness, metrics, nn, protocols
from splitsim.harness import (BestCheckpoint, ConfigurationError,
                              DivergenceError, ExperimentConfig, ReportRow,
                              ReportTable, config_from, parse_config_file,
                              render_manifest, render_table, run_experiment,
                              run_probe_pair, sweep_client_count, sweep_order,
                              trend_series)
from splitsim.metrics import MetricReport
from splitsim.model_split import U_SHAPED, VANILLA
from splitsim.protocols import (PROTOCOLS, PlanError, RoundPlan, composed_model,
                                make_clients, run_round)
from splitsim.transport import ChannelBus

FAST = ExperimentConfig(protocol="sl", epochs=2, n_clients=2, lr=1e-3, seed=0)
BIAS_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bias.cfg"


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
                                      "eval_count = 2e2"])
    def test_malformed_value_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text("# header\nprotocol = sl\n" + line + "\n")
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}:3: bad")):
            parse_config_file(path)

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
    clients, server = make_clients(datasets, model, cfg.protocol, cfg.split_config(), cfg.lr)
    bus = ChannelBus()
    losses, snapshots = [], []
    for epoch in range(cfg.epochs):
        run_round(clients, server, RoundPlan(cfg.protocol, order, epoch), bus,
                  cfg.split_kind, cfg.batch_size)
        snap = {cid: composed_model(clients[cid], server.bodies.get(cid))
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

    # distinct parameter vectors in the kept snapshot of a 5-client run:
    # one body under every split protocol, one client vector where the
    # client segments (FL: the whole models) are averaged, else one each
    @pytest.mark.parametrize("protocol, split_kind, n_vectors", [
        ("fl", U_SHAPED, 1), ("sl", U_SHAPED, 6), ("sfv1", U_SHAPED, 2),
        ("sfv2", VANILLA, 2), ("sfv3", U_SHAPED, 6), ("sfv3", VANILLA, 6)])
    def test_kept_snapshot_holds_one_copy_per_distinct_vector(self, monkeypatch, protocol,
                                                              split_kind, n_vectors):
        kept = []

        class Recording(BestCheckpoint):
            def best(self):
                kept.append(self.models)
                return super().best()

        monkeypatch.setattr(harness, "BestCheckpoint", Recording)
        run_experiment(replace(FAST, protocol=protocol, split_kind=split_kind, n_clients=5))
        (snapshot,) = kept
        vectors = [vec for pair in snapshot.values() for vec in pair if vec is not None]
        assert len({id(vec) for vec in vectors}) == n_vectors
        if protocol != "fl":
            assert len({id(body) for _, body in snapshot.values()}) == 1

    def test_snapshot_shares_only_bit_equal_vectors(self):
        # the replicas start bit-equal; a bias of replica 1 becomes -0.0,
        # equal in value to the others' 0.0 but not in bits
        cfg = replace(FAST, protocol="sfv1", n_clients=3)
        datasets = datagen.generate_clients(datagen.desk_manifest(3), seed=0)
        clients, server = make_clients(datasets, nn.init_model(list(cfg.widths), 0),
                                       cfg.protocol, cfg.split_config(), cfg.lr)
        server.bodies[1].layers[0].bias[0] = -0.0
        snapshot = harness._snapshot(clients, server)
        bodies = [snapshot[cid][1] for cid in range(3)]
        assert bodies[0] is bodies[2] is not bodies[1]
        assert bodies[1].tobytes() == server.bodies[1].flat.tobytes() != bodies[0].tobytes()
        assert len({id(flat) for flat, _ in snapshot.values()}) == 1
        for cid in range(3):
            assert not np.shares_memory(bodies[cid], server.bodies[cid].flat)
            assert not np.shares_memory(snapshot[cid][0], clients[cid].flat)

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

    @pytest.mark.parametrize("probe", [0, 3])
    def test_client_count_sweep_rows_are_probe_pairs(self, probe):
        # probe 3 is beyond the smallest setting's client count
        cfg = replace(FAST, epochs=1, n_clients=5, probe=probe, sweep_sizes=(2, 3, 4, 5))
        datasets = harness.load_or_generate(cfg)
        table = sweep_client_count(cfg, datasets)
        assert [r.key for r in table.rows] == [f"{n} client setting" for n in cfg.sweep_sizes]
        others = [cid for cid in range(5) if cid != probe]
        for n, row in zip(cfg.sweep_sizes, table.rows):
            subset = [ds for ds in datasets if ds.client_id in [probe] + others[:n - 1]]
            pair = run_probe_pair(replace(cfg, n_clients=n), probe, subset)
            assert (row.first, row.last) == (pair.first, pair.last)

    def test_sweep_size_exceeding_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_client_count(replace(FAST, sweep_sizes=(2, 3)))


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


class TestSweepStore:
    """A sweep's runs share one SweepStore; every table cell and every
    run's result must be what a standalone run gives."""

    @pytest.mark.parametrize("split_kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_shared_sweeps_equal_standalone_runs(self, monkeypatch, protocol, split_kind):
        cfg = replace(FAST, protocol=protocol, split_kind=split_kind, n_clients=4, probe=1,
                      batch_size=16, sweep_sizes=(2, 3, 4))
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
        cfg = replace(FAST, protocol=protocol, n_clients=4, sweep_sizes=(2, 3, 4))
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

    def test_bias_sweeps_train_shared_turns_once(self, monkeypatch):
        # batch 4 gives 46/95/29/22/28 batches per client and epoch, two
        # Adam steps per batch; standalone runs take 8,800 and 5,784 steps
        bias = config_from(parse_config_file(BIAS_CFG), {})
        assert self._count_steps(monkeypatch, sweep_order, bias) == 7016
        assert self._count_steps(monkeypatch, sweep_client_count, bias) == 4048

    @pytest.mark.parametrize("protocol", ["fl", "sfv1", "sfv3"])
    def test_order_sweep_is_one_training_where_order_is_inert(self, monkeypatch, protocol):
        cfg = replace(config_from(parse_config_file(BIAS_CFG), {}), protocol=protocol)
        one_run = self._count_steps(monkeypatch, run_experiment, cfg)
        assert self._count_steps(monkeypatch, sweep_order, cfg) == one_run
        row = run_probe_pair(cfg, probe=2)
        assert row.first == row.last and metrics.percent_drop(row.first.kappa,
                                                              row.last.kappa) == 0.0

    def test_store_keeps_only_what_a_later_run_restores(self):
        cfg = replace(FAST, n_clients=4)
        datasets = harness.load_or_generate(cfg)
        runs = [c for p in range(4) for c in harness._probe_pair(cfg, p, datasets)]
        assert [c.order for c in runs[-2:]] == [(3, 0, 1, 2), (0, 1, 2, 3)]
        store = harness.SweepStore(runs)
        (turns,) = store.turns.values()
        # (1, 0, 2, 3) restores (1,), (0, 2, 3, 1) restores (0,), (0, 1, 3, 2)
        # restores (0, 1); the last run equals the first
        assert dict(turns.uses) == {(1,): 1, (0,): 1, (0, 1): 1}
        live = []
        for run in runs:
            run_experiment(run, datasets, store=store)
            live.append(sorted(turns.states))
        assert live[:2] == [[(0,), (0, 1)], [(0,), (0, 1), (1,)]]
        assert live[-1] == [] and store.results == {}
        with pytest.raises(ValueError):
            run_experiment(runs[0], datasets, keep_bus=True, store=store)


def _cpus(monkeypatch, n: int) -> None:
    """Make the sweeps see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pool_sizes(monkeypatch) -> list:
    """Spy on the process pools the sweeps make; returns the list of their
    worker counts. Each must fork its workers."""
    original, sizes = concurrent.futures.ProcessPoolExecutor, []

    def spied(max_workers, mp_context, *args, **kwargs):
        assert mp_context.get_start_method() == "fork"
        sizes.append(max_workers)
        return original(max_workers, mp_context, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spied)
    return sizes


class Injected(RuntimeError):
    pass


class AlsoInjected(RuntimeError):
    pass


class TestParallelSweeps:
    """A sweep's groups train ahead in forked workers; every call, table
    cell and error is what the in-process path gives."""

    CFG = replace(FAST, n_clients=4, probe=1, batch_size=16, sweep_sizes=(2, 3, 4))

    @pytest.mark.parametrize("split_kind", [VANILLA, U_SHAPED])
    @pytest.mark.parametrize("protocol", ["sl", "sfv2"])
    def test_workers_equal_the_in_process_path(self, monkeypatch, protocol, split_kind):
        cfg = replace(self.CFG, protocol=protocol, split_kind=split_kind)
        datasets = harness.load_or_generate(cfg)
        for sweep in (sweep_order, sweep_client_count):
            outputs = []
            for cpus in (1, 2):
                _cpus(monkeypatch, cpus)
                pools = _pool_sizes(monkeypatch)
                calls = _recording_runs(monkeypatch)
                table = sweep(cfg, datasets)
                monkeypatch.undo()
                assert pools == ([] if cpus == 1 else [2])
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

        def failing_round(clients, server, plan, *args, **kwargs):
            if plan.order in failing:
                raise failing[plan.order](plan.order)
            return original(clients, server, plan, *args, **kwargs)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "run_round", failing_round)  # the workers inherit it
        pools = _pool_sizes(monkeypatch)
        calls = _recording_runs(monkeypatch)
        with pytest.raises(failing[first]) as raised:
            sweep_order(self.CFG)
        assert pools == [2] and raised.value.args == (first,)
        assert [args[0].order for args, _, _ in calls] == calls_in_order[:calls_in_order.index(first)]

    def test_a_killed_worker_leaves_its_group_to_the_calls(self, monkeypatch):
        _cpus(monkeypatch, 1)
        alone = sweep_order(self.CFG)
        monkeypatch.undo()
        parent, original = os.getpid(), harness.run_round

        def dies_in_a_worker(clients, server, plan, *args, **kwargs):
            if plan.order == (1, 0, 2, 3) and os.getpid() != parent:
                os._exit(9)  # as a worker the kernel kills ends
            return original(clients, server, plan, *args, **kwargs)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "run_round", dies_in_a_worker)
        pools = _pool_sizes(monkeypatch)
        assert sweep_order(self.CFG) == alone and pools == [2]

    @pytest.mark.parametrize("cpus, protocol, sweep, workers", [
        (8, "sl", sweep_client_count, [2]),   # groups: probe first, probe last
        (3, "sl", sweep_order, [3]),          # 4 groups, one per first client
        (2, "sfv2", sweep_order, [2]),
        (1, "sl", sweep_order, []),           # in-process
        (2, "fl", sweep_order, []),           # one group: the order is inert
        (2, "sfv1", sweep_client_count, []),
    ])
    def test_pool_has_at_most_one_worker_per_cpu_and_group(self, monkeypatch, cpus, protocol,
                                                           sweep, workers):
        _cpus(monkeypatch, cpus)
        pools = _pool_sizes(monkeypatch)
        sweep(replace(self.CFG, protocol=protocol))
        assert pools == workers

    def test_probe_pair_alone_trains_each_run_in_a_worker(self, monkeypatch):
        _cpus(monkeypatch, 4)
        pools = _pool_sizes(monkeypatch)
        row = run_probe_pair(self.CFG, probe=2)
        monkeypatch.undo()
        assert pools == [2]
        _cpus(monkeypatch, 1)
        assert run_probe_pair(self.CFG, probe=2) == row

    def test_a_sweep_in_another_pool_s_worker_runs_in_process(self, monkeypatch):
        # a daemonic process may not start workers of its own
        _cpus(monkeypatch, 2)
        pools = _pool_sizes(monkeypatch)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            (table,) = pool.map(sweep_order, [self.CFG])
        assert table == sweep_order(self.CFG) and pools == [2]

    def test_single_runs_do_not_import_multiprocessing(self):
        code = ("import sys\n"
                "from splitsim import cli, harness\n"
                "harness.run_experiment(harness.ExperimentConfig(epochs=1))\n"
                "sys.exit('multiprocessing' in sys.modules)\n")
        src = pathlib.Path(harness.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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

    def test_sweep_clients_probe_beyond_smallest_size(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("protocol = sl\nepochs = 1\nlr = 0.001\nsweep_sizes = 2,4\n")
        out = tmp_path / "out"
        assert cli.main(["sweep-clients", "--config", str(cfg), "--probe", "3",
                         "--out", str(out)]) == 0

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
    def test_sweep_that_raises_leaves_its_manifest(self, tmp_path, command, name):
        # the bias fixture's seed 7: probe 0 scores 0 when trained last,
        # so the table's percent drop raises
        argv = [command, "--config", str(BIAS_CFG), "--seed", "7", "--probe", "0"]
        assert cli.main(argv + ["--out", str(tmp_path / "A")]) == 2
        manifest = tmp_path / "A" / f"{name}.manifest.txt"
        assert not (tmp_path / "A" / f"{name}.csv").exists()
        assert config_from(parse_config_file(manifest), {}).seed == 7
        assert cli.main([command, "--config", str(manifest), "--probe", "0",
                         "--out", str(tmp_path / "B")]) == 2
        assert (tmp_path / "B" / f"{name}.manifest.txt").read_text() == manifest.read_text()

    def test_sweep_prints_the_table_it_writes(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        capsys.readouterr()
        assert cli.main(["sweep-order", "--config", str(cfg), "--epochs", "1",
                         "--out", str(tmp_path / "out")]) == 0
        table = (tmp_path / "out" / "order_sweep_seed0.csv").read_text()
        assert capsys.readouterr().out == table

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

    @pytest.mark.parametrize("line", [
        "lr = -1", "lr = 0", "lr = nan", "lr = inf",
        "sensitivity = 1.5", "sensitivity = -0.1",
        "batch_size = 0",
        "widths = 8", "widths = 8,16,2",
        "front_cut = 0", "tail_cut = 5", "front_cut = 3\ntail_cut = 2",
        "split_kind = vanilla\nwidths = 8,16,1\nfront_cut = 3",
        "feature_dim = 1\nwidths = 1,16,16,16,8,1", "widths = 8,0,16,16,8,1",
        "shift_scale = -0.5", "shift_scale = nan", "shift_scale = inf",
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

    def test_dataset_feature_width_mismatch_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data" / "clients.sds"
        assert cli.main(["gen-data", "--out", str(data.parent)]) == 0
        cfg = self._write_cfg(tmp_path, f"dataset_path = {data}\n"
                                        "feature_dim = 4\nwidths = 4,8,8,8,8,1\n")
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
        a, b = tmp_path / "A", tmp_path / "B"
        assert cli.main(["run", "--protocol", protocol, "--split", split,
                         "--epochs", "2", "--out", str(a)]) == 0
        assert cli.main(["run", "--config", str(a / "result.manifest.txt"),
                         "--out", str(b)]) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
        assert (a / "result.manifest.txt").read_text() == (b / "result.manifest.txt").read_text()

    def test_sweep_manifest_reruns_identical(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        a, b = tmp_path / "A", tmp_path / "B"
        assert cli.main(["sweep-order", "--config", str(cfg), "--epochs", "1",
                         "--seed", "3", "--out", str(a)]) == 0
        assert cli.main(["sweep-order", "--config", str(a / "order_sweep_seed3.manifest.txt"),
                         "--out", str(b)]) == 0
        for name in ("order_sweep_seed3.csv", "order_sweep_seed3.manifest.txt"):
            assert (a / name).read_text() == (b / name).read_text()


def _letters():
    return st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)


@st.composite
def valid_configs(draw):
    """Configs that validate, over every field; dataset_path is drawn from
    the text a config file can hold (no '#', line break or surrounding
    blank)."""
    feature_dim = draw(st.integers(2, 16))
    widths = (feature_dim, *draw(st.lists(st.integers(1, 64), min_size=1, max_size=5)), 1)
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
        n_clients=n_clients, feature_dim=feature_dim,
        shift_scale=draw(st.floats(0, 1e3)),
        eval_count=draw(st.integers(6, 10**6)),
        probe=draw(st.integers(0, n_clients - 1)),
        sensitivity=draw(st.floats(0, 1)),
        order=draw(st.none() | st.permutations(range(n_clients)).map(tuple)),
        sweep_sizes=tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))),
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

    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_malformed_value_exits_1(self, tmp_path_factory, key, data):
        tmp = tmp_path_factory.mktemp("malformed")
        hint = typing.get_type_hints(ExperimentConfig)[key]
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
                               front_cut=1, tail_cut=2, feature_dim=2, epochs=1,
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
        "feature_dim": st.sampled_from([1, 0, -1]),
        "hidden": st.lists(st.integers(-1, 3), min_size=1, max_size=3).filter(
            lambda h: min(h) < 1),
        "shift_scale": st.sampled_from([-0.5, -1e-300, float("nan"), float("inf")]),
        "sweep_sizes": st.sampled_from([(), (0,), (2, -1)]),
        "seed": st.integers(-3, -1),
    }

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_config_runs_or_exits_1(self, tmp_path_factory, data):
        """A valid config, or one with one of the GAPS fields out of range.
        `run` computes no percent drop, so the sweeps' degenerate-kappa
        MetricError is outside this property."""
        draw = data.draw
        values = {"feature_dim": draw(st.integers(2, 3)),
                  "hidden": draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)),
                  "shift_scale": draw(st.sampled_from([0.0, 0.75])),
                  "eval_count": draw(st.sampled_from([6, 50])),
                  "sweep_sizes": tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))),
                  "seed": draw(st.integers(0, 2))}
        gap = draw(st.sampled_from([None, *sorted(self.GAPS)]))
        if gap is not None:
            values[gap] = draw(self.GAPS[gap])
        hidden = values.pop("hidden")
        n_clients = draw(st.integers(1, 5))
        cfg = ExperimentConfig(
            protocol=draw(st.sampled_from(PROTOCOLS)),
            split_kind=draw(st.sampled_from([VANILLA, U_SHAPED])),
            widths=(values["feature_dim"], *hidden, 1), front_cut=1, tail_cut=len(hidden),
            epochs=draw(st.integers(1, 2)), batch_size=draw(st.sampled_from([8, 64])),
            lr=3e-3, n_clients=n_clients, probe=draw(st.integers(0, n_clients - 1)), **values)
        tmp = tmp_path_factory.mktemp("drawn")
        path = tmp / "exp.cfg"
        path.write_text(render_manifest(cfg))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp / "out")]) in (0, 1)
