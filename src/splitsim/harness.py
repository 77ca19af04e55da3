"""Experiment runner and report generation.

An ExperimentConfig fully determines a run: (config, seed) -> byte
identical reports. Sweeps re-run the same config with the probe client
placed first vs last in the round order and tabulate the percent drop
of each metric, plus a client-count sweep for the bias-vs-n trend.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import datagen, metrics, nn, protocols
from .datagen import ClientDataset, PartitionManifest, desk_manifest, generate_clients
from .model_split import U_SHAPED, VANILLA, ConfigError, SplitConfig
from .nn import forward, init_model
from .protocols import (FL, PROTOCOLS, SFV1, SFV2, SFV3, SL, PlanError,
                        RoundPlan, body_for_client, composed_model,
                        make_clients, run_round)
from .transport import ChannelBus, MsgType


class ConfigurationError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """Training diverged: an epoch's mean validation loss is not finite."""


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = SL
    split_kind: str = U_SHAPED
    widths: tuple[int, ...] = (8, 16, 16, 16, 8, 1)
    front_cut: int = 1
    tail_cut: int = 4          # ignored under vanilla (tail forced empty)
    epochs: int = 10
    seed: int = 0
    batch_size: int = 32
    lr: float = 1e-4
    n_clients: int = 5
    feature_dim: int = 8
    shift_scale: float = 0.6
    probe: int = 0
    sensitivity: float = metrics.DEFAULT_SENSITIVITY
    order: tuple[int, ...] | None = None      # None -> ascending client ids
    sweep_sizes: tuple[int, ...] = (2, 3, 4, 5)
    dataset_path: str | None = None

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.split_kind not in (VANILLA, U_SHAPED):
            raise ConfigurationError(f"unknown split kind {self.split_kind!r}")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError("lr must be finite and > 0")
        if not (0 <= self.sensitivity <= 1):
            raise ConfigurationError("sensitivity must be in [0, 1]")
        if len(self.widths) < 2 or self.widths[-1] != 1:
            raise ConfigurationError("widths need an input width and end in 1")
        if self.widths[0] != self.feature_dim:
            raise ConfigurationError("first width must equal feature_dim")
        if not (0 <= self.probe < self.n_clients):
            raise ConfigurationError("probe client not in range")
        split_cfg = self.split_config()
        if split_cfg is not None:
            try:
                split_cfg.validate(len(self.widths) - 1)
            except ConfigError as exc:
                raise ConfigurationError(str(exc)) from exc

    def split_config(self) -> SplitConfig | None:
        if self.protocol == FL:
            return None
        n_layers = len(self.widths) - 1
        if self.split_kind == VANILLA:
            return SplitConfig(VANILLA, self.front_cut, n_layers)
        return SplitConfig(U_SHAPED, self.front_cut, self.tail_cut)


@dataclass
class RunResult:
    config: ExperimentConfig
    per_client: dict[int, metrics.MetricReport]
    checkpoint_epoch: int
    val_losses: list[float]
    total_bytes: int
    param_blob_bytes: int
    labels_messages: int
    duration: float
    bus: ChannelBus | None = None

    def to_dict(self) -> dict:
        return {
            "protocol": self.config.protocol,
            "seed": self.config.seed,
            "order": list(self.config.order or range(self.config.n_clients)),
            "checkpoint_epoch": self.checkpoint_epoch,
            "val_losses": self.val_losses,
            "total_bytes": self.total_bytes,
            "param_blob_bytes": self.param_blob_bytes,
            "labels_messages": self.labels_messages,
            "per_client": {
                str(cid): {"auprc": r.auprc, "f1": r.f1, "kappa": r.kappa,
                           "threshold": r.threshold}
                for cid, r in sorted(self.per_client.items())
            },
        }

    def to_json(self) -> str:
        # duration deliberately excluded: serialization must be reproducible
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


class BestCheckpoint:
    """Running minimum of the per-epoch mean validation loss.

    Only the best epoch's models are kept: `offer` builds a snapshot only
    when the loss is strictly below the best so far, so ties keep the
    earliest epoch. A non-finite loss raises DivergenceError.

    The new snapshot is built before the old one is released. Releasing
    first saves one snapshot at the peak, but on the wide-body benchmark
    it left glibc's dynamic mmap threshold low, so a fresh process faulted
    in new pages for its training temporaries on every step (2.3x the page
    faults, +24% set-up time).
    """

    def __init__(self):
        self.losses: list[float] = []
        self.epoch: int | None = None
        self.models = None

    def offer(self, loss: float, snapshot) -> None:
        """Record the next epoch's loss; `snapshot()` builds its models."""
        epoch = len(self.losses)
        if not math.isfinite(loss):
            raise DivergenceError(f"epoch {epoch}: mean validation loss is {loss}")
        self.losses.append(loss)
        if self.epoch is None or loss < self.losses[self.epoch]:
            self.models = snapshot()
            self.epoch = epoch

    def best(self):
        """(epoch, models) of the least loss."""
        if self.epoch is None:
            raise PlanError("no epoch was scored")
        return self.epoch, self.models


def _mean_live_val_loss(protocol: str, clients, server, global_model,
                        datasets: dict[int, ClientDataset]) -> float:
    """Mean validation loss over clients, straight from the live models
    (front, body, tail in turn); bit-identical to a forward pass through
    each composed model, because the per-layer operation sequence is the
    same."""
    losses = []
    for cid in sorted(clients):
        parts = ([global_model] if protocol == FL else
                 [clients[cid].front, body_for_client(protocol, server, cid),
                  clients[cid].tail])
        a = datasets[cid].val_x
        for part in parts:
            a, _ = forward(part, a)
        loss, _ = nn.bce_loss(a, datasets[cid].val_y)
        losses.append(loss)
    return float(np.mean(losses))


def load_or_generate(config: ExperimentConfig) -> list[ClientDataset]:
    if config.dataset_path:
        datasets = datagen.load_clients(config.dataset_path)
        if len(datasets) < config.n_clients:
            raise ConfigurationError("dataset file has too few clients")
        return datasets[:config.n_clients]
    manifest = desk_manifest(config.n_clients)
    return generate_clients(manifest, d=config.feature_dim,
                            shift_scale=config.shift_scale, seed=config.seed)


def run_experiment(config: ExperimentConfig,
                   datasets: list[ClientDataset] | None = None,
                   keep_bus: bool = False) -> RunResult:
    """Train for config.epochs global epochs, checkpoint on least mean
    validation loss, and evaluate each client's test split with its own
    composed model from the selected epoch.

    Each epoch is scored on the live models; only the best epoch's
    composed models are kept. Ties go to the earliest epoch, and a
    non-finite loss raises DivergenceError."""
    config.validate()
    start = time.perf_counter()
    if datasets is None:
        datasets = load_or_generate(config)
    datasets = datasets[:config.n_clients]
    ds_by_id = {ds.client_id: ds for ds in datasets}
    order = config.order or tuple(sorted(ds_by_id))
    if sorted(order) != sorted(ds_by_id):
        raise ConfigurationError("order is not a permutation of the clients")

    model = init_model(list(config.widths), config.seed)
    split_cfg = config.split_config()
    clients, server = make_clients(datasets, model, split_cfg, config.lr)
    bus = ChannelBus()
    global_model = model.clone() if config.protocol == FL else None

    def snapshot():
        if config.protocol == FL:
            kept = global_model.clone()
            return {cid: kept for cid in sorted(clients)}
        return {cid: composed_model(clients[cid],
                                    body_for_client(config.protocol, server, cid))
                for cid in sorted(clients)}

    checkpoint = BestCheckpoint()
    for epoch in range(config.epochs):
        plan = RoundPlan(config.protocol, tuple(order), epoch)
        new_global = run_round(config.protocol, clients, server, global_model,
                               plan, bus, config.split_kind, config.batch_size)
        if new_global is not None:
            global_model = new_global
        checkpoint.offer(_mean_live_val_loss(config.protocol, clients, server,
                                             global_model, ds_by_id), snapshot)

    best_epoch, best = checkpoint.best()
    per_client = {}
    for cid in sorted(clients):
        model_c = best[cid]
        val_probs, _ = forward(model_c, ds_by_id[cid].val_x)
        test_probs, _ = forward(model_c, ds_by_id[cid].test_x)
        per_client[cid] = metrics.evaluate(
            test_probs[:, 0], ds_by_id[cid].test_y,
            val_probs[:, 0], ds_by_id[cid].val_y, config.sensitivity)

    return RunResult(
        config=replace(config, order=tuple(order)),
        per_client=per_client,
        checkpoint_epoch=best_epoch,
        val_losses=checkpoint.losses,
        total_bytes=bus.bytes_sent(),
        param_blob_bytes=bus.bytes_by_type(MsgType.PARAM_BLOB),
        labels_messages=bus.count_by_type(MsgType.LABELS),
        duration=time.perf_counter() - start,
        bus=bus if keep_bus else None,
    )


# --- sweeps ---------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    key: str
    first: metrics.MetricReport
    last: metrics.MetricReport

    def drops(self) -> dict[str, float]:
        return {name: metrics.percent_drop(getattr(self.first, name),
                                           getattr(self.last, name))
                for name in ("auprc", "f1", "kappa")}


@dataclass
class ReportTable:
    rows: list[ReportRow] = field(default_factory=list)


def _orders_for_probe(client_ids, probe: int):
    rest = tuple(cid for cid in sorted(client_ids) if cid != probe)
    return (probe, *rest), (*rest, probe)


def run_probe_pair(config: ExperimentConfig, probe: int,
                   datasets=None) -> ReportRow:
    """Run the config twice, probe placed first then last; report the
    probe client's metrics from each."""
    client_ids = range(config.n_clients)
    first_order, last_order = _orders_for_probe(client_ids, probe)
    res_first = run_experiment(replace(config, order=first_order, probe=probe), datasets)
    res_last = run_experiment(replace(config, order=last_order, probe=probe), datasets)
    return ReportRow(key=f"client{probe}",
                     first=res_first.per_client[probe],
                     last=res_last.per_client[probe])


def sweep_order(config: ExperimentConfig, datasets=None,
                probe_only: bool = False) -> ReportTable:
    """Probe-first vs probe-last for each client (or just config.probe)."""
    config.validate()
    if config.n_clients < 2:
        raise ConfigurationError("order sweep needs at least 2 clients")
    if datasets is None:
        datasets = load_or_generate(config)
    probes = [config.probe] if probe_only else list(range(config.n_clients))
    return ReportTable([run_probe_pair(config, p, datasets) for p in probes])


def sweep_client_count(config: ExperimentConfig, datasets=None) -> ReportTable:
    """Probe-first vs probe-last at each client-count setting; clients
    beyond the probe are added incrementally in ascending id order."""
    config.validate()
    if max(config.sweep_sizes) > config.n_clients:
        raise ConfigurationError("sweep size exceeds available clients")
    if datasets is None:
        datasets = load_or_generate(config)
    rows = []
    for n in config.sweep_sizes:
        others = [cid for cid in range(config.n_clients) if cid != config.probe]
        participating = sorted([config.probe] + others[:n - 1])
        subset = [ds for ds in datasets if ds.client_id in participating]
        sub_cfg = replace(config, n_clients=n)
        first_order = (config.probe, *[c for c in participating if c != config.probe])
        last_order = (*[c for c in participating if c != config.probe], config.probe)
        res_first = run_experiment(replace(sub_cfg, order=first_order), subset)
        res_last = run_experiment(replace(sub_cfg, order=last_order), subset)
        rows.append(ReportRow(key=f"{n} client setting",
                              first=res_first.per_client[config.probe],
                              last=res_last.per_client[config.probe]))
    return ReportTable(rows)


def trend_series(table: ReportTable, metric: str = "kappa") -> list[tuple[str, float]]:
    return [(row.key, row.drops()[metric]) for row in table.rows]


# --- reports --------------------------------------------------------------

REPORT_HEADER = ("row,auprc_first,auprc_last,auprc_drop,"
                 "f1_first,f1_last,f1_drop,kappa_first,kappa_last,kappa_drop")


def render_table(table: ReportTable) -> str:
    """CSV, scores at 4 decimals and drops at 2 (the table precision of
    the reference results)."""
    lines = [REPORT_HEADER]
    for row in table.rows:
        drops = row.drops()
        cells = [row.key]
        for name in ("auprc", "f1", "kappa"):
            cells.append(f"{getattr(row.first, name):.4f}")
            cells.append(f"{getattr(row.last, name):.4f}")
            cells.append(f"{drops[name]:.2f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_report(table: ReportTable, out_dir, name: str = "report",
                config: ExperimentConfig | None = None) -> list:
    """Write the CSV table plus a run manifest; returns the paths."""
    import pathlib
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    csv_path.write_text(render_table(table))
    paths = [csv_path]
    if config is not None:
        manifest_path = out / f"{name}.manifest.txt"
        manifest_path.write_text(render_manifest(config))
        paths.append(manifest_path)
    return paths


def render_manifest(config: ExperimentConfig) -> str:
    lines = [f"version = splitsim-0.1.0"]
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# --- flat key-value config files ------------------------------------------

_TUPLE_FIELDS = {"widths", "order", "sweep_sizes"}
_INT_FIELDS = {"front_cut", "tail_cut", "epochs", "seed", "batch_size",
               "n_clients", "feature_dim", "probe"}
_FLOAT_FIELDS = {"lr", "shift_scale", "sensitivity"}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    values = {}
    names = {f.name for f in fields(ExperimentConfig)}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in names:
                raise ConfigurationError(f"{path}:{lineno}: bad key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def _parse_value(key: str, raw: str):
    if key in _TUPLE_FIELDS:
        return tuple(int(v) for v in raw.split(",") if v.strip())
    if key in _INT_FIELDS:
        return int(raw)
    if key in _FLOAT_FIELDS:
        return float(raw)
    return raw


def config_from(file_values: dict, overrides: dict) -> ExperimentConfig:
    """File values first, CLI overrides on top."""
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc
    cfg.validate()
    return cfg
