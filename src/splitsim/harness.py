"""Experiment runner and report generation.

An ExperimentConfig fully determines a run: (config, seed) -> byte
identical reports. Sweeps re-run the same config with the probe client
placed first vs last in the round order and tabulate the percent drop
of each metric, plus a client-count sweep for the bias-vs-n trend.
"""

from __future__ import annotations

import json
import math
import os
import time
import typing
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, datagen, metrics, nn
from .datagen import ClientDataset, desk_manifest, generate_clients
from .model_split import U_SHAPED, VANILLA, ConfigError, SplitConfig
from .nn import SequentialModel, forward, init_model
from .protocols import (PROTOCOLS, SL, SPECS, PlanError, RoundPlan, ServerState, TurnStates,
                        make_clients, run_round)
from .protocols import composed_model  # noqa: F401 - the benchmark's tracer wraps it here
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
    eval_count: int = datagen.DESK_EVAL_COUNT  # val and test samples per client
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
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError("lr must be finite and > 0")
        if not (0 <= self.sensitivity <= 1):
            raise ConfigurationError("sensitivity must be in [0, 1]")
        if len(self.widths) < 2 or self.widths[-1] != 1 or min(self.widths) < 1:
            raise ConfigurationError("widths need an input width, end in 1 and are all >= 1")
        if self.feature_dim < 2:
            raise ConfigurationError("feature_dim must be >= 2 (clients differ by a rotation)")
        if self.widths[0] != self.feature_dim:
            raise ConfigurationError("first width must equal feature_dim")
        if not (math.isfinite(self.shift_scale) and self.shift_scale >= 0):
            raise ConfigurationError("shift_scale must be finite and >= 0")
        # not bounded by n_clients: sweep_client_count validates each
        # setting's sub-config, whose n_clients is that setting's size
        if not self.sweep_sizes or min(self.sweep_sizes) < 1:
            raise ConfigurationError("sweep_sizes must be non-empty, each >= 1")
        if self.dataset_path is None:
            # the generated cohort's client count and eval splits
            try:
                desk_manifest(self.n_clients, self.eval_count)
            except datagen.ManifestError as exc:
                raise ConfigurationError(str(exc)) from None
        if self.probe not in (self.order or range(self.n_clients)):
            raise ConfigurationError("probe client is not a participating client")
        split_cfg = self.split_config()
        if split_cfg is not None:
            try:
                split_cfg.validate(len(self.widths) - 1)
            except ConfigError as exc:
                raise ConfigurationError(str(exc)) from exc

    def split_config(self) -> SplitConfig | None:
        if not SPECS[self.protocol].split:
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


def _parts(front: SequentialModel, body: SequentialModel | None,
           tail: SequentialModel) -> tuple[SequentialModel, ...]:
    """A client's model as the segments an input runs through: front,
    body (if any), tail (if not empty)."""
    return tuple(part for part in (front, body, tail) if part is not None and part.layers)


def _forward_parts(parts, x: np.ndarray) -> np.ndarray:
    """x through each segment in turn; bit-identical to a forward pass
    through the composed model, because the per-layer operation sequence
    is the same."""
    for part in parts:
        x, _ = forward(part, x)
    return x


def _live_validation(clients, server: ServerState,
                     datasets: dict[int, ClientDataset]) -> tuple[float, dict[int, np.ndarray]]:
    """Mean validation loss over clients, straight from the live models,
    and each client's validation probabilities."""
    losses, val_probs = [], {}
    for cid in sorted(clients):
        client = clients[cid]
        val_probs[cid] = _forward_parts(_parts(client.front, server.bodies.get(cid), client.tail),
                                        datasets[cid].val_x)
        loss, _ = nn.bce_loss(val_probs[cid], datasets[cid].val_y)
        losses.append(loss)
    return float(np.mean(losses)), val_probs


def _snapshot(clients, server: ServerState) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """Copies of each client's parameter vectors: its packed `[front |
    tail]` vector, and its body's (None without a body). One copy is made
    per distinct vector: a vector that is the same object as one already
    copied (the shared SL/SFv2 body), or bit-equal to it (averaged
    replicas and segments), shares that copy. Bits, not values, are
    compared: -0.0 and 0.0 are equal values."""
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (live vector, its copy)

    def copy_of(vec: np.ndarray) -> np.ndarray:
        for live, copy in kept:
            if live is vec or (live.shape == vec.shape
                               and np.array_equal(live.view(np.int64), vec.view(np.int64))):
                return copy
        kept.append((vec, vec.copy()))
        return kept[-1][1]

    return {cid: (copy_of(clients[cid].flat),
                  None if cid not in server.bodies else copy_of(server.bodies[cid].flat))
            for cid in sorted(clients)}


def _snapshot_parts(client, body: SequentialModel | None, vectors) -> tuple[SequentialModel, ...]:
    """The client's segments over a snapshot's copies of its vectors."""
    flat, body_flat = vectors
    n_front = client.front.flat.size  # ClientState.flat is [front | tail]
    return _parts(SequentialModel(client.front.layers, flat[:n_front]),
                  None if body is None else SequentialModel(body.layers, body_flat),
                  SequentialModel(client.tail.layers, flat[n_front:]))


def load_or_generate(config: ExperimentConfig) -> list[ClientDataset]:
    if config.dataset_path:
        datasets = datagen.load_clients(config.dataset_path)
        if len(datasets) < config.n_clients:
            raise ConfigurationError("dataset file has too few clients")
        width = datasets[0].train_x.shape[1]
        if width != config.feature_dim:
            raise ConfigurationError(f"dataset file has {width} features, "
                                     f"config feature_dim is {config.feature_dim}")
        return datasets[:config.n_clients]
    manifest = desk_manifest(config.n_clients, config.eval_count)
    return generate_clients(manifest, d=config.feature_dim,
                            shift_scale=config.shift_scale, seed=config.seed)


def _run_key(config: ExperimentConfig, order) -> tuple[ExperimentConfig, tuple[int, ...]]:
    """What a run's training depends on besides its clients' data: the
    config without its order, probe and client count, and the order the
    clients actually train in (the plan order against a shared body,
    else ascending ids, where the order is inert)."""
    order = tuple(order) if SPECS[config.protocol].shared_body else tuple(sorted(order))
    return replace(config, order=None, probe=0, n_clients=0), order


def _common_prefix(a: tuple, b: tuple) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class SweepStore:
    """The work the runs of one sweep share, done once. A sweep builds one
    from the configs of the runs it will make, in their order, passes it
    to each of them, and drops it when it returns. Each run still returns
    its own result; the runs share the same clients' data.

    - Whole results of runs known to be equal: the same `_run_key`. A
      later equal run returns the stored result under its own config.
    - Round-0 prefix states (SL, SFv2): all runs start from the same
      model, so runs whose orders start alike train the same first
      turns. A run restores the longest stored state that starts its
      order (`protocols.TurnStates`) and trains only the rest.

    Only what a later run will use is kept, and each item is dropped
    after its last use."""

    def __init__(self, runs: list[ExperimentConfig]):
        keys = [_run_key(cfg, cfg.order) for cfg in runs]
        self.pending = Counter(keys)  # runs still to come, per key
        self.results: dict[tuple, RunResult] = {}
        self.turns: dict[ExperimentConfig, TurnStates] = {}
        trained: dict[ExperimentConfig, list[tuple[int, ...]]] = {}
        for base, order in dict.fromkeys(keys):  # the runs that train, in order
            if not SPECS[base.protocol].shared_body:
                continue
            earlier = trained.setdefault(base, [])
            k = max((_common_prefix(order, o) for o in earlier), default=0)
            if k:
                self.turns.setdefault(base, TurnStates()).uses[order[:k]] += 1
            earlier.append(order)

    def take_result(self, key) -> RunResult | None:
        """Count a run of `key` as made; the stored result of an equal
        earlier run, if any."""
        self.pending[key] -= 1
        if self.pending[key] > 0:
            return self.results.get(key)
        return self.results.pop(key, None)

    def keep_result(self, key, result: RunResult) -> None:
        if self.pending[key] > 0:
            self.results[key] = result


# --- training a sweep's groups ahead, in forked workers ----------------------

_worker_groups: list = []  # in a forked worker: the groups of the sweep that forked it


def _adopt_groups(groups: list) -> None:
    global _worker_groups
    _worker_groups = groups


def _train_group(index: int) -> list[RunResult]:
    """Train one group's runs in order, in a worker, sharing their round-0
    prefixes through a store of the group's own."""
    group = _worker_groups[index]
    store = SweepStore([cfg for cfg, _ in group])
    return [run_experiment(cfg, datasets, store=store) for cfg, datasets in group]


def _sweep_store(runs) -> SweepStore:
    """The `SweepStore` of a sweep's runs, `[(config, datasets)]` in call
    order, holding their results trained ahead in up to one forked worker
    per usable CPU: each call is then a stored-result hit, as an equal
    run's is, and returns the same result.

    The runs are split into groups that share no work: by the first client
    of the order they train in. Equal runs and runs that share a round-0
    prefix start with the same client, so no sharing is lost. Each group's
    distinct runs train in one worker, handed out in call order as workers
    come free. That order starts with the costliest group: the group of an
    order sweep's first run holds one distinct run per client but one, the
    others one or two, and a client-count sweep's two groups cost the same.
    With one usable CPU or one group, or in a daemonic process (another
    pool's worker), nothing is trained ahead, and the calls train
    in-process.

    A group whose worker raised or died is left to the calls: they train
    it in-process, so the sweep raises the error of its first failing run
    in call order."""
    store = SweepStore([cfg for cfg, _ in runs])
    groups: dict[tuple, dict[tuple, tuple]] = {}
    for cfg, datasets in runs:
        key = _run_key(cfg, cfg.order)
        groups.setdefault((key[0], key[1][0]), {}).setdefault(key, (cfg, datasets))
    groups = [list(group.values()) for group in groups.values()]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(groups))
    if workers < 2:
        return store
    # imported here, not at the top: about 1 MB of RSS a single run never needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if multiprocessing.current_process().daemon:  # a pool's worker may not start processes
        return store
    # fork hands the workers the datasets without pickling them; named, as it
    # is not the default everywhere (forkserver from Python 3.14). Unlike
    # multiprocessing.Pool, the executor fails a task whose worker was killed
    # instead of waiting for it forever.
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_adopt_groups, initargs=(groups,)) as pool:
        futures = [pool.submit(_train_group, i) for i in range(len(groups))]
    for group, future in zip(groups, futures):
        if future.exception() is None:
            for (cfg, _), result in zip(group, future.result()):
                store.results[_run_key(cfg, cfg.order)] = result
    return store


def run_experiment(config: ExperimentConfig,
                   datasets: list[ClientDataset] | None = None,
                   keep_bus: bool = False, store: SweepStore | None = None) -> RunResult:
    """Train for config.epochs global epochs, checkpoint on least mean
    validation loss, and evaluate each client's test split with its own
    model from the selected epoch, run through its segments in turn.

    Each epoch is scored on the live models; only the best epoch's
    parameter vectors and validation probabilities are kept, one copy of
    each distinct vector. Ties go to the earliest epoch, and a non-finite
    loss raises DivergenceError.

    `store` is the sweep's shared work (`SweepStore`); the result is the
    same with it or without it. It cannot be combined with `keep_bus`."""
    config.validate()
    start = time.perf_counter()
    if datasets is None:
        datasets = load_or_generate(config)
    datasets = datasets[:config.n_clients]
    ds_by_id = {ds.client_id: ds for ds in datasets}
    order = config.order or tuple(sorted(ds_by_id))
    if sorted(order) != sorted(ds_by_id):
        raise ConfigurationError("order is not a permutation of the clients")
    turns = None
    if store is not None:
        if keep_bus:
            raise ValueError("a run that shares a sweep's work cannot keep its bus")
        key = _run_key(config, order)
        known = store.take_result(key)
        if known is not None:
            return replace(known, config=replace(config, order=tuple(order)),
                           per_client=dict(known.per_client),
                           val_losses=list(known.val_losses),
                           duration=time.perf_counter() - start)
        turns = store.turns.get(key[0])

    # the initial model is freed once make_clients has copied it: held for
    # the run, it took a fresh wide-body process's first sl run from 2.9 k
    # to about 16 k minor page faults
    clients, server = make_clients(datasets, init_model(list(config.widths), config.seed),
                                   config.protocol, config.split_config(), config.lr)
    bus = ChannelBus(record=keep_bus)

    checkpoint = BestCheckpoint()
    for epoch in range(config.epochs):
        plan = RoundPlan(config.protocol, tuple(order), epoch)
        run_round(clients, server, plan, bus, config.split_kind, config.batch_size,
                  turns=turns if epoch == 0 else None)
        loss, val_probs = _live_validation(clients, server, ds_by_id)
        checkpoint.offer(loss, lambda: _snapshot(clients, server))
        if checkpoint.epoch == epoch:
            best_val_probs = val_probs

    best_epoch, best = checkpoint.best()
    per_client = {}
    for cid in sorted(clients):
        ds = ds_by_id[cid]
        parts = _snapshot_parts(clients[cid], server.bodies.get(cid), best[cid])
        test_probs = _forward_parts(parts, ds.test_x)
        per_client[cid] = metrics.evaluate(test_probs[:, 0], ds.test_y,
                                           best_val_probs[cid][:, 0], ds.val_y,
                                           config.sensitivity)

    result = RunResult(
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
    if store is not None:
        store.keep_result(key, result)
    return result


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


def _probe_pair(config: ExperimentConfig, probe: int, datasets) -> tuple[ExperimentConfig, ...]:
    """The configs of the probe-first and probe-last runs, the others in
    ascending id. The clients are the first config.n_clients datasets, or
    ids 0..n_clients-1 when none are given."""
    client_ids = (range(config.n_clients) if datasets is None
                  else [ds.client_id for ds in datasets[:config.n_clients]])
    rest = tuple(cid for cid in sorted(client_ids) if cid != probe)
    return (replace(config, order=(probe, *rest), probe=probe),
            replace(config, order=(*rest, probe), probe=probe))


def run_probe_pair(config: ExperimentConfig, probe: int,
                   datasets=None, store: SweepStore | None = None) -> ReportRow:
    """Run the config twice, probe placed first then last; report the
    probe client's metrics from each. The two runs share their work
    through `store` (the calling sweep's, or one of their own): under FL,
    SFv1 and SFv3, where the order is inert, they are one training."""
    if store is None and datasets is None:  # generated once, for both runs
        config.validate()
        datasets = load_or_generate(config)
    runs = _probe_pair(config, probe, datasets)
    if store is None:
        store = _sweep_store([(cfg, datasets) for cfg in runs])
    first, last = (run_experiment(cfg, datasets, store=store).per_client[probe]
                   for cfg in runs)
    return ReportRow(key=f"client{probe}", first=first, last=last)


def sweep_order(config: ExperimentConfig, datasets=None,
                probe_only: bool = False) -> ReportTable:
    """Probe-first vs probe-last for each client (or just config.probe).
    The runs share one `SweepStore`."""
    config.validate()
    if config.n_clients < 2:
        raise ConfigurationError("order sweep needs at least 2 clients")
    if datasets is None:
        datasets = load_or_generate(config)
    probes = [config.probe] if probe_only else list(range(config.n_clients))
    store = _sweep_store([(cfg, datasets) for p in probes
                          for cfg in _probe_pair(config, p, datasets)])
    return ReportTable([run_probe_pair(config, p, datasets, store) for p in probes])


def sweep_client_count(config: ExperimentConfig, datasets=None) -> ReportTable:
    """Probe-first vs probe-last at each client-count setting; clients
    beyond the probe are added incrementally in ascending id order. The
    runs share one `SweepStore`: a setting's first turns are the smaller
    settings' turns."""
    config.validate()
    if max(config.sweep_sizes) > config.n_clients:
        raise ConfigurationError("sweep size exceeds available clients")
    if datasets is None:
        datasets = load_or_generate(config)
    others = [cid for cid in range(config.n_clients) if cid != config.probe]
    settings = []
    for n in config.sweep_sizes:
        participating = sorted([config.probe] + others[:n - 1])
        settings.append((n, replace(config, n_clients=n),
                         [ds for ds in datasets if ds.client_id in participating]))
    store = _sweep_store([(cfg, subset) for _, sub_cfg, subset in settings
                          for cfg in _probe_pair(sub_cfg, config.probe, subset)])
    return ReportTable([
        replace(run_probe_pair(sub_cfg, config.probe, subset, store), key=f"{n} client setting")
        for n, sub_cfg, subset in settings])


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


def emit_report(table: ReportTable, out_dir, config: ExperimentConfig,
                name: str = "report") -> list:
    """Write the config's manifest, then the CSV table; returns the paths.
    The manifest goes first, so a table that cannot be rendered still
    leaves the config to rerun it from."""
    import pathlib
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{name}.csv", out / f"{name}.manifest.txt"]
    paths[1].write_text(render_manifest(config))
    paths[0].write_text(render_table(table))
    return paths


# --- flat key-value config files ------------------------------------------

def render_manifest(config: ExperimentConfig) -> str:
    """The config as a config file that `parse_config_file` reads back to
    the same config; None fields are left out (they take their default).
    A str value with '#', a line break or surrounding blanks cannot be held."""
    lines = [f"# splitsim {__version__}"]
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment. Each key is an
    ExperimentConfig field, and its value is parsed as the field's type;
    a bad key or value raises ConfigurationError naming `path:line`."""
    values = {}
    hints = typing.get_type_hints(ExperimentConfig)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in hints:
                raise ConfigurationError(f"{path}:{lineno}: bad key {key!r}")
            try:
                values[key] = _parse_as(hints[key], raw)
            except ValueError:
                raise ConfigurationError(f"{path}:{lineno}: bad {key} value {raw!r}") from None
    return values


def _parse_as(hint, raw: str):
    """Parse raw as a field type: int, float, str, a tuple of one of these
    (comma separated, empty for ()), or one of these | None."""
    if type(None) in typing.get_args(hint):
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        return tuple(map(typing.get_args(hint)[0], raw.split(","))) if raw else ()
    return hint(raw)


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
