"""Experiment runner and report generation.

An ExperimentConfig fully determines a run: (config, seed) -> byte
identical reports. Sweeps re-run the same config with the probe client
placed first vs last in the round order and tabulate the percent drop
of each metric, plus a client-count sweep for the bias-vs-n trend.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import pickle
import signal
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, datagen, metrics, nn
from .datagen import ClientDataset, desk_manifest, generate_clients
from .model_split import U_SHAPED, VANILLA
from .nn import forward, init_model
from .protocols import PROTOCOLS, SL, SPECS, PlanError, ServerState, make_clients, run_round
from .protocols import composed_model  # noqa: F401 - the benchmark's tracer wraps it here
from .transport import ChannelBus, MsgType


class ConfigurationError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """Training diverged: an epoch's mean validation loss is not finite."""


class SaturationError(DivergenceError):
    """Training saturated: in an epoch, every validation probability of
    every client sits at a clamp bound (`nn.PROB_CLAMP`)."""


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
    shift_scale: float = 0.6
    eval_count: int = datagen.DESK_EVAL_COUNT  # val and test samples per client
    probe: int = 0
    order: tuple[int, ...] | None = None      # None -> ascending client ids
    dataset_path: str | None = None

    @property
    def feature_dim(self) -> int:
        """The input width: each client's feature count."""
        return self.widths[0]

    @property
    def sweep_sizes(self) -> tuple[int, ...]:
        """The client-count sweep's settings: 2 to n_clients clients."""
        return tuple(range(2, self.n_clients + 1))

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
        if len(self.widths) < 2 or self.widths[-1] != 1 or min(self.widths) < 1:
            raise ConfigurationError("widths need an input width, end in 1 and are all >= 1")
        if self.feature_dim < 2:
            raise ConfigurationError("the first width (feature_dim) must be >= 2 "
                                     "(clients differ by a rotation)")
        if not (math.isfinite(self.shift_scale) and self.shift_scale >= 0):
            raise ConfigurationError("shift_scale must be finite and >= 0")
        if self.n_clients < 1:
            raise ConfigurationError("n_clients must be >= 1")
        if self.dataset_path is None:
            # the generated cohort's client count, eval splits and angles
            try:
                desk_manifest(self.n_clients, self.eval_count)
            except datagen.ManifestError as exc:
                raise ConfigurationError(str(exc)) from None
            if not math.isfinite((self.n_clients - 1) * self.shift_scale):
                raise ConfigurationError("shift_scale overflows the last client's angle")
        cuts = self.split_config()
        if cuts is not None:
            n_layers = len(self.widths) - 1
            if not (1 <= cuts[0] <= cuts[1] <= n_layers):
                raise ConfigurationError(f"cuts {cuts} invalid for {n_layers} layers")
            if self.split_kind == U_SHAPED and cuts[1] == n_layers:
                raise ConfigurationError("u_shaped split requires at least one tail layer")

    def split_config(self) -> tuple[int, int] | None:
        """The cuts `(front_cut, tail_cut)` of a split protocol
        (`model_split.split_model`); None under FL. Vanilla's tail is
        empty: its tail cut is the layer count."""
        if not SPECS[self.protocol].split:
            return None
        n_layers = len(self.widths) - 1
        return self.front_cut, n_layers if self.split_kind == VANILLA else self.tail_cut


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
            "order": list(self.config.order),
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


def _predict(clients, server: ServerState, datasets: dict[int, ClientDataset],
             split: str) -> dict[int, np.ndarray]:
    """Each client's probabilities on its `split` ("val" or "test")
    inputs, from its live front, body (if any) and tail (if not empty) in
    turn: bit-identical to a forward pass through the composed model, as
    the per-layer operation sequence is the same."""
    probs = {}
    for cid in sorted(clients):
        x = datasets[cid].split(split)[0]
        for part in (clients[cid].front, server.body, clients[cid].tail):
            if part is not None and part.layers:
                x, _ = forward(part, x)
        probs[cid] = x
    return probs


def _take(datasets: list[ClientDataset], n_clients: int, source: str) -> list[ClientDataset]:
    """The first n_clients of `datasets`; `source` names the datasets in
    the error."""
    if len(datasets) < n_clients:
        raise ConfigurationError(f"{source}: too few clients ({len(datasets)} for "
                                 f"n_clients {n_clients})")
    return datasets[:n_clients]


def _first_clients(datasets: list[ClientDataset], config: ExperimentConfig, source: str,
                   name: str) -> list[ClientDataset]:
    """`_take` of config.n_clients, for datasets whose first n_clients
    must be clients 0 to n_clients - 1, each with what training and
    scoring need of its splits. `source` names the datasets in an error
    about the whole list, `name` in one about a client's data."""
    datasets = _take(datasets, config.n_clients, source)
    ids = sorted(ds.client_id for ds in datasets)
    if ids != list(range(config.n_clients)):
        raise ConfigurationError(f"{source}: client ids {ids} are not 0..{config.n_clients - 1}")
    for ds in datasets:
        client = f"{name} client {ds.client_id}"
        for split in ("train", "val", "test"):
            x, y = ds.split(split)
            if x.shape[1:] != (config.feature_dim,):
                raise ConfigurationError(f"{name} has {x.shape[-1]} features, "
                                         f"config feature_dim is {config.feature_dim}")
            if not np.all((y == 0) | (y == 1)):
                raise ConfigurationError(f"{client} {split} split has a label not in {{0, 1}}")
            if not np.all(np.isfinite(x)):
                raise ConfigurationError(f"{client} {split} split has a non-finite feature")
        if not np.any(ds.val_y == 1):
            raise ConfigurationError(f"{client} val split has no positive")
        # not np.unique: its first call in a process added 1 MB to peak RSS
        if not (np.any(ds.test_y == 0) and np.any(ds.test_y == 1)):
            raise ConfigurationError(f"{client} test split does not hold both classes")
    return datasets


def load_or_generate(config: ExperimentConfig) -> list[ClientDataset]:
    if config.dataset_path:
        return _first_clients(datagen.load_clients(config.dataset_path), config,
                              f"dataset file {config.dataset_path}", "dataset file")
    manifest = desk_manifest(config.n_clients, config.eval_count)
    return generate_clients(manifest, d=config.feature_dim,
                            shift_scale=config.shift_scale, seed=config.seed)


def _run_key(config: ExperimentConfig, order) -> tuple[ExperimentConfig, tuple[int, ...]]:
    """What a run's training depends on besides its clients' data: the
    config without its order, probe and client count, and the order the
    clients really train in (`ProtocolSpec.training_order`)."""
    return (replace(config, order=None, probe=0, n_clients=0),
            SPECS[config.protocol].training_order(order))


def run_experiment(config: ExperimentConfig,
                   datasets: list[ClientDataset] | None = None,
                   keep_bus: bool = False, store: dict | None = None) -> RunResult:
    """Train for config.epochs global epochs and evaluate each client's
    test split with its own model from the checkpoint epoch, run through
    its segments in turn. `_checkpoint` picks that epoch and raises
    DivergenceError or SaturationError.

    `store` holds a sweep's results trained ahead (`_train_ahead`), by
    `_run_key`. A run found there returns that result under its own
    config, which is what training it gives; a run that keeps its bus,
    or is not found, trains."""
    config.validate()
    start = time.perf_counter()
    if datasets is None:
        datasets = load_or_generate(config)
    datasets = _take(datasets, config.n_clients, "datasets")
    client_ids = sorted(ds.client_id for ds in datasets)
    for cid, next_cid in zip(client_ids, client_ids[1:]):
        if cid == next_cid:
            raise ConfigurationError(f"datasets: client id {cid} is repeated")
    order = tuple(config.order or client_ids)
    if sorted(order) != client_ids:
        raise ConfigurationError(f"order {order} is not a permutation of the clients {client_ids}")
    if config.probe not in client_ids:
        raise ConfigurationError(f"probe {config.probe} is not one of the clients {client_ids}")
    config = replace(config, order=order)
    known = None if store is None or keep_bus else store.get(_run_key(config, order))
    if known is None:
        return _train(config, datasets, keep_bus)
    return replace(known, config=config, per_client=dict(known.per_client),
                   val_losses=list(known.val_losses), duration=time.perf_counter() - start)


def _train(config: ExperimentConfig, datasets: list[ClientDataset], keep_bus: bool = False,
           turns: TurnStates | None = None) -> RunResult:
    """`run_experiment`'s training, for a config that names its order and
    the datasets of its clients: `_epochs`, scored at the epoch that
    `_checkpoint` keeps. `turns` (SL, SFv2) holds the round-0 turns that
    the runs of its group share (`_train_group`). Every run trains here,
    on one OpenBLAS thread (`_one_blas_thread`)."""
    _one_blas_thread()
    start = time.perf_counter()
    ds_by_id = {ds.client_id: ds for ds in datasets}
    # the initial model is freed once make_clients has copied it: held for
    # the run, it took a fresh wide-body process's first sl run from 2.9 k
    # to about 16 k minor page faults
    clients, server = make_clients(datasets, init_model(list(config.widths), config.seed),
                                   config.protocol, config.split_config(), config.lr)
    bus = ChannelBus()
    losses, best_epoch, val_probs, test_probs = _checkpoint(
        _epochs(config, clients, server, ds_by_id, bus, turns),
        lambda: _predict(clients, server, ds_by_id, "test"))
    per_client = {cid: metrics.evaluate(test_probs[cid][:, 0], ds_by_id[cid].test_y,
                                        val_probs[cid][:, 0], ds_by_id[cid].val_y)
                  for cid in sorted(clients)}

    return RunResult(
        config=config,
        per_client=per_client,
        checkpoint_epoch=best_epoch,
        val_losses=losses,
        total_bytes=bus.bytes_sent(),
        param_blob_bytes=bus.bytes_by_type(MsgType.PARAM_BLOB),
        labels_messages=bus.count_by_type(MsgType.LABELS),
        duration=time.perf_counter() - start,
        bus=bus if keep_bus else None,
    )


def _epochs(config: ExperimentConfig, clients, server: ServerState,
            ds_by_id: dict[int, ClientDataset], bus: ChannelBus, turns: TurnStates | None):
    """Train `config.epochs` rounds. After each, yield `(epoch, val probs,
    mean validation loss)`, scored on the live models, which the next
    round trains on: a consumer scores them before it asks for more.
    Round 0 restores the turns `turns` holds, trains the rest of the
    order and offers each of its turns to `turns`."""
    for epoch in range(config.epochs):
        order, after_turn = config.order, None
        if epoch == 0 and turns is not None:  # SL, SFv2: config.order is the training order
            order = order[turns.restore(order, clients, server, bus):]
            after_turn = functools.partial(turns.offer, clients=clients, server=server, bus=bus)
        run_round(clients, server, config.protocol, order, epoch, bus, config.batch_size,
                  after_turn)
        val_probs = _predict(clients, server, ds_by_id, "val")
        yield epoch, val_probs, float(np.mean([nn.bce_loss(val_probs[cid], ds_by_id[cid].val_y)
                                               for cid in sorted(clients)]))


def _checkpoint(records, test_probs):
    """Fold `_epochs`' records, epochs 0, 1, ... in turn, into `(losses,
    checkpoint epoch, its val probs, its test probs)`. The checkpoint is
    the earliest epoch of least mean validation loss. `test_probs()`
    scores the live models' test split, so it is called only when an
    epoch becomes the best, before the next record is drawn. An epoch
    whose every validation probability sits at a clamp bound
    (`nn.PROB_CLAMP`) raises SaturationError; a non-finite loss,
    DivergenceError."""
    losses, best = [], None  # best: (epoch, val probs, test probs) of the least loss
    for epoch, val_probs, loss in records:
        if all(np.all((p <= nn.PROB_CLAMP) | (p >= 1 - nn.PROB_CLAMP))
               for p in val_probs.values()):
            raise SaturationError(f"epoch {epoch}: every validation probability is at a clamp bound")
        if not math.isfinite(loss):
            raise DivergenceError(f"epoch {epoch}: mean validation loss is {loss}")
        losses.append(loss)
        if best is None or loss < losses[best[0]]:  # strictly: ties keep the earliest epoch
            best = (epoch, val_probs, test_probs())
    return losses, *best


# --- training a sweep's runs ahead of its calls -------------------------------

def _copy_params(flat: np.ndarray, opt: nn.AdamState) -> tuple:
    return flat.copy(), opt.m.copy(), opt.v.copy(), opt.step


def _put_params(saved: tuple, flat: np.ndarray, opt: nn.AdamState) -> None:
    flat[...], opt.m[...], opt.v[...], opt.step = saved


class TurnStates:
    """Round-0 turns shared by runs that start from the same model, data
    and hyperparameters and differ in their client order, `orders`, given
    in the order the runs train. Each run restores the turns it shares
    with the run before it and trains the rest. With the orders sorted,
    those are the most turns it shares with any earlier run, so each
    distinct round-0 prefix trains once.

    `saved` is a stack: entry k holds what turn k + 1 of the current order
    changed: that client's id, `[front | tail]` vector and Adam state (m,
    v, step), the body and its Adam state, and a copy of the bus log; any
    other client is as `make_clients` dealt it. A run keeps the stack only
    as deep as it shares turns with the next run, so it never holds more
    entries than the runs have clients."""

    def __init__(self, orders):
        self.saved: list[tuple] = []
        self._keeps = iter([_shared_turns(a, b) for a, b in zip(orders, orders[1:])] + [0])
        self._keep = 0

    def restore(self, order: tuple[int, ...], clients, server: ServerState,
                bus: ChannelBus) -> int:
        """Restore the turns that the run in `order` shares with the run
        before it: the whole stack. Returns how many, 0 for none."""
        if tuple(cid for cid, *_ in self.saved) != order[:len(self.saved)]:
            raise PlanError(f"order {order} does not start with the saved turns")
        for cid, saved, _, _ in self.saved:
            _put_params(saved, clients[cid].flat, clients[cid].opt)
        if self.saved:
            _, _, body, log = self.saved[-1]
            _put_params(body, server.body.flat, server.opts[order[0]])
            bus.restore_log(log)
        done, self._keep = len(self.saved), next(self._keeps)
        del self.saved[self._keep:]
        return done

    def offer(self, cid: int, clients, server: ServerState, bus: ChannelBus) -> None:
        """Save what client `cid`'s turn, the next on the stack, changed if
        the next run shares that turn."""
        if len(self.saved) < self._keep:
            self.saved.append((cid, _copy_params(clients[cid].flat, clients[cid].opt),
                               _copy_params(server.body.flat, server.opts[cid]),
                               list(bus.log)))


def _shared_turns(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The length of the longest prefix orders `a` and `b` share."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _train_group(group: dict) -> dict:
    """Train one group's runs, `{run key: (config, datasets)}`, in sorted
    order of the client orders they train in: `{run key: result}`, or {}
    if a run raised. Under SL and SFv2 the runs share their round-0 turns
    (`TurnStates`): each distinct round-0 prefix trains once, and the
    group holds at most n_clients saved turns."""
    runs = sorted(group.items(), key=lambda run: run[0][1])  # a run key is (config, order)
    shared = SPECS[runs[0][0][0].protocol].shared_body
    turns = TurnStates([order for (_, order), _ in runs]) if shared else None
    try:
        return {key: _train(cfg, datasets[:cfg.n_clients], turns=turns)
                for key, (cfg, datasets) in runs}
    except Exception:  # noqa: BLE001 - the group's calls train it again and raise
        return {}


def _workers(groups: int) -> int:
    """How many forked workers train `groups` groups: one per usable CPU and
    at most one per group; 0 (in-process) below 2, without `os.fork`, and
    in a daemonic `multiprocessing` worker, whose pool already uses the CPUs."""
    mp = sys.modules.get("multiprocessing")  # read, not imported: a sweep never needs it
    n = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, groups)
    return n if n > 1 and hasattr(os, "fork") and not (mp and mp.current_process().daemon) else 0


@functools.cache
def _openblas():
    """The (get_num_threads, set_num_threads) pair of the OpenBLAS that
    numpy loaded, or None (another BLAS), found once per process: a
    symbol lookup on numpy's linear-algebra extension also searches the
    libraries it links, so the first pair prefixed `openblas_` or
    `scipy_openblas_`, with or without the `64_` suffix, is numpy's."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
        get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def _one_blas_thread() -> None:
    """Set numpy's OpenBLAS (`_openblas`) to one thread for the rest of the
    process; without OpenBLAS, do nothing. A sweep's parallelism is its
    forked workers, one per CPU (`_workers`): OpenBLAS's own threads in each
    of them oversubscribed the CPUs once a model was wide enough for it to
    split its matmuls (a 2-epoch order sweep at widths 8-256-256-256-64-1
    took 1.8-25.4 s in workers against 0.79-0.88 s on one BLAS thread,
    2-vCPU VM). At these shapes the thread count changes no result.

    A count that is already one is left alone: setting it in a forked
    worker restarted OpenBLAS's thread pool there, whose new thread spun on
    a CPU that the other workers needed (bias-fixture sweeps took 1.4x as
    long). So `_train_forked` sets it before its first fork, and the
    workers inherit it."""
    blas = _openblas()
    if blas and blas[0]() != 1:
        blas[1](1)


def _train_forked(groups: list[dict], workers: int) -> dict:
    """`_train_group` of each group in `workers` forked workers, merged:
    `{run key: result}` of every group that a reply holds (`_train_ahead`).
    Every worker is killed, if still running, and reaped before this
    returns or raises. The workers are forked on one OpenBLAS thread
    (`_one_blas_thread`), so they never set the count themselves."""
    _one_blas_thread()
    # pipe ends as files; the tasks pipe's unbuffered, so a worker reads one index at a time
    tasks_r, tasks_w = files = [open(fd, mode, 0) for fd, mode in zip(os.pipe(), ("rb", "wb"))]
    replies, trained = {}, {}  # by worker pid: the read end of its reply
    try:
        for _ in range(workers):
            reply_r, reply_w = (open(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb")))
            files += (reply_r, reply_w)
            if (pid := os.fork()) == 0:  # the worker, which never returns into this stack
                try:
                    tasks_w.close()
                    done = {}
                    while index := tasks_r.read(4):  # whole: one atomic write each
                        done.update(_train_group(groups[int.from_bytes(index, "little")]))
                    with reply_w:
                        pickle.dump(done, reply_w)
                finally:
                    os._exit(0)
            replies[pid] = reply_r
            reply_w.close()
        tasks_r.close()
        # written after the forks: a full pipe blocks until a worker reads
        with contextlib.suppress(BrokenPipeError):  # every worker died
            for index in range(len(groups)):
                tasks_w.write(index.to_bytes(4, "little"))
        tasks_w.close()
        for reply in replies.values():
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # its worker died
                trained.update(pickle.load(reply))
    finally:
        for file in files:
            file.close()
        for pid in replies:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return trained


def _train_ahead(runs) -> dict[tuple, RunResult]:
    """Train a sweep's runs, `[(config, datasets)]` in call order, before
    its calls: `{run key: result}` for `run_experiment(..., store=)`.

    Equal runs (the same `_run_key`) train once. The distinct runs split
    into groups that share no work. Against a shared body (SL, SFv2) a
    group is a config (seed included) and the first client of the order
    its runs train in, as runs that share a round-0 prefix start with the
    same client; otherwise (FL, SFv1, SFv3) each run is its own group.
    Each group trains through `_train_group`, its runs in sorted order of
    their client orders, so each distinct round-0 prefix trains once and
    the group holds at most n_clients saved turns (`TurnStates`).
    The groups train in workers started by `os.fork` (`_workers`), or else
    in-process, one after another. Workers inherit the groups, take their
    indices from one pipe in call order as they come free, and each write
    one pickled `{run key: result}` reply, the results of every group it
    trained, to a pipe of its own. That order starts each seed with its costliest group:
    the group of an SL order sweep's first run holds one distinct run per
    client but one, the others one or two.

    A group that raised, or that no reply holds (its worker died), is
    left out: its calls train it again, so a sweep raises the error of
    its first failing run in call order."""
    groups: dict[tuple, dict[tuple, tuple]] = {}
    for cfg, datasets in runs:
        key = _run_key(cfg, cfg.order)
        group = (key[0], key[1][0]) if SPECS[cfg.protocol].shared_body else key
        groups.setdefault(group, {}).setdefault(key, (cfg, datasets))
    groups = list(groups.values())
    if workers := _workers(len(groups)):
        return _train_forked(groups, workers)
    store = {}
    for group in groups:
        store.update(_train_group(group))
    return store


# --- sweeps ---------------------------------------------------------------

METRICS = ("auprc", "f1", "kappa")


@dataclass(frozen=True)
class ReportRow:
    key: str
    first: metrics.MetricReport
    last: metrics.MetricReport

    def drops(self) -> dict[str, float]:
        """Each metric's percent drop (`metrics.percent_drop`)."""
        return {name: metrics.percent_drop(getattr(self.first, name), getattr(self.last, name))
                for name in METRICS}


@dataclass
class ReportTable:
    rows: list[ReportRow] = field(default_factory=list)


# a row's key, by the field its sweep varies
ROW_KEYS = {"probe": "client{}".format, "n_clients": "{} client setting".format}


def _rows(config: ExperimentConfig, datasets, field: str, values) -> list:
    """One row per value, `(key, probe-first config, probe-last config,
    datasets)`: the probe pair at `replace(config, **{field: value})`. A
    row's clients are its probe and the first n_clients - 1 other ids of
    `datasets`, ascending, which train in that order after the probe in
    its first run and before it in its last. Each row is checked as its
    runs would be, and needs at least 2 clients (ConfigurationError)."""
    ids = sorted(ds.client_id for ds in datasets)
    rows = []
    for value in values:
        cfg = replace(config, **{field: value})
        if cfg.n_clients < 2:
            raise ConfigurationError("a sweep needs at least 2 clients")
        if cfg.probe not in ids:
            raise ConfigurationError(f"probe {cfg.probe} is not one of the clients {ids}")
        rest = tuple(cid for cid in ids if cid != cfg.probe)[:cfg.n_clients - 1]
        clients = _take([ds for ds in datasets if ds.client_id in (cfg.probe, *rest)],
                        cfg.n_clients, "datasets")
        rows.append((ROW_KEYS[field](value), replace(cfg, order=(cfg.probe, *rest)),
                     replace(cfg, order=(*rest, cfg.probe)), clients))
    return rows


def sweep(config: ExperimentConfig, seeds, field: str, values,
          datasets=None) -> typing.Iterator[ReportTable]:
    """The probe pair at each of `values` of the config field `field`
    ("probe" or "n_clients", `_rows`), at each seed: one table per seed,
    in seed order. A row reports its probe's metrics from its probe-first
    and its probe-last run.

    Each seed's data (or `datasets`, for every seed, checked as a
    dataset file's clients are) is made first, and
    all seeds' runs train ahead together (`_train_ahead`; runs of
    different seeds share no work, as a run's key holds its seed). The
    tables are then made lazily, seed by seed, and each `run_experiment`
    call returns its result trained ahead; a failing run raises when its
    seed's table is asked for. Any other field raises ConfigurationError
    before any data is made."""
    if field not in ROW_KEYS:
        raise ConfigurationError(f"a sweep varies one of {sorted(ROW_KEYS)}, not {field!r}")
    if config.n_clients < 2:
        raise ConfigurationError("a sweep needs at least 2 clients")
    values, rows = tuple(values), []
    for seed in seeds:
        cfg = replace(config, seed=seed)
        cfg.validate()
        rows.append(_rows(cfg, load_or_generate(cfg) if datasets is None else
                          _first_clients(datasets, cfg, "datasets", "datasets"), field, values))
    store = _train_ahead([(run, ds) for seed_rows in rows
                          for _, first, last, ds in seed_rows for run in (first, last)])

    def cell(run, ds):  # the probe's metrics from one run
        return run_experiment(run, ds, store=store).per_client[run.probe]

    return (ReportTable([ReportRow(key, cell(first, ds), cell(last, ds))
                         for key, first, last, ds in seed_rows]) for seed_rows in rows)


def sweep_order(config: ExperimentConfig, datasets=None) -> ReportTable:
    """Probe-first vs probe-last for each client at config.seed."""
    (table,) = sweep(config, [config.seed], "probe", range(config.n_clients), datasets)
    return table


def sweep_client_count(config: ExperimentConfig, datasets=None) -> ReportTable:
    """Probe-first vs probe-last at each client-count setting at
    config.seed."""
    (table,) = sweep(config, [config.seed], "n_clients", config.sweep_sizes, datasets)
    return table


def drops_over_seeds(tables) -> dict[str, dict[str, list[float]]]:
    """Each row key's percent drops (`ReportRow.drops`) over the tables,
    per metric."""
    drops = {}
    for table in tables:
        for row in table.rows:
            per_metric = drops.setdefault(row.key, {name: [] for name in METRICS})
            for name, drop in row.drops().items():
                per_metric[name].append(drop)
    return drops


# --- reports --------------------------------------------------------------

REPORT_HEADER = ("row,auprc_first,auprc_last,auprc_drop,"
                 "f1_first,f1_last,f1_drop,kappa_first,kappa_last,kappa_drop")


def render_table(table: ReportTable, undefined: str | None = None) -> str:
    """CSV, scores at 4 decimals and drops at 2 (the table precision of
    the reference results). A drop is undefined where the last score is
    0: it raises MetricError, or, given `undefined`, is written as that
    text."""
    lines = [REPORT_HEADER]
    for row in table.rows:
        cells = [row.key]
        for name in METRICS:
            first, last = getattr(row.first, name), getattr(row.last, name)
            if last == 0 and undefined is None:
                raise metrics.MetricError(f"{name} drop undefined for last == 0")
            cells += [f"{first:.4f}", f"{last:.4f}",
                      undefined if last == 0 else f"{metrics.percent_drop(first, last):.2f}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- flat key-value config files ------------------------------------------

def render_manifest(config: ExperimentConfig) -> str:
    """The config as a config file that `parse_config_file` reads back to
    the same config; None fields are left out (they take their default).
    A config file cannot hold a str value with '#', a line break or
    surrounding blanks: such a value raises ConfigurationError naming its
    field."""
    lines = [f"# splitsim {__version__}"]
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        elif isinstance(value, str) and ("#" in value or "\n" in value or "\r" in value
                                         or value != value.strip()):
            raise ConfigurationError(f"{f.name} {value!r} cannot be written to a config file "
                                     "('#', a line break or surrounding blanks)")
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment. Each key is an
    ExperimentConfig field, set at most once, and its value is parsed as
    the field's type; a bad or repeated key or a bad value raises
    ConfigurationError naming `path:line`."""
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
            if key in values:
                raise ConfigurationError(f"{path}:{lineno}: repeated key {key!r}")
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
