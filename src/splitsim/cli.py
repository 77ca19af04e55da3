"""Command-line entry point.

Subcommands: gen-data, run, sweep-order, sweep-clients, report.
Exit codes: 0 success, 1 rejected input (config, command line, dataset
file), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from dataclasses import fields, replace

from . import datagen, harness
from .harness import ConfigurationError, ExperimentConfig
from .metrics import percent_drop_or_worst, sign_test_p
from .model_split import U_SHAPED, VANILLA
from .protocols import PROTOCOLS
from .transport import CodecError


def positive_int(text: str) -> int:
    """argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


# Each flag once; a subcommand registers only the flags it reads. A flag
# whose dest is a config field overrides that field.
FLAGS = {
    "--config": dict(type=pathlib.Path, help="key = value config file, or a run's manifest"),
    "--seed": dict(type=int),
    "--protocol": dict(choices=PROTOCOLS),
    "--split": dict(choices=(VANILLA, U_SHAPED), dest="split_kind"),
    "--epochs": dict(type=int),
    "--probe": dict(type=int, help="probe client id"),
    "--seeds": dict(type=positive_int, default=1,
                    help="number of seeds, counting up from the seed"),
    "--out": dict(type=pathlib.Path, default=pathlib.Path("out")),
    "--message-log": dict(action="store_true", help="also write messages.log"),
}
TRAIN_FLAGS = ("--config", "--seed", "--protocol", "--split", "--epochs")
SWEEP_FLAGS = TRAIN_FLAGS + ("--probe", "--seeds", "--out")


def _build_config(args) -> ExperimentConfig:
    file_values = harness.parse_config_file(args.config) if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    return harness.config_from(file_values, overrides)


def cmd_gen_data(args) -> int:
    cfg = _build_config(args)
    clients = harness.load_or_generate(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    data_path = args.out / "clients.sds"
    datagen.save_clients(data_path, clients)
    (args.out / "manifest.txt").write_text(harness.render_manifest(cfg))
    print(f"wrote {data_path} ({cfg.n_clients} clients, seed {cfg.seed})")
    return 0


def cmd_run(args) -> int:
    cfg = _build_config(args)
    result = harness.run_experiment(cfg, keep_bus=args.message_log)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(result.to_json())
    (args.out / "result.manifest.txt").write_text(harness.render_manifest(result.config))
    if args.message_log:
        result.bus.dump_log(args.out / "messages.log")
    print(json.dumps(result.to_dict()["per_client"], indent=1))
    print(f"checkpoint epoch {result.checkpoint_epoch}, "
          f"{result.total_bytes} bytes on the wire, "
          f"{result.duration:.2f}s")
    return 0


def cmd_sweep_order(args) -> int:
    cfg = _build_config(args)
    per_seed_rows = {}
    for seed in range(cfg.seed, cfg.seed + args.seeds):
        cfg_s = replace(cfg, seed=seed)
        table = harness.sweep_order(cfg_s, probe_only=args.probe is not None)
        csv_path, _ = harness.emit_report(table, args.out, name=f"order_sweep_seed{seed}",
                                          config=cfg_s)
        for row in table.rows:
            per_seed_rows.setdefault(row.key, []).append(row)
        print(csv_path.read_text(), end="")
    if args.seeds > 1:
        # positive drops mean the probe is worse off training first
        for key, rows in per_seed_rows.items():
            print(f"{key} over {len(rows)} seeds:")
            for metric in ("auprc", "f1", "kappa"):
                drops = [percent_drop_or_worst(getattr(row.first, metric),
                                               getattr(row.last, metric)) for row in rows]
                print(f"{metric}: positive drop in {sum(d > 0 for d in drops)}/{len(drops)} "
                      f"seeds, median {statistics.median(drops):.1f}%, "
                      f"sign test p = {sign_test_p(drops):.3g}")
    return 0


def cmd_sweep_clients(args) -> int:
    cfg = _build_config(args)
    per_seed_kappa = {}
    for seed in range(cfg.seed, cfg.seed + args.seeds):
        cfg_s = replace(cfg, seed=seed)
        table = harness.sweep_client_count(cfg_s)
        csv_path, _ = harness.emit_report(table, args.out, name=f"client_sweep_seed{seed}",
                                          config=cfg_s)
        for key, drop in harness.trend_series(table):
            per_seed_kappa.setdefault(key, []).append(drop)
        print(csv_path.read_text(), end="")
    if args.seeds > 1:
        lines = ["setting,median_kappa_drop"]
        for key, drops in per_seed_kappa.items():
            lines.append(f"{key},{statistics.median(drops):.2f}")
        (args.out / "client_sweep_trend.csv").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    try:
        result = json.loads(args.result.read_text())
        lines = [f"protocol {result['protocol']} seed {result['seed']} "
                 f"checkpoint epoch {result['checkpoint_epoch']}",
                 "client,auprc,f1,kappa,threshold"]
        for cid, rep in sorted(result["per_client"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"{cid},{rep['auprc']:.4f},{rep['f1']:.4f},"
                         f"{rep['kappa']:.4f},{rep['threshold']:.4f}")
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        # not JSON, or JSON without a run result's fields
        raise ConfigurationError(f"{args.result} is not a run result: {exc!r}") from None
    print("\n".join(lines))
    return 0


COMMANDS = {
    "gen-data": (cmd_gen_data, "generate the synthetic client datasets",
                 ("--config", "--seed", "--out")),
    "run": (cmd_run, "run a single experiment",
            TRAIN_FLAGS + ("--out", "--message-log")),
    "sweep-order": (cmd_sweep_order, "probe-first vs probe-last sweep", SWEEP_FLAGS),
    "sweep-clients": (cmd_sweep_clients, "client-count sweep", SWEEP_FLAGS),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="splitsim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="re-render a stored run result")
    p.add_argument("result", type=pathlib.Path, help="result.json from a run")
    p.set_defaults(func=cmd_report)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ConfigurationError, datagen.ManifestError, CodecError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
