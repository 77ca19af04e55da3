#!/usr/bin/env python3
"""Bias-vs-cohort-size sweep under sequential split learning.

Runs `harness.sweep_client_count` on the bias fixture (configs/bias.cfg)
once per seed, and prints, for each cohort size in the fixture's
sweep_sizes, the probe client's kappa percent drop (trained first vs
last) per seed and its median. The median drop grows with the number of
clients that train after the probe.

Usage: python3 scripts/run_client_count_sweep.py [--seeds N] [--out DIR]
"""

import argparse
import pathlib
import statistics
import sys
from dataclasses import replace

from splitsim import harness
from splitsim.cli import positive_int
from splitsim.metrics import percent_drop_or_worst

BIAS_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bias.cfg"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=positive_int, default=10)
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)

    cfg = harness.config_from(harness.parse_config_file(BIAS_CFG), {})
    drops = {n: [] for n in cfg.sweep_sizes}
    for seed in range(cfg.seed, cfg.seed + args.seeds):
        table = harness.sweep_client_count(replace(cfg, seed=seed))
        for n, row in zip(cfg.sweep_sizes, table.rows):
            drops[n].append(percent_drop_or_worst(row.first.kappa, row.last.kappa))

    lines = ["setting,median_kappa_drop"]
    for n, per_seed in drops.items():
        median = statistics.median(per_seed)
        print(f"{n} clients: per-seed kappa drops "
              f"{[round(d, 1) for d in per_seed]} -> median {median:.1f}%")
        lines.append(f"{n},{median:.2f}")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "client_count_trend.csv").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
