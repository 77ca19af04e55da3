#!/usr/bin/env python3
"""Probe-first vs probe-last order sweep under sequential split learning.

Runs the short-horizon non-IID fixture over several seeds and prints,
per seed, the probe client's metrics when it trains first vs last in
every round, plus the multi-seed median percent drops. Positive drops
mean the probe client is worse off when it trains first.

Usage: python3 scripts/run_order_sweep.py [--seeds N] [--out DIR]
"""

import argparse
import pathlib
import statistics
import sys
from dataclasses import replace

from splitsim import datagen, harness
from splitsim.metrics import percent_drop_or_worst


def probe_drops(seed):
    datasets = datagen.generate_clients(
        harness.BIAS_MANIFEST, shift_scale=harness.BIAS_CONFIG.shift_scale, seed=seed)
    row = harness.run_probe_pair(replace(harness.BIAS_CONFIG, seed=seed), 0, datasets)
    return replace(row, key=f"seed{seed}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="also write the CSV table here")
    args = ap.parse_args(argv)

    rows = [probe_drops(seed) for seed in range(args.seeds)]
    table = harness.ReportTable(rows)
    print(harness.render_table(table), end="")

    for metric in ("auprc", "f1", "kappa"):
        drops = [percent_drop_or_worst(getattr(row.first, metric), getattr(row.last, metric))
                 for row in rows]
        positive = sum(d > 0 for d in drops)
        print(f"{metric}: positive drop in {positive}/{len(drops)} seeds, "
              f"median {statistics.median(drops):.1f}%")

    if args.out:
        harness.emit_report(table, args.out, name="order_sweep",
                            config=harness.BIAS_CONFIG)
    return 0


if __name__ == "__main__":
    sys.exit(main())
