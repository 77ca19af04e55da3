#!/usr/bin/env python3
"""Bias-vs-cohort-size sweep under sequential split learning.

For each cohort size n in 2..5, measures the probe client's kappa
percent drop (trained first vs last) over several seeds and prints the
median per setting. The median drop grows with the number of clients
that train after the probe.

Usage: python3 scripts/run_client_count_sweep.py [--seeds N] [--out DIR]
"""

import argparse
import pathlib
import statistics
import sys
from dataclasses import replace

from splitsim import datagen, harness
from splitsim.metrics import percent_drop_or_worst

SIZES = (2, 3, 4, 5)


def kappa_drop(manifest, seed, n):
    datasets = datagen.generate_clients(
        manifest, shift_scale=harness.BIAS_CONFIG.shift_scale, seed=seed)
    cfg = replace(harness.BIAS_CONFIG, n_clients=n, seed=seed)
    row = harness.run_probe_pair(cfg, 0, datasets)
    return percent_drop_or_worst(row.first.kappa, row.last.kappa)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=pathlib.Path, default=None)
    args = ap.parse_args(argv)

    lines = ["setting,median_kappa_drop"]
    for n in SIZES:
        manifest = harness.BIAS_MANIFEST.subset(range(n))
        drops = [kappa_drop(manifest, seed, n) for seed in range(args.seeds)]
        median = statistics.median(drops)
        print(f"{n} clients: per-seed kappa drops "
              f"{[round(d, 1) for d in drops]} -> median {median:.1f}%")
        lines.append(f"{n},{median:.2f}")

    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "client_count_trend.csv").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
