#!/usr/bin/env python3
"""Regenerate bench/references.json: the outcome of every op of every
workload over its whole data-seed pool.

Run it only when a change is meant to alter the program's results; the
benchmark fails every op whose outcome differs from these references.

Usage: python3 bench/make_references.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

from run import use_checkout_sources


def main() -> int:
    use_checkout_sources()
    from workloads import REFERENCES_PATH, WORKLOADS

    references = {}
    for name, workload in WORKLOADS.items():
        table = {}
        for data_seed in range(workload.pool):
            datasets = workload.datasets(data_seed)
            for op in workload.cycle(data_seed, 0):
                table[op.key] = asdict(workload.run(op, datasets))
        references[name] = table
        print(f"{name}: {len(table)} ops", file=sys.stderr)
    REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
