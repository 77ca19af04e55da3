"""Self-test of the benchmark: the output check catches a one-bit change
in a stored digest, a run's ops are fixed by its seed and length, and
every metric the benchmark emits is declared in
BENCHMARK.json with the same unit.

Run from the root of a checkout: python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

from workloads import WORKLOADS, Outcome, audit, load_references  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def flip_bit(hex_digest: str, bit: int = 0) -> str:
    return format(int(hex_digest, 16) ^ (1 << bit), "064x")


def test_one_flipped_reference_bit_fails_the_op():
    workload = WORKLOADS["protocol-matrix"]
    op = workload.cycle(0, 0)[0]
    outcome = workload.run(op, workload.datasets(op.data_seed))
    references = load_references()[workload.name]
    failed, _, correct = audit([(op, outcome, 0.0)], references)
    assert (failed, correct) == (0, True)

    reference = dict(references[op.key], sha256=flip_bit(references[op.key]["sha256"]))
    failed, failures, correct = audit([(op, outcome, 0.0)], {op.key: reference})
    assert (failed, correct) == (1, False)
    assert failures[0]["mismatch"].startswith("sha256")


def test_expected_exception_still_counts_as_failed():
    # data seed 7 of the bias fixture raises MetricError in render_table
    references = load_references()["sl-bias-sweeps"]
    for op in WORKLOADS["sl-bias-sweeps"].cycle(7, 0):
        assert references[op.key]["error"] == "MetricError"
        failed, _, correct = audit([(op, Outcome(error="MetricError"), 0.0)], references)
        assert (failed, correct) == (1, True)


def test_run_length_fixes_the_ops_not_the_clock():
    # the driver's run length at seed 0 reaches data seed 7 of the bias fixture
    workload = WORKLOADS["sl-bias-sweeps"]
    seconds = DECLARED["run_seconds"]
    data_seeds = [workload.cycle(i, 0)[0].data_seed for i in range(workload.cycles(seconds))]
    assert data_seeds == list(range(len(data_seeds))) and 7 in data_seeds
    assert all(w.cycles(1) == 1 for w in WORKLOADS.values())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_declared(trace, section):
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "protocol-matrix",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
