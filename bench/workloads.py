"""The benchmark's workloads, the ops they are made of, and the output check.

A workload is a fixed list of ops per data seed (one *cycle*). A run walks
data seeds `seed, seed + 1, ...` modulo the workload's pool, one cycle per
data seed, so every op it can run has a reference digest stored in
`references.json`. How many cycles a run makes is fixed by its length in
seconds, not read off the clock: a run's ops, and so its failed ops, are the
same on a fast machine and a slow one. The program receives only the generated datasets and
configs; it never sees the seed argument.

Ops call splitsim through module attributes (`harness.run_experiment`, not
a name bound at import time), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, fields, replace

from splitsim import datagen, harness
from splitsim.harness import ExperimentConfig
from splitsim.model_split import U_SHAPED, VANILLA

REFERENCES_PATH = pathlib.Path(__file__).with_name("references.json")

# ROADMAP's bias fixture: the short-horizon sequential setting in which the
# probe-first vs probe-last drop is strongest.
BIAS_MANIFEST = datagen.PartitionManifest(datagen.DESK_TRAIN_COUNTS, (200,) * 5, (200,) * 5)
BIAS_CONFIG = ExperimentConfig(protocol="sl", epochs=2, lr=3e-3, batch_size=4,
                               shift_scale=0.75, n_clients=5, probe=0)

MATRIX_PAIRS = (("fl", U_SHAPED),) + tuple(
    (protocol, kind) for protocol in ("sl", "sfv1", "sfv2", "sfv3")
    for kind in (VANILLA, U_SHAPED))

WIDE_WIDTHS = (8, 256, 256, 256, 64, 1)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a sweep or a single run at one data seed."""

    data_seed: int
    name: str

    @property
    def key(self) -> str:
        return f"{self.data_seed}:{self.name}"


@dataclass(frozen=True)
class Outcome:
    """What the output check compares: the digest of an op's result and
    the wire bytes of every run it made, or the type of the exception it
    raised."""

    sha256: str | None = None
    wire_bytes: int | None = None
    error: str | None = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(table: harness.ReportTable) -> str:
    """sha256 over every MetricReport field of every row, at full precision
    (repr of a float round-trips exactly)."""
    rows = [[row.key] + [[repr(getattr(report, f.name)) for f in fields(report)]
                         for report in (row.first, row.last)]
            for row in table.rows]
    return _digest(json.dumps(rows))


SWEEPS = ("sweep_order", "sweep_client_count")


@contextlib.contextmanager
def counting_wire_bytes():
    """Sum `total_bytes` over every run_experiment made inside, through the
    name the sweeps look up. Yields a one-element list holding the sum."""
    original = harness.run_experiment
    total = [0]

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        total[0] += result.total_bytes
        return result

    harness.run_experiment = counted
    try:
        yield total
    finally:
        harness.run_experiment = original


@dataclass(frozen=True)
class Workload:
    """Op names are harness sweeps, or `protocol/split_kind` for one
    run_experiment; every op runs `base` at its data seed."""

    name: str
    base: ExperimentConfig
    manifest: datagen.PartitionManifest
    op_names: tuple[str, ...]
    pool: int          # data seeds with stored references
    trace_cycles: int  # cycles replayed under the tracer
    cycle_s: float     # seconds one cycle took on a 2-vCPU x86-64 VM

    def cycles(self, seconds: float) -> int:
        """Cycles in a run of `seconds`: as many as take that long at
        `cycle_s`, and at least one."""
        return max(1, round(seconds / self.cycle_s))

    def datasets(self, data_seed: int):
        # attribute lookup at call time, so the tracer sees it
        return datagen.generate_clients(self.manifest, d=self.base.feature_dim,
                                        shift_scale=self.base.shift_scale, seed=data_seed)

    def cycle(self, index: int, seed: int) -> list[Op]:
        """The ops of the index-th cycle of a run started at `seed`."""
        data_seed = (seed + index) % self.pool
        return [Op(data_seed, name) for name in self.op_names]

    def config(self, op: Op) -> ExperimentConfig:
        cfg = replace(self.base, seed=op.data_seed)
        if op.name in SWEEPS:
            return cfg
        protocol, kind = op.name.split("/")
        return replace(cfg, protocol=protocol, split_kind=kind)

    def samples(self, op: Op) -> int:
        """Client training rows the op steps through: epochs x participating
        clients' train rows, summed over the runs the op asks for."""
        cfg = self.config(op)
        rows = self.manifest.train_counts
        if op.name == "sweep_order":
            return 2 * cfg.n_clients * cfg.epochs * sum(rows[:cfg.n_clients])
        if op.name == "sweep_client_count":
            others = [c for c in range(cfg.n_clients) if c != cfg.probe]
            return sum(2 * cfg.epochs * sum(rows[c] for c in [cfg.probe] + others[:n - 1])
                       for n in cfg.sweep_sizes)
        return cfg.epochs * sum(rows[:cfg.n_clients])

    def run(self, op: Op, datasets) -> Outcome:
        """Execute one op; an exception becomes an Outcome with its type."""
        cfg = self.config(op)
        try:
            if op.name in SWEEPS:
                with counting_wire_bytes() as wire_bytes:
                    table = getattr(harness, op.name)(cfg, datasets)
                harness.render_table(table)
                return Outcome(sha256=table_digest(table), wire_bytes=wire_bytes[0])
            result = harness.run_experiment(cfg, datasets)
            return Outcome(sha256=_digest(result.to_json()), wire_bytes=result.total_bytes)
        except Exception as exc:  # counted as a failed op, never skipped
            return Outcome(error=type(exc).__name__)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("sl-bias-sweeps", BIAS_CONFIG, BIAS_MANIFEST, SWEEPS,
             pool=30, trace_cycles=1, cycle_s=2.5),
    Workload("protocol-matrix", ExperimentConfig(), datagen.desk_manifest(5),
             tuple(f"{p}/{k}" for p, k in MATRIX_PAIRS), pool=60, trace_cycles=2,
             cycle_s=1.1),
    Workload("wide-body", ExperimentConfig(widths=WIDE_WIDTHS), datagen.desk_manifest(5),
             (f"sl/{U_SHAPED}", f"sfv1/{U_SHAPED}"), pool=30, trace_cycles=1,
             cycle_s=2.1),
)}


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text())


def check(outcome: Outcome, reference: dict | None) -> str | None:
    """None when the outcome equals its stored reference, else the reason."""
    if reference is None:
        return "no stored reference"
    for name, value in asdict(outcome).items():
        if value != reference.get(name):
            return f"{name} {value!r} != reference {reference.get(name)!r}"
    return None


def audit(records, references: dict):
    """Check every op against its reference. Returns (failed count,
    failure records, whether every outcome matched its reference). An op
    fails when it raised or its outcome differs from the reference; an
    exception the reference also records still counts as failed."""
    failed, failures, correct = 0, [], True
    for op, outcome, _ in records:
        mismatch = check(outcome, references.get(op.key))
        if mismatch is not None:
            correct = False
        if mismatch is not None or outcome.error is not None:
            failed += 1
            failures.append({"op": op.key, "error": outcome.error, "mismatch": mismatch})
    return failed, failures, correct
