"""The mutant gate: every planted defect below must make Tier-1 fail.

Mutation analysis (DeMillo, Lipton and Sayward, IEEE Computer 1978): a
one-line defect that no test catches marks a hole in the test suite.
Each mutant is a file, a text that occurs in it exactly once, the text
that replaces it, the invariant the change breaks, and its killer, the
test that catches it. A mutant whose anchor is gone or repeated fails
the gate: a change that moves the mutated code rewrites the mutant.

    python tests/mutants.py

copies the tree (without `.git`, caches and `test_mutants.py`). Tier-1,
and each killer alone, must pass on the unchanged copy. Then each mutant
goes to a fresh copy, where its killer must exit with code 1 (a test
failed; 2, a collection error, does not count). A killer that does not
is printed as stale, and Tier-1 runs there instead, which must exit 1.
Each run is `PYTEST`, from the copy, with PYTHONPATH set to the copy's
`src` and nothing else; its Hypothesis profile (`conftest.py`) has no
shrink phase, as a gate needs a failure, not a minimal example. Exits 0
when every mutant is caught; it prints each one's first failing test
and seconds.

Pytest does not collect this file; `test_mutants.py` checks every
anchor in seconds.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "--hypothesis-profile=no-shrink")
# test_mutants.py is left out of the copies: a mutant removes its own
# anchor, so that test would fail under every mutant, and catch none
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".bench_out", ".benchmarks", "out", "test_mutants.py")


class AnchorError(ValueError):
    """A mutant's old text does not occur exactly once in its file."""


@dataclass(frozen=True)
class Mutant:
    defect: str
    path: str   # relative to the repository root
    old: str    # occurs exactly once in the file
    new: str
    breaks: str
    killer: str  # a test id under tests/: it passes alone, and fails under the mutant

    def mutated(self, root: Path = ROOT) -> str:
        """The file under `root` with `old` replaced by `new`."""
        text = (root / self.path).read_text()
        if text.count(self.old) != 1:
            raise AnchorError(f"{self.defect}: the old text occurs {text.count(self.old)} "
                              f"times in {self.path}, not once")
        return text.replace(self.old, self.new)


# a client's turn in `protocols.run_round`, and the per-turn hook that ends it
_TURN = ("        for xb, yb in iter_batches(client.dataset.train_x, client.dataset.train_y,\n"
         "                                   batch_size):\n"
         "            if spec.split:\n"
         "                _train_batch_split(client, body, server.opts[cid], xb, yb, bus, rnd)\n"
         "            else:\n"
         "                _train_batch_local(client, xb, yb)\n"
         "        if spec.replicas:\n"
         "            if mean is None:\n"
         "                mean = nn.WeightedMean(body.flat, float(client.sample_count))\n"
         "            else:\n"
         "                mean.add(body.flat, float(client.sample_count))\n")
_HOOK = "        if after_turn is not None:\n            after_turn(cid)\n"

MUTANTS = (
    Mutant("the last partial batch dropped", "src/splitsim/protocols.py",
           "    for start in range(0, len(y), batch_size):",
           "    for start in range(0, len(y) - len(y) % batch_size, batch_size):",
           "one LABELS message per training batch, and every sample trains",
           "test_acceptance.py::test_label_privacy"),
    Mutant("Adam's bias correction at step t + 1", "src/splitsim/nn.py",
           "    bc1 = 1.0 - beta1 ** t\n    bc2 = 1.0 - beta2 ** t",
           "    bc1 = 1.0 - beta1 ** (t + 1)\n    bc2 = 1.0 - beta2 ** (t + 1)",
           "Adam as published; one client equals centralized training",
           "test_flat_params.py::test_chunked_adam_bit_equals_per_array_reference"),
    Mutant("the walker drops the last partial chunk", "src/splitsim/nn.py",
           "    for lo in range(0, n, CHUNK):",
           "    for lo in range(0, n - n % CHUNK, CHUNK):",
           "a chunked pass (an Adam step, a weighted mean) covers every element",
           "test_flat_params.py::test_chunked_adam_bit_equals_per_array_reference"),
    Mutant("an SFv1/SFv3 replica not reset to the round's body", "src/splitsim/protocols.py",
           "            body.flat[...] = server.body.flat\n", "",
           "FL, SFv1 and SFv3 are bit-identical under every order",
           "test_acceptance.py::test_parallel_protocols_order_invariant"),
    Mutant("labels sent under the U-shaped split", "src/splitsim/protocols.py",
           "    if not u_shaped:\n        bus.send(MsgType.LABELS",
           "    if True:\n        bus.send(MsgType.LABELS",
           "labels never leave the client under the U-shaped split",
           "test_acceptance.py::test_parallel_protocols_order_invariant"),
    Mutant("segment means unweighted", "src/splitsim/protocols.py",
           "    weights = {cid: float(clients[cid].sample_count) for cid in ids}",
           "    weights = dict.fromkeys(ids, 1.0)",
           "round-end averages are sample-weighted",
           "test_acceptance.py::test_fl_equals_sfv1"),
    Mutant("replica means unweighted", "src/splitsim/protocols.py",
           "                mean = nn.WeightedMean(body.flat, float(client.sample_count))\n"
           "            else:\n"
           "                mean.add(body.flat, float(client.sample_count))",
           "                mean = nn.WeightedMean(body.flat, 1.0)\n"
           "            else:\n"
           "                mean.add(body.flat, 1.0)",
           "round-end averages are sample-weighted",
           "test_acceptance.py::test_replica_rounds_equal_per_client_copies_over_drawn_configs"),
    Mutant("checkpoint ties keep the latest epoch", "src/splitsim/harness.py",
           "        if best is None or loss < losses[best[0]]:",
           "        if best is None or loss <= losses[best[0]]:",
           "the checkpoint is the earliest epoch of least validation loss",
           "test_harness.py::TestCheckpointRule::test_least_loss_wins"),
    Mutant("the checkpoint is always the last epoch", "src/splitsim/harness.py",
           "        if best is None or loss < losses[best[0]]:",
           "        if True:",
           "the checkpoint is the earliest epoch of least validation loss",
           "test_harness.py::TestCheckpointRule::test_least_loss_wins"),
    Mutant("percent drop divided by `last`, not `abs(last)`", "src/splitsim/metrics.py",
           "    return 100.0 * (last - first) / abs(last)",
           "    return 100.0 * (last - first) / last",
           "a percent drop has the sign of last - first",
           "test_metrics.py::TestPercentDrop::"
           "test_negative_last_keeps_the_sign_of_last_minus_first"),
    Mutant("sensitivity threshold off by one positive", "src/splitsim/metrics.py",
           "    k = int(np.ceil(target * n_pos))",
           "    k = int(np.ceil(target * n_pos)) + 1",
           "the threshold is the largest that reaches the target sensitivity",
           "test_metrics.py::TestThresholdAtSensitivity::test_enumerated_case"),
    Mutant("every client's data IID (angle 0)", "src/splitsim/datagen.py",
           "        angle = k * shift_scale",
           "        angle = 0.0",
           "clients differ by a rotation that grows with their id",
           "test_acceptance.py::test_sequential_order_biases_probe_client"),
    Mutant("SL and SFv2 train the order reversed", "src/splitsim/protocols.py",
           "        return tuple(order) if self.shared_body else",
           "        return tuple(reversed(order)) if self.shared_body else",
           "against a shared body, clients train in the given order",
           "test_acceptance.py::test_sequential_order_biases_probe_client"),
    Mutant("probe-first and probe-last configs swapped in `_rows`", "src/splitsim/harness.py",
           "replace(cfg, order=(cfg.probe, *rest)),\n"
           "                     replace(cfg, order=(*rest, cfg.probe))",
           "replace(cfg, order=(*rest, cfg.probe)),\n"
           "                     replace(cfg, order=(cfg.probe, *rest))",
           "a row's first run trains the probe first",
           "test_acceptance.py::test_sequential_order_biases_probe_client"),
    Mutant("U-shaped tails not averaged (SFv1, SFv2)", "src/splitsim/protocols.py",
           "    n_segments = 2 if any(c.tail.layers for c in clients.values()) else 1",
           "    n_segments = 1",
           "FL and SFv1 give bit-identical models; exact wire byte counts",
           "test_acceptance.py::test_channel_sequences_over_drawn_configs"),
    Mutant("SFv3 averages client segments", "src/splitsim/protocols.py",
           "    SFV3: ProtocolSpec(split=True, replicas=True, average_segments=False),",
           "    SFV3: ProtocolSpec(split=True, replicas=True, average_segments=True),",
           "SFv3 keeps client segments local: no PARAM_BLOB traffic",
           "test_acceptance.py::test_channel_sequences_over_drawn_configs"),
    Mutant("restored round-0 turns leave the bus log unrestored", "src/splitsim/harness.py",
           "            bus.restore_log(log)\n", "",
           "a sweep's shared turns give a standalone run's result and bus log",
           "test_harness.py::TestTrainAhead::test_shared_sweeps_equal_standalone_runs[sl-vanilla]"),
    Mutant("restored round-0 turns trained again", "src/splitsim/harness.py",
           "            order = order[turns.restore(order, clients, server, bus):]\n",
           "            turns.restore(order, clients, server, bus)\n",
           "a run trains only the round-0 turns it did not restore",
           "test_harness.py::TestTrainAhead::test_shared_sweeps_equal_standalone_runs[sl-vanilla]"),
    Mutant("per-turn hook called before the turn trains", "src/splitsim/protocols.py",
           _TURN + _HOOK, _HOOK + _TURN,
           "`after_turn` sees each client's turn as it ends",
           "test_harness.py::TestTrainAhead::test_shared_sweeps_equal_standalone_runs[sl-vanilla]"),
    Mutant("a count of one set again", "src/splitsim/harness.py",
           "    if blas and blas[0]() != 1:",
           "    if blas:",
           "a forked worker never sets OpenBLAS's thread count",
           "test_harness.py::TestBlasThreads::test_a_count_of_one_is_not_set_again"),
    Mutant("a saturated run not raised", "src/splitsim/harness.py",
           '            raise SaturationError(f"epoch {epoch}: every validation probability '
           'is at a clamp bound")',
           "            pass",
           "a run whose validation probabilities all sit at a clamp bound exits 2",
           "test_harness.py::TestStreamingCheckpoint::"
           "test_saturation_needs_every_probability_at_a_bound[None]"),
    Mutant("a dataset label outside {0, 1} let through", "src/splitsim/harness.py",
           "            if not np.all((y == 0) | (y == 1)):",
           "            if False:",
           "a dataset file's labels are 0 or 1, checked before training",
           "test_harness.py::TestCli::test_bad_dataset_contents_exit_1_before_training["
           "train_y-0-2-train split has a label not in {0, 1}]"),
    Mutant("dataset file client ids not checked", "src/splitsim/harness.py",
           "    if ids != list(range(config.n_clients)):",
           "    if False:",
           "a dataset file's first n_clients clients are clients 0 to n_clients - 1",
           "test_harness.py::TestSweeps::"
           "test_datasets_without_clients_0_to_n_rejected[ids0-sweep_order]"),
    Mutant("n_clients below 1 let through", "src/splitsim/harness.py",
           "        if self.n_clients < 1:",
           "        if False:",
           "n_clients below 1 is an input error, also with a dataset file",
           "test_harness.py::TestCli::test_n_clients_below_1_exits_1_before_training[0-run]"),
    Mutant("an overflowing client angle let through", "src/splitsim/harness.py",
           "            if not math.isfinite((self.n_clients - 1) * self.shift_scale):",
           "            if False:",
           "a shift_scale that overflows the last client's angle is an input error",
           "test_harness.py::TestCli::test_overflowing_shift_scale_exits_1_before_generating[run]"),
    Mutant("a run's probe not checked against its clients", "src/splitsim/harness.py",
           "    if config.probe not in client_ids:",
           "    if False:",
           "a run's probe is one of its clients, checked before training",
           "test_harness.py::TestConfig::test_probe_out_of_range"),
    Mutant("a diverged run not raised", "src/splitsim/harness.py",
           '            raise DivergenceError(f"epoch {epoch}: mean validation loss is {loss}")',
           "            pass",
           "a run whose mean validation loss is not finite exits 2",
           "test_harness.py::TestCheckpointRule::test_non_finite_loss_names_the_epoch[nan]"),
)


def pytest(root: Path, *ids: str) -> tuple[int, float, str]:
    """`PYTEST` on the tree at `root`, of the test ids under `tests/` or,
    given none, of Tier-1: its exit code, its seconds and its first
    failing test ('' if none)."""
    start = time.perf_counter()
    done = subprocess.run((*PYTEST, *(f"tests/{id_}" for id_ in ids)), cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", done.stdout, re.MULTILINE)
    return done.returncode, time.perf_counter() - start, failed.group(1) if failed else ""


def main() -> int:
    for mutant in MUTANTS:  # every anchor before any run: a stale one fails in a second
        mutant.mutated()
    with tempfile.TemporaryDirectory(prefix="splitsim-mutants-") as scratch:
        unchanged = Path(scratch) / "unchanged"
        shutil.copytree(ROOT, unchanged, ignore=NOT_COPIED)
        code, seconds, _ = pytest(unchanged)
        print(f"unchanged tree: exit {code} in {seconds:.0f} s", flush=True)
        for killer in dict.fromkeys(mutant.killer for mutant in MUTANTS):
            killed, seconds, _ = pytest(unchanged, killer)
            print(f"killer alone on the unchanged tree: exit {killed} in {seconds:.0f} s: {killer}",
                  flush=True)
            code = code or killed
        if code != 0:
            return 1
        caught = 0
        for i, mutant in enumerate(MUTANTS):
            copy = Path(scratch) / f"mutant{i}"
            shutil.copytree(unchanged, copy, ignore=NOT_COPIED)
            (copy / mutant.path).write_text(mutant.mutated(copy))
            code, seconds, first = pytest(copy, mutant.killer)
            if code != 1:
                print(f"STALE killer of {mutant.defect}: exit {code}: {mutant.killer}; "
                      f"running Tier-1", flush=True)
                code, more, first = pytest(copy)
                seconds += more
            caught += code == 1
            outcome = "caught" if code == 1 else f"SURVIVED (unchecked: {mutant.breaks})"
            print(f"{outcome}: {mutant.defect}: exit {code} in {seconds:.0f} s, "
                  f"first failure {first or '-'}", flush=True)
            shutil.rmtree(copy)
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
