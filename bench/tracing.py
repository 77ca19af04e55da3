"""Span tracer for the benchmark's traced run.

Wraps splitsim's public functions at the names their callers look up
(`protocols.adam_step`, `harness.forward`, `ChannelBus.send`, ...), so the
program itself carries no instrumentation. Each call records a span: name,
start, end, parent span and the op it belongs to, kept in flat in-memory
arrays and written out once at the end. Self time is a span's duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter

import numpy as np

from splitsim import datagen, harness, metrics, nn, protocols, transport

# (owner, attribute, span name). A function bound under several names gets
# one entry per name its callers use; each call passes through exactly one.
TARGETS = (
    (protocols, "forward", "nn.forward"),
    (harness, "forward", "nn.forward"),
    (protocols, "backward", "nn.backward"),
    (protocols, "bce_loss", "nn.bce_loss"),
    (nn, "bce_loss", "nn.bce_loss"),  # harness imports it at call time
    (protocols, "adam_step", "nn.adam_step"),
    (nn.SequentialModel, "clone", "nn.clone"),
    (nn, "flatten_params", "nn.flatten_params"),
    (nn, "unflatten_params", "nn.unflatten_params"),
    (transport, "encode", "transport.encode"),
    (transport, "decode", "transport.decode"),
    (transport.ChannelBus, "send", "transport.send"),
    (transport.ChannelBus, "recv", "transport.recv"),
    (harness, "run_round", "protocols.run_round"),
    (protocols, "average_models", "protocols.average_models"),
    (harness, "composed_model", "protocols.composed_model"),
    (harness, "make_clients", "protocols.make_clients"),
    (protocols, "split_model", "model_split.split_model"),
    (metrics, "evaluate", "metrics.evaluate"),
    (datagen, "generate_clients", "datagen.generate_clients"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "sweep_order", "harness.sweep_order"),
    (harness, "sweep_client_count", "harness.sweep_client_count"),
    (harness, "render_table", "harness.render_table"),
)

# per-layer metrics: span name -> the summary fields reported for it
REPORTED = {
    "nn.forward": ("calls", "s"),
    "nn.backward": ("calls", "s"),
    "nn.bce_loss": ("calls", "s"),
    "nn.adam_step": ("calls", "s"),
    "nn.clone": ("calls", "s"),
    "nn.flatten_params": ("calls", "s"),
    "nn.unflatten_params": ("calls", "s"),
    "transport.encode": ("calls", "s", "bytes"),
    "transport.decode": ("calls", "s", "bytes"),
    "transport.send": ("calls", "self_s"),
    "transport.recv": ("calls", "self_s"),
    "protocols.run_round": ("calls", "self_s"),
    "protocols.average_models": ("calls", "s"),
    "protocols.composed_model": ("calls", "s"),
    "protocols.make_clients": ("calls", "s"),
    "model_split.split_model": ("calls", "s"),
    "metrics.evaluate": ("calls", "s"),
    "datagen.generate_clients": ("calls", "s"),
    "harness.run_experiment": ("calls", "self_s"),
    "harness.sweep_order": ("s",),
    "harness.sweep_client_count": ("s",),
    "harness.render_table": ("calls", "failed"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "bytes", "failed": "count"}

# wire bytes a codec call handled, from its arguments and result
BYTES = {
    "transport.encode": lambda args, result: len(result),
    "transport.decode": lambda args, result: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.op = -1
        self.bytes: Counter = Counter()
        self.failed: Counter = Counter()
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with a recording wrapper while inside."""
        restore = []
        try:
            for owner, attr, name in TARGETS:
                original = getattr(owner, attr)
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        nid = self._name(name)
        count_bytes = BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                self._close(idx)
            if count_bytes is not None:
                self.bytes[name] += count_bytes(args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, bytes, failed."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=dur, minlength=n)
        self_s = np.bincount(name_id, weights=dur - covered, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_s[i]), "bytes": self.bytes[name],
                       "failed": self.failed[name]}
                for i, name in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, dict]:
        """The REPORTED fields of every span name, as benchmark metrics."""
        summary = self.summary()
        return {f"{name}.{field}": {"value": summary[name][field], "unit": UNITS[field]}
                for name, fields in REPORTED.items() for field in fields}

    def write(self, path) -> None:
        """Save the spans as arrays: start, end, parent, name, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), name=np.asarray(self.name_id),
                 op=np.asarray(self.op_id), names=np.asarray(json.dumps(self.names)))
