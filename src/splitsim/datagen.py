"""Deterministic synthetic non-IID data.

Each client draws from two class-conditional Gaussian clusters whose
separation vector is rotated by a client-specific angle, so inter-client
shift grows smoothly with the client index. Train splits are balanced
(50% positive); val/test splits are at 10% prevalence, mirroring the
deliberate prevalence mismatch of the target setting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .transport import CorruptStream, TrailingBytes, Truncated

TRAIN_PREVALENCE = 0.5
EVAL_PREVALENCE = 0.1
SEPARATION = 2.0  # distance between a client's two class means

# Per-client example counts, scaled down 10x from the reference cohort
# (train 1816/3772/1150/880/1090, val/test 500 each).
DESK_TRAIN_COUNTS = (182, 377, 115, 88, 109)
DESK_EVAL_COUNT = 50


class ManifestError(ValueError):
    """Counts too small to hit the prevalence targets."""


@dataclass(frozen=True)
class PartitionManifest:
    train_counts: tuple[int, ...]
    val_counts: tuple[int, ...]
    test_counts: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.train_counts) == len(self.val_counts) == len(self.test_counts)):
            raise ManifestError("per-split count lists must have equal length")
        for counts, prev in ((self.train_counts, TRAIN_PREVALENCE),
                             (self.val_counts, EVAL_PREVALENCE),
                             (self.test_counts, EVAL_PREVALENCE)):
            for n in counts:
                if n < 2 or round(n * prev) < 1 or round(n * prev) >= n:
                    raise ManifestError(f"count {n} cannot hit prevalence {prev}")

    @property
    def n_clients(self) -> int:
        return len(self.train_counts)


def desk_manifest(n_clients: int = 5, eval_count: int = DESK_EVAL_COUNT) -> PartitionManifest:
    """The desk-scale cohort's first n_clients, each with eval_count
    val and eval_count test samples."""
    if not (1 <= n_clients <= len(DESK_TRAIN_COUNTS)):
        raise ManifestError(f"desk manifest supports 1..{len(DESK_TRAIN_COUNTS)} clients")
    return PartitionManifest(
        DESK_TRAIN_COUNTS[:n_clients],
        (eval_count,) * n_clients,
        (eval_count,) * n_clients,
    )


@dataclass
class ClientDataset:
    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    angle: float = 0.0  # rotation of this client's class-separation vector

    @property
    def sample_count(self) -> int:
        return len(self.train_y)

    def split(self, name: str):
        return {"train": (self.train_x, self.train_y),
                "val": (self.val_x, self.val_y),
                "test": (self.test_x, self.test_y)}[name]


def _separation_vector(d: int, angle: float) -> np.ndarray:
    # rotate the base vector (SEPARATION along axis 0) in the (0, 1) plane
    v = np.zeros(d)
    v[0] = SEPARATION * np.cos(angle)
    v[1] = SEPARATION * np.sin(angle)
    return v


def _draw_split(rng, n: int, d: int, sep: np.ndarray, prev_target: float):
    n_pos = int(round(n * prev_target))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    labels = labels[rng.permutation(n)]
    means = np.where(labels[:, None] == 1, sep / 2.0, -sep / 2.0)
    feats = means + rng.normal(0.0, 1.0, size=(n, d))
    return feats, labels


def generate_clients(manifest: PartitionManifest, d: int = 8,
                     shift_scale: float = 0.6, seed: int = 0) -> list[ClientDataset]:
    """Deterministic in (manifest, d, shift_scale, seed): client k's class
    means sit at ±v/2 with v the base separation vector (length
    SEPARATION) rotated by k * shift_scale radians, with unit-variance
    noise. shift_scale 0 gives the IID control arm."""
    if not (shift_scale >= 0 and np.isfinite((manifest.n_clients - 1) * shift_scale)):
        raise ValueError("shift_scale must be >= 0 and give every client a finite angle")
    if d < 2:
        raise ValueError("need at least 2 feature dimensions for rotations")
    clients = []
    for k in range(manifest.n_clients):
        rng = np.random.default_rng([seed, k])
        angle = k * shift_scale
        sep = _separation_vector(d, angle)
        train_x, train_y = _draw_split(rng, manifest.train_counts[k], d, sep, TRAIN_PREVALENCE)
        val_x, val_y = _draw_split(rng, manifest.val_counts[k], d, sep, EVAL_PREVALENCE)
        test_x, test_y = _draw_split(rng, manifest.test_counts[k], d, sep, EVAL_PREVALENCE)
        clients.append(ClientDataset(k, train_x, train_y, val_x, val_y,
                                     test_x, test_y, angle))
    return clients


# --- flat binary export/import -------------------------------------------

_FILE_MAGIC = b"SDS1"


def save_clients(path, clients: list[ClientDataset]) -> None:
    """Flat binary layout: magic, u32 d, u32 n_clients, then per client
    (u32 id, f64 angle, u32 train/val/test counts, then per split the
    little-endian f64 features followed by one label byte per sample)."""
    d = clients[0].train_x.shape[1]
    with open(path, "wb") as f:
        f.write(_FILE_MAGIC)
        f.write(struct.pack("<II", d, len(clients)))
        for c in clients:
            f.write(struct.pack("<IdIII", c.client_id, c.angle,
                                len(c.train_y), len(c.val_y), len(c.test_y)))
            for x, y in (c.split("train"), c.split("val"), c.split("test")):
                f.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
                f.write(np.asarray(y, dtype=np.uint8).tobytes())


def load_clients(path) -> list[ClientDataset]:
    """Inverse of save_clients; raises CorruptStream (bad magic),
    Truncated (file ends inside a declared field) or TrailingBytes
    (bytes after the last client)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _FILE_MAGIC:
        raise CorruptStream("not a dataset file (bad magic)")
    off = 4

    def take(n_bytes: int) -> int:
        """Offset of the next n_bytes; advances past them."""
        nonlocal off
        if len(data) < off + n_bytes:
            raise Truncated(f"dataset file ends at byte {len(data)}, "
                            f"needs {off + n_bytes}")
        off += n_bytes
        return off - n_bytes

    d, n_clients = struct.unpack_from("<II", data, take(8))
    clients = []
    for _ in range(n_clients):
        cid, angle, n_train, n_val, n_test = struct.unpack_from(
            "<IdIII", data, take(struct.calcsize("<IdIII")))
        splits = []
        for n in (n_train, n_val, n_test):
            x = np.frombuffer(data, dtype="<f8", count=n * d,
                              offset=take(8 * n * d)).reshape(n, d).copy()
            y = np.frombuffer(data, dtype=np.uint8, count=n, offset=take(n)).astype(np.int64)
            splits.append((x, y))
        clients.append(ClientDataset(cid, splits[0][0], splits[0][1],
                                     splits[1][0], splits[1][1],
                                     splits[2][0], splits[2][1], angle))
    if off != len(data):
        raise TrailingBytes(f"{len(data) - off} bytes after the last client")
    return clients

