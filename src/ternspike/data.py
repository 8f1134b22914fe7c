"""Dataset ingestion and encoding.

Static datasets hold flat per-sample feature vectors that are repeated at
every timestep (direct encoding); neuromorphic datasets hold one sparse
signed frame per timestep and feed the network one frame at a time.

The IDX reader/writer speaks the classic big-endian format (magic
0x00000803 for ubyte image tensors, 0x00000801 for ubyte label vectors), and
writing a parsed dataset back reproduces the original bytes exactly.
Synthetic generators are pure functions of their parameters and generator
stream, recorded in a key=value manifest alongside generated corpora.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, DimensionError, FormatError, LengthError
from .numerics import Array

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Immutable sample collection.

    ``inputs`` is (N, D) for static data and (N, T, D) for neuromorphic
    event frames; labels are integers in [0, num_classes).
    """

    inputs: Array
    labels: Array
    kind: str
    num_classes: int

    def __post_init__(self) -> None:
        if self.kind not in ("static", "neuromorphic"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        want = 2 if self.kind == "static" else 3
        if self.inputs.ndim != want:
            raise DimensionError(f"{self.kind} inputs must be {want}-d, got shape {self.inputs.shape}")
        if len(self.labels) != len(self.inputs):
            raise ConsistencyError(f"{len(self.inputs)} inputs but {len(self.labels)} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    @property
    def feature_dim(self) -> int:
        return self.inputs.shape[-1]

    def subset(self, idx) -> "Dataset":
        return replace(self, inputs=self.inputs[idx], labels=self.labels[idx])


def encode_batch(data: Dataset, idx, n_steps: int):
    """Materialize one batch as a per-timestep input sequence.

    Static samples are direct-encoded (repeated); neuromorphic samples must
    carry exactly ``n_steps`` frames, and come as one contiguous (T, B, D)
    array gathered in a single copy, which ``network.forward`` takes as is.
    """
    labels = data.labels[idx]
    if data.kind == "static":
        return direct_encode(data.inputs[idx], n_steps), labels
    if data.inputs.shape[1] != n_steps:
        raise DimensionError(f"dataset has {data.inputs.shape[1]} frames per sample, network expects {n_steps}")
    return data.inputs[np.asarray(idx)[None], np.arange(n_steps)[:, None]], labels


def direct_encode(x: Array, n_steps: int) -> list[Array]:
    """Repeat a static input identically at every timestep."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    x = np.asarray(x, dtype=np.float64)
    return [x for _ in range(n_steps)]


# ---------------------------------------------------------------------------
# IDX format
# ---------------------------------------------------------------------------


def _parse_idx(blob: bytes, magic: int, sizes: tuple[str, ...], what: str) -> np.ndarray:
    """uint8 payload of an IDX blob whose header is ``magic`` and then one u32 per
    named size, shaped by those sizes.  Every fault names its byte offset: a short
    header or payload, a wrong magic, a zero size, or bytes after the payload."""
    start = 4 * (1 + len(sizes))
    if len(blob) < start:
        raise LengthError(f"{what}: header ends at offset {len(blob)}, short of offset {start}")
    found, *dims = struct.unpack_from(f">{1 + len(sizes)}I", blob)
    if found != magic:
        raise FormatError(f"{what}: bad magic 0x{found:08x} at offset 0 (want 0x{magic:08x})")
    for i, (name, size) in enumerate(zip(sizes, dims)):
        if size == 0:
            raise FormatError(f"{what}: {name} is 0 at offset {4 + 4 * i}")
    end = start + math.prod(dims)
    if len(blob) < end:
        raise LengthError(f"{what}: payload ends at offset {len(blob)}, header promises offset {end}")
    if len(blob) > end:
        raise FormatError(f"{what}: {len(blob) - end} trailing bytes at offset {end}")
    return np.frombuffer(blob, dtype=np.uint8, offset=start).reshape(dims).copy()


def parse_idx_images(blob: bytes) -> np.ndarray:
    """Big-endian IDX ubyte image tensor -> uint8 array (N, rows, cols)."""
    return _parse_idx(blob, IDX_IMAGES_MAGIC, ("count", "rows", "cols"), "idx images")


def parse_idx_labels(blob: bytes) -> np.ndarray:
    """Big-endian IDX ubyte label vector -> uint8 array (N,)."""
    return _parse_idx(blob, IDX_LABELS_MAGIC, ("count",), "idx labels")


def write_idx_images(images: np.ndarray) -> bytes:
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes()


def write_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    return struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + labels.tobytes()


def idx_dataset(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> Dataset:
    """Parsed IDX images (N, rows, cols) and labels (N,), read from the two named
    files, as a static dataset in [0, 1]."""
    if len(images) != len(labels):
        raise ConsistencyError(
            f"{images_path} holds {len(images)} images but {labels_path} holds {len(labels)} labels"
        )
    flat = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return Dataset(inputs=flat, labels=labels.astype(np.int64), kind="static", num_classes=int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def dataset_stats(ds: Dataset) -> tuple[float, float]:
    """Global mean and standard deviation over every input value."""
    return float(ds.inputs.mean()), float(ds.inputs.std())


def normalize(ds: Dataset, mean: float, std: float) -> Dataset:
    """Shift and scale all input values: (x - mean) / std."""
    if std <= 0.0:
        raise ValueError(f"std must be positive, got {std}")
    return replace(ds, inputs=(ds.inputs - mean) / std)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------


def synth_static(
    n: int,
    dims: int,
    classes: int,
    margin: float,
    rng: np.random.Generator,
    mirror: bool = False,
) -> Dataset:
    """Gaussian class blobs with unit noise and controllable separation.

    Class centers sit ``margin`` from the origin along orthogonal axes when
    ``dims >= classes`` (pairwise distance margin * sqrt(2)), otherwise along
    random unit directions.  Labels are assigned round-robin, so class counts
    differ by at most one sample.

    With ``mirror`` each class is an antipodal pair of blobs at +-center;
    the corpus then has no linear solution and hidden features must learn a
    sign-invariant. This is the default classification task of the command
    line, since it makes hidden-layer trainability the binding constraint.
    """
    if n < 1 or dims < 1 or classes < 1:
        raise ValueError("n, dims, classes must all be positive")
    if dims >= classes:
        centers = np.zeros((classes, dims))
        centers[np.arange(classes), np.arange(classes)] = margin
    else:
        dirs = rng.normal(size=(classes, dims))
        centers = margin * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    labels = np.arange(n, dtype=np.int64) % classes
    means = centers[labels]
    if mirror:
        means = np.where(rng.random(n)[:, None] < 0.5, means, -means)
    inputs = means + rng.standard_normal((n, dims))
    return Dataset(inputs=inputs, labels=labels, kind="static", num_classes=classes)


def synth_event_frames(
    n: int,
    dims: int,
    n_steps: int,
    rate: float,
    rng: np.random.Generator,
    classes: int = 2,
    sign_noise: float = 0.1,
) -> Dataset:
    """Sparse signed event frames with a class-specific spatiotemporal code.

    Each class owns a fixed {-1, +1} template per (timestep, pixel); a pixel
    is active independently with probability ``rate`` and carries the
    template sign, flipped with probability ``sign_noise``.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    templates = np.where(rng.random((classes, n_steps, dims)) < 0.5, -1.0, 1.0)
    labels = np.arange(n, dtype=np.int64) % classes
    active = rng.random((n, n_steps, dims)) < rate
    flips = np.where(rng.random((n, n_steps, dims)) < sign_noise, -1.0, 1.0)
    inputs = active * templates[labels] * flips
    return Dataset(inputs=inputs, labels=labels, kind="neuromorphic", num_classes=classes)


def write_manifest(path, params: dict) -> None:
    """Record generator parameters and seed as sorted key=value lines."""
    with open(path, "w") as f:
        for key in sorted(params):
            f.write(f"{key}={params[key]}\n")
