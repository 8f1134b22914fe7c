"""Dataset ingestion and encoding.

Static datasets hold flat float64 per-sample feature vectors, and a batch is
one (1, B, D) input shared by every timestep (direct encoding); neuromorphic
datasets hold one sparse signed int8 {-1, 0, +1} frame per timestep, and a
batch is widened to one (T, B, D) float64 array once when it is gathered.

The IDX reader parses the classic big-endian format (magic 0x00000803 for
ubyte image tensors, 0x00000801 for ubyte label vectors) and rejects a file
whose header, sizes or length disagree, naming the byte offset.
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
_DRAW_CHUNK = 1 << 16  # uniforms per draw while generating event frames: 512 KiB of float64


@dataclass
class Dataset:
    """Immutable sample collection.

    ``inputs`` is (N, D) float data for static samples and (N, T, D) int8 event
    frames for neuromorphic ones; labels are integers in [0, num_classes).
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
        if self.kind == "neuromorphic" and self.inputs.dtype != np.int8:
            raise TypeError(f"neuromorphic inputs must be int8 event frames, got {self.inputs.dtype}")
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
    """Materialize one batch as a (T', batch, input) array and its labels.

    Static samples are direct-encoded as one (1, B, D) input, which
    ``network.forward`` shares across timesteps; neuromorphic samples must
    carry exactly ``n_steps`` frames and come as one contiguous float64
    (T, B, D) array, gathered as int8 and widened once.  Both are taken as is.
    """
    labels = data.labels[idx]
    if data.kind == "static":
        return data.inputs[idx][None], labels
    if data.inputs.shape[1] != n_steps:
        raise DimensionError(f"dataset has {data.inputs.shape[1]} frames per sample, network expects {n_steps}")
    return data.inputs[np.asarray(idx)[None], np.arange(n_steps)[:, None]].astype(np.float64), labels


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


def normalize(ds: Dataset, mean: float, std: float, out: Array | None = None) -> Dataset:
    """Shift and scale all input values, (x - mean) / std, into one array: ``out``
    when given (which may be ``ds.inputs`` itself), else a new one."""
    if std <= 0.0:
        raise ValueError(f"std must be positive, got {std}")
    inputs = np.subtract(ds.inputs, mean, out=out)
    inputs /= std
    return replace(ds, inputs=inputs)


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
    flip = rng.random(n)[:, None] >= 0.5 if mirror else None  # drawn before the noise
    inputs = rng.standard_normal((n, dims))  # the noise is the output; the means are added into it
    for c in range(classes):  # round-robin labels: class c owns rows c, c + classes, ...
        rows = inputs[c::classes]
        if flip is None:
            rows += centers[c]
        else:  # z - center is z + (-center) bit for bit
            np.add(rows, centers[c], out=rows, where=~flip[c::classes])
            np.subtract(rows, centers[c], out=rows, where=flip[c::classes])
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
    """Sparse signed int8 event frames with a class-specific spatiotemporal code.

    Each class owns a fixed {-1, +1} template per (timestep, pixel); a pixel
    is active independently with probability ``rate`` and carries the
    template sign, flipped with probability ``sign_noise``.  The frames start
    as the templates of their labels and are masked, then flipped, in place;
    each pass draws its uniforms in sample order, ``_DRAW_CHUNK`` at a time,
    so the corpus holds its int8 result and one chunk of draws at most.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    templates = np.where(rng.random((classes, n_steps, dims)) < 0.5, -1, 1).astype(np.int8)
    labels = np.arange(n, dtype=np.int64) % classes
    inputs = templates[labels]
    flat = inputs.reshape(-1)
    draws = np.empty(min(flat.size, _DRAW_CHUNK))
    for prob, flip in ((rate, False), (sign_noise, True)):  # the activity pass, then the sign flips
        for lo in range(0, flat.size, _DRAW_CHUNK):
            part = flat[lo : lo + _DRAW_CHUNK]
            hit = rng.random(out=draws[: part.size]) < prob
            if flip:
                np.negative(part, out=part, where=hit)
            else:
                part *= hit
    return Dataset(inputs=inputs, labels=labels, kind="neuromorphic", num_classes=classes)


def write_manifest(path, params: dict) -> None:
    """Record generator parameters and seed as sorted key=value lines."""
    with open(path, "w") as f:
        for key in sorted(params):
            f.write(f"{key}={params[key]}\n")
