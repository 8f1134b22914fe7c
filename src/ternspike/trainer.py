"""Training loop: SGD with momentum, cosine-annealed learning rate, metrics.

One trainer updates the network's parameter vector in place for a whole run.
All randomness (shuffling) derives from the run seed, gradient accumulation
order is fixed, and metrics are written with repr-exact floats, so two runs
with the same configuration produce byte-identical outputs.

The final model is persisted in a flat binary format:

    magic   8 bytes   b"TSPKNET1"
    version u32 LE    2
    kind    u8        0 = ternary, 1 = ctsn_static, 2 = ctsn_neuromorphic
    reset   u8        always 0 (the hard reset, the only one)
    n_hidden u16 LE   number of hidden (spiking) layers
    n_arrays u32 LE   total array count
    then per array: ndim u32 LE, dims u32 LE each, payload float64 LE
    array order: network.param_layout (layer 0 w, b, [omega (3,)], layer 1 ..., readout w, b)
    crc32   u32 LE    zlib CRC-32 of every byte before it

Version 1 files are the same without the trailing CRC; they still load.  The loader
checks the bytes and shapes, then hands ``Network`` the arrays as one vector.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import bptt, network as net_mod
from .data import Dataset, encode_batch
from .errors import FormatError, LengthError, NumericError
from .loss import TMPRConfig
from .neuron import NeuronConfig, effective_params
from .numerics import Array, component_rng

MODEL_MAGIC = b"TSPKNET1"
MODEL_VERSION = 2
_KIND_CODES = {"ternary": 0, "ctsn_static": 1, "ctsn_neuromorphic": 2}
_RESET_CODES = {"hard": 0}
_EVAL_ENTRIES = 1 << 18  # entries of one (T, B, D) array of an eval forward: 2 MiB of float64


@dataclass
class TrainConfig:
    """Optimization settings.  Desk-scale defaults; momentum 0.9 throughout.

    ``weight_decay`` applies to weights and biases only, never to the
    complemented neuron's omega triples (decaying those would silently pull
    the mixing factors back toward 0.5).
    """

    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0
    n_steps: int = 4
    tmpr: TMPRConfig = field(default_factory=TMPRConfig)


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Cosine annealing from lr0 at epoch 0 to exactly 0 at the final epoch."""
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr0 * 0.5 * (1.0 + float(np.cos(np.pi * epoch / total_epochs)))


_SGD_BLOCK = 1 << 15  # entries per update block: the operands of a block stay in cache across its passes


def sgd_step(
    net: net_mod.Network,
    grads: bptt.GradSet,
    vel: bptt.GradSet,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """In-place momentum update of the parameter vector, block by block through one
    small scratch buffer: v <- m*v + (g + d); p <- p - lr*v, where d = wd*p, and 0*p
    on the omega entries.  ``vel`` is the momentum (start from ``GradSet.zeros_like``).
    A non-finite gradient raises before the update, leaving the model untouched, and
    a non-finite parameter after it, so none reaches ``save_model``.  Both are found
    by a sum under one ``errstate``: the gradient's before the update, and each
    block's right after its update, while it is in cache; the arrays are scanned by
    name only when a sum is not finite."""
    p, g, v = net.params, grads.vector, vel.vector
    scratch = np.empty(min(p.size, _SGD_BLOCK))
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        if not math.isfinite(np.add.reduce(g)):
            grads.check_finite()
        for lo in range(0, p.size, _SGD_BLOCK):
            hi = min(lo + _SGD_BLOCK, p.size)
            pb, vb = p[lo:hi], v[lo:hi]
            d = np.multiply(pb, weight_decay, out=scratch[: hi - lo])
            for span in net.omega_slices:
                a, b = max(span.start, lo), min(span.stop, hi)
                if a < b:
                    np.multiply(p[a:b], 0.0, out=d[a - lo : b - lo])
            d += g[lo:hi]
            vb *= momentum
            vb += d
            np.multiply(vb, lr, out=d)
            pb -= d
            total += np.add.reduce(pb)
    if not math.isfinite(total):
        bptt.GradSet.of(net).check_finite("parameter")


def check_omega_constraint(net: net_mod.Network) -> None:
    """The effective mixing factors must stay strictly inside (0, 1)."""
    for l, layer in enumerate(net.layers):
        if layer.omega is None:
            continue
        for name, val in zip(("alpha", "beta", "gamma"), effective_params(layer.omega)):
            if not 0.0 < val < 1.0:
                raise NumericError(f"layer {l} effective {name} = {val} left (0, 1)")


def train_epoch(
    net: net_mod.Network,
    data: Dataset,
    cfg: TrainConfig,
    epoch: int,
    vel: bptt.GradSet,
) -> dict:
    """One pass over the data: forward, losses, exact backward, SGD update.

    Returns epoch-mean metrics with the classifier and regularizer losses
    reported separately.
    """
    n = len(data.labels)
    if n == 0:
        raise ValueError("empty dataset")
    order = component_rng(cfg.seed, 1, epoch).permutation(n)
    lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
    ce_sum = tmpr_sum = 0.0
    correct = 0
    for start in range(0, n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        xs_seq, labels = encode_batch(data, idx, cfg.n_steps)
        try:
            ce, tmpr_val, avg, grads = bptt.loss_and_grads(net, xs_seq, labels, cfg.tmpr)
            sgd_step(net, grads, vel, lr, cfg.momentum, cfg.weight_decay)
            del grads  # so the next batch's gradient vector can take its memory
            if not (math.isfinite(ce) and math.isfinite(tmpr_val)):
                raise NumericError(f"non-finite loss: ce {ce!r}, tmpr {tmpr_val!r}")
        except NumericError as exc:
            raise NumericError(f"batch starting at sample {start}: {exc}") from exc
        ce_sum += ce * len(idx)
        tmpr_sum += tmpr_val * len(idx)
        correct += int(np.add.reduce(avg.argmax(axis=1) == labels))  # network.predict(logits) == labels
    check_omega_constraint(net)
    return {
        "lr": lr,
        "ce_loss": ce_sum / n,
        "tmpr_loss": tmpr_sum / n,
        "train_acc": correct / n,
    }


def eval_batches(net: net_mod.Network, data: Dataset):
    """Forward the dataset in order; yield (labels, logits, cache) per batch.

    A batch holds max(1, 2**18 // (T * D)) samples, D the widest layer (input, hidden
    or readout), so each (T, B, D) array of a forward stays within 2 MiB: 768 samples
    on 16-12-12 at T=4, 81 on 784-800-800.  A sample's logits do not depend on its
    batch (a test pins this for the BLAS in use).  The generator keeps no reference to
    a yielded trace, so a consumer that drops it holds one trace at a time.
    """
    n = len(data.labels)
    widest = max([net.input_dim] + [layer.w.shape[1] for layer in net.layers + [net.readout]])
    batch_size = max(1, _EVAL_ENTRIES // (net.n_steps * widest))
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        xs_seq, labels = encode_batch(data, idx, net.n_steps)
        yield (labels, *net_mod.forward(net, xs_seq))


def evaluate(net: net_mod.Network, data: Dataset) -> float:
    """Fraction of correct time-averaged predictions over the dataset."""
    n = len(data.labels)
    if n == 0:
        return 0.0
    correct = 0
    for labels, logits, cache in eval_batches(net, data):
        del cache  # free this trace before the next batch's forward
        correct += int(np.add.reduce(net_mod.predict(logits) == labels))
    return correct / n


def fit(
    net: net_mod.Network,
    train_data: Dataset,
    eval_data: Dataset,
    cfg: TrainConfig,
    metrics_path=None,
) -> list[dict]:
    """Full training run.  The metrics CSV, one row per epoch, is written once after the last
    epoch, so a run stopped by a numeric error (exit 3) leaves no file."""
    vel = bptt.GradSet.zeros_like(net)
    history = []
    rows = ["epoch,lr,ce_loss,tmpr_loss,train_acc,eval_acc"]
    for epoch in range(cfg.epochs):
        metrics = train_epoch(net, train_data, cfg, epoch, vel)
        metrics["epoch"] = epoch
        metrics["eval_acc"] = evaluate(net, eval_data)
        history.append(metrics)
        rows.append(
            f"{epoch},{metrics['lr']!r},{metrics['ce_loss']!r},{metrics['tmpr_loss']!r},"
            f"{metrics['train_acc']!r},{metrics['eval_acc']!r}"
        )
    if metrics_path is not None:
        with open(metrics_path, "w") as f:
            f.write("\n".join(rows) + "\n")
    return history


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def save_model(path, net: net_mod.Network) -> None:
    """Write the model file (format above) straight from the parameter views: the header,
    then each array's header and buffer, with the CRC taken as the bytes go out."""
    arrays = [a for _, a in bptt.GradSet.of(net).named()]
    chunks = [MODEL_MAGIC + struct.pack("<IBBHI", MODEL_VERSION, _KIND_CODES[net.cfg.kind],
                                        _RESET_CODES[net.cfg.reset], len(net.layers), len(arrays))]
    for arr in arrays:
        chunks += [struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f8").reshape(-1)]
    crc = 0
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def load_model(path, cfg: NeuronConfig, n_steps: int) -> net_mod.Network:
    """Rebuild a network from a model file (see ``parse_model``)."""
    with open(path, "rb") as f:
        return parse_model(f.read(), cfg, n_steps, path)


def parse_model(blob: bytes, cfg: NeuronConfig, n_steps: int, name) -> net_mod.Network:
    """Rebuild a network from the flat binary format; ``name`` labels the messages.  ``cfg``
    gives the neuron semantics, whose kind and reset must match the saved ones.  Reads versions
    1 and 2; a version 2 blob whose CRC does not match its bytes raises ``FormatError``, and so
    does an array holding a NaN or an infinity."""
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise LengthError(f"model file truncated at offset {off}")
        out = blob[off : off + n]
        off += n
        return out

    if take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise FormatError(f"bad model magic at offset 0 in {name}")
    (version,) = struct.unpack("<I", take(4))
    if version not in (1, 2):
        raise FormatError(f"unsupported model version {version}")
    if version == 2:  # v2 ends in a CRC-32 of every byte before it
        crc_off = len(blob) - 4
        if crc_off < off:
            raise LengthError(f"model file truncated at offset {len(blob)}")
        if struct.unpack("<I", blob[crc_off:])[0] != zlib.crc32(blob[:crc_off]):
            raise FormatError(f"checksum mismatch at offset {crc_off} in {name}")
        blob = blob[:crc_off]
    for key, codes, want in (("kind", _KIND_CODES, cfg.kind), ("reset", _RESET_CODES, cfg.reset)):
        at, code = off, take(1)[0]
        saved = {v: k for k, v in codes.items()}.get(code)
        if saved is None:
            raise FormatError(f"unknown {key} code {code} at offset {at} in {name}")
        if saved != want:
            raise FormatError(f"saved {key} {saved!r} at offset {at} in {name}, config says {want!r}")
    (n_hidden,) = struct.unpack("<H", take(2))
    (n_arrays,) = struct.unpack("<I", take(4))
    arrays, offsets = [], []
    for _ in range(n_arrays):
        offsets.append(off)
        (ndim,) = struct.unpack("<I", take(4))
        if ndim > 2:
            raise FormatError(f"array at offset {offsets[-1]} has {ndim} dimensions, at most 2")
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        arrays.append(np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape))
        if not np.isfinite(arrays[-1]).all():
            raise FormatError(f"array at offset {offsets[-1]} holds a non-finite value")
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes at offset {off}")
    weights = [a for a in arrays if a.ndim == 2]  # each hidden layer's w, then the readout's
    if n_hidden < 1 or len(weights) != n_hidden + 1:
        raise FormatError(f"{len(weights)} weight arrays inconsistent with {n_hidden} hidden layers")
    dims, n_classes = [len(weights[0])] + [w.shape[1] for w in weights[:-1]], weights[-1].shape[1]
    layout = net_mod.param_layout(dims, n_classes, cfg.is_ctsn)
    if n_arrays != len(layout):
        raise FormatError(f"array count {n_arrays} inconsistent with {n_hidden} hidden layers")
    for (name, (_, shape)), arr, at in zip(layout.items(), arrays, offsets):
        if arr.shape != shape:
            raise FormatError(f"{name} array at offset {at} has shape {arr.shape}, the layout needs {shape}")
    return net_mod.Network(dims, n_classes, cfg, n_steps, np.concatenate([a.ravel() for a in arrays]))
