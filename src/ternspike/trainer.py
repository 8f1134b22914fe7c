"""Training loop: SGD with momentum, cosine-annealed learning rate, metrics.

One trainer updates the network's parameter vector in place for a whole run.
All randomness (shuffling) derives from the run seed, gradient accumulation
order is fixed, and metrics are written with repr-exact floats, so two runs
with the same configuration produce byte-identical outputs.

The final model is persisted in a flat binary format:

    magic   8 bytes   b"TSPKNET1"
    version u32 LE    2
    kind    u8        0 = ternary, 1 = ctsn_static, 2 = ctsn_neuromorphic
    reset   u8        0 = hard, 1 = soft
    n_hidden u16 LE   number of hidden (spiking) layers
    n_arrays u32 LE   total array count
    then per array: ndim u32 LE, dims u32 LE each, payload float64 LE
    array order: Network.layout (layer 0 w, b, [omega (3,)], layer 1 ..., readout w, b)
    crc32   u32 LE    zlib CRC-32 of every byte before it

Version 1 files are the same without the trailing CRC; they still load.
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
from .neuron import CTSNParams, NeuronConfig, effective_params
from .numerics import Array, component_rng

MODEL_MAGIC = b"TSPKNET1"
MODEL_VERSION = 2
_KIND_CODES = {"ternary": 0, "ctsn_static": 1, "ctsn_neuromorphic": 2}
_RESET_CODES = {"hard": 0, "soft": 1}


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
    a non-finite parameter after it, so none reaches ``save_model``."""
    grads.check_finite()
    p, g, v = net.params, grads.vector, vel.vector
    scratch = np.empty(min(p.size, _SGD_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite parameter raises below
        for lo in range(0, p.size, _SGD_BLOCK):
            hi = min(lo + _SGD_BLOCK, p.size)
            d = np.multiply(p[lo:hi], weight_decay, out=scratch[: hi - lo])
            for span in net.omega_slices:
                a, b = max(span.start, lo), min(span.stop, hi)
                if a < b:
                    np.multiply(p[a:b], 0.0, out=d[a - lo : b - lo])
            d += g[lo:hi]
            v[lo:hi] *= momentum
            v[lo:hi] += d
            np.multiply(v[lo:hi], lr, out=d)
            p[lo:hi] -= d
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
            ce, tmpr_val, logits, grads = bptt.loss_and_grads(net, xs_seq, labels, cfg.tmpr)
            sgd_step(net, grads, vel, lr, cfg.momentum, cfg.weight_decay)
            del grads  # so the next batch's gradient vector can take its memory
            if not (math.isfinite(ce) and math.isfinite(tmpr_val)):
                raise NumericError(f"non-finite loss: ce {ce!r}, tmpr {tmpr_val!r}")
        except NumericError as exc:
            raise NumericError(f"batch starting at sample {start}: {exc}") from exc
        ce_sum += ce * len(idx)
        tmpr_sum += tmpr_val * len(idx)
        correct += int(np.sum(net_mod.predict(logits) == labels))
    check_omega_constraint(net)
    return {
        "lr": lr,
        "ce_loss": ce_sum / n,
        "tmpr_loss": tmpr_sum / n,
        "train_acc": correct / n,
    }


def eval_batches(net: net_mod.Network, data: Dataset, batch_size: int = 256):
    """Forward the dataset in order; yield (labels, logits, cache) per batch.

    The generator keeps no reference to a yielded trace, so a consumer that
    drops it holds one trace at a time.
    """
    n = len(data.labels)
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        xs_seq, labels = encode_batch(data, idx, net.n_steps)
        yield (labels, *net_mod.forward(net, xs_seq))


def evaluate(net: net_mod.Network, data: Dataset, batch_size: int = 256) -> float:
    """Fraction of correct time-averaged predictions over the dataset."""
    n = len(data.labels)
    if n == 0:
        return 0.0
    correct = 0
    for labels, logits, cache in eval_batches(net, data, batch_size):
        del cache  # free this trace before the next batch's forward
        correct += int(np.sum(net_mod.predict(logits) == labels))
    return correct / n


def fit(
    net: net_mod.Network,
    train_data: Dataset,
    eval_data: Dataset,
    cfg: TrainConfig,
    metrics_path=None,
) -> list[dict]:
    """Full training run; optionally streams one metrics CSV row per epoch."""
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


def _pack_array(arr: Array) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    header = struct.pack("<I", arr.ndim) + b"".join(struct.pack("<I", d) for d in arr.shape)
    return header + arr.astype("<f8").tobytes()


def save_model(path, net: net_mod.Network) -> None:
    arrays = [a for _, a in bptt.GradSet.of(net).named()]
    blob = MODEL_MAGIC
    blob += struct.pack("<I", MODEL_VERSION)
    blob += struct.pack("<BB", _KIND_CODES[net.cfg.kind], _RESET_CODES[net.cfg.reset])
    blob += struct.pack("<H", len(net.layers))
    blob += struct.pack("<I", len(arrays))
    for arr in arrays:
        blob += _pack_array(arr)
    blob += struct.pack("<I", zlib.crc32(blob))
    with open(path, "wb") as f:
        f.write(blob)


def load_model(path, cfg: NeuronConfig, n_steps: int) -> net_mod.Network:
    """Rebuild a network from a model file (see ``parse_model``)."""
    with open(path, "rb") as f:
        return parse_model(f.read(), cfg, n_steps, path)


def parse_model(blob: bytes, cfg: NeuronConfig, n_steps: int, name) -> net_mod.Network:
    """Rebuild a network from the flat binary format; ``name`` labels the messages.  ``cfg``
    gives the neuron semantics, whose kind and reset must match the saved ones.  Reads versions
    1 and 2; a version 2 blob whose CRC does not match its bytes raises ``FormatError``."""
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
    kind_code, reset_code = struct.unpack("<BB", take(2))
    kinds = {v: k for k, v in _KIND_CODES.items()}
    resets = {v: k for k, v in _RESET_CODES.items()}
    if kinds.get(kind_code) != cfg.kind or resets.get(reset_code) != cfg.reset:
        raise FormatError(
            f"model was saved with kind={kinds.get(kind_code)!r}, reset={resets.get(reset_code)!r}; "
            f"config says kind={cfg.kind!r}, reset={cfg.reset!r}"
        )
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
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes at offset {off}")
    per_hidden = 3 if cfg.is_ctsn else 2
    if n_hidden < 1 or n_arrays != n_hidden * per_hidden + 2:
        raise FormatError(f"array count {n_arrays} inconsistent with {n_hidden} hidden layers")
    layers, i = [], 0
    for l in range(n_hidden + 1):  # the last one is the readout
        w, b, omega = arrays[i], arrays[i + 1], None
        if w.ndim != 2 or b.shape != w.shape[1:] or (layers and layers[-1].w.shape[1] != len(w)):
            raise FormatError(f"layer {l} arrays {w.shape}, {b.shape} at offset {offsets[i]} do not chain")
        i += 2
        if cfg.is_ctsn and l < n_hidden:
            if arrays[i].shape != (3,):
                raise FormatError(f"omega array at offset {offsets[i]} has shape {arrays[i].shape}, not (3,)")
            omega = CTSNParams(*arrays[i])
            i += 1
        layers.append(net_mod.Layer(w=w, b=b, omega=omega))
    return net_mod.Network(layers=layers[:-1], readout=layers[-1], cfg=cfg, n_steps=n_steps)
