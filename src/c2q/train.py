"""Plain SGD training with teacher forcing, gradient clipping, validation
tracking, and a binary checkpoint format."""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from .files import replace_atomically
from .model import (Hyperparams, Parameters, encode_batch, init_parameters,
                    parameter_shapes, sequence_loss)
from .numerics import Rng

CHECKPOINT_MAGIC = b"C2Q1"
CHECKPOINT_VERSION = 1

# shuffled examples are length-sorted inside windows this many batches wide,
# so batches hold similar source lengths without destroying the shuffle
LENGTH_SORT_WINDOW = 8


class TrainingDivergedError(RuntimeError):
    def __init__(self, batch_ids):
        super().__init__(f"non-finite loss on batch with example ids {batch_ids}")
        self.batch_ids = batch_ids


class CheckpointError(RuntimeError):
    code = "checkpoint"


class CheckpointFormatError(CheckpointError):
    code = "bad-format"


class CheckpointTruncatedError(CheckpointError):
    code = "truncated"


class CheckpointHashError(CheckpointError):
    code = "vocab-hash-mismatch"


@dataclass
class TrainConfig:
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    grad_clip_norm: float | None = 5.0
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainLogEntry:
    step: int
    epoch: int
    train_loss: float
    val_loss: float | None
    seconds: float


def clip_global_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = total ** 0.5
    if max_norm is not None and norm > max_norm > 0:
        factor = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad *= factor
    return norm


def _batches(examples, order, batch_size):
    shuffled = [examples[i] for i in order]
    window = batch_size * LENGTH_SORT_WINDOW
    arranged = []
    for start in range(0, len(shuffled), window):
        block = shuffled[start:start + window]
        block.sort(key=lambda ex: (len(ex.base_ids), ex.id))
        arranged.extend(block)
    return [arranged[i:i + batch_size] for i in range(0, len(arranged), batch_size)]


def _losses(batch, params, hyper):
    """Loss tensors of a batch of examples, encoded together."""
    encs = encode_batch([ex.base_ids for ex in batch], params, hyper)
    return [sequence_loss(ex, params, hyper, enc=enc)[0] for ex, enc in zip(batch, encs)]


def mean_loss(examples, params, hyper, batch_size=32):
    """Mean loss over examples, encoded in chunks of ``batch_size``."""
    total = 0.0
    for start in range(0, len(examples), batch_size):
        for loss in _losses(examples[start:start + batch_size], params, hyper):
            total += float(loss.data)
    return total / max(1, len(examples))


def _sgd_step(batch, params, hyper, config):
    """One clipped SGD update from a batch; returns the batch loss. The
    batch's graph is freed on return, before the next batch or validation
    builds another."""
    params.zero_grads()
    batch_loss = nm.scale(nm.add_n(_losses(batch, params, hyper)), 1.0 / len(batch))
    value = float(batch_loss.data)
    if not np.isfinite(value):
        raise TrainingDivergedError([ex.id for ex in batch])
    batch_loss.backward()
    clip_global_norm(params, config.grad_clip_norm)
    if config.lr:
        for t in params.values():
            if t.grad is not None:
                t.data -= (config.lr * t.grad).astype(t.data.dtype)
    return value


def train(train_examples, val_examples, hyper, config, vocab_hash="",
          params=None, log_fn=None):
    """SGD over encoded examples. Returns (params, log entries).

    The best-validation parameters are written to config.checkpoint_path
    when set (final parameters when there is no validation set).
    """
    if not train_examples:
        raise ValueError("train: no training examples")
    rng = Rng(config.seed)
    if params is None:
        vocab_size = len(train_examples[0].ev.base)
        params = init_parameters(hyper, vocab_size, rng)

    log, step = [], 0
    best_val = float("inf")
    start = time.monotonic()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_examples))
        epoch_losses = []
        for batch in _batches(train_examples, order, config.batch_size):
            epoch_losses.append(_sgd_step(batch, params, hyper, config))
            step += 1

        val_loss = (mean_loss(val_examples, params, hyper, config.batch_size)
                    if val_examples else None)
        if val_loss is not None and not np.isfinite(val_loss):
            # NaN < best_val is false: without this no checkpoint would be
            # written and the caller would fall back to diverged parameters
            raise TrainingDivergedError([ex.id for ex in val_examples])
        entry = TrainLogEntry(step=step, epoch=epoch,
                              train_loss=sum(epoch_losses) / len(epoch_losses),
                              val_loss=val_loss,
                              seconds=time.monotonic() - start)
        log.append(entry)
        if log_fn:
            log_fn(entry)
        if config.checkpoint_path:
            if val_loss is None or val_loss < best_val:
                best_val = val_loss if val_loss is not None else best_val
                save_checkpoint(params, hyper, vocab_hash, config.checkpoint_path)
    return params, log


# ---------------------------------------------------------------------------
# checkpoints
#
# layout: magic "C2Q1" | version u32 LE | header length u32 LE |
#         UTF-8 JSON header | raw little-endian f32 tensor data in
#         manifest order (offsets relative to the data section)


def save_checkpoint(params, hyper, vocab_hash, path):
    manifest, arrays, offset = [], [], 0
    for name, tensor in params.items():
        arrays.append(np.ascontiguousarray(tensor.data, dtype="<f4"))
        manifest.append({"name": name, "shape": list(tensor.data.shape),
                         "offset": offset})
        offset += arrays[-1].nbytes
    header = json.dumps({"hyperparams": asdict(hyper) | {"ablation": sorted(hyper.ablation)},
                         "vocab_hash": vocab_hash,
                         "init": "uniform(-0.1,0.1) weights, zero biases",
                         "manifest": manifest}).encode("utf-8")
    with replace_atomically(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header))
                 + header)
        for data in arrays:
            fh.write(data)


def load_checkpoint(path, expected_vocab_hash=None):
    """(Parameters, Hyperparams, vocab_hash); verifies format and hash."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise CheckpointTruncatedError(f"{path}: file too short")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {raw[:4]!r}")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    header_len = struct.unpack("<I", raw[8:12])[0]
    if len(raw) < 12 + header_len:
        raise CheckpointTruncatedError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: bad header: {exc}") from exc
    hyper, vocab_hash, manifest = _check_header(header, path)
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise CheckpointHashError(
            f"{path}: checkpoint built against a different vocabulary")
    data = raw[12 + header_len:]
    tensors, offset = {}, 0
    for entry in manifest:
        if entry["offset"] != offset:
            raise CheckpointFormatError(f"{path}: tensor {entry['name']} is not "
                                        f"at offset {offset}")
        end = offset + 4 * int(np.prod(entry["shape"]))
        if end > len(data):
            raise CheckpointTruncatedError(f"{path}: truncated tensor {entry['name']}")
        arr = np.frombuffer(data[offset:end], dtype="<f4").reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise CheckpointFormatError(f"{path}: tensor {entry['name']} holds NaN or inf")
        tensors[entry["name"]] = nm.Tensor(arr.copy())
        offset = end
    if offset != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - offset} trailing bytes")
    return Parameters(tensors), hyper, vocab_hash


def _check_header(header, path):
    """(Hyperparams, vocab hash, manifest) of a header whose manifest lists
    exactly the tensors init_parameters builds for its hyperparams."""
    def bad(what):
        return CheckpointFormatError(f"{path}: bad header: {what}")

    if not isinstance(header, dict):
        raise bad("not a JSON object")
    try:
        obj = header["hyperparams"]
        hyper = Hyperparams(**{f.name: obj[f.name] for f in fields(Hyperparams)})
    except (KeyError, TypeError, ValueError) as exc:
        raise bad(f"hyperparams: {exc!r}") from exc
    if not all(type(getattr(hyper, key)) is int
               for key in ("embed_dim", "hidden", "max_decode_len")):
        raise bad("hyperparams: dimensions must be integers")
    vocab_hash, manifest = header.get("vocab_hash"), header.get("manifest")
    if not isinstance(vocab_hash, str):
        raise bad("vocab_hash missing or not a string")

    def well_formed(entry):
        return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])
                and type(entry.get("offset")) is int)

    if not isinstance(manifest, list) or not all(map(well_formed, manifest)):
        raise bad("manifest must list objects with a name, a shape and an offset")
    entries = [(e["name"], tuple(e["shape"])) for e in manifest]
    embedding = dict(entries).get("E")
    vocab_size = embedding[0] if embedding else 0
    if entries != list(parameter_shapes(hyper, vocab_size).items()):
        raise bad("manifest names or shapes do not match the hyperparams")
    return hyper, vocab_hash, manifest
