"""Plain SGD training with teacher forcing, gradient clipping, validation
tracking, and a binary checkpoint format."""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from .files import replace_atomically
from .model import Hyperparams, encode_batch, init_parameters, parameter_shapes, sequence_loss
from .numerics import Rng
from .vocab import SPECIALS

CHECKPOINT_MAGIC = b"C2Q1"
CHECKPOINT_VERSION = 2

# clip_global_norm squares this many gradient entries at a time in float64,
# a 0.5 MB scratch rather than a float64 copy of each gradient
NORM_CHUNK = 65536

# shuffled examples are length-sorted inside windows this many batches wide,
# so batches hold similar source lengths without destroying the shuffle
LENGTH_SORT_WINDOW = 8


class TrainingDivergedError(RuntimeError):
    def __init__(self, batch_ids, what="loss"):
        super().__init__(f"non-finite {what} on batch with example ids {batch_ids}")
        self.batch_ids = batch_ids


class CheckpointError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    grad_clip_norm: float = 5.0  # 0 disables clipping
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("lr", "grad_clip_norm"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and >= 0, not {value!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class TrainLogEntry:
    step: int
    epoch: int
    train_loss: float
    val_loss: float | None
    seconds: float


def clip_global_norm(params, max_norm):
    """Scale all gradients in place so their global L2 norm is at most
    max_norm; a max_norm of 0 or a norm that is not finite leaves them as
    they are. Returns the norm before, summed in float64 over slices of
    NORM_CHUNK entries."""
    grads = [t.grad for t in params.values() if t.grad is not None]
    scratch, total = np.empty(NORM_CHUNK), 0.0
    for g in grads:
        flat = g.reshape(-1)
        for start in range(0, flat.size, NORM_CHUNK):
            part = scratch[:min(NORM_CHUNK, flat.size - start)]
            part[...] = flat[start:start + NORM_CHUNK]
            total += float(part @ part)
    norm = total ** 0.5
    if 0 < max_norm < norm < math.inf:
        factor = max_norm / norm  # reaches a float32 gradient as a float32
        for g in grads:
            g *= factor
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
    """Loss tensors of a batch encoded together, each built as it is read."""
    encs = encode_batch([ex.base_ids for ex in batch], params, hyper)
    return (sequence_loss(ex, params, hyper, enc=enc)[0] for ex, enc in zip(batch, encs))


def mean_loss(examples, params, hyper, batch_size=32):
    """Mean loss over examples, encoded in chunks of ``batch_size``."""
    total = 0.0
    for start in range(0, len(examples), batch_size):
        for loss in _losses(examples[start:start + batch_size], params, hyper):
            total += float(loss.data)
    return total / max(1, len(examples))


def _sgd_step(batch, params, hyper, config):
    """One clipped SGD update from a batch; returns the batch loss. The
    batch's graph is freed as soon as backward returns, before clipping,
    and each gradient once it has updated its parameter, so no parameter
    holds a gradient on return. A non-finite loss or gradient norm raises
    TrainingDivergedError before any parameter changes."""
    nm.zero_grads(params.values())
    batch_loss = nm.scale(nm.add_n(_losses(batch, params, hyper)), 1.0 / len(batch))
    value = float(batch_loss.data)
    if not np.isfinite(value):
        raise TrainingDivergedError([ex.id for ex in batch])
    batch_loss.backward()
    del batch_loss
    norm = clip_global_norm(params, config.grad_clip_norm)
    if not math.isfinite(norm):
        raise TrainingDivergedError([ex.id for ex in batch], "gradient norm")
    for t in params.values():
        g, t.grad = t.grad, None
        if g is not None and config.lr:
            g *= config.lr  # in place, as lr * g rounds it
            t.data -= g
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
#         UTF-8 JSON header {hyperparams, vocab_size, vocab_hash} |
#         raw little-endian f32 tensors in parameter_shapes order


def save_checkpoint(params, hyper, vocab_hash, path):
    vocab_size = params["E"].data.shape[0]
    shapes = parameter_shapes(hyper, vocab_size)
    if {name: t.data.shape for name, t in params.items()} != shapes:
        raise ValueError("save_checkpoint: parameters do not match the hyperparams")
    header = json.dumps({"hyperparams": asdict(hyper) | {"ablation": sorted(hyper.ablation)},
                         "vocab_size": vocab_size,
                         "vocab_hash": vocab_hash}).encode("utf-8")
    with replace_atomically(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header))
                 + header)
        for name in shapes:
            fh.write(np.ascontiguousarray(params[name].data, dtype="<f4"))


def load_checkpoint(path, expected_vocab_hash=None):
    """(name -> Tensor, Hyperparams, vocab_hash); verifies format and hash.
    Every name and shape comes from ``parameter_shapes``. Each tensor is read
    straight into its own array, so a load holds the file's tensors once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(12)
        if len(preamble) < 12:
            raise CheckpointError(f"{path}: file too short")
        if preamble[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {preamble[:4]!r}")
        version, header_len = struct.unpack("<II", preamble[4:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        if size < 12 + header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"{path}: bad header: {exc}") from exc
        hyper, vocab_size, vocab_hash = _check_header(header, path)
        if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
            raise CheckpointError(f"{path}: checkpoint built against a different vocabulary")
        shapes = parameter_shapes(hyper, vocab_size)
        # sized in Python ints before allocating, so a forged size can neither
        # wrap nor ask for more memory than the file holds
        data_len = size - 12 - header_len
        need = 4 * sum(map(math.prod, shapes.values()))
        if data_len != need:
            raise CheckpointError(f"{path}: {data_len} data bytes, the header needs {need}")
        tensors = {}
        for name, shape in shapes.items():
            arr = np.empty(shape, dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:  # the file shrank while loading
                raise CheckpointError(f"{path}: truncated tensor {name}")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name} holds NaN or inf")
            tensors[name] = nm.Tensor(arr)
    return tensors, hyper, vocab_hash


def _check_header(header, path):
    """(Hyperparams, vocab size, vocab hash) of a checkpoint header."""
    def bad(what):
        return CheckpointError(f"{path}: bad header: {what}")

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
    vocab_size, vocab_hash = header.get("vocab_size"), header.get("vocab_hash")
    if type(vocab_size) is not int or vocab_size < len(SPECIALS):
        raise bad(f"vocab_size must be an integer >= {len(SPECIALS)}")
    if not isinstance(vocab_hash, str):
        raise bad("vocab_hash missing or not a string")
    return hyper, vocab_size, vocab_hash
