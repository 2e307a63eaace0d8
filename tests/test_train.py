import errno
import io
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed
from c2q import decode as decode_module
from c2q import files as files_module
from c2q import model as model_module
from c2q import numerics as nm
from c2q import train as train_module
from c2q.corpus import QCPair
from c2q.model import (ABLATION_PRESETS, Hyperparams, encode_example, init_parameters,
                       sequence_loss)
from c2q.numerics import Rng, Tensor
from c2q.train import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError, TrainConfig,
                       TrainingDivergedError, clip_global_norm, load_checkpoint, mean_loss,
                       save_checkpoint, train)
from c2q.vocab import START, build_vocab, encode_source


def make_dataset(n_pairs=4, seed=0, title_lens=(4,)):
    alphabet = [f"tok{i}" for i in range(20)]
    rng = Rng(seed)
    vocab = build_vocab([alphabet * 2], min_freq=0)
    pairs = []
    for i in range(n_pairs):
        code = [alphabet[rng.integers(0, 20)] for _ in range(6)]
        title = [alphabet[rng.integers(0, 20)]
                 for _ in range(title_lens[i % len(title_lens)])]
        pairs.append(QCPair(id=i, lang="python", code_tokens=code,
                            title_tokens=title))
    examples = [encode_example(p, vocab) for p in pairs]
    return vocab, examples


def small_hyper(**kw):
    kw.setdefault("embed_dim", 8)
    kw.setdefault("hidden", 8)
    kw.setdefault("max_decode_len", 8)
    return Hyperparams(**kw)


def test_zero_lr_leaves_parameters_unchanged():
    vocab, examples = make_dataset()
    hyper = small_hyper()
    params = init_parameters(hyper, len(vocab), Rng(1))
    before = {k: t.data.copy() for k, t in params.items()}
    config = TrainConfig(lr=0.0, batch_size=2, epochs=2, seed=3)
    trained, log = train(examples, [], hyper, config, params=params)
    for name, t in trained.items():
        assert np.array_equal(t.data, before[name]), name
    assert len(log) == 2


def test_same_seed_training_is_bit_identical():
    hyper = small_hyper()
    runs = []
    for _ in range(2):
        vocab, examples = make_dataset()
        config = TrainConfig(lr=0.05, batch_size=2, epochs=3, seed=11)
        params, log = train(examples, examples[:2], hyper, config)
        runs.append((params, log))
    p1, p2 = runs[0][0], runs[1][0]
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data), name
    assert [e.train_loss for e in runs[0][1]] == \
           [e.train_loss for e in runs[1][1]]


@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_training_with_reference_kernels_is_bit_identical(monkeypatch, ablation):
    # the where-free sigmoid, the einsum outer product, adding each row
    # update as it arrives (the earlier walk held the updates at index arrays
    # back until a per-tensor fold) and the one-node attention weights,
    # biased linear and floored log (the composed chains) change no trained
    # byte
    hyper = small_hyper(ablation=ABLATION_PRESETS[ablation])
    vocab, examples = make_dataset(n_pairs=6, seed=2, title_lens=(3, 5))
    config = TrainConfig(lr=0.5, batch_size=3, epochs=2, seed=7)
    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(nm, "_sigmoid", composed.sigmoid_kernel)
            monkeypatch.setattr(nm, "_outer_sum", composed.outer_sum_kernel)
            monkeypatch.setattr(Tensor, "backward", composed.backward)
            for name in ("attention_weights", "linear", "log"):
                monkeypatch.setattr(nm, name, getattr(composed, name))
        params, log = train(examples, examples[:2], hyper, config)
        runs.append(({k: t.data.tobytes() for k, t in params.items()},
                     [(e.train_loss, e.val_loss) for e in log]))
    assert runs[0] == runs[1]


def test_training_reduces_loss_and_memorizes_single_pair():
    vocab, examples = make_dataset(n_pairs=1, seed=5)
    hyper = small_hyper(embed_dim=16, hidden=16)
    config = TrainConfig(lr=0.5, batch_size=1, epochs=500, grad_clip_norm=5.0,
                         seed=2)
    params, log = train(examples, [], hyper, config)
    assert log[-1].train_loss < log[0].train_loss
    # the training loss includes the coverage penalty; memorization is
    # judged on the negative log-likelihood alone
    _, logps = sequence_loss(examples[0], params, hyper)
    nll = -sum(logps) / len(logps)
    assert nll < 0.1


def test_clip_reduces_norm_and_preserves_direction():
    rng = Rng(9)
    params = {
        "a": Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32)),
        "b": Tensor(rng.uniform(-1, 1, (5,)).astype(np.float32)),
    }
    for t in params.values():
        t.grad = rng.uniform(-10, 10, t.data.shape).astype(np.float32)
    before = {k: t.grad.copy() for k, t in params.items()}
    norm = clip_global_norm(params, 1.0)
    assert norm > 1.0
    after_norm = np.sqrt(sum(float((t.grad ** 2).sum())
                             for t in params.values()))
    assert after_norm == pytest.approx(1.0, rel=1e-4)
    for name, t in params.items():
        # same direction: clipped grad is a positive scalar multiple
        ratio = t.grad / before[name]
        assert np.allclose(ratio, ratio.flat[0], atol=1e-5)


def test_clip_noop_when_under_threshold():
    params = {"a": Tensor(np.zeros(3, dtype=np.float32))}
    params["a"].grad = np.array([0.1, 0.0, 0.0], dtype=np.float32)
    norm = clip_global_norm(params, 5.0)
    assert norm == pytest.approx(0.1)
    assert np.array_equal(params["a"].grad,
                          np.array([0.1, 0.0, 0.0], dtype=np.float32))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_leaves_gradients_with_a_non_finite_norm_as_they_are(bad):
    # scaling by 5 / inf = 0 would turn [inf, 1, 2] into [nan, 0, 0]
    params = {"a": Tensor(np.zeros(3, dtype=np.float32))}
    params["a"].grad = np.array([bad, 1.0, 2.0], dtype=np.float32)
    assert not np.isfinite(clip_global_norm(params, 5.0))
    assert np.array_equal(params["a"].grad, [bad, 1.0, 2.0], equal_nan=True)


def _reference_norm(grads):
    return float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads)))


def test_clip_global_norm_makes_no_gradient_sized_copy():
    grad = Rng(3).uniform(-1, 1, (5000, 768))
    params = {"W_v": Tensor(np.zeros((1, 1), dtype=np.float32))}
    params["W_v"].grad = grad
    reference = _reference_norm([grad])
    tracemalloc.start()
    try:
        norm = clip_global_norm(params, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert abs(norm - reference) <= 1e-12 * reference


@pytest.mark.parametrize("seed", range(50))
def test_clipped_gradients_equal_scaling_by_the_reference_norm(seed):
    # the norm moves in its last float64 bits only, and the factor reaches
    # the float32 gradients as a float32, so the clipped bits are those of
    # scaling by the norm of a float64 copy of each gradient
    rng = Rng(seed)
    shapes = [(3, 7), (70_000,), (300, 257), (1,)]
    grads = [rng.uniform(-1, 1, shape) * np.float32(10.0 ** rng.integers(-2, 3))
             for shape in shapes]
    params = {str(k): Tensor(np.zeros(1, dtype=np.float32)) for k in range(len(grads))}
    for t, g in zip(params.values(), grads):
        t.grad = g.copy()
    reference = _reference_norm(grads)
    assert clip_global_norm(params, 1.0) == pytest.approx(reference, rel=1e-12)
    for t, g in zip(params.values(), grads):
        g *= 1.0 / reference
        assert np.array_equal(t.grad, g)


def _memory_dataset():
    # enough rows that a forward graph holds several MiB at small dims
    alphabet = [f"tok{i}" for i in range(200)]
    rng = Rng(4)
    vocab = build_vocab([alphabet], min_freq=0)
    pairs = [QCPair(id=i, lang="python",
                    code_tokens=[alphabet[rng.integers(0, 200)] for _ in range(40)],
                    title_tokens=[alphabet[rng.integers(0, 200)] for _ in range(6)])
             for i in range(16)]
    return vocab, [encode_example(p, vocab) for p in pairs]


def test_training_frees_the_graph_before_clipping_and_every_gradient_after(monkeypatch):
    vocab, examples = _memory_dataset()
    hyper = small_hyper(embed_dim=32, hidden=64)
    params = init_parameters(hyper, len(vocab), Rng(2))
    at_step, excess = [], []

    def step(*args):
        at_step.append(tracemalloc.get_traced_memory()[0])
        return sgd_step(*args)

    def clip(params, max_norm):
        grad_bytes = sum(t.grad.nbytes for t in params.values() if t.grad is not None)
        excess.append(tracemalloc.get_traced_memory()[0] - at_step[-1] - grad_bytes)
        return clip_norm(params, max_norm)

    sgd_step, clip_norm = train_module._sgd_step, train_module.clip_global_norm
    monkeypatch.setattr(train_module, "_sgd_step", step)
    monkeypatch.setattr(train_module, "clip_global_norm", clip)
    config = TrainConfig(lr=0.1, batch_size=8, epochs=2, seed=5)
    tracemalloc.start()
    try:
        train(examples, examples[:4], hyper, config, params=params)
    finally:
        tracemalloc.stop()
    assert len(excess) == 4
    assert max(excess) <= 2 ** 20, excess
    assert all(t.grad is None for t in params.values())


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("clip", [5.0, 0.0])
def test_non_finite_gradient_norm_raises_before_any_parameter_changes(monkeypatch, bad, clip):
    vocab, examples = make_dataset(n_pairs=3, seed=2)
    hyper = small_hyper()
    params = init_parameters(hyper, len(vocab), Rng(1))
    before = {k: t.data.copy() for k, t in params.items()}
    backward = Tensor.backward

    def poisoned(self):
        backward(self)
        params["W_v"].grad[1, 2] = bad

    monkeypatch.setattr(Tensor, "backward", poisoned)
    config = TrainConfig(lr=0.1, batch_size=4, epochs=1, seed=0, grad_clip_norm=clip)
    with pytest.raises(TrainingDivergedError, match="gradient norm") as info:
        train(examples, examples, hyper, config, params=params)
    assert sorted(info.value.batch_ids) == [0, 1, 2]
    for name, t in params.items():
        assert np.array_equal(t.data, before[name]), name


def random_params(seed):
    hyper = small_hyper()
    return hyper, init_parameters(hyper, 24, Rng(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checkpoint_roundtrip_bitwise(tmp_path, seed):
    hyper, params = random_params(seed)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, hyper, "hash123", path)
    loaded, loaded_hyper, vhash = load_checkpoint(path, "hash123")
    assert vhash == "hash123"
    assert loaded_hyper == hyper
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert loaded[name].data.dtype == np.float32
        assert np.array_equal(loaded[name].data, params[name].data), name


@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_checkpoint_header_and_roundtrip_per_ablation(tmp_path, ablation):
    hyper = small_hyper(ablation=ABLATION_PRESETS[ablation])
    params = init_parameters(hyper, 24, Rng(3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + header_len])
    assert sorted(header) == ["hyperparams", "vocab_hash", "vocab_size"]
    assert header["vocab_size"] == 24
    loaded, loaded_hyper, _ = load_checkpoint(str(path), "h")
    assert loaded_hyper == hyper
    assert list(loaded) == list(params)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes(), name


def test_checkpoint_save_rejects_parameters_of_another_layout(tmp_path):
    hyper, params = random_params(0)
    del params["W_b"]
    with pytest.raises(ValueError, match="do not match"):
        save_checkpoint(params, hyper, "h", str(tmp_path / "model.ckpt"))
    assert not (tmp_path / "model.ckpt").exists()


def test_checkpoint_load_holds_the_file_about_once(tmp_path):
    hyper = small_hyper(embed_dim=32, hidden=64)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_parameters(hyper, 5000, Rng(0)), hyper, "h", str(path))
    size = path.stat().st_size
    assert size > 4_000_000
    tracemalloc.start()
    try:
        loaded, _, _ = load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size, (peak, size)
    assert all(t.data.flags.writeable for t in loaded.values())


def test_checkpoint_gets_the_mode_of_a_plain_open(tmp_path):
    hyper, params = random_params(0)
    old = os.umask(0o022)
    try:
        save_checkpoint(params, hyper, "h", str(tmp_path / "model.ckpt"))
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("model.ckpt", "plain")}
    assert modes == {"model.ckpt": 0o644, "plain": 0o644}


class _FullDisk(io.FileIO):
    """A file that takes half of a write, then fails as a full disk does."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_checkpoint_save_keeps_earlier_file(tmp_path, monkeypatch):
    hyper, params = random_params(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    before = path.read_bytes()
    monkeypatch.setattr(files_module, "open", lambda p, mode: _FullDisk(p, "w"),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(random_params(6)[1], hyper, "h2", str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"XXXX" + struct.pack("<I", 1) + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(str(path))


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 99)
                     + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="unsupported version 99"):
        load_checkpoint(str(path))


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    hyper, params = random_params(3)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, hyper, "hashA", path)
    with pytest.raises(CheckpointError, match="different vocabulary"):
        load_checkpoint(path, "hashB")


def test_checkpoint_truncated(tmp_path):
    hyper, params = random_params(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    raw = path.read_bytes()
    for cut in (4, 10, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError,
                           match="file too short|truncated header|data bytes, the header needs"):
            load_checkpoint(str(path))


def test_checkpoint_trailing_bytes(tmp_path):
    hyper, params = random_params(4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    with pytest.raises(CheckpointError, match="data bytes, the header needs"):
        load_checkpoint(str(path))


def test_checkpoint_garbled_header(tmp_path):
    header = b"{not json"
    path = tmp_path / "model.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
                     + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointError, match="bad header"):
        load_checkpoint(str(path))


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    length = struct.unpack("<I", raw[8:12])[0]
    header = json.dumps(mutate(json.loads(raw[12:12 + length]))).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header
                     + raw[12 + length:])


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _set(key, value):
    return lambda h: {**h, key: value}


BAD_HEADERS = {
    "list": lambda h: [1, 2],
    "string": lambda h: "header",
    "no-hyperparams": _drop("hyperparams"),
    "no-vocab-hash": _drop("vocab_hash"),
    "int-vocab-hash": _set("vocab_hash", 7),
    "hyperparams-list": _set("hyperparams", [8, 8]),
    "hyperparams-partial": _set("hyperparams", {"embed_dim": 8}),
    "float-hidden": lambda h: {**h, "hyperparams": {**h["hyperparams"], "hidden": 8.0}},
    "other-hidden": lambda h: {**h, "hyperparams": {**h["hyperparams"], "hidden": 9}},
    "zero-hidden": lambda h: {**h, "hyperparams": {**h["hyperparams"], "hidden": 0}},
    "nan-lambda-cov": lambda h: {**h, "hyperparams": {**h["hyperparams"],
                                                      "lambda_cov": float("nan")}},
    "inf-lambda-cov": lambda h: {**h, "hyperparams": {**h["hyperparams"],
                                                      "lambda_cov": float("inf")}},
    "bool-lambda-cov": lambda h: {**h, "hyperparams": {**h["hyperparams"], "lambda_cov": True}},
    "no-vocab-size": _drop("vocab_size"),
    "bool-vocab-size": _set("vocab_size", True),
    "float-vocab-size": _set("vocab_size", 24.0),
    "string-vocab-size": _set("vocab_size", "24"),
    "small-vocab-size": _set("vocab_size", 3),
    "negative-vocab-size": _set("vocab_size", -24),
    "other-vocab-size": _set("vocab_size", 25),  # disagrees with the body's length
}


def _rewrite_body(path, mutate):
    raw = path.read_bytes()
    start = 12 + struct.unpack("<I", raw[8:12])[0]
    path.write_bytes(raw[:start] + mutate(raw[start:]))


# The header names no tensors: its sizes fix the body, so a body a whole
# tensor short or long disagrees with the header that describes it.
_LAST_TENSOR_BYTES = random_params(5)[1]["b_b"].data.nbytes
BAD_BODIES = {
    "missing-tensor": lambda body: body[:-_LAST_TENSOR_BYTES],
    "extra-tensor": lambda body: body + bytes(_LAST_TENSOR_BYTES),
}


@pytest.mark.parametrize("case", [*BAD_HEADERS, *BAD_BODIES])
def test_checkpoint_header_schema(tmp_path, case):
    hyper, params = random_params(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    load_checkpoint(str(path), "h")
    if case in BAD_HEADERS:
        _rewrite_header(path, BAD_HEADERS[case])
    else:
        _rewrite_body(path, BAD_BODIES[case])
    with pytest.raises(CheckpointError, match="bad header|data bytes, the header needs"):
        load_checkpoint(str(path), "h")


@pytest.mark.parametrize("field", ["vocab_size", "embed_dim"])
def test_checkpoint_with_a_forged_embedding_size_allocates_nothing(tmp_path, field):
    # E then has 2**64 or more entries, a count that int64 arithmetic wraps to 0
    hyper, params = random_params(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    if field == "vocab_size":
        _rewrite_header(path, _set("vocab_size", 2 ** 61))
    else:
        _rewrite_header(path, lambda h: {**h, "hyperparams": {**h["hyperparams"],
                                                              "embed_dim": 2 ** 61}})
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="data bytes, the header needs"):
            load_checkpoint(str(path), "h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_checkpoint_with_an_unread_hyperparam_loads(tmp_path):
    # headers written before vocab_min_freq was dropped from Hyperparams
    # still carry it; only the fields Hyperparams has are read
    hyper, params = random_params(6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, hyper, "h", str(path))
    _rewrite_header(path, lambda h: {**h, "hyperparams": {**h["hyperparams"],
                                                          "vocab_min_freq": 1}})
    loaded, loaded_hyper, _ = load_checkpoint(str(path), "h")
    assert loaded_hyper == hyper
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    hyper = small_hyper(embed_dim=2, hidden=2)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(init_parameters(hyper, 6, Rng(2)), hyper, "h", str(path))
    return path, path.read_bytes()


def _load_or_checkpoint_error(path, raw):
    path.write_bytes(raw)
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


@settings(max_examples=200)
@given(cut=st.integers(0, 2 ** 16))
def test_truncated_checkpoint_loads_or_raises_checkpoint_error(checkpoint_bytes, cut):
    path, raw = checkpoint_bytes
    _load_or_checkpoint_error(path, raw[:cut % (len(raw) + 1)])


@settings(max_examples=300)
@given(flips=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_byte_flipped_checkpoint_loads_or_raises_checkpoint_error(checkpoint_bytes, flips):
    path, raw = checkpoint_bytes
    mutated = bytearray(raw)
    for pos, mask in flips:
        mutated[pos % len(raw)] ^= mask
    _load_or_checkpoint_error(path, bytes(mutated))


def test_nan_validation_loss_raises_and_writes_no_checkpoint(tmp_path):
    alphabet = [f"tok{i}" for i in range(10)]
    vocab = build_vocab([alphabet * 2 + ["valonly"] * 2], min_freq=0)
    train_ex = [encode_example(QCPair(id=i, lang="python",
                                      code_tokens=alphabet[i:i + 4],
                                      title_tokens=alphabet[i + 1:i + 4]), vocab)
                for i in range(3)]
    val_ex = [encode_example(QCPair(id=9, lang="python",
                                    code_tokens=["tok1", "valonly"],
                                    title_tokens=["tok2", "tok3"]), vocab)]
    hyper = small_hyper()
    params = init_parameters(hyper, len(vocab), Rng(0))
    params["E"].data[vocab.token_to_id["valonly"]] = np.nan
    path = tmp_path / "best.ckpt"
    config = TrainConfig(lr=0.1, batch_size=2, epochs=2, seed=1,
                         checkpoint_path=str(path))
    with pytest.raises(TrainingDivergedError):
        train(train_ex, val_ex, hyper, config, params=params)
    assert not path.exists()


def test_train_writes_best_checkpoint(tmp_path):
    vocab, examples = make_dataset(n_pairs=3, seed=8)
    hyper = small_hyper()
    path = str(tmp_path / "best.ckpt")
    config = TrainConfig(lr=0.1, batch_size=2, epochs=3, seed=4,
                         checkpoint_path=path)
    train(examples[:2], examples[2:], hyper, config,
          vocab_hash=vocab.content_hash())
    loaded, loaded_hyper, vhash = load_checkpoint(path, vocab.content_hash())
    assert loaded_hyper == hyper
    assert vhash == vocab.content_hash()


def test_train_rejects_empty_dataset():
    hyper = small_hyper()
    with pytest.raises(ValueError):
        train([], [], hyper, TrainConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=bad)
    for bad in (-1.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="grad_clip_norm"):
            TrainConfig(grad_clip_norm=bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=bad)
    assert TrainConfig(grad_clip_norm=0.0).grad_clip_norm == 0.0


def test_loss_finite_for_all_ablations():
    vocab, examples = make_dataset(n_pairs=2, seed=6)
    for name, preset in ABLATION_PRESETS.items():
        hyper = small_hyper(ablation=preset)
        params = init_parameters(hyper, len(vocab), Rng(7))
        loss, logps = sequence_loss(examples[0], params, hyper)
        assert np.isfinite(float(loss.data)), name
        assert all(np.isfinite(lp) for lp in logps), name


@pytest.fixture
def decode_step_calls(monkeypatch):
    """The arguments of every ``c2q.model.decode_step`` call, counted where
    each module looks it up, as a tracer that rebinds module globals does."""
    calls, original = [], model_module.decode_step

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (model_module, decode_module):
        monkeypatch.setattr(module, "decode_step", counted)
    return calls


@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_decode_step_runs_once_per_target_token_and_per_decode_step(
        decode_step_calls, monkeypatch, ablation):
    # one epoch with a validation set: one call per target token (title +
    # END) over train plus val, whatever the batching; a greedy decode: one
    # call per step; the one-id form: one call, not one per row it lifts.
    # Only a coverage model carries a coverage vector, and it charges the
    # penalty as one minimum per title, not one per target token.
    def record(module, name):
        calls, original = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or original(*a, **kw))
        return calls

    penalties, titles = record(nm, "minimum"), record(train_module, "sequence_loss")
    vocab, examples = make_dataset(n_pairs=7, seed=9, title_lens=(1, 3, 2, 4))
    hyper = small_hyper(ablation=ABLATION_PRESETS[ablation])
    train(examples[:5], examples[5:], hyper, TrainConfig(lr=0.1, batch_size=2, epochs=1, seed=2))
    assert len(decode_step_calls) == sum(len(ex.target_ids) for ex in examples)
    assert len(titles) == len(examples)
    assert len(penalties) == (len(titles) if hyper.coverage else 0)

    params = init_parameters(hyper, len(vocab), Rng(4))
    train_calls = list(decode_step_calls)
    decode_step_calls.clear()
    best = decode_module.beam_search(["tok1", "tok2"], params, vocab, hyper, k=1)[0]
    assert len(decode_step_calls) == len(best.token_ids)
    for args in train_calls + decode_step_calls:
        assert (args[3] is not None) == hyper.coverage

    base_ids, ext_ids, ev = encode_source(["tok1", "tok2"], vocab)
    enc = model_module.encode(base_ids, params, hyper)
    decode_step_calls.clear()
    step = model_module.decode_step(START, enc.s0, enc, Tensor(np.zeros(2)), ext_ids, ev,
                                    params, hyper)
    assert len(decode_step_calls) == 1
    assert step.p_star.shape == (len(ev),)
