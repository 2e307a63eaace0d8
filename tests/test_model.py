import math

import numpy as np
import pytest

from c2q import numerics as nm
from c2q import model as md
from c2q.model import (ABLATION_PRESETS, EncodedExample, Hyperparams,
                       attention_step, decode_step, encode, init_parameters,
                       sequence_loss)
from c2q.numerics import Rng, Tensor
from c2q.vocab import END, START, UNK


def tiny_hyper(embed=6, hidden=5, ablation="full", lam=1.0):
    return Hyperparams(embed_dim=embed, hidden=hidden, lambda_cov=lam,
                       ablation=ABLATION_PRESETS[ablation], max_decode_len=8)


def test_hyperparams_reject_max_decode_len_below_one():
    for dim in ("max_decode_len", "embed_dim", "hidden"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=dim):
                Hyperparams(**{dim: bad})


def make_example(base_ids, ext_ids, oov, target, vocab_size, params):
    class FakeVocab:
        def __len__(self):
            return vocab_size

    from c2q.vocab import ExtendedVocab
    ev = ExtendedVocab.__new__(ExtendedVocab)
    ev.base = FakeVocab()
    ev.oov_tokens = list(oov)
    return EncodedExample(id=0, base_ids=base_ids, ext_ids=ext_ids, ev=ev,
                          target_ids=target)


def test_hyper_invariants():
    with pytest.raises(ValueError):
        Hyperparams(ablation=frozenset({"copy"}))
    with pytest.raises(ValueError):
        Hyperparams(ablation=frozenset({"coverage"}))
    with pytest.raises(ValueError):
        Hyperparams(lambda_cov=-1.0)


@pytest.mark.parametrize("field,bad", [
    ("lambda_cov", math.nan), ("lambda_cov", math.inf), ("lambda_cov", True),
    ("lambda_cov", "1"), ("vocab_min_freq", -1), ("vocab_min_freq", "x"),
    ("vocab_min_freq", 1.0), ("vocab_min_freq", True),
])
def test_hyperparams_reject_bad_lambda_cov_and_min_freq(field, bad):
    with pytest.raises(ValueError, match=field):
        Hyperparams(**{field: bad})


def test_encode_single_token():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(0))
    enc = encode([4], params, hyper)
    assert enc.H.data.shape == (1, 2 * hyper.hidden)
    assert enc.s0[0].data.shape == (hyper.hidden,)


def test_encode_zero_params_all_zero_states():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(0))
    for t in params.values():
        t.data[...] = 0.0
    enc = encode([1, 2, 3], params, hyper)
    assert np.allclose(enc.H.data, 0.0)
    assert np.allclose(enc.s0[0].data, 0.0)


def test_encode_out_of_range_id():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(0))
    with pytest.raises(IndexError):
        encode([10], params, hyper)


def test_encode_reversal_symmetry():
    # with identical forward/backward weights, reversing the input maps
    # forward states onto backward states at mirrored positions
    hyper = tiny_hyper()
    params = init_parameters(hyper, 12, Rng(3))
    h = hyper.hidden
    for layer in (1, 2):
        for name in ("W", "U", "b"):
            params[f"enc_l{layer}_bw_{name}"].data[...] = \
                params[f"enc_l{layer}_fw_{name}"].data
    # layer-2 inputs are [fw; bw] concatenations whose halves swap under
    # reversal, so the mirrored backward weights need swapped input halves
    w2 = params["enc_l2_fw_W"].data
    params["enc_l2_bw_W"].data[...] = np.concatenate(
        [w2[:, h:], w2[:, :h]], axis=1)
    ids = [4, 7, 9]
    h = hyper.hidden
    enc_fwd = encode(ids, params, hyper)
    enc_rev = encode(list(reversed(ids)), params, hyper)
    # H rows are [fw; bw]; fw part of position t on the original equals the
    # bw part of mirrored position on the reversed input
    for t in range(len(ids)):
        fw = enc_fwd.H.data[t, :h]
        bw_mirror = enc_rev.H.data[len(ids) - 1 - t, h:]
        assert np.allclose(fw, bw_mirror, atol=1e-6)


def test_attention_single_position():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(1))
    enc = encode([5], params, hyper)
    s = Tensor(Rng(2).uniform(-1, 1, hyper.hidden))
    a, _ = attention_step(s, enc.H, None, params)
    assert np.allclose(a.data, [1.0])


def test_attention_identical_rows_uniform():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(1))
    H = Tensor(np.ones((4, 2 * hyper.hidden)))
    s = Tensor(Rng(2).uniform(-1, 1, hyper.hidden))
    a, c = attention_step(s, H, None, params)
    assert np.allclose(a.data, [0.25] * 4, atol=1e-6)
    assert np.allclose(c.data, np.ones(2 * hyper.hidden), atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_precomputed_keys_match_recomputed(dtype):
    with nm.use_dtype(dtype):
        hyper = tiny_hyper()
        params = init_parameters(hyper, 12, Rng(4))
        enc = encode([3, 5, 7, 5, 9], params, hyper)
        rng = Rng(5)
        s = Tensor(rng.uniform(-1, 1, hyper.hidden))
        cov = Tensor(rng.uniform(0, 1, 5))
        mask = np.array([True, True, False, True, True])
        with_keys = attention_step(s, enc.H, cov, params, mask, keys=enc.keys)
        recomputed = attention_step(s, enc.H, cov, params, mask)
    assert enc.keys.data.dtype == dtype
    for got, want in zip(with_keys, recomputed):
        assert got.data.dtype == dtype
        assert np.array_equal(got.data, want.data)


def test_encode_keys_only_with_attention():
    hyper = tiny_hyper(ablation="basic")
    params = init_parameters(hyper, 12, Rng(4))
    assert encode([3, 5], params, hyper).keys is None


def test_attention_matches_hand_computation():
    # M=2 source, all dims 2: recompute scores/attention/context with plain
    # scalar numpy against the graph version
    hyper = Hyperparams(embed_dim=2, hidden=2,
                        ablation=ABLATION_PRESETS["atten+coverage"])
    params = init_parameters(hyper, 6, Rng(9))
    rng = Rng(10)
    H = Tensor(rng.uniform(-1, 1, (2, 4)))
    s = Tensor(rng.uniform(-1, 1, 2))
    cov = Tensor(np.array([0.3, 0.7]))
    a, c = attention_step(s, H, cov, params)

    w_eh, w_sh = params["W_eh"].data, params["W_sh"].data
    w_cv, b_att, v = params["W_cv"].data, params["b_att"].data, params["v"].data
    scores = []
    for i in range(2):
        pre = w_cv * cov.data[i] + w_eh @ H.data[i] + w_sh @ s.data + b_att
        scores.append(float(v @ np.tanh(pre)))
    exps = np.exp(np.array(scores) - max(scores))
    a_ref = exps / exps.sum()
    c_ref = a_ref[0] * H.data[0] + a_ref[1] * H.data[1]
    assert np.allclose(a.data, a_ref, atol=1e-6)
    assert np.allclose(c.data, c_ref, atol=1e-6)


def _random_example(rng, vocab_size, src_len, tgt_len, n_oov=1):
    base = [rng.integers(4, vocab_size) for _ in range(src_len)]
    ext = list(base)
    oov = [f"oov{k}" for k in range(n_oov)]
    for k in range(min(n_oov, src_len)):
        base[k] = UNK
        ext[k] = vocab_size + k
    target = [rng.integers(4, vocab_size) for _ in range(tgt_len - 1)] + [END]
    return base, ext, oov, target


def test_decode_step_distribution_invariants():
    hyper = tiny_hyper()
    vocab_size = 12
    params = init_parameters(hyper, vocab_size, Rng(4))
    rng = Rng(5)
    base, ext, oov, _ = _random_example(rng, vocab_size, 5, 3, n_oov=2)
    ex = make_example(base, ext, oov, [END], vocab_size, params)
    enc = encode(base, params, hyper)
    state, cov = enc.s0, Tensor(np.zeros(5))
    for t in range(4):
        step = decode_step(rng.integers(0, vocab_size), state, enc, cov,
                           ext, ex.ev, params, hyper)
        assert abs(float(step.a.data.sum()) - 1.0) < 1e-6
        assert abs(float(step.p_star.data.sum()) - 1.0) < 1e-6
        assert 0.0 <= float(step.p_cg.data) <= 1.0
        assert abs(float(step.cov.data.sum()) - t) < 1e-4
        state, cov = step.state, step.cov_next


def test_decode_step_oov_mass_is_gated_attention():
    # p_star on an extended-only id must equal p_cg * (attention mass on the
    # positions holding that token), since the generator assigns it 0
    hyper = tiny_hyper()
    vocab_size = 12
    params = init_parameters(hyper, vocab_size, Rng(6))
    base = [4, UNK, 5, UNK]
    ext = [4, vocab_size, 5, vocab_size]  # same OOV token at positions 1, 3
    ex = make_example(base, ext, ["rare_tok"], [END], vocab_size, params)
    enc = encode(base, params, hyper)
    step = decode_step(START, enc.s0, enc, Tensor(np.zeros(4)), ext, ex.ev,
                       params, hyper)
    p_cg = float(step.p_cg.data)
    mass = float(step.a.data[1] + step.a.data[3])
    assert abs(float(step.p_star.data[vocab_size]) - p_cg * mass) < 1e-6


def test_decode_step_no_copy_sums_to_one_on_base():
    hyper = tiny_hyper(ablation="atten")
    vocab_size = 12
    params = init_parameters(hyper, vocab_size, Rng(7))
    base = [4, UNK]
    ext = [4, vocab_size]
    ex = make_example(base, ext, ["z"], [END], vocab_size, params)
    enc = encode(base, params, hyper)
    step = decode_step(START, enc.s0, enc, Tensor(np.zeros(2)), ext, ex.ev,
                       params, hyper)
    assert step.p_cg is None
    assert abs(float(step.p_star.data[:vocab_size].sum()) - 1.0) < 1e-6
    assert np.allclose(step.p_star.data[vocab_size:], 0.0)


def test_basic_model_uniform_loss_is_log_vocab():
    # zero parameters + basic ablation => softmax over V is uniform, so the
    # per-token NLL is ln V
    hyper = tiny_hyper(ablation="basic")
    vocab_size = 10
    params = init_parameters(hyper, vocab_size, Rng(8))
    for t in params.values():
        t.data[...] = 0.0
    ex = make_example([4, 5], [4, 5], [], [6, END], vocab_size, params)
    loss, logps = sequence_loss(ex, params, hyper)
    assert abs(float(loss.data) - math.log(vocab_size)) < 1e-5
    assert all(abs(lp + math.log(vocab_size)) < 1e-5 for lp in logps)


def test_coverage_penalty_zero_at_first_step():
    hyper = tiny_hyper()
    vocab_size = 10
    params = init_parameters(hyper, vocab_size, Rng(9))
    ex = make_example([4, 5, 6], [4, 5, 6], [], [END], vocab_size, params)
    loss_cov, _ = sequence_loss(ex, params, hyper)
    hyper0 = tiny_hyper(lam=0.0)
    loss_plain, _ = sequence_loss(ex, params, hyper0)
    # single decode step: cov_0 = 0 so min(a, cov) = 0 and lambda is inert
    assert abs(float(loss_cov.data) - float(loss_plain.data)) < 1e-7


def test_coverage_penalty_bounded_per_step():
    hyper = tiny_hyper()
    vocab_size = 12
    params = init_parameters(hyper, vocab_size, Rng(14))
    rng = Rng(15)
    base, ext, oov, target = _random_example(rng, vocab_size, 4, 6)
    ex = make_example(base, ext, oov, target, vocab_size, params)
    enc = encode(base, params, hyper)
    state, cov = enc.s0, Tensor(np.zeros(4))
    feed = [START] + [y if y < vocab_size else UNK for y in target[:-1]]
    for y_prev in feed:
        step = decode_step(y_prev, state, enc, cov, ext, ex.ev, params, hyper)
        pen = float(np.minimum(step.a.data, step.cov.data).sum())
        assert 0.0 <= pen <= 1.0 + 1e-6
        state, cov = step.state, step.cov_next


def test_target_out_of_range_errors():
    hyper = tiny_hyper()
    vocab_size = 10
    params = init_parameters(hyper, vocab_size, Rng(10))
    ex = make_example([4], [4], [], [vocab_size, END], vocab_size, params)
    with pytest.raises(IndexError):
        sequence_loss(ex, params, hyper)


@pytest.mark.parametrize("ablation", ["basic", "atten", "atten+copy",
                                      "atten+coverage", "full"])
def test_sequence_loss_gradients_all_variants(ablation):
    vocab_size = 9
    hyper = Hyperparams(embed_dim=3, hidden=3, lambda_cov=0.7,
                        ablation=ABLATION_PRESETS[ablation])
    with nm.use_dtype(np.float64):
        params = init_parameters(hyper, vocab_size, Rng(11))
        rng = Rng(12)
        examples = []
        for _ in range(2):
            base, ext, oov, target = _random_example(rng, vocab_size, 3, 3)
            examples.append(make_example(base, ext, oov, target, vocab_size,
                                         params))

        def f():
            losses = [sequence_loss(ex, params, hyper)[0] for ex in examples]
            return nm.scale(nm.add_n(losses), 0.5)

        err = nm.finite_diff_check(f, list(params.values()), epsilon=1e-5)
    assert err < 1e-3, f"{ablation}: max relative gradient error {err}"


def test_overfit_single_example_loss_nonincreasing():
    vocab_size = 10
    hyper = Hyperparams(embed_dim=4, hidden=4,
                        ablation=ABLATION_PRESETS["full"])
    params = init_parameters(hyper, vocab_size, Rng(13))
    rng = Rng(14)
    base, ext, oov, target = _random_example(rng, vocab_size, 4, 4)
    ex = make_example(base, ext, oov, target, vocab_size, params)
    prev = float("inf")
    for _ in range(50):
        params.zero_grads()
        loss, _ = sequence_loss(ex, params, hyper)
        value = float(loss.data)
        assert value <= prev + 1e-6
        prev = value
        loss.backward()
        for t in params.values():
            if t.grad is not None:
                t.data -= (0.01 * t.grad).astype(t.data.dtype)


def _composed_lstm_seq(x, h0, c0, w, u, b):
    # the same LSTM as one matvec-and-elementwise cell per row
    hsize = u.data.shape[1]
    h, c, rows = h0, c0, []
    for t in range(x.shape[0]):
        z = nm.add(nm.add(nm.matmul(w, nm.index(x, t)), nm.matmul(u, h)), b)
        i, f, o, g = (nm.index(z, slice(k * hsize, (k + 1) * hsize)) for k in range(4))
        i, f, o, g = nm.sigmoid(i), nm.sigmoid(f), nm.sigmoid(o), nm.tanh(g)
        c = nm.add(nm.mul(f, c), nm.mul(i, g))
        h = nm.mul(o, nm.tanh(c))
        rows.append(nm.concat([nm.index(h, (None, None)), nm.index(c, (None, None))],
                              axis=1))
    return nm.concat(rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", ["basic", "atten", "atten+copy",
                                      "atten+coverage", "full"])
def test_lstm_seq_matches_composed_ops(ablation, dtype, monkeypatch):
    # the same batch loss and gradients with every LSTM of the encoder and
    # decoder built step by step from elementwise ops instead; a small
    # vocabulary makes tokens repeat, so embedding rows and the shared LSTM
    # weights sum gradients from many places. One input-projection product
    # and one weight-gradient product per sequence sum in another order than
    # per-step matvecs, so the two agree to rounding, not bit for bit: the
    # loss to ``rtol`` of itself, every gradient to ``rtol`` of the largest
    # gradient entry (W_sh and b_att add the same to every attention score,
    # which the softmax cancels, so theirs are rounding-sized).
    def batch_grads(seed):
        with nm.use_dtype(dtype):
            hyper = tiny_hyper(embed=2 + seed % 4, hidden=2 + seed % 3,
                               ablation=ablation)
            params = init_parameters(hyper, 7, Rng(seed))
            rng = Rng(100 + seed)
            examples = [make_example(*_random_example(rng, 7, 2 + k, 2 + k, 2),
                                     7, params) for k in range(3)]
            loss = nm.add_n([sequence_loss(ex, params, hyper)[0]
                             for ex in examples])
            loss.backward()
            return [loss.data] + [t.grad for t in params.values()
                                  if t.grad is not None]

    rtol = 1e-12 if dtype is np.float64 else 1e-5
    for seed in range(6):
        fused = batch_grads(seed)
        with monkeypatch.context() as m:
            m.setattr(nm, "lstm_seq", _composed_lstm_seq)
            composed = batch_grads(seed)
        assert len(fused) == len(composed)
        assert all(a.dtype == b.dtype for a, b in zip(fused, composed))
        assert abs(fused[0] - composed[0]) <= rtol * abs(composed[0])
        scale = max(np.abs(b).max() for b in composed[1:])
        for a, b in zip(fused[1:], composed[1:]):
            assert np.abs(a - b).max() <= rtol * scale
