import math

import numpy as np
import pytest

import composed
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


def test_hyperparams_reject_max_decode_len_above_the_cap():
    assert Hyperparams(max_decode_len=md.MAX_DECODE_LEN).max_decode_len == md.MAX_DECODE_LEN
    with pytest.raises(ValueError, match="max_decode_len"):
        Hyperparams(max_decode_len=md.MAX_DECODE_LEN + 1)


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
    ("lambda_cov", "1"),
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
    s = Tensor(Rng(2).uniform(-1, 1, (1, hyper.hidden)))
    a, _ = attention_step(s, enc.H, enc.keys, None, params)
    assert np.allclose(a.data, [1.0])


def test_attention_identical_rows_uniform():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(1))
    H = Tensor(np.ones((4, 2 * hyper.hidden)))
    s = Tensor(Rng(2).uniform(-1, 1, (1, hyper.hidden)))
    a, c = attention_step(s, H, nm.linear(H, params["W_eh"]), None, params)
    assert np.allclose(a.data, [0.25] * 4, atol=1e-6)
    assert np.allclose(c.data, np.ones(2 * hyper.hidden), atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_precomputed_keys_match_recomputed(dtype):
    with nm.use_dtype(dtype):
        hyper = tiny_hyper()
        params = init_parameters(hyper, 12, Rng(4))
        enc = encode([3, 5, 7, 5, 9], params, hyper)
        rng = Rng(5)
        s = Tensor(rng.uniform(-1, 1, (1, hyper.hidden)))
        cov = Tensor(rng.uniform(0, 1, (1, 5)))
        with_keys = attention_step(s, enc.H, enc.keys, cov, params)
        recomputed = attention_step(s, enc.H, nm.linear(enc.H, params["W_eh"]), cov, params)
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
    s = Tensor(rng.uniform(-1, 1, (1, 2)))
    cov = Tensor(np.array([[0.3, 0.7]]))
    a, c = attention_step(s, H, nm.linear(H, params["W_eh"]), cov, params)

    w_eh, w_sh = params["W_eh"].data, params["W_sh"].data
    w_cv, b_att, v = params["W_cv"].data, params["b_att"].data, params["v"].data
    scores = []
    for i in range(2):
        pre = w_cv * cov.data[0, i] + w_eh @ H.data[i] + w_sh @ s.data[0] + b_att
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


def test_decode_step_rejects_extended_previous_ids():
    # the caller maps an extended previous output to UNK; decode_step
    # itself takes base-vocabulary ids only, one id or k rows
    hyper = tiny_hyper()
    vocab_size = 12
    params = init_parameters(hyper, vocab_size, Rng(8))
    base, ext = [4, UNK], [4, vocab_size]
    ex = make_example(base, ext, ["z"], [END], vocab_size, params)
    enc = encode(base, params, hyper)
    rows = tuple(nm.index(s, None) for s in enc.s0)
    for prev, state, cov in ((vocab_size, enc.s0, np.zeros(2)),
                             ([vocab_size], rows, np.zeros((1, 2)))):
        with pytest.raises(IndexError):
            decode_step(prev, state, enc, Tensor(cov), ext, ex.ev, params, hyper)
    step = decode_step(UNK, enc.s0, enc, Tensor(np.zeros(2)), ext, ex.ev, params, hyper)
    assert abs(float(step.p_star.data.sum()) - 1.0) < 1e-6


def _row_inputs(hyper, vocab_size, k, seed):
    rng = Rng(seed)
    params = init_parameters(hyper, vocab_size, rng)
    base, ext, oov, _ = _random_example(rng, vocab_size, 5, 3, n_oov=2)
    ex = make_example(base, ext, oov, [END], vocab_size, params)
    ids = np.array([rng.integers(0, vocab_size) for _ in range(k)])
    h, c = (rng.uniform(-1, 1, (k, hyper.hidden)) for _ in range(2))
    cov = rng.uniform(0, 2, (k, len(base))) if hyper.attention else None
    return params, base, ex, ids, h, c, cov


def _step_arrays(step):
    return [t.data for t in (*step.state, step.a, step.cov_next, step.p_cg, step.p_star)
            if t is not None]


@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_decode_step_rows_match_single_row_calls(ablation):
    # k rows stepped at once equal k one-row calls: to rounding in float64
    # (a k-row product sums in another order than a matrix-vector one), and
    # bit for bit for a single row in float32
    hyper = tiny_hyper(ablation=ablation)
    for dtype, k in ((np.float64, 4), (np.float32, 1)):
        with nm.use_dtype(dtype):
            params, base, ex, ids, h, c, cov = _row_inputs(hyper, 12, k, 21)
            enc = encode(base, params, hyper)

            def step(y, rows):
                return _step_arrays(decode_step(
                    y, (Tensor(h[rows]), Tensor(c[rows])), enc,
                    None if cov is None else Tensor(cov[rows]), ex.ext_ids, ex.ev,
                    params, hyper))

            batched = step(ids, slice(None))
            for r in range(k):
                for got, want in zip(batched, step(int(ids[r]), r)):
                    assert got.dtype == want.dtype == dtype
                    if dtype is np.float64:
                        np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=1e-15)
                    else:
                        assert np.array_equal(got[r], want)


@pytest.mark.oracle
@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_decode_step_rows_gradients(ablation):
    hyper = Hyperparams(embed_dim=3, hidden=3, ablation=ABLATION_PRESETS[ablation])
    with nm.use_dtype(np.float64):
        params, base, ex, ids, h, c, cov = _row_inputs(hyper, 9, 2, 23)
        h, c = Tensor(h), Tensor(c)
        cov = None if cov is None else Tensor(cov)
        rng = Rng(24)
        probe = Tensor(rng.uniform(-1, 1, (2, len(ex.ev))))
        cov_probe = Tensor(rng.uniform(-1, 1, (2, len(base))))

        def f():
            step = decode_step(ids, (h, c), encode(base, params, hyper), cov,
                               ex.ext_ids, ex.ev, params, hyper)
            total = nm.sum_all(composed.mul(step.p_star, probe))
            if step.cov_next is not None:
                total = composed.add(total, nm.sum_all(composed.mul(step.cov_next, cov_probe)))
            return total

        leaves = [h, c] + ([] if cov is None else [cov])
        err = nm.finite_diff_check(f, list(params.values()) + leaves, epsilon=1e-5)
    assert err < 1e-3, f"{ablation}: max relative gradient error {err}"


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


@pytest.mark.oracle
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
        nm.zero_grads(params.values())
        loss, _ = sequence_loss(ex, params, hyper)
        value = float(loss.data)
        assert value <= prev + 1e-6
        prev = value
        loss.backward()
        for t in params.values():
            if t.grad is not None:
                t.data -= (0.01 * t.grad).astype(t.data.dtype)


def _composed_lstm_seq(x, h0, c0, w, u, b, sizes=None):
    # the same LSTM as one matvec-and-elementwise cell per row; a packed
    # batch runs each sequence alone and puts its rows back where they were
    if sizes is not None:
        starts, rows = np.cumsum(sizes) - sizes, {}
        for j in range(sizes[0]):
            mine = [s + j for s, n in zip(starts, sizes) if n > j]
            out = _composed_lstm_seq(nm.index(x, mine), nm.index(h0, j),
                                     nm.index(c0, j), w, u, b)
            rows.update((r, nm.index(out, slice(p, p + 1))) for p, r in enumerate(mine))
        return nm.concat([rows[r] for r in range(len(rows))])
    hsize = u.data.shape[1]
    h, c, rows = h0, c0, []
    for t in range(x.shape[0]):
        z = composed.add(composed.add(nm.matmul(w, nm.index(x, t)), nm.matmul(u, h)), b)
        i, f, o, g = (nm.index(z, slice(k * hsize, (k + 1) * hsize)) for k in range(4))
        i, f, o, g = nm.sigmoid(i), nm.sigmoid(f), nm.sigmoid(o), nm.tanh(g)
        c = composed.add(composed.mul(f, c), composed.mul(i, g))
        h = composed.mul(o, nm.tanh(c))
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
            encs = md.encode_batch([ex.base_ids for ex in examples], params, hyper)
            loss = nm.add_n([sequence_loss(ex, params, hyper, enc=enc)[0]
                             for ex, enc in zip(examples, encs)])
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_fused_attention_and_output_match_composed_ops_bitwise(ablation, dtype, monkeypatch):
    # a batch's loss and every gradient, and a k-row decoder step, bit for
    # bit with the attention weights, the output distribution, the biased
    # linear maps and the floored log built as the composed chains of
    # tests/composed.py: the fused nodes repeat the
    # chains' arithmetic, and backward's walk reaches and adds into every
    # tensor in the chains' order. Tokens repeat and targets copy extended
    # ids, so shared tensors sum gradients from many places.
    def run(seed):
        with nm.use_dtype(dtype):
            hyper = tiny_hyper(embed=3 + seed, hidden=2 + seed, ablation=ablation)
            params = init_parameters(hyper, 7, Rng(seed))
            for t in params.values():
                t.data *= 5  # attention that differs by step
            rng = Rng(200 + seed)
            examples = []
            for k in range(4):
                base, ext, oov, target = _random_example(rng, 7, 2 + k, 3 + k, n_oov=k % 3)
                target[0] = ext[0]
                examples.append(make_example(base, ext, oov, target, 7, params))
            encs = md.encode_batch([ex.base_ids for ex in examples], params, hyper)
            loss = nm.scale(nm.add_n([sequence_loss(ex, params, hyper, enc=enc)[0]
                                      for ex, enc in zip(examples, encs)]), 0.25)
            loss.backward()
            ex, enc = examples[-1], encs[-1]
            rows = [Tensor(rng.uniform(-1, 1, (3, hyper.hidden))) for _ in "hc"]
            cov = Tensor(rng.uniform(0, 1, (3, len(ex.base_ids)))) if hyper.attention else None
            step = decode_step(np.array([4, 1, 6]), tuple(rows), enc, cov, ex.ext_ids, ex.ev,
                               params, hyper)
            return [loss.data, *_step_arrays(step)] + [t.grad for t in params.values()]

    for seed in range(3):
        fused = run(seed)
        with monkeypatch.context() as m:
            m.setattr(nm, "attention_weights", composed.attention_weights)
            m.setattr(nm, "output_dist", composed.output_dist)
            m.setattr(nm, "linear", composed.linear)
            m.setattr(nm, "log", composed.log)
            chain = run(seed)
        assert [g is None for g in fused] == [g is None for g in chain]
        for got, want in zip(fused, chain):
            if want is not None:
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)


def _held_arrays(root):
    """Every array that the graph below ``root`` holds until backward ends:
    each node's value and what its backward closure keeps, as the arrays
    that own the memory (a view counts as its base)."""
    owners, seen = {}, set()

    def hold(obj):
        if isinstance(obj, Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                hold(item)
        elif callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in getattr(obj, "__closure__", None) or ():
                hold(cell.cell_contents)

    for t in nm._toposort(root):
        hold(t.data)
        hold(t._backward)
    return list(owners.values())


def test_training_graph_holds_one_attention_block_per_step_and_two_vocab_rows_per_title():
    # the memory a training step keeps until backward: no (1, M, a) block
    # (the attention node rebuilds its tanh in backward) and at most two
    # arrays as wide as the vocabulary per title (the softmax rows and the
    # output rows)
    hyper = tiny_hyper(embed=4, hidden=3)
    vocab_size, src_len = 40, 7
    params = init_parameters(hyper, vocab_size, Rng(8))
    base, ext, oov, target = _random_example(Rng(9), vocab_size, src_len, 5, n_oov=2)
    target[1] = ext[0]
    ex = make_example(base, ext, oov, target, vocab_size, params)
    loss, _ = sequence_loss(ex, params, hyper)
    weights = {id(t.data) for t in params.values()}
    held = [a for a in _held_arrays(loss) if id(a) not in weights]
    blocks = [a for a in held if a.shape == (1, src_len, hyper.hidden)]
    vocab_wide = [a for a in held if a.ndim == 2 and a.shape[1] >= vocab_size]
    assert blocks == []
    assert len(vocab_wide) <= 2


def _assert_grads_close(grads, ref_grads, rtol=1e-12):
    # to rtol of the largest gradient entry, as in
    # test_lstm_seq_matches_composed_ops: W_sh's and b_att's are
    # rounding-sized, since the softmax cancels what they add to every score
    assert [g is None for g in grads] == [w is None for w in ref_grads]
    scale = max(np.abs(w).max() for w in ref_grads if w is not None)
    for g, w in zip(grads, ref_grads):
        if w is not None:
            assert np.abs(g - w).max() <= rtol * scale


def _encoder_fields(enc):
    return [t for t in (enc.H, *enc.s0, enc.summary, enc.keys) if t is not None]


def _reference_encode(base_ids, params, hyper):
    # one source on its own, each direction one lstm_seq call over a batch
    # of one and the backward one on the reversed rows: the encoder before
    # packing
    zeros = Tensor(np.zeros((1, hyper.hidden)))
    rev, hs = slice(None, None, -1), (slice(None), 0)

    def bilstm(x, layer):
        fw, bw = (nm.lstm_seq(seq, zeros, zeros, *(params[f"enc_l{layer}_{d}_{n}"] for n in "WUb"),
                              sizes=[1] * len(base_ids))
                  for d, seq in (("fw", x), ("bw", nm.index(x, rev))))
        bw = nm.index(bw, rev)
        return nm.concat([nm.index(fw, hs), nm.index(bw, hs)], axis=1), fw, bw

    H, fw, bw = bilstm(bilstm(nm.index(params["E"], base_ids), 1)[0], 2)
    summary = [nm.concat([nm.index(fw, (-1, k)), nm.index(bw, (0, k))]) for k in (0, 1)]
    s0 = tuple(nm.index(nm.tanh(nm.linear(nm.index(v, None), params["W_b"], params["b_b"])), 0)
               for v in summary)
    keys = nm.linear(H, params["W_eh"]) if hyper.attention else None
    return md.EncoderOutput(H=H, s0=s0, summary=summary[0], keys=keys)


@pytest.mark.oracle
@pytest.mark.parametrize("ablation", ["basic", "full"])
def test_encode_batch_matches_per_example_encode(ablation):
    # every field of every EncoderOutput, and the gradient of a loss over
    # all of them, equal encoding each source alone with the unpacked
    # reference; the sources tie in length, come unsorted and include a
    # one-token source. ``encode``, the batch of one, matches it as well.
    hyper = tiny_hyper(embed=3, hidden=3, ablation=ablation)
    sources = [[4, 5, 6], [7], [8, 4, 9, 5, 6], [5, 5, 10]]
    with nm.use_dtype(np.float64):
        params = init_parameters(hyper, 11, Rng(51))
        rng = Rng(52)
        probes = [[Tensor(rng.uniform(-1, 1, t.shape)) for t in _encoder_fields(enc)]
                  for enc in md.encode_batch(sources, params, hyper)]

        def run(encs):
            nm.zero_grads(params.values())
            nm.add_n([nm.sum_all(composed.mul(t, p)) for enc, ps in zip(encs, probes)
                      for t, p in zip(_encoder_fields(enc), ps)]).backward()
            return ([[t.data for t in _encoder_fields(enc)] for enc in encs],
                    [t.grad for t in params.values()])

        ref_values, ref_grads = run([_reference_encode(s, params, hyper) for s in sources])
        for encoder in (lambda: md.encode_batch(sources, params, hyper),
                        lambda: [encode(s, params, hyper) for s in sources]):
            values, grads = run(encoder())
            for got, want in zip(values, ref_values):
                assert [g.shape for g in got] == [w.shape for w in want]
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
            _assert_grads_close(grads, ref_grads)


def test_encode_batch_rejects_empty_and_out_of_range_sources():
    hyper = tiny_hyper()
    params = init_parameters(hyper, 10, Rng(0))
    for sources in ([], [[1, 2], []]):
        with pytest.raises(ValueError):
            md.encode_batch(sources, params, hyper)
    with pytest.raises(IndexError):
        md.encode_batch([[1, 2], [3, 10]], params, hyper)


def _stepwise_loss(example, params, hyper):
    # the loss from each decoder step's own output distribution: the
    # reference for sequence_loss's one projection per title
    vocab_size = params["E"].data.shape[0]
    enc = encode(example.base_ids, params, hyper)
    state = enc.s0
    cov = Tensor(np.zeros(len(example.base_ids))) if hyper.attention else None
    target = example.target_ids
    feed = [START] + [y if y < vocab_size else UNK for y in target[:-1]]
    nll_terms, cov_terms, logps = [], [], []
    for y_prev, y in zip(feed, target):
        step = decode_step(y_prev, state, enc, cov, example.ext_ids, example.ev, params, hyper)
        logp = nm.log(nm.index(step.p_star, y), md.LOGPROB_FLOOR)
        nll_terms.append(nm.scale(logp, -1.0))
        logps.append(float(logp.data))
        if hyper.coverage:
            cov_terms.append(nm.sum_all(nm.minimum(step.a, step.cov)))
        state, cov = step.state, step.cov_next
    loss = nm.scale(nm.add_n(nll_terms), 1.0 / len(target))
    if cov_terms and hyper.lambda_cov > 0:
        loss = composed.add(loss, nm.scale(nm.add_n(cov_terms), hyper.lambda_cov / len(target)))
    return loss, logps


@pytest.mark.oracle
@pytest.mark.parametrize("ablation", sorted(ABLATION_PRESETS))
def test_one_projection_sequence_loss_matches_stepwise_reference(ablation):
    # loss, per-token log-probabilities and every gradient; targets repeat
    # tokens and include copied (extended) ids. Weights 10 times the usual
    # init make the attention, and so each step's context, differ by step.
    hyper = Hyperparams(embed_dim=4, hidden=3, lambda_cov=0.7,
                        ablation=ABLATION_PRESETS[ablation])
    with nm.use_dtype(np.float64):
        params = init_parameters(hyper, 9, Rng(61))
        for t in params.values():
            t.data *= 10
        ex = make_example(*_random_example(Rng(62), 9, 5, 6, n_oov=2), 9, params)
        ex.target_ids = [9, 5, 5, 10, 9, END]
        results = []
        for fn in (sequence_loss, _stepwise_loss):
            nm.zero_grads(params.values())
            loss, logps = fn(ex, params, hyper)
            loss.backward()
            results.append((loss.data, logps, [t.grad for t in params.values()]))
    (loss, logps, grads), (ref_loss, ref_logps, ref_grads) = results
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
    np.testing.assert_allclose(logps, ref_logps, rtol=1e-12)
    _assert_grads_close(grads, ref_grads)
