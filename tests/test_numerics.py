import numpy as np
import pytest

import composed
from c2q import numerics as nm
from c2q.numerics import Rng, Tensor


def test_linear_identity():
    x = Tensor([[1.0, 2.0, 3.0]])
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    y = nm.linear(x, w, b)
    assert np.allclose(y.data, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("scale", [1.0, -1.0 / 7, 0.3])
def test_sum_all_with_a_scale_is_the_scaled_sum_bitwise(scale):
    # the fused form keeps every bit of the scale op it replaced
    x = Tensor(Rng(3).uniform(-1, 1, (4, 5)))
    fused = nm.sum_all(x, scale)
    fused.backward()
    grad, x.grad = x.grad, None
    ref = composed.scale(nm.sum_all(x), scale)
    ref.backward()
    assert fused.data.tobytes() == ref.data.tobytes()
    assert grad.tobytes() == x.grad.tobytes()


def test_linear_hand_example():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[1.0, 1.0], [0.0, 1.0]])
    b = Tensor([0.0, 1.0])
    y = nm.linear(x, w, b)
    assert np.allclose(y.data, [3.0, 3.0])


def test_linear_backward_outer_product():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[0.5, -0.5], [1.5, 2.0]])
    y = nm.linear(x, w)
    loss = nm.matmul(y, Tensor([3.0, -1.0]))  # upstream grad g = [3, -1]
    loss.backward()
    assert np.allclose(w.grad, np.outer([3.0, -1.0], [1.0, 2.0]))


def test_linear_shape_mismatch_names_shapes():
    with pytest.raises(nm.ShapeError, match=r"\(2, 2\).*\(3,\)"):
        nm.matmul(Tensor(np.eye(2)), Tensor([1.0, 2.0, 3.0]))
    # rows only: no vector input to linear, no vector left operand to matmul
    with pytest.raises(nm.ShapeError):
        nm.linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)))
    for left, right in (((2,), (2, 2)), ((2,), (2,))):
        with pytest.raises(nm.ShapeError, match="unsupported ranks"):
            nm.matmul(Tensor(np.zeros(left)), Tensor(np.zeros(right)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 4])
def test_biased_linear_matches_product_and_add_n_bitwise(k, dtype):
    # one node with parents (x, w, b) against the product node plus add_n:
    # the same value and the same gradient for x, W (its factor pair) and b
    rng = Rng(k)
    with nm.use_dtype(dtype):
        args = tuple(Tensor(rng.uniform(-1, 1, shape)) for shape in ((k, 5), (3, 5), 3))
        probe = rng.uniform(-1, 1, (k, 3))
        fused = _value_and_grads(nm.linear, args, probe)
        chain = _value_and_grads(composed.linear, args, probe)
        y = nm.linear(*args)
        assert y._parents == args
        assert isinstance(y._backward(np.ones(y.shape))[1], nm._Factors)
    assert len(fused) == len(chain) == 4
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_floored_log_matches_log_of_clamp_min_bitwise(dtype):
    # entries above, at and below the floor (zero included): the same
    # value, and a gradient only above the floor
    floor = 1e-12
    with nm.use_dtype(dtype):
        a = Tensor(np.array([[0.5, floor, 0.0, 1e-13], [1.0, 3e-12, floor / 2, 2.0]]))
        at_floor = a.data <= floor
        probe = Rng(3).uniform(-1, 1, a.shape)
        got = _value_and_grads(lambda t: nm.log(t, floor), (a,), probe)
        want = _value_and_grads(lambda t: composed.log(t, floor), (a,), probe)
    assert at_floor.sum() == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == dtype
        assert g.tobytes() == w.tobytes()
    assert np.array_equal(got[0][at_floor], np.full(4, np.log(dtype(floor))))
    assert (got[1][at_floor] == 0).all() and (got[1][~at_floor] != 0).all()


def test_backward_accumulates_instead_of_overwriting():
    w = Tensor([[1.0, 0.0], [0.0, 1.0]])
    for _ in range(2):
        y = nm.matmul(w, Tensor([1.0, 1.0]))
        nm.sum_all(y).backward()
    assert np.allclose(w.grad, 2 * np.outer([1.0, 1.0], [1.0, 1.0]))


def test_repeated_backward_on_one_graph_adds_one_gradient_per_pass():
    x = Tensor([0.3, -0.7])
    s = nm.sum_all(nm.tanh(composed.scale(x, 2.0)))
    s.backward()
    first = x.grad.copy()
    s.backward()
    np.testing.assert_allclose(x.grad, 2 * first, rtol=1e-6)


def test_backward_folds_factored_and_row_gradients():
    # W meets W@x and row@W three times, A enters as a non-leaf matrix
    # operand, E is read by leaf index (int and slice keys and a list of
    # ids with repeats); every gradient is checked against a dense
    # hand-computed reference after two backward passes have accumulated.
    rng = Rng(17)
    with nm.use_dtype(np.float64):
        W, A, E = (Tensor(rng.uniform(-1, 1, shape)) for shape in ((3, 4), (3, 4), (5, 4)))
        x2, x3, y, z = (Tensor(rng.uniform(-1, 1, n)) for n in (4, 4, (1, 3), (1, 3)))
        u1, u2, u3, u4, u5, v1 = (rng.uniform(-1, 1, n) for n in (3, 3, 4, 3, 4, 4))
        V2, V3 = rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (5, 4))
        ids = [0, 3, 0, 3, 3]

        def dot(u, t):
            return nm.sum_all(composed.mul(Tensor(u), t))

        def loss():
            x1 = nm.index(E, 2)
            M = nm.tanh(A)
            terms = [dot(u1, nm.matmul(W, x1)),
                     dot(u2, nm.matmul(W, x2)),
                     dot(u3, nm.matmul(y, W)),
                     dot(u4, nm.matmul(M, x3)),
                     dot(u5, nm.matmul(z, M)),
                     dot(v1, x1),
                     nm.sum_all(composed.mul(nm.index(E, slice(1, 3)), Tensor(V2))),
                     nm.sum_all(composed.mul(nm.index(E, ids), Tensor(V3)))]
            return nm.add_n(terms)

        for _ in range(2):
            loss().backward()

    w, a, e = W.data, A.data, E.data
    m = np.tanh(a)
    dW = np.outer(u1, e[2]) + np.outer(u2, x2.data) + np.outer(y.data, u3)
    dA = (np.outer(u4, x3.data) + np.outer(z.data, u5)) * (1.0 - m * m)
    dE = np.zeros_like(e)
    dE[2] += w.T @ u1 + v1
    dE[1:3] += V2
    for row, i in zip(V3, ids):
        dE[i] += row
    for t, ref in ((W, dW), (A, dA), (E, dE), (x2, w.T @ u2), (x3, m.T @ u4),
                   (y, (w @ u3)[None]), (z, (m @ u5)[None])):
        np.testing.assert_allclose(t.grad, 2 * ref, rtol=1e-12, atol=0)


def test_softmax_uniform():
    p = composed.softmax(Tensor([1.0, 1.0, 1.0]))
    assert np.allclose(p.data, [1 / 3] * 3, atol=1e-6)


def test_softmax_hand_example():
    p = composed.softmax(Tensor([0.0, np.log(2.0)]))
    assert np.allclose(p.data, [1 / 3, 2 / 3], atol=1e-6)


def test_softmax_sum_and_nonneg_randomized():
    rng = Rng(3)
    for _ in range(50):
        v = Tensor(rng.uniform(-30, 30, 17))
        p = composed.softmax(v)
        assert abs(float(p.data.sum()) - 1.0) < 1e-6
        assert (p.data >= 0).all()


@pytest.mark.parametrize("x,expected", [
    (0.0, 0.5),
    (100.0, 1.0),
    (np.log(3.0), 0.75),
])
def test_sigmoid_values(x, expected):
    assert abs(float(nm.sigmoid(Tensor(x)).data) - expected) < 1e-6


def test_sigmoid_no_overflow():
    out = nm.sigmoid(Tensor([-1000.0, 1000.0]))
    assert np.allclose(out.data, [0.0, 1.0])


def test_lstm_seq_all_zeros():
    h = 4
    z = Tensor(np.zeros((1, h)))
    w = Tensor(np.zeros((4 * h, h)))
    u = Tensor(np.zeros((4 * h, h)))
    b = Tensor(np.zeros(4 * h))
    out = nm.lstm_seq(Tensor(np.zeros((3, h))), z, z, w, u, b, sizes=[1, 1, 1])
    assert out.shape == (3, 2, h)
    assert np.allclose(out.data, 0.0)


def test_lstm_seq_cprev_zero_forget_irrelevant():
    h = 3
    rng = Rng(5)
    w1 = Tensor(rng.uniform(-0.5, 0.5, (4 * h, h)))
    u = Tensor(rng.uniform(-0.5, 0.5, (4 * h, h)))
    x = Tensor(rng.uniform(-1, 1, (1, h)))
    hp = Tensor(rng.uniform(-1, 1, (1, h)))
    cz = Tensor(np.zeros((1, h)))
    # bias on the forget gate changes f but must not change c when c_prev=0
    b1 = Tensor(np.zeros(4 * h))
    b2 = np.zeros(4 * h)
    b2[h:2 * h] = 5.0
    c1 = nm.lstm_seq(x, hp, cz, w1, u, b1, sizes=[1]).data[0, 1]
    c2 = nm.lstm_seq(x, hp, cz, w1, u, Tensor(b2), sizes=[1]).data[0, 1]
    assert np.allclose(c1, c2, atol=1e-6)


@pytest.mark.oracle
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_lstm_seq_gradients_match_finite_differences(reverse):
    h, steps = 4, 3
    rng = Rng(11)
    rev = slice(None, None, -1)
    with nm.use_dtype(np.float64):
        w = Tensor(rng.uniform(-0.3, 0.3, (4 * h, h)))
        u = Tensor(rng.uniform(-0.3, 0.3, (4 * h, h)))
        b = Tensor(rng.uniform(-0.3, 0.3, 4 * h))
        x = Tensor(rng.uniform(-1, 1, (steps, h)))
        hp = Tensor(rng.uniform(-1, 1, (1, h)))
        cp = Tensor(rng.uniform(-1, 1, (1, h)))
        probe = Tensor(rng.uniform(-1, 1, (steps, 2, h)))
        sizes = [1] * steps

        def f():
            out = (nm.index(nm.lstm_seq(nm.index(x, rev), hp, cp, w, u, b, sizes), rev)
                   if reverse else nm.lstm_seq(x, hp, cp, w, u, b, sizes))
            return nm.sum_all(composed.mul(out, probe))

        err = nm.finite_diff_check(f, [x, hp, cp, w, u, b], epsilon=1e-5)
    assert err < 1e-3


def test_finite_diff_polynomial():
    x = Tensor(3.0)

    def f():
        return composed.mul(x, x)

    err = nm.finite_diff_check(f, [x], epsilon=1e-3)
    assert err < 1e-4


def test_finite_diff_constant():
    x = Tensor(2.0)

    def f():
        return composed.mul(x, Tensor(0.0))

    assert nm.finite_diff_check(f, [x]) == 0.0


def test_finite_diff_nonfinite_errors():
    x = Tensor(0.0)

    def f():
        return composed.plain_log(x)

    with pytest.raises(ValueError):
        nm.finite_diff_check(f, [x])


def test_composed_graph_gradcheck():
    rng = Rng(21)
    with nm.use_dtype(np.float64):
        w = Tensor(rng.uniform(-0.5, 0.5, (5, 4)))
        x = Tensor(rng.uniform(-1, 1, (1, 4)))
        v = Tensor(rng.uniform(-1, 1, 5))

        def f():
            p = composed.softmax(nm.tanh(nm.linear(x, w)))
            return nm.sum_all(nm.matmul(nm.log(p, 1e-12), v))

        err = nm.finite_diff_check(f, [w, x, v], epsilon=1e-6)
    assert err < 1e-4


def test_deterministic_across_runs():
    def run():
        rng = Rng(123)
        w = Tensor(rng.uniform(-1, 1, (6, 6)))
        x = Tensor(rng.uniform(-1, 1, 6))
        y = nm.sum_all(nm.tanh(nm.matmul(w, x)))
        y.backward()
        return y.data.copy(), w.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert (y1 == y2).all() and (g1 == g2).all()


def test_rng_identical_seeds_identical_streams():
    a = Rng(7).uniform(0, 1, 100)
    b = Rng(7).uniform(0, 1, 100)
    assert (a == b).all()


def test_scatter_add_and_pad():
    # output_dist pads the generator's distribution with zeros and scatters
    # the attention rows onto their ids, repeated ids adding up
    x, w, b = Tensor([[1.0]]), Tensor(np.zeros((2, 1))), Tensor(np.zeros(2))
    padded = nm.output_dist(x, w, b, 4)
    assert np.allclose(padded.data, [[0.5, 0.5, 0.0, 0.0]])
    attn = Tensor([[0.25, 0.5, 0.25]])
    for gate, want in ((1.0, [0.5, 0.0, 0.5, 0.0]), (0.5, [0.5, 0.25, 0.25, 0.0])):
        out = nm.output_dist(x, w, b, 4, Tensor([gate]), attn, [2, 0, 2])
        assert np.allclose(out.data, [want])
    nm.index(out, (0, 2)).backward()
    assert np.allclose(attn.grad, [[0.5, 0.0, 0.5]])


def test_minimum_subgradient():
    a = Tensor([1.0, 5.0])
    b = Tensor([2.0, 3.0])
    nm.sum_all(nm.minimum(a, b)).backward()
    assert np.allclose(a.grad, [1.0, 0.0])
    assert np.allclose(b.grad, [0.0, 1.0])


def test_lstm_seq_rejects_mismatched_batch():
    # the packed form is the only one: sizes are required, and neither k
    # equal-length sequences (T, k, in) nor a one-sequence (H,) state fit
    h = 2
    w, u, b = Tensor(np.zeros((4 * h, 3))), Tensor(np.zeros((4 * h, h))), Tensor(np.zeros(4 * h))
    for x, s in (((2, 3, 3), (2, h)), ((2, 2, 3), (h,)), ((2, 3), (2, h))):
        x, s = Tensor(np.zeros(x)), Tensor(np.zeros(s))
        with pytest.raises(TypeError):
            nm.lstm_seq(x, s, s, w, u, b)
        with pytest.raises(nm.ShapeError):
            nm.lstm_seq(x, s, s, w, u, b, sizes=[2, 2])


def test_row_ops_match_per_row_ops_and_fold_weight_factors():
    # linear, softmax, a broadcasting concat and output_dist, which
    # pads and scatters, on k rows give each row's result as a row of one,
    # and the rows' gradients, W's folded from factors, match finite
    # differences
    rng = Rng(41)
    with nm.use_dtype(np.float64):
        W = Tensor(rng.uniform(-1, 1, (4, 3)))
        bias = Tensor(rng.uniform(-1, 1, 4))
        X = Tensor(rng.uniform(-1, 1, (2, 3)))
        v = Tensor(rng.uniform(-1, 1, 2))
        W2, b2 = Tensor(rng.uniform(-1, 1, (4, 5))), Tensor(rng.uniform(-1, 1, 4))
        gate = Tensor(rng.uniform(0, 1, 2))
        probe = Tensor(rng.uniform(-1, 1, (2, 7)))
        idx = [3, 4, 3, 6]

        def rows(r=slice(None)):
            y = composed.softmax(nm.linear(nm.index(X, r), W, bias))
            return nm.output_dist(nm.concat([nm.index(X, r), v], axis=-1), W2, b2, 7,
                                  nm.index(gate, r), y, idx)

        out = rows()
        for r in range(2):
            one = rows(slice(r, r + 1))
            np.testing.assert_allclose(out.data[r], one.data[0], rtol=1e-12, atol=0)
        # no position scatters to 5
        assert (out.data[:, 5] == 0).all()

        def f():
            return nm.sum_all(composed.mul(rows(), probe))

        err = nm.finite_diff_check(f, [W, bias, X, v, W2, b2, gate], epsilon=1e-6)
        # W's gradient from the row form reaches backward as a factor pair
        y = nm.linear(X, W)
        assert isinstance(y._backward(np.ones(y.shape))[1], nm._Factors)
    assert err < 1e-5


def _pack(seqs):
    """(packed rows, sizes, each sequence's packed row indices) of
    sequences sorted longest first: time-major, live rows per step."""
    sizes = [sum(len(s) > t for s in seqs) for t in range(len(seqs[0]))]
    starts = np.cumsum(sizes) - sizes
    rows = [starts[:len(s)] + j for j, s in enumerate(seqs)]
    packed = np.empty((sum(sizes), seqs[0].shape[1]))
    for s, r in zip(seqs, rows):
        packed[r] = s
    return packed, sizes, rows


@pytest.mark.oracle
@pytest.mark.parametrize("lengths", [[4], [3, 3, 3], [4, 2, 2, 1], [1, 1], [3, 1]],
                         ids=["one", "equal", "ragged", "length-1", "ends-early"])
def test_packed_lstm_seq_matches_separate_sequences_and_finite_differences(lengths):
    # a packed ragged batch gives each sequence's rows, and each input's
    # gradient, as that sequence run alone; the weight gradients are the
    # sums of the separate runs'; the packed backward passes the check
    h, in_dim = 3, 2
    rng = Rng(41)
    with nm.use_dtype(np.float64):
        w = Tensor(rng.uniform(-0.4, 0.4, (4 * h, in_dim)))
        u = Tensor(rng.uniform(-0.4, 0.4, (4 * h, h)))
        b = Tensor(rng.uniform(-0.4, 0.4, 4 * h))
        seqs = [rng.uniform(-1, 1, (n, in_dim)) for n in lengths]
        packed, sizes, rows = _pack(seqs)
        x = Tensor(packed)
        h0, c0 = (Tensor(rng.uniform(-1, 1, (len(seqs), h))) for _ in "hc")
        probe = rng.uniform(-1, 1, (len(packed), 2, h))

        def f():
            out = nm.lstm_seq(x, h0, c0, w, u, b, sizes=sizes)
            return nm.sum_all(composed.mul(out, Tensor(probe)))

        leaves = [x, h0, c0, w, u, b]
        nm.zero_grads(leaves)
        out = nm.lstm_seq(x, h0, c0, w, u, b, sizes=sizes)
        assert out.shape == (len(packed), 2, h)
        f().backward()
        packed_grads = [t.grad.copy() for t in leaves]
        nm.zero_grads([w, u, b])
        for j, (s, r) in enumerate(zip(seqs, rows)):
            xs, hs, cs = Tensor(s), Tensor(h0.data[j:j + 1]), Tensor(c0.data[j:j + 1])
            alone = nm.lstm_seq(xs, hs, cs, w, u, b, sizes=[1] * len(s))
            np.testing.assert_allclose(out.data[r], alone.data, rtol=1e-12, atol=1e-15)
            nm.sum_all(composed.mul(alone, Tensor(probe[r]))).backward()
            for got, want in ((packed_grads[0][r], xs.grad), (packed_grads[1][j], hs.grad[0]),
                              (packed_grads[2][j], cs.grad[0])):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        for got, t in zip(packed_grads[3:], (w, u, b)):
            assert np.abs(got - t.grad).max() <= 1e-12 * np.abs(t.grad).max()
        err = nm.finite_diff_check(f, leaves, epsilon=1e-5)
    assert err < 1e-3


def test_packed_lstm_seq_rejects_bad_sizes():
    h = 2
    w, u, b = Tensor(np.zeros((4 * h, 3))), Tensor(np.zeros((4 * h, h))), Tensor(np.zeros(4 * h))
    for x, state, sizes in (((3, 3), (2, h), [1, 2]),     # increasing
                            ((3, 3), (2, h), [2, 2]),     # sum is not the row count
                            ((2, 3), (2, h), [2, 0]),     # an empty step
                            ((0, 3), (0, h), []),         # no step
                            ((3, 3), (1, h), [2, 1]),     # state rows != sizes[0]
                            ((3, 3), (h,), [2, 1]),       # one-sequence state
                            ((3, 1, 3), (2, h), [2, 1]),  # not packed rows
                            ((3, 2), (2, h), [2, 1])):    # input width != W's
        with pytest.raises(nm.ShapeError):
            nm.lstm_seq(Tensor(np.zeros(x)), Tensor(np.zeros(state)), Tensor(np.zeros(state)),
                        w, u, b, sizes=sizes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 2, 7])
def test_outer_sum_equals_transposed_product_bitwise(dtype, rows):
    rng = Rng(rows)
    for m, n in [(1024, 300), (64, 1), (3, 5)]:
        left = rng.uniform(-1, 1, (rows, m)).astype(dtype)
        right = rng.uniform(-1, 1, (rows, n)).astype(dtype)
        got = nm._outer_sum(left, right)
        assert got.dtype == dtype
        assert np.array_equal(got, left.T @ right)
        assert np.array_equal(got, composed.outer_sum_kernel(left, right))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_kernel_equals_two_branch_form_bitwise(dtype):
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0,
                        17.0, -17.0, 40.0, -40.0,          # e + 1 rounds to 1
                        88.8, -88.8, 104.0, -104.0,        # float32 exp underflow
                        745.2, -745.2, 746.0, -746.0,      # float64 exp underflow
                        info.max, -info.max, info.tiny, -info.tiny,
                        info.smallest_subnormal, -info.smallest_subnormal], dtype=dtype)
    rng = np.random.default_rng(5)
    wide = rng.uniform(-800, 800, 100_000).astype(dtype)
    for x in (special, rng.standard_normal((64, 768)).astype(dtype) * 8, wide):
        got = nm._sigmoid(x)
        assert got.dtype == dtype and got.shape == x.shape
        assert got.tobytes() == composed.sigmoid_kernel(x).tobytes()


def test_finite_diff_accepts_one_element_outputs():
    # Tensor.backward takes any one-element output, and so does the checker
    w = Tensor([1.0, -2.0, 0.5])
    for f in (lambda: nm.matmul(Tensor(np.ones((1, 3))), w),
              lambda: nm.index(composed.mul(w, w), slice(1, 2))):
        assert f().shape == (1,)
        assert nm.finite_diff_check(f, [w], epsilon=1e-3) < 1e-3


def test_finite_diff_rejects_outputs_of_several_elements():
    w = Tensor([1.0, -2.0])
    with pytest.raises(ValueError, match="one element"):
        nm.finite_diff_check(lambda: composed.mul(w, w), [w])
    assert w.grad is None  # rejected before any backward pass


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fold_adds_distinct_rows_as_add_at_does_bitwise(dtype):
    # a permutation, repeated ids, one id and a negative id naming a row
    # that also appears as itself; each gather's backward lands on a
    # gradient that already holds values, over two passes
    rng = Rng(3)
    keys = [rng.permutation(6), np.array([0, 3, 0, 5]), np.array([4]), np.array([-1, 5])]
    assert [nm._distinct(k) for k in keys] == [True, False, True, False]
    with nm.use_dtype(dtype):
        for key in keys:
            E = Tensor(rng.uniform(-1, 1, (6, 3)))
            probe = Tensor(rng.uniform(-1, 1, (len(key), 3)))
            want = np.zeros_like(E.data)
            for _ in range(2):
                nm.sum_all(composed.mul(nm.index(E, key), probe)).backward()
                np.add.at(want, key, probe.data)
            assert E.grad.dtype == dtype
            assert np.array_equal(E.grad, want)


def test_index_by_a_list_with_a_repeated_row_adds_its_gradient_twice():
    E = Tensor(np.zeros((3, 2)))
    out = nm.index(E, [0, 0])
    assert out.shape == (2, 2)
    nm.sum_all(out).backward()
    assert np.array_equal(E.grad, [[2.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    # lists inside a tuple pick single entries; one picked twice adds twice
    E.grad = None
    nm.sum_all(nm.index(E, ([0, 2, 0], [1, 0, 1]))).backward()
    assert np.array_equal(E.grad, [[0.0, 2.0], [0.0, 0.0], [1.0, 0.0]])


def _attention_inputs(rng, k, m=5, a=4, coverage=True):
    query, keys = Tensor(rng.uniform(-1, 1, (k, a))), Tensor(rng.uniform(-1, 1, (m, a)))
    cov = Tensor(rng.uniform(0, 2, (k, m))) if coverage else None
    w_cv = Tensor(rng.uniform(-1, 1, a)) if coverage else None
    return query, keys, cov, w_cv, Tensor(rng.uniform(-1, 1, a))


def _output_inputs(rng, k, size, copy=True, vocab=6, in_dim=5, m=4):
    x, w, b = (Tensor(rng.uniform(-1, 1, shape)) for shape in ((k, in_dim), (vocab, in_dim), vocab))
    if not copy:
        return x, w, b, size
    attn = rng.uniform(0, 1, (k, m))
    gate, attn = Tensor(rng.uniform(0, 1, k)), Tensor(attn / attn.sum(axis=1, keepdims=True))
    ext_ids = [vocab + m - 3, 1, vocab + m - 3, size - 1]  # a repeat, an OOV id, the last id
    return x, w, b, size, gate, attn, ext_ids


def _leaves(args):
    return [t for t in args if isinstance(t, Tensor)]


def _value_and_grads(op, args, probe):
    leaves = _leaves(args)
    nm.zero_grads(leaves)
    out = op(*args)
    nm.sum_all(composed.mul(out, Tensor(probe))).backward()
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("coverage", [True, False], ids=["coverage", "no-coverage"])
@pytest.mark.parametrize("k", [1, 3])
def test_attention_scores_match_composed_chain_bitwise(k, coverage, dtype):
    # the weights node against the scores chain and its softmax
    rng = Rng(10 * k + coverage)
    with nm.use_dtype(dtype):
        args = _attention_inputs(rng, k, coverage=coverage)
        probe = rng.uniform(-1, 1, (k, 5))
        fused = _value_and_grads(nm.attention_weights, args, probe)
        chain = _value_and_grads(composed.attention_weights, args, probe)
    assert len(fused) == len(chain) == (6 if coverage else 4)
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("copy", [True, False], ids=["copy", "no-copy"])
@pytest.mark.parametrize("size", [6, 9], ids=["vocab", "padded"])
@pytest.mark.parametrize("k", [1, 3])
def test_output_dist_matches_composed_chain_bitwise(k, size, copy, dtype):
    if copy and size == 6:
        size = 8  # the copy ids reach past the vocabulary
    rng = Rng(10 * k + size + copy)
    with nm.use_dtype(dtype):
        args = _output_inputs(rng, k, size, copy)
        probe = rng.uniform(-1, 1, (k, size))
        fused = _value_and_grads(nm.output_dist, args, probe)
        chain = _value_and_grads(composed.output_dist, args, probe)
        out = nm.output_dist(*args)
        # W's gradient reaches backward as the factor pair (g, x)
        assert isinstance(out._backward(np.ones(out.shape))[-2], nm._Factors)
    assert len(fused) == len(chain) == (6 if copy else 4)
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
    np.testing.assert_allclose(fused[0].sum(axis=1), 1.0, rtol=1e-5)


@pytest.mark.oracle
@pytest.mark.parametrize("masked", [True, False], ids=["mask", "no-mask"])
@pytest.mark.parametrize("coverage", [True, False], ids=["coverage", "no-coverage"])
def test_attention_scores_gradients_match_finite_differences(coverage, masked):
    # the weights node; masked, the scores chain with -1e30 added to the
    # masked positions' scores, which then get no probability, through the
    # softmax backward that the node runs
    rng = Rng(31 + coverage)
    offset = np.where([True, False, True, True, False], 0.0, -1e30)
    with nm.use_dtype(np.float64):
        args = _attention_inputs(rng, 2, coverage=coverage)
        probe = Tensor(rng.uniform(-1, 1, (2, 5)))

        def f():
            weights = (composed.softmax(composed.add(composed.attention_scores(*args), offset))
                       if masked else nm.attention_weights(*args))
            return nm.sum_all(composed.mul(weights, probe))

        err = nm.finite_diff_check(f, _leaves(args), epsilon=1e-6)
    assert err < 1e-6


@pytest.mark.oracle
@pytest.mark.parametrize("copy", [True, False], ids=["copy", "no-copy"])
def test_output_dist_gradients_match_finite_differences(copy):
    rng = Rng(33 + copy)
    with nm.use_dtype(np.float64):
        args = _output_inputs(rng, 2, 9, copy)
        probe = Tensor(rng.uniform(-1, 1, (2, 9)))

        def f():
            return nm.sum_all(nm.log(composed.mul(nm.output_dist(*args), probe), 1e-12))

        # a probe of positive entries keeps the log away from its floor
        probe.data[...] = np.abs(probe.data) + 0.1
        err = nm.finite_diff_check(f, _leaves(args), epsilon=1e-6)
    assert err < 1e-6


def test_fused_ops_reject_mismatched_shapes():
    rng = Rng(5)
    query, keys, cov, w_cv, v = _attention_inputs(rng, 2)
    for bad in ((query, Tensor(np.zeros((5, 3))), cov, w_cv, v),
                (query, keys, Tensor(np.zeros((2, 4))), w_cv, v),
                (Tensor(np.zeros(4)), keys, None, w_cv, v)):
        with pytest.raises(nm.ShapeError):
            nm.attention_weights(*bad)
    x, w, b, size, gate, attn, ext_ids = _output_inputs(rng, 2, 9)
    for bad in ((x, w, b, 5), (Tensor(np.zeros((2, 4))), w, b, 9),
                (x, w, b, 9, Tensor(np.zeros(3)), attn, ext_ids),
                (x, w, b, 9, gate, attn, ext_ids[:3])):
        with pytest.raises(nm.ShapeError):
            nm.output_dist(*bad)
