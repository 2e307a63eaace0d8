import numpy as np
import pytest

from c2q import numerics as nm
from c2q.numerics import Rng, Tensor


def test_linear_identity():
    x = Tensor([1.0, 2.0, 3.0])
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    y = nm.linear(x, w, b)
    assert np.allclose(y.data, [1.0, 2.0, 3.0])


def test_linear_hand_example():
    x = Tensor([1.0, 2.0])
    w = Tensor([[1.0, 1.0], [0.0, 1.0]])
    b = Tensor([0.0, 1.0])
    y = nm.linear(x, w, b)
    assert np.allclose(y.data, [3.0, 3.0])


def test_linear_backward_outer_product():
    x = Tensor([1.0, 2.0])
    w = Tensor([[0.5, -0.5], [1.5, 2.0]])
    y = nm.matmul(w, x)
    loss = nm.dot(y, Tensor([3.0, -1.0]))  # upstream grad g = [3, -1]
    loss.backward()
    assert np.allclose(w.grad, np.outer([3.0, -1.0], [1.0, 2.0]))


def test_linear_shape_mismatch_names_shapes():
    with pytest.raises(nm.ShapeError, match=r"\(2, 2\).*\(3,\)"):
        nm.matmul(Tensor(np.eye(2)), Tensor([1.0, 2.0, 3.0]))


def test_backward_accumulates_instead_of_overwriting():
    w = Tensor([[1.0, 0.0], [0.0, 1.0]])
    for _ in range(2):
        y = nm.matmul(w, Tensor([1.0, 1.0]))
        nm.sum_all(y).backward()
    assert np.allclose(w.grad, 2 * np.outer([1.0, 1.0], [1.0, 1.0]))


def test_repeated_backward_on_one_graph_adds_one_gradient_per_pass():
    x = Tensor([0.3, -0.7])
    s = nm.sum_all(nm.tanh(nm.scale(x, 2.0)))
    s.backward()
    first = x.grad.copy()
    s.backward()
    np.testing.assert_allclose(x.grad, 2 * first, rtol=1e-6)


def test_backward_folds_factored_and_row_gradients():
    # W meets W@x and x@W three times, A enters as a non-leaf matrix operand,
    # E is read by leaf index (int and slice keys) and gather_rows with
    # repeated ids; every gradient is checked against a dense hand-computed
    # reference after two backward passes have accumulated.
    rng = Rng(17)
    with nm.use_dtype(np.float64):
        W, A, E = (Tensor(rng.uniform(-1, 1, shape)) for shape in ((3, 4), (3, 4), (5, 4)))
        x2, x3, y, z = (Tensor(rng.uniform(-1, 1, n)) for n in (4, 4, 3, 3))
        u1, u2, u3, u4, u5, v1 = (rng.uniform(-1, 1, n) for n in (3, 3, 4, 3, 4, 4))
        V2, V3 = rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (5, 4))
        ids = [0, 3, 0, 3, 3]

        def loss():
            x1 = nm.index(E, 2)
            M = nm.tanh(A)
            terms = [nm.dot(Tensor(u1), nm.matmul(W, x1)),
                     nm.dot(Tensor(u2), nm.matmul(W, x2)),
                     nm.dot(nm.matmul(y, W), Tensor(u3)),
                     nm.dot(Tensor(u4), nm.matmul(M, x3)),
                     nm.dot(nm.matmul(z, M), Tensor(u5)),
                     nm.dot(x1, Tensor(v1)),
                     nm.sum_all(nm.mul(nm.index(E, slice(1, 3)), Tensor(V2))),
                     nm.sum_all(nm.mul(nm.gather_rows(E, ids), Tensor(V3)))]
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
                   (y, w @ u3), (z, m @ u5)):
        np.testing.assert_allclose(t.grad, 2 * ref, rtol=1e-12, atol=0)


def test_softmax_uniform():
    p = nm.softmax(Tensor([1.0, 1.0, 1.0]))
    assert np.allclose(p.data, [1 / 3] * 3, atol=1e-6)


def test_softmax_hand_example():
    p = nm.softmax(Tensor([0.0, np.log(2.0)]))
    assert np.allclose(p.data, [1 / 3, 2 / 3], atol=1e-6)


def test_softmax_mask():
    p = nm.softmax(Tensor([5.0, 5.0]), mask=[True, False])
    assert np.allclose(p.data, [1.0, 0.0])


def test_softmax_all_masked_errors():
    with pytest.raises(ValueError):
        nm.softmax(Tensor([1.0, 2.0]), mask=[False, False])


def test_softmax_sum_and_nonneg_randomized():
    rng = Rng(3)
    for _ in range(50):
        v = Tensor(rng.uniform(-30, 30, 17))
        p = nm.softmax(v)
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
    z = Tensor(np.zeros(h))
    w = Tensor(np.zeros((4 * h, h)))
    u = Tensor(np.zeros((4 * h, h)))
    b = Tensor(np.zeros(4 * h))
    out = nm.lstm_seq(Tensor(np.zeros((3, h))), z, z, w, u, b)
    assert out.shape == (3, 2, h)
    assert np.allclose(out.data, 0.0)


def test_lstm_seq_cprev_zero_forget_irrelevant():
    h = 3
    rng = Rng(5)
    w1 = Tensor(rng.uniform(-0.5, 0.5, (4 * h, h)))
    u = Tensor(rng.uniform(-0.5, 0.5, (4 * h, h)))
    x = Tensor(rng.uniform(-1, 1, (1, h)))
    hp = Tensor(rng.uniform(-1, 1, h))
    cz = Tensor(np.zeros(h))
    # bias on the forget gate changes f but must not change c when c_prev=0
    b1 = Tensor(np.zeros(4 * h))
    b2 = np.zeros(4 * h)
    b2[h:2 * h] = 5.0
    c1 = nm.lstm_seq(x, hp, cz, w1, u, b1).data[0, 1]
    c2 = nm.lstm_seq(x, hp, cz, w1, u, Tensor(b2)).data[0, 1]
    assert np.allclose(c1, c2, atol=1e-6)


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
        hp = Tensor(rng.uniform(-1, 1, h))
        cp = Tensor(rng.uniform(-1, 1, h))
        probe = Tensor(rng.uniform(-1, 1, (steps, 2, h)))

        def f():
            out = (nm.index(nm.lstm_seq(nm.index(x, rev), hp, cp, w, u, b), rev)
                   if reverse else nm.lstm_seq(x, hp, cp, w, u, b))
            return nm.sum_all(nm.mul(out, probe))

        err = nm.finite_diff_check(f, [x, hp, cp, w, u, b], epsilon=1e-5)
    assert err < 1e-3


def test_finite_diff_polynomial():
    x = Tensor(3.0)

    def f():
        return nm.mul(x, x)

    err = nm.finite_diff_check(f, [x], epsilon=1e-3)
    assert err < 1e-4


def test_finite_diff_constant():
    x = Tensor(2.0)

    def f():
        return nm.mul(x, Tensor(0.0))

    assert nm.finite_diff_check(f, [x]) == 0.0


def test_finite_diff_nonfinite_errors():
    x = Tensor(0.0)

    def f():
        return nm.log(x)

    with pytest.raises(ValueError):
        nm.finite_diff_check(f, [x])


def test_composed_graph_gradcheck():
    rng = Rng(21)
    with nm.use_dtype(np.float64):
        w = Tensor(rng.uniform(-0.5, 0.5, (5, 4)))
        x = Tensor(rng.uniform(-1, 1, 4))
        v = Tensor(rng.uniform(-1, 1, 5))

        def f():
            p = nm.softmax(nm.tanh(nm.matmul(w, x)))
            return nm.dot(nm.log(nm.clamp_min(p, 1e-12)), v)

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
    v = Tensor([0.25, 0.5, 0.25])
    out = nm.scatter_add(v, [2, 0, 2], 4)
    assert np.allclose(out.data, [0.5, 0.0, 0.5, 0.0])
    nm.index(out, 2).backward()
    assert np.allclose(v.grad, [1.0, 0.0, 1.0])
    padded = nm.pad_zeros(Tensor([1.0, 2.0]), 4)
    assert np.allclose(padded.data, [1.0, 2.0, 0.0, 0.0])


def test_minimum_subgradient():
    a = Tensor([1.0, 5.0])
    b = Tensor([2.0, 3.0])
    nm.sum_all(nm.minimum(a, b)).backward()
    assert np.allclose(a.grad, [1.0, 0.0])
    assert np.allclose(b.grad, [0.0, 1.0])


def test_lstm_seq_batch_matches_separate_sequences_and_finite_differences():
    # k = 2 sequences stepped together: each output row equals its own
    # one-sequence run, and the batched backward passes the gradient check
    h, steps, k = 3, 3, 2
    rng = Rng(31)
    with nm.use_dtype(np.float64):
        w = Tensor(rng.uniform(-0.3, 0.3, (4 * h, 2)))
        u = Tensor(rng.uniform(-0.3, 0.3, (4 * h, h)))
        b = Tensor(rng.uniform(-0.3, 0.3, 4 * h))
        x = Tensor(rng.uniform(-1, 1, (steps, k, 2)))
        hp = Tensor(rng.uniform(-1, 1, (k, h)))
        cp = Tensor(rng.uniform(-1, 1, (k, h)))
        probe = Tensor(rng.uniform(-1, 1, (steps, k, 2, h)))
        out = nm.lstm_seq(x, hp, cp, w, u, b)
        assert out.shape == (steps, k, 2, h)
        for row in range(k):
            alone = nm.lstm_seq(Tensor(x.data[:, row]), Tensor(hp.data[row]),
                                Tensor(cp.data[row]), w, u, b)
            np.testing.assert_allclose(out.data[:, row], alone.data, rtol=1e-12, atol=1e-15)

        def f():
            return nm.sum_all(nm.mul(nm.lstm_seq(x, hp, cp, w, u, b), probe))

        err = nm.finite_diff_check(f, [x, hp, cp, w, u, b], epsilon=1e-5)
    assert err < 1e-3


def test_lstm_seq_rejects_mismatched_batch():
    h = 2
    w, u, b = Tensor(np.zeros((4 * h, 3))), Tensor(np.zeros((4 * h, h))), Tensor(np.zeros(4 * h))
    for x, s in (((2, 3, 3), (2, h)), ((2, 2, 3), (h,)), ((2, 3), (2, h))):
        with pytest.raises(nm.ShapeError):
            nm.lstm_seq(Tensor(np.zeros(x)), Tensor(np.zeros(s)), Tensor(np.zeros(s)), w, u, b)


def test_row_ops_match_per_row_ops_and_fold_weight_factors():
    # linear, masked softmax, scatter_add, pad_zeros and a broadcasting
    # concat on k rows give each row's one-vector result, and the rows'
    # gradients, W's folded from factors, match finite differences
    rng = Rng(41)
    with nm.use_dtype(np.float64):
        W = Tensor(rng.uniform(-1, 1, (4, 3)))
        bias = Tensor(rng.uniform(-1, 1, 4))
        X = Tensor(rng.uniform(-1, 1, (2, 3)))
        v = Tensor(rng.uniform(-1, 1, 2))
        probe = Tensor(rng.uniform(-1, 1, (2, 8)))
        mask = np.array([True, False, True, True])
        idx = [3, 0, 3, 1]

        def rows():
            y = nm.softmax(nm.linear(X, W, bias), mask)
            joined = nm.concat([nm.scatter_add(y, idx, 5), v], axis=-1)
            return nm.pad_zeros(joined, 8)

        out = rows()
        for r in range(2):
            y = nm.softmax(nm.linear(Tensor(X.data[r]), W, bias), mask)
            one = nm.pad_zeros(nm.concat([nm.scatter_add(y, idx, 5), v]), 8)
            np.testing.assert_allclose(out.data[r], one.data, rtol=1e-12, atol=0)
        # 0 receives only the masked position; no position scatters to 2
        assert (out.data[:, [0, 2]] == 0).all()

        def f():
            return nm.sum_all(nm.mul(rows(), probe))

        err = nm.finite_diff_check(f, [W, bias, X, v], epsilon=1e-6)
        # W's gradient from the row form reaches backward as a factor pair
        y = nm.linear(X, W)
        assert isinstance(y._backward(np.ones(y.shape))[1], nm._Factors)
    assert err < 1e-5


def test_softmax_rows_reject_fully_masked_row():
    with pytest.raises(ValueError):
        nm.softmax(Tensor(np.zeros((2, 2))), mask=[[True, False], [False, False]])
    with pytest.raises(nm.ShapeError):
        nm.softmax(Tensor(np.zeros((2, 3))), mask=[True, False])
