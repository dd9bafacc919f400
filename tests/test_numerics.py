import numpy as np
import pytest

from nerrank.errors import NerrankError, ShapeMismatchError
from nerrank.numerics import (
    AdamState,
    RowGrad,
    Tensor,
    add,
    backward,
    concat,
    conv_pool,
    dropout,
    head,
    l2_penalty,
    lookup_rows,
    lstm,
    mse,
    no_tape,
)
from nerrank.numerics import optim
from nerrank.numerics.optim import BLOCK
from gradcheck import grad_check, weighted_sum


def check(loss_fn, named_params, tol=1e-6):
    report = grad_check(loss_fn, named_params)
    assert report.ok(tol), str(report)


# ---------------------------------------------------------------------------
# forward values

def two_branch_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    """The head's sigmoid of each entry of x: a unit weight, zero bias."""
    out = head(Tensor(x.reshape(-1, 1)), Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 1))))
    return out.data.reshape(x.shape)


def test_sigmoid_at_zero_and_extremes(recwarn):
    assert np.allclose(sigmoid(np.zeros((1, 3))), 0.5)

    # extreme inputs give exactly the two-branch values, inside [0, 1]
    x = np.array(
        [[800.0, -800.0, -745.0, -746.0, 0.0, -0.0, 36.0, 37.0, 38.0, 39.0, 40.0],
         [-36.0, -40.0, 709.0, -709.0, 710.0, -710.0, 1e-300, -1e-300, 0.5, -0.5, 3.0]]
    )
    got = sigmoid(x)
    assert got.tobytes() == two_branch_sigmoid(x).tobytes()
    assert got[0, :4].tolist() == [1.0, 0.0, 5e-324, 0.0]
    assert got[0, 4] == got[0, 5] == 0.5
    assert ((got >= 0.0) & (got <= 1.0)).all()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def max_pool(x, lengths):
    """conv_pool as a plain per-run max-pool of x's rows: a one-position
    window, identity filters and a zero bias."""
    width = x.shape[1] if x.data.ndim == 2 else 1
    return conv_pool(
        x, np.arange(x.shape[0]), lengths, Tensor(np.eye(width)), Tensor(np.zeros((1, width)))
    )


def test_max_pool_values_and_routing():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
    out = max_pool(x, [2])
    assert out.data.tolist() == [[3.0, 5.0]]
    # pick out channel 1 only; its gradient must land on x[0][1]
    loss = weighted_sum(out, [[0.0, 1.0]])
    backward(loss)
    assert x.grad.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    # three runs of 1, 3 and 2 rows laid end to end
    x = Tensor(
        np.array([[-9.0, -9.0], [7.0, 1.0], [7.0, 4.0], [2.0, 4.0], [0.5, 8.0], [6.0, 8.0]])
    )
    out = max_pool(x, [1, 3, 2])
    # the one-row run keeps its own row although the rows after its end are larger
    assert out.data.tolist() == [[-9.0, -9.0], [7.0, 4.0], [6.0, 8.0]]
    backward(weighted_sum(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    # each run's gradient lands on its own argmax row, the first one on ties
    assert x.grad.tolist() == [
        [1.0, 2.0], [3.0, 0.0], [0.0, 4.0], [0.0, 0.0], [0.0, 6.0], [5.0, 0.0],
    ]

    empty = Tensor(np.zeros((0, 2)))
    cases = [
        (x, [1, 0, 5]), (empty, []), (empty, [0]),  # a run without rows
        (x, [1, 3]), (x, [4, 3]), (x, [[6]]), (Tensor(np.zeros(6)), [6]),  # rows != runs
    ]
    for a, lengths in cases:
        with pytest.raises(ShapeMismatchError):
            max_pool(a, lengths)


def test_conv_pool_ties_route_to_the_first_window():
    # rows x0, x1, x0, x1, x0 give positions 1 and 3 the same window
    # [x0, x1, x0], the largest response of both filters; the gradient goes
    # to the rows position 1 reads, 0 to 2, and rows 3 and 4 get none
    source = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]] * 2 + [[1.0, 2.0]]))
    w = Tensor(np.arange(12.0).reshape(6, 2))
    b = Tensor(np.array([[0.5, -0.5]]))
    out = conv_pool(source, np.arange(5), [5], w, b)
    window = np.array([[1.0, 2.0, 3.0, -1.0, 1.0, 2.0]])
    assert out.data.tolist() == (window @ w.data + b.data).tolist()
    backward(weighted_sum(out, [[1.0, 2.0]]))
    assert w.grad.tolist() == (window.T @ np.array([[1.0, 2.0]])).tolist()
    assert b.grad.tolist() == [[1.0, 2.0]]
    taps = (w.data @ np.array([1.0, 2.0])).reshape(3, 2)
    assert source.grad.tolist() == taps.tolist() + [[0.0, 0.0]] * 2


def test_conv_pool_rejects_malformed_shapes():
    source = Tensor(np.zeros((3, 2)))
    w, b = Tensor(np.zeros((6, 4))), Tensor(np.zeros((1, 4)))
    cases = [
        ([0, 1, 2], [3], Tensor(np.zeros((4, 4))), b),  # an even window
        ([0, 1, 2], [3], Tensor(np.zeros((5, 4))), b),  # rows not whole positions
        ([0, 1, 2], [3], w, Tensor(np.zeros((1, 3)))),  # one bias per filter
        ([0, 1, 2], [3], w, Tensor(np.zeros(4))),
        ([[0, 1, 2]], [3], w, b),  # ids not one list
        ([0, 1, 2], [2], w, b),
    ]
    for ids, lengths, w_, b_ in cases:
        with pytest.raises(ShapeMismatchError):
            conv_pool(source, ids, lengths, w_, b_)
    with pytest.raises(IndexError):
        conv_pool(source, [0, 3], [2], w, b)


def test_lookup_rows_gather():
    table = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert lookup_rows(table, [2, 0]).data.tolist() == [[5.0, 6.0], [1.0, 2.0]]
    with pytest.raises(IndexError):
        lookup_rows(table, [3])


def test_lookup_rows_repeated_ids_accumulate():
    table = Tensor(np.zeros((4, 2)))
    out = lookup_rows(table, [1, 1, 3])
    backward(weighted_sum(out, np.ones((3, 2))))
    assert table.grad[1].tolist() == [2.0, 2.0]
    assert table.grad[3].tolist() == [1.0, 1.0]
    assert table.grad[0].tolist() == [0.0, 0.0]


def test_shape_errors_name_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        head(a, b, Tensor(np.zeros((1, 5))))
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        add(a, b)
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        mse(a, np.zeros((4, 5)))
    # add does not broadcast, and the head's bias is one row
    with pytest.raises(ShapeMismatchError):
        add(a, Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeMismatchError):
        head(a, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))


# ---------------------------------------------------------------------------
# per-primitive gradient checks

def test_gradcheck_arithmetic_and_matmul():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    c = Tensor(rng.normal(size=(3, 2)))
    bias = Tensor(rng.normal(size=(1, 2)))
    mask = rng.normal(size=(3, 2))

    def loss():
        return mse(add(head(a, b, bias), c), mask)

    check(loss, [("a", a), ("b", b), ("c", c), ("bias", bias)])


def test_gradcheck_activations():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(2, 5)))
    # pre-activations up to about 9 either way: the sigmoid's middle and tails
    x = Tensor(np.linspace(-9.0, 9.0, 10).reshape(5, 2))
    targets = rng.random(size=(5, 5))

    def loss():
        return mse(head(x, w, Tensor(np.zeros((1, 5)))), targets)

    check(loss, [("w", w)], tol=1e-4)


@pytest.mark.parametrize("rows", [1, 4])
def test_gradcheck_head(rows):
    # the scorer's shape: one output, a (1, 1) bias summed over the rows
    rng = np.random.default_rng(11)
    h = Tensor(rng.normal(size=(rows, 3)))
    w = Tensor(rng.normal(size=(3, 1)))
    b = Tensor(rng.normal(size=(1, 1)))
    targets = rng.random(size=(rows, 1))
    check(lambda: mse(head(h, w, b), targets), [("h", h), ("w", w), ("b", b)])


def test_gradcheck_mse():
    rng = np.random.default_rng(12)
    scores = Tensor(rng.random(size=(5, 2)))
    targets = rng.random(size=(5, 2))
    out = mse(scores, targets)
    assert out.item() == ((scores.data - targets) ** 2).sum() * (1.0 / 5)
    backward(out)
    assert np.allclose(scores.grad, 2.0 * (scores.data - targets) / 5, rtol=0.0, atol=1e-15)
    check(lambda: mse(scores, targets), [("scores", scores)])
    # a non-unit upstream gradient scales the backward pass
    check(lambda: weighted_sum(mse(scores, targets), [[2.5]]), [("scores", scores)])


def test_gradcheck_assembly_ops():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=(3, 4)))
    mask = rng.normal(size=(6, 6))

    def loss():
        wide = concat([a, b], 1)
        tall = concat([wide, wide], 0)
        shifted = lookup_rows(tall, [0, 0, 1, 2, 3, 4])
        return mse(shifted, mask)

    check(loss, [("a", a), ("b", b)])


def test_gradcheck_pool_and_lookup():
    rng = np.random.default_rng(4)
    source = Tensor(rng.normal(size=(6, 3)))
    w = Tensor(rng.normal(size=(15, 4)))
    b = Tensor(rng.normal(size=(1, 4)))

    def loss():
        # runs of 4, 1 and 2 positions under a five-position window, with
        # repeated source rows; positions outside a run read zeros
        out = conv_pool(source, [0, 2, 2, 5, 4, 1, 2], [4, 1, 2], w, b)
        return add(mse(out, np.zeros((3, 4))), mse(lookup_rows(source, [1]), np.ones((1, 3))))

    check(loss, [("source", source), ("w", w), ("b", b)])


@pytest.mark.parametrize("peepholes", [True, False])
def test_gradcheck_fused_lstm(peepholes):
    # ragged runs, one of length 1, inputs narrower than the state and
    # nonzero peephole weights; every input of the op is a leaf: x,
    # W1..W8, b1..b4 and mu1, mu2
    rng = np.random.default_rng(9)
    width, hidden, lengths = 2, 3, [3, 1, 4]

    def leaf(*shape):
        return Tensor(rng.normal(scale=0.7, size=shape))

    x = leaf(sum(lengths), width)
    weights = [leaf(hidden if k % 2 == 0 else width, hidden) for k in range(8)]
    biases = [leaf(1, hidden) for _ in range(4)]
    mu = (leaf(1, hidden), leaf(1, hidden)) if peepholes else None
    readout = rng.normal(size=(len(lengths), hidden))

    def loss():
        return weighted_sum(lstm(x, weights, biases, mu, lengths), readout)

    named = [("x", x)] + [
        (f"{kind}{k + 1}", t)
        for kind, group in (("w", weights), ("b", biases), ("mu", mu or ()))
        for k, t in enumerate(group)
    ]
    report = grad_check(loss, named, h=1e-4)
    assert report.ok(1e-6), str(report)
    with pytest.raises(ShapeMismatchError):
        lstm(x, weights, biases, mu, [3, 1, 3])


def test_l2_penalty_value_and_gradient():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=(1, 4)))
    out = l2_penalty([a, b], 0.3)
    assert out.item() == (0.0 + (a.data * a.data).sum() + (b.data * b.data).sum()) * 0.15
    backward(out)
    assert np.array_equal(a.grad, a.data * 0.3) and np.array_equal(b.grad, b.data * 0.3)
    # under an mse against a far target each penalty's upstream gradient is
    # 2 * (sum - target), far from 1, so the backward's g[0, 0] is exercised
    check(
        lambda: mse(add(l2_penalty([a, b], 0.3), l2_penalty([a], 2.0)), [[-5.0]]),
        [("a", a), ("b", b)],
    )


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_sum_gives_ones():
    # a unit difference over two rows: 2 * (p - t) / 2 is one everywhere
    p = Tensor(np.zeros((2, 3)))
    backward(mse(p, -np.ones((2, 3))))
    assert p.grad.tolist() == np.ones((2, 3)).tolist()


def test_backward_sigmoid_closed_form():
    w = Tensor(np.array([[0.3, -0.7]]))
    x = np.array([[2.0], [0.5]])
    loss = head(w, Tensor(x), Tensor(np.zeros((1, 1))))
    backward(loss)
    z = float((w.data @ x)[0, 0])
    s = 1.0 / (1.0 + np.exp(-z))
    expected = s * (1.0 - s) * x.T
    assert np.allclose(w.grad, expected, atol=1e-12)


def test_backward_off_path_param_untouched():
    used = Tensor(np.ones((1, 1)))
    unused = Tensor(np.ones((1, 1)))
    backward(mse(used, np.zeros((1, 1))))
    assert unused.grad is None
    assert used.grad is not None


def test_backward_rejects_non_scalar():
    p = Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeMismatchError):
        backward(add(p, p))


def test_backward_rejects_a_result_with_no_recorded_graph():
    # seeding grad = 1 on such a root would let a training step run Adam
    # with every gradient None
    w = Tensor(np.array([[0.5]]))
    with no_tape():
        loss = mse(w, [[1.0]])
    for root in (loss, w):
        with pytest.raises(NerrankError, match="recorded on the tape"):
            backward(root)
    assert w.grad is None
    with pytest.raises(ShapeMismatchError), no_tape():
        mse(w, [[1.0, 2.0]])
    backward(mse(w, [[1.0]]))  # recording resumes, also after an error
    assert w.grad.tolist() == [[-1.0]]


def test_backward_shared_node_counted_once_per_use():
    # y = x + x uses the same node twice; dy/dx = 2
    x = Tensor(np.array([[1.5]]))
    backward(add(x, x))
    assert x.grad.tolist() == [[2.0]]


# ---------------------------------------------------------------------------
# dropout

def test_dropout_rate_zero_identity_both_modes():
    x = Tensor(np.ones((2, 2)))
    rng = np.random.default_rng(0)
    assert dropout(x, 0.0, rng, training=True) is x
    assert dropout(x, 0.0, rng, training=False) is x


def test_dropout_eval_mode_identity():
    x = Tensor(np.ones((2, 2)))
    assert dropout(x, 0.5, np.random.default_rng(0), training=False) is x


def test_dropout_preserves_expectation():
    x = Tensor(np.full((100, 100), 2.0))
    rng = np.random.default_rng(12)
    out = dropout(x, 0.2, rng, training=True)
    assert abs(out.data.mean() - 2.0) / 2.0 < 0.02


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones((50, 50)))
    out = dropout(x, 0.4, np.random.default_rng(3), training=True)
    backward(weighted_sum(out, np.ones((50, 50))))
    assert np.array_equal(x.grad, out.data)  # mask * 1 either way


def test_dropout_rejects_bad_rate():
    x = Tensor(np.ones((1, 1)))
    with pytest.raises(ValueError):
        dropout(x, 1.5, np.random.default_rng(0), training=True)
    with pytest.raises(ValueError):
        dropout(x, -0.1, np.random.default_rng(0), training=True)


def test_dropout_rate_one_drops_everything():
    x = Tensor(np.ones((3, 4)))
    out = dropout(x, 1.0, np.random.default_rng(0), training=True)
    assert np.array_equal(out.data, np.zeros((3, 4)))
    backward(weighted_sum(out, np.ones((3, 4))))
    assert np.array_equal(x.grad, np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_magnitude():
    rng = np.random.default_rng(9)
    p = Tensor(rng.normal(size=(4, 3)))
    before = p.data.copy()
    opt = AdamState([p], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8)
    p.grad = rng.uniform(0.001, 5.0, size=(4, 3)) * np.sign(rng.normal(size=(4, 3)))
    opt.step()
    delta = np.abs(p.data - before)
    assert np.all(delta >= 0.000999) and np.all(delta <= 0.001)


def test_adam_zero_gradient_no_motion():
    p = Tensor(np.array([[1.0, -2.0]]))
    opt = AdamState([p], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8)
    for _ in range(50):
        p.grad = np.zeros_like(p.data)
        opt.step()
    assert p.data.tolist() == [[1.0, -2.0]]


def test_adam_quadratic_convergence():
    theta = Tensor(np.array([[0.0]]))
    opt = AdamState([theta], lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    for _ in range(2000):
        theta.grad = None
        backward(mse(theta, [[3.0]]))
        opt.step()
    assert abs(theta.item() - 3.0) < 1e-3


def test_adam_skips_params_without_grads():
    p = Tensor(np.array([[1.0]]))
    q = Tensor(np.array([[2.0]]))
    opt = AdamState([p, q], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8)
    p.grad = np.array([[1.0]])
    opt.step()
    assert q.data.tolist() == [[2.0]]
    assert p.data.tolist() != [[1.0]]


def test_adam_step_equals_the_update_expression_bit_for_bit():
    # the update as one numpy expression per line, temporaries and all;
    # `step` forms it in scratch buffers and must give the same bits
    rng = np.random.default_rng(21)
    shapes = [(40, 9), (9, 9), (9,)]
    start = [rng.normal(size=shape) for shape in shapes]
    params = [Tensor(a.copy()) for a in start]
    lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = AdamState(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    data = [a.copy() for a in start]
    m = [np.zeros(shape) for shape in shapes]
    v = [np.zeros(shape) for shape in shapes]
    for t in range(1, 6):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3) for shape in shapes]
        grads[1] = None  # a parameter the loss did not reach
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for i, g in enumerate(grads):
            if g is None:
                continue
            m[i] *= beta1
            m[i] += (1.0 - beta1) * g
            v[i] *= beta2
            v[i] += (1.0 - beta2) * g * g
            data[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    for p, expected in zip(params, data):
        assert p.data.tobytes() == expected.tobytes()


def test_adam_step_across_blocks_equals_the_update_expression_bit_for_bit():
    # sizes one below, at and one above a block, one spanning three blocks,
    # and a 2-D one whose rows straddle a block boundary, with a Fortran-
    # ordered gradient; the blocked step must equal whole-array expressions
    rng = np.random.default_rng(22)
    shapes = [(BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2 * BLOCK + 3,), (3, BLOCK // 2 + 1)]
    start = [rng.normal(size=shape) for shape in shapes]
    params = [Tensor(a.copy()) for a in start]
    lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = AdamState(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    assert max(buffer.size for buffer in opt._scratch) == BLOCK
    data = [a.copy() for a in start]
    m = [np.zeros(shape) for shape in shapes]
    v = [np.zeros(shape) for shape in shapes]
    for t in range(1, 4):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3) for shape in shapes]
        grads[-1] = np.asfortranarray(grads[-1])
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for i, g in enumerate(grads):
            m[i] = m[i] * beta1 + (1.0 - beta1) * g
            v[i] = v[i] * beta2 + (1.0 - beta2) * g * g
            data[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    for p, expected in zip(params, data):
        assert p.data.tobytes() == expected.tobytes()
    params[0].grad = np.zeros(BLOCK)
    with pytest.raises(ValueError, match="differ"):
        opt.step()


@pytest.mark.parametrize("block", [BLOCK, 9, 7, 5])
def test_adam_step_on_a_row_gradient_equals_the_dense_gradient_bit_for_bit(monkeypatch, block):
    # a RowGrad stands for the dense g with g[rows] = values and zeros
    # elsewhere, then g /= divisor, then g += p * l2; blocks of 7 and 5
    # split the rows of 9, and the first step touches no row at all
    monkeypatch.setattr(optim, "BLOCK", block)
    rng = np.random.default_rng(23)
    shapes = [(50, 9), (30,)]
    start = [rng.normal(size=shape) for shape in shapes]
    dense = [Tensor(a.copy()) for a in start]
    rows_given = [Tensor(a.copy()) for a in start]
    options = dict(lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    dense_opt, rows_opt = AdamState(dense, **options), AdamState(rows_given, **options)
    for t in range(4):
        for p, q, shape in zip(dense, rows_given, shapes):
            rows = np.flatnonzero(rng.random(shape[0]) < 0.3 * t)
            values = rng.normal(size=(rows.size, *shape[1:]))
            divisor, l2 = float(rng.integers(1, 9)), 0.01
            g = np.zeros(shape)
            g[rows] = values
            g /= divisor
            g += p.data * l2
            p.grad = g
            q.grad = RowGrad(rows, values, divisor, l2)
        dense_opt.step()
        rows_opt.step()
    for p, q in zip(dense, rows_given):
        assert p.data.tobytes() == q.data.tobytes()
    rows_given[0].grad = RowGrad(np.arange(2), np.zeros((2, 8)), 1.0, 0.0)
    with pytest.raises(ValueError, match="differ"):
        rows_opt.step()


# ---------------------------------------------------------------------------
# grad_check itself

def test_gradcheck_linear_model_exact():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(1, 4)))
    x = rng.normal(size=(1, 4))
    report = grad_check(lambda: weighted_sum(w, x), [("w", w)])
    assert report.max_rel_err < 1e-9


def test_gradcheck_catches_wrong_gradient():
    t = Tensor(np.array([[0.7, -1.2]]))

    def bad_square():
        out = Tensor(t.data**2)
        out._parents = (t,)
        out._backward = lambda g: t._accum(g * 3.0 * t.data)  # should be 2x
        return weighted_sum(out, np.ones((1, 2)))

    report = grad_check(bad_square, [("t", t)])
    assert not report.ok(1e-4)


def test_gradcheck_detects_nondeterminism():
    t = Tensor(np.array([[1.0]]))
    calls = []

    def jittery():
        calls.append(1)
        return l2_penalty([t], 1.0 + 0.001 * len(calls))

    with pytest.raises(NerrankError, match="deterministic"):
        grad_check(jittery, [("t", t)])


def test_gradcheck_sampling_limits_work():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(20, 20)))
    report = grad_check(lambda: mse(w, np.zeros((20, 20))), [("w", w)], max_coords_per_param=10)
    assert report.checked == 10
    assert report.ok(1e-6)


# ---------------------------------------------------------------------------
# determinism

def run_once(seed):
    rng = np.random.default_rng([seed, 0])
    w = Tensor(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=(1, 4)))
    drop_rng = np.random.default_rng([seed, 1])
    h = dropout(head(x, w, Tensor(np.zeros((1, 4)))), 0.3, drop_rng, training=True)
    loss = mse(h, np.zeros((1, 4)))
    backward(loss)
    return loss.data.tobytes(), w.grad.tobytes()


def test_same_seed_bit_identical():
    assert run_once(42) == run_once(42)
    assert run_once(42) != run_once(43)
