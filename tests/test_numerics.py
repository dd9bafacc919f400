import numpy as np
import pytest

from nerrank.errors import CheckpointMismatchError, NerrankError, ShapeMismatchError
from nerrank.numerics import (
    AdamState,
    ParamStore,
    Tensor,
    backward,
    concat,
    dropout,
    l2_penalty,
    lookup_rows,
    lstm,
    matmul,
    max_pool_time,
    scale,
    sigmoid,
    sum_all,
)
from gradcheck import grad_check


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


def test_sigmoid_at_zero_and_extremes(recwarn):
    z = Tensor(np.zeros((1, 3)))
    assert np.allclose(sigmoid(z).data, 0.5)

    # extreme inputs give exactly the two-branch values, inside [0, 1]
    x = np.array(
        [[800.0, -800.0, -745.0, -746.0, 0.0, -0.0, 36.0, 37.0, 38.0, 39.0, 40.0],
         [-36.0, -40.0, 709.0, -709.0, 710.0, -710.0, 1e-300, -1e-300, 0.5, -0.5, 3.0]]
    )
    got = sigmoid(Tensor(x)).data
    assert got.tobytes() == two_branch_sigmoid(x).tobytes()
    assert got[0, :4].tolist() == [1.0, 0.0, 5e-324, 0.0]
    assert got[0, 4] == got[0, 5] == 0.5
    assert ((got >= 0.0) & (got <= 1.0)).all()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_max_pool_values_and_routing():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
    out = max_pool_time(x, [2])
    assert out.data.tolist() == [[3.0, 5.0]]
    # pick out channel 1 only; its gradient must land on x[0][1]
    loss = sum_all(out * Tensor(np.array([[0.0, 1.0]])))
    backward(loss)
    assert x.grad.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    # three runs of 1, 3 and 2 rows laid end to end
    x = Tensor(
        np.array([[-9.0, -9.0], [7.0, 1.0], [7.0, 4.0], [2.0, 4.0], [0.5, 8.0], [6.0, 8.0]]),
        requires_grad=True,
    )
    out = max_pool_time(x, [1, 3, 2])
    # the one-row run keeps its own row although the rows after its end are larger
    assert out.data.tolist() == [[-9.0, -9.0], [7.0, 4.0], [6.0, 8.0]]
    backward(sum_all(out * Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))))
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
            max_pool_time(a, lengths)


def test_lookup_rows_gather():
    table = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert lookup_rows(table, [2, 0]).data.tolist() == [[5.0, 6.0], [1.0, 2.0]]
    with pytest.raises(IndexError):
        lookup_rows(table, [3])


def test_lookup_rows_repeated_ids_accumulate():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    out = lookup_rows(table, [1, 1, 3])
    backward(sum_all(out))
    assert table.grad[1].tolist() == [2.0, 2.0]
    assert table.grad[3].tolist() == [1.0, 1.0]
    assert table.grad[0].tolist() == [0.0, 0.0]


def test_shape_errors_name_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        matmul(a, b)
    with pytest.raises(ShapeMismatchError):
        a + b


def test_broadcast_add_bias_row():
    # (T, C) + (1, C): bias gradient sums over rows
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    backward(sum_all(x + b))
    assert b.grad.tolist() == [[3.0, 3.0]]
    assert x.grad.tolist() == np.ones((3, 2)).tolist()


# ---------------------------------------------------------------------------
# per-primitive gradient checks

def test_gradcheck_arithmetic_and_matmul():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    mask = Tensor(rng.normal(size=(3, 2)))

    def loss():
        return sum_all((matmul(a, b) - c) * mask + c * c)

    check(loss, [("a", a), ("b", b), ("c", c)])


def test_gradcheck_activations():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(2, 5)), requires_grad=True)

    def loss():
        return sum_all(sigmoid(w) * w)

    check(loss, [("w", w)], tol=1e-4)


def test_gradcheck_assembly_ops():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    mask = Tensor(rng.normal(size=(6, 6)))

    def loss():
        wide = concat([a, b], 1)
        tall = concat([wide, wide], 0)
        shifted = lookup_rows(tall, [0, 0, 1, 2, 3, 4])
        return sum_all(shifted * mask)

    check(loss, [("a", a), ("b", b)])


def test_gradcheck_pool_and_lookup():
    rng = np.random.default_rng(4)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)

    def loss():
        # runs of 4, 1 and 2 rows; the repeated row 2 ties with itself
        rows = lookup_rows(table, [0, 2, 2, 5, 4, 1, 3])
        return sum_all(max_pool_time(rows, [4, 1, 2])) + sum_all(lookup_rows(table, [1]))

    check(loss, [("table", table)])


@pytest.mark.parametrize("peepholes", [True, False])
def test_gradcheck_fused_lstm(peepholes):
    # ragged runs, one of length 1, and nonzero peephole weights; every
    # input of the op is a leaf: the four input projections, W1/W3/W5/W7,
    # b1..b4 and mu1, mu2
    rng = np.random.default_rng(9)
    hidden, lengths = 3, [3, 1, 4]

    def leaf(*shape):
        return Tensor(rng.normal(scale=0.7, size=shape), requires_grad=True)

    inputs = [leaf(sum(lengths), hidden) for _ in range(4)]
    recurrent = [leaf(hidden, hidden) for _ in range(4)]
    biases = [leaf(1, hidden) for _ in range(4)]
    mu = (leaf(1, hidden), leaf(1, hidden)) if peepholes else None
    readout = Tensor(rng.normal(size=(len(lengths), hidden)))

    def loss():
        return sum_all(lstm(inputs, recurrent, biases, mu, lengths) * readout)

    named = [
        (f"{kind}{k}", t)
        for kind, group in (("x", inputs), ("w", recurrent), ("b", biases), ("mu", mu or ()))
        for k, t in enumerate(group)
    ]
    report = grad_check(loss, named, h=1e-4)
    assert report.ok(1e-6), str(report)
    with pytest.raises(ShapeMismatchError):
        lstm(inputs, recurrent, biases, mu, [3, 1, 3])


def test_l2_penalty_value_and_gradient():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    out = l2_penalty([a, b], 0.3)
    assert out.item() == (0.0 + (a.data * a.data).sum() + (b.data * b.data).sum()) * 0.15
    backward(out)
    assert np.array_equal(a.grad, a.data * 0.3) and np.array_equal(b.grad, b.data * 0.3)
    check(lambda: l2_penalty([a, b], 0.3) * l2_penalty([a], 2.0), [("a", a), ("b", b)])


def test_gradcheck_scale_and_neg():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def loss():
        return sum_all(scale(w * w, 0.5) - scale(w, -1.0))

    check(loss, [("w", w)])


# ---------------------------------------------------------------------------
# backward semantics

def test_backward_sum_gives_ones():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    backward(sum_all(p))
    assert p.grad.tolist() == np.ones((2, 3)).tolist()


def test_backward_sigmoid_closed_form():
    w = Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
    x = np.array([[2.0], [0.5]])
    loss = sigmoid(matmul(w, Tensor(x)))
    backward(loss)
    z = float((w.data @ x)[0, 0])
    s = 1.0 / (1.0 + np.exp(-z))
    expected = s * (1.0 - s) * x.T
    assert np.allclose(w.grad, expected, atol=1e-12)


def test_backward_off_path_param_untouched():
    used = Tensor(np.ones((1, 1)), requires_grad=True)
    unused = Tensor(np.ones((1, 1)), requires_grad=True)
    backward(used * used)
    assert unused.grad is None
    assert used.grad is not None


def test_backward_rejects_non_scalar():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        backward(p + p)


def test_backward_shared_node_counted_once_per_use():
    # y = x + x uses the same node twice; dy/dx = 2
    x = Tensor(np.array([[1.5]]), requires_grad=True)
    backward(x + x)
    assert x.grad.tolist() == [[2.0]]


# ---------------------------------------------------------------------------
# dropout

def test_dropout_rate_zero_identity_both_modes():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
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
    x = Tensor(np.ones((50, 50)), requires_grad=True)
    out = dropout(x, 0.4, np.random.default_rng(3), training=True)
    backward(sum_all(out))
    assert np.array_equal(x.grad, out.data)  # mask * 1 either way


def test_dropout_rejects_bad_rate():
    x = Tensor(np.ones((1, 1)))
    with pytest.raises(ValueError):
        dropout(x, 1.5, np.random.default_rng(0), training=True)
    with pytest.raises(ValueError):
        dropout(x, -0.1, np.random.default_rng(0), training=True)


def test_dropout_rate_one_drops_everything():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    out = dropout(x, 1.0, np.random.default_rng(0), training=True)
    assert np.array_equal(out.data, np.zeros((3, 4)))
    backward(sum_all(out))
    assert np.array_equal(x.grad, np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# Adam

def test_adam_first_step_magnitude():
    rng = np.random.default_rng(9)
    p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    before = p.data.copy()
    opt = AdamState([p], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8)
    p.grad = rng.uniform(0.001, 5.0, size=(4, 3)) * np.sign(rng.normal(size=(4, 3)))
    opt.step()
    delta = np.abs(p.data - before)
    assert np.all(delta >= 0.000999) and np.all(delta <= 0.001)


def test_adam_zero_gradient_no_motion():
    p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    opt = AdamState([p], lr=0.001, beta1=0.1, beta2=0.999, eps=1e-8)
    for _ in range(50):
        p.grad = np.zeros_like(p.data)
        opt.step()
    assert p.data.tolist() == [[1.0, -2.0]]


def test_adam_quadratic_convergence():
    theta = Tensor(np.array([[0.0]]), requires_grad=True)
    opt = AdamState([theta], lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    for _ in range(2000):
        theta.grad = None
        d = theta - Tensor(np.array([[3.0]]))
        backward(d * d)
        opt.step()
    assert abs(theta.item() - 3.0) < 1e-3


def test_adam_skips_params_without_grads():
    p = Tensor(np.array([[1.0]]), requires_grad=True)
    q = Tensor(np.array([[2.0]]), requires_grad=True)
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
    params = [Tensor(a.copy(), requires_grad=True) for a in start]
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


# ---------------------------------------------------------------------------
# grad_check itself

def test_gradcheck_linear_model_exact():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 1)))
    report = grad_check(lambda: matmul(w, x), [("w", w)])
    assert report.max_rel_err < 1e-9


def test_gradcheck_catches_wrong_gradient():
    t = Tensor(np.array([[0.7, -1.2]]), requires_grad=True)

    def bad_square():
        out = Tensor(t.data**2)
        out.requires_grad = True
        out._parents = (t,)
        out._backward = lambda g: t._accum(g * 3.0 * t.data)  # should be 2x
        return sum_all(out)

    report = grad_check(bad_square, [("t", t)])
    assert not report.ok(1e-4)


def test_gradcheck_detects_nondeterminism():
    t = Tensor(np.array([[1.0]]), requires_grad=True)
    calls = []

    def jittery():
        calls.append(1)
        return scale(t, 1.0 + 0.001 * len(calls))

    with pytest.raises(NerrankError, match="deterministic"):
        grad_check(jittery, [("t", t)])


def test_gradcheck_sampling_limits_work():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(20, 20)), requires_grad=True)
    report = grad_check(lambda: sum_all(w * w), [("w", w)], max_coords_per_param=10)
    assert report.checked == 10
    assert report.ok(1e-6)


# ---------------------------------------------------------------------------
# parameter store

def make_store(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    store.add("emb", rng.normal(size=(5, 3)))
    store.add("w", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=(1, 2)))
    return store


def test_param_store_basics():
    store = make_store()
    assert [name for name, _ in store.items()] == ["emb", "w", "b"]
    assert [t.data.size for _, t in store.items()] == [15, 6, 2]
    with pytest.raises(ValueError):
        store.add("w", np.zeros((1, 1)))
    assert all(t.requires_grad for _, t in store.items())


def test_checkpoint_rejects_structure_mismatch():
    arrays = make_store().copy_arrays()

    other = ParamStore()
    other.add("emb", np.zeros((5, 3)))
    with pytest.raises(CheckpointMismatchError):
        other.load_arrays(arrays)

    wrong_shape = ParamStore()
    wrong_shape.add("emb", np.zeros((5, 3)))
    wrong_shape.add("w", np.zeros((4, 2)))
    wrong_shape.add("b", np.zeros((1, 2)))
    with pytest.raises(CheckpointMismatchError, match="shape"):
        wrong_shape.load_arrays(arrays)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_weights(bad):
    arrays = make_store().copy_arrays()
    name = next(iter(arrays))
    arrays[name].flat[-1] = bad
    with pytest.raises(CheckpointMismatchError, match=f"parameter {name!r} holds a non-finite"):
        make_store().load_arrays(arrays)


# ---------------------------------------------------------------------------
# determinism

def run_once(seed):
    rng = np.random.default_rng([seed, 0])
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 4)))
    drop_rng = np.random.default_rng([seed, 1])
    h = dropout(sigmoid(matmul(x, w)), 0.3, drop_rng, training=True)
    loss = sum_all(h * h)
    backward(loss)
    return loss.data.tobytes(), w.grad.tobytes()


def test_same_seed_bit_identical():
    assert run_once(42) == run_once(42)
    assert run_once(42) != run_once(43)
