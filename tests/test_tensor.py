import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpadam import tensor as T
from warpadam.nn import MLP
from warpadam.tensor import (
    NumericError,
    ShapeError,
    Tensor,
    finite_diff_grad,
    grad,
    toposort,
)

from conftest import rel_err


# ---------------------------------------------------------------------------
# matmul examples

def test_matmul_identity():
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(Tensor(np.eye(2)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_product():
    # hand multiplication: [[1,2],[3,4]] @ [[5,6],[7,8]]
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))


def test_matmul_zero():
    a = np.random.default_rng(0).normal(size=(3, 4))
    out = T.matmul(Tensor(a), Tensor(np.zeros((4, 2))))
    assert np.array_equal(out.data, np.zeros((3, 2)))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# backward basics

def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    y = T.mul(x, x)
    (g,) = grad(y, [x])
    assert g.data == pytest.approx(6.0)


def test_backward_constant_is_zero():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(7.0)  # never touches x
    (g,) = grad(y, [x])
    assert np.array_equal(g.data, np.zeros(()))


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, 2.0)
    with pytest.raises(ValueError):
        grad(y, [x])


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    loss = T.tsum(T.tanh(T.matmul(x, w)))
    g1 = grad(loss, [x, w])
    g2 = grad(loss, [x, w])
    assert np.array_equal(g1[0].data, g2[0].data)
    assert np.array_equal(g1[1].data, g2[1].data)


def test_forward_replay_bitwise():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(5, 5))
    b = rng.normal(size=(5, 5))

    def run():
        return T.tsum(T.tanh(T.matmul(Tensor(a), Tensor(b)))).data

    assert np.array_equal(run(), run())


def test_toposort_unique_and_ordered():
    x = Tensor(2.0, requires_grad=True)
    y = T.mul(x, x)          # diamond: x feeds mul twice
    z = T.add(y, x)
    order = toposort(z)
    assert len(order) == len({id(n) for n in order})
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_diamond_gradient():
    x = Tensor(2.0, requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
    (g,) = grad(y, [x])
    assert g.data == pytest.approx(5.0)


def test_grad_without_create_graph_records_no_graph():
    rng = np.random.default_rng(9)
    model = MLP([4, 6, 3], rng)
    x, y = rng.normal(size=(5, 4)), rng.integers(0, 3, size=5)
    params = model.param_tensors()
    loss = model.loss(params, x, y)
    plain = grad(loss, params)
    attached = grad(loss, params, create_graph=True)
    assert any(g.requires_grad for g in attached)  # the control: these are graph nodes
    for a, b in zip(plain, attached, strict=True):
        assert not a.requires_grad and a._parents == () and a._bwd is None
        assert a.data.tobytes() == b.data.tobytes()


# ---------------------------------------------------------------------------
# the backward walk

def test_grad_nested_inputs_give_total_derivatives():
    # y = x^2, z = x*y + y: dz/dy = x + 1 = 2.5, dz/dx = y + (x + 1) * 2x = 9.75
    x = Tensor(1.5, requires_grad=True)
    y = T.mul(x, x)
    z = T.add(T.mul(x, y), y)
    gy, gx = grad(z, [y, x])
    gx2, gy2 = grad(z, [x, y])
    assert gx.data == pytest.approx(9.75, rel=1e-15)
    assert gy.data == pytest.approx(2.5, rel=1e-15)
    assert np.array_equal(gx.data, gx2.data) and np.array_equal(gy.data, gy2.data)
    assert np.array_equal(grad(z, [x])[0].data, gx.data)


def test_grad_input_created_after_output_is_zero():
    x = Tensor(2.0, requires_grad=True)
    out = T.mul(x, x)
    late = Tensor(1.0, requires_grad=True)
    gl, gx = grad(out, [late, x])
    assert gl.data == 0.0 and gx.data == pytest.approx(4.0)


def test_graphs_hold_no_reference_cycles():
    gc.disable()
    try:
        x = Tensor(np.array([0.4, -0.7]), requires_grad=True)
        outs = [T.tanh(x), T.sqrt(T.add(T.mul(x, x), 1.0)), T.softmax(x)]
        refs = [weakref.ref(o) for o in outs]
        (g,) = grad(T.tsum(T.add(T.add(outs[0], outs[1]), outs[2])), [x], create_graph=True)
        del outs, g
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


_OPS = {  # every op keeps values within [-1.5, 1.5] and partials small
    "tanh": (1, T.tanh),
    "neg": (1, T.neg),
    "soft_abs": (1, lambda a: T.sub(T.sqrt(T.add(T.mul(a, a), 1.0)), 1.0)),
    "softmax": (1, T.softmax),
    "avg": (2, lambda a, b: T.mul(T.add(a, b), 0.5)),
    "half_diff": (2, lambda a, b: T.mul(T.sub(a, b), 0.5)),
    "tanh_mul": (2, lambda a, b: T.tanh(T.mul(a, b))),
    "damped_div": (2, lambda a, b: T.div(a, T.add(T.mul(b, b), 1.0))),
}


@st.composite
def expression_dags(draw):
    """Leaves of shape (3,), ops on random earlier nodes, a random set of nodes as inputs."""
    n_leaves = draw(st.integers(1, 3))
    ops = []
    for k in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(sorted(_OPS)))
        args = tuple(draw(st.integers(0, n_leaves + k - 1)) for _ in range(_OPS[name][0]))
        ops.append((name, args))
    leaf = st.floats(-1.5, 1.5, allow_nan=False)
    values = [np.array(draw(st.lists(leaf, min_size=3, max_size=3))) for _ in range(n_leaves)]
    inputs = draw(st.lists(st.integers(0, n_leaves + len(ops) - 1),
                           min_size=1, max_size=4, unique=True))
    return values, ops, inputs


def _evaluate(dag, override=None):
    """All nodes and the scalar root; ``override`` pins one node to a given value."""
    values, ops, _ = dag
    override = override or {}
    nodes = [Tensor(override.get(i, v), requires_grad=True) for i, v in enumerate(values)]
    for name, args in ops:
        i = len(nodes)
        nodes.append(Tensor(override[i]) if i in override
                     else _OPS[name][1](*(nodes[a] for a in args)))
    root = T.tsum(T.mul(nodes[-1], Tensor(np.array([1.0, -0.5, 0.25]))))
    return nodes, root


@settings(max_examples=60, deadline=None)
@given(expression_dags())
def test_grad_random_dags_match_fd_and_zero_fill(dag):
    nodes, root = _evaluate(dag)
    inputs = [nodes[i] for i in dag[2]]
    gs = grad(root, inputs)
    reached = {id(node) for node in T.toposort(root)}
    for i, t, g in zip(dag[2], inputs, gs):
        if id(t) not in reached:
            assert g.data.tobytes() == np.zeros(3).tobytes()
        fd = finite_diff_grad(lambda v, i=i: _evaluate(dag, {i: v})[1].item(),
                              t.data, h=1e-6)
        assert rel_err(g.data, fd, floor=1.0) < 1e-7


def test_rank0_behaves_as_one_element():
    x = Tensor(1.5, requires_grad=True)
    y = T.tsum(T.mul(x, 3.0))
    assert y.shape == ()
    (g,) = grad(y, [x])
    assert g.data == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# finite differences: the oracle itself

def test_fd_quadratic():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([1.0]), h=1e-5)
    assert abs(g[0] - 2.0) < 1e-9


def test_fd_constant():
    g = finite_diff_grad(lambda x: 4.25, np.array([0.3, -0.7]), h=1e-5)
    assert np.array_equal(g, np.zeros(2))


def test_fd_linear_sum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=7)
    g = finite_diff_grad(lambda v: float(np.sum(v)), x, h=1e-5)
    assert np.max(np.abs(g - 1.0)) < 1e-10


def test_fd_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: 0.0, np.zeros(2), h=0.0)


def test_fd_flags_non_finite():
    with pytest.raises(NumericError):
        finite_diff_grad(lambda x: float("nan"), np.zeros(1), h=1e-5)


# ---------------------------------------------------------------------------
# every differentiable primitive against central differences

def _fd_check(build, x0, extra=None, trials=100, tol=1e-5, seed=0):
    """build(x_tensor, extra) -> scalar Tensor; checks grad wrt x over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, size=x0)
        e = rng.uniform(-1.0, 1.0, size=extra) if extra is not None else None
        xt = Tensor(x, requires_grad=True)
        loss = build(xt, e)
        (g,) = grad(loss, [xt])
        fd = finite_diff_grad(lambda v: build(Tensor(v), e).item(), x, h=1e-5)
        worst = max(worst, rel_err(g.data, fd))
        assert np.all(np.isfinite(loss.data))
    assert worst < tol, f"worst relative error {worst}"


def test_grad_add():
    _fd_check(lambda x, e: T.tsum(T.mul(T.add(x, e), T.add(x, e))), (3, 2), (3, 2))


def test_grad_sub():
    _fd_check(lambda x, e: T.tsum(T.mul(T.sub(x, e), T.sub(x, e))), (3, 2), (3, 2))


def test_grad_mul():
    _fd_check(lambda x, e: T.tsum(T.mul(x, e)), (4,), (4,))


def test_grad_div():
    # denominators bounded away from zero
    _fd_check(lambda x, e: T.tsum(T.div(x, T.add(T.mul(e, 0.25), 2.0))), (4,), (4,))


def test_div_backward_skips_a_constant_operand():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    c = Tensor(np.array([4.0, 0.5]))
    g = Tensor(np.array([1.0, 3.0]))
    ga, gc = T.div(x, c)._bwd(g)
    assert np.array_equal(ga.data, np.array([0.25, 6.0])) and gc is None
    gc, ga = T.div(c, x)._bwd(g)
    assert gc is None and np.array_equal(ga.data, np.array([-4.0, -0.375]))


def test_grad_neg():
    _fd_check(lambda x, e: T.tsum(T.mul(T.neg(x), T.neg(x))), (5,))


def test_grad_matmul():
    _fd_check(lambda x, e: T.tsum(T.matmul(x, e)), (3, 4), (4, 2))


def test_grad_transpose():
    _fd_check(lambda x, e: T.tsum(T.mul(T.transpose(x), T.transpose(x))), (3, 4))


def test_grad_matmul_stacked():
    _fd_check(lambda x, e: T.tsum(T.mul(T.matmul(x, Tensor(e[:, :, :2])), e[:, :3, 2:])),
              (2, 3, 4), (2, 4, 4), trials=20)


def test_grad_matmul_broadcasts_a_2d_operand():
    # the shared operand receives the sum over the stack, from either side
    _fd_check(lambda x, e: T.tsum(T.mul(T.matmul(x, Tensor(e[:, :4, :2])), e[:, :3, 2:4])),
              (3, 4), (2, 4, 4), trials=20)
    _fd_check(lambda x, e: T.tsum(T.mul(T.matmul(Tensor(e[:, :, :3]), x), e[:, :, 3:])),
              (3, 2), (2, 4, 5), trials=20)


def test_matmul_stacked_matches_per_slice_products():
    rng = np.random.default_rng(7)
    a, b, shared = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 2))
    out = T.matmul(Tensor(a), Tensor(b)).data
    assert all(np.array_equal(out[i], a[i] @ b[i]) for i in range(3))
    out = T.matmul(Tensor(a), Tensor(shared)).data
    assert all(np.array_equal(out[i], a[i] @ shared) for i in range(3))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(a), Tensor(rng.normal(size=(2, 5, 2))))


def test_grad_transpose_stacked():
    _fd_check(lambda x, e: T.tsum(T.mul(T.transpose(x), e)), (2, 3, 4), (2, 4, 3), trials=20)


def test_transpose_swaps_the_last_two_axes():
    x = np.arange(24.0).reshape(2, 3, 4)
    assert np.array_equal(T.transpose(Tensor(x)).data, np.swapaxes(x, 1, 2))
    with pytest.raises(ShapeError):
        T.transpose(Tensor(np.ones(3)))


def test_grad_reshape():
    _fd_check(lambda x, e: T.tsum(T.mul(T.reshape(x, (6,)), e)), (2, 3), (6,))


def test_grad_broadcast():
    _fd_check(lambda x, e: T.tsum(T.mul(T.broadcast_to(x, (4, 3)), e)), (3,), (4, 3))


def test_grad_scalar_broadcast():
    _fd_check(lambda x, e: T.tsum(T.mul(T.add(x, 0.5), 1.75)), (4, 2))


def test_grad_sum_axes():
    _fd_check(lambda x, e: T.tsum(T.mul(T.tsum(x, axis=0), e)), (4, 3), (3,))
    _fd_check(lambda x, e: T.tsum(T.mul(T.tsum(x, axis=1, keepdims=True), e)), (4, 3), (4, 1))


def test_grad_mean():
    _fd_check(lambda x, e: T.mul(T.tmean(T.mul(x, x)), 3.0), (4, 3))


def test_grad_tanh():
    _fd_check(lambda x, e: T.tsum(T.tanh(x)), (5,))


def test_grad_relu():
    _fd_check(lambda x, e: T.tsum(T.mul(T.relu(x), e)), (6,), (6,))


def test_grad_sqrt():
    _fd_check(lambda x, e: T.tsum(T.sqrt(T.add(T.mul(x, x), 0.5))), (5,))


def test_grad_softmax():
    _fd_check(lambda x, e: T.tsum(T.mul(T.softmax(x, axis=1), e)), (3, 4), (3, 4))


def test_grad_softmax_cross_entropy():
    labels = np.array([0, 2, 1])
    _fd_check(lambda x, e: T.softmax_cross_entropy(x, labels), (3, 4))


def test_grad_softmax_cross_entropy_stacked():
    labels = np.array([[0, 2, 1], [3, 3, 0]])
    _fd_check(lambda x, e: T.tsum(T.mul(T.softmax_cross_entropy(x, labels), e)),
              (2, 3, 4), (2,), trials=20)


def test_softmax_cross_entropy_stacked_is_one_mean_per_slice():
    rng = np.random.default_rng(8)
    logits, labels = rng.normal(size=(3, 5, 4)), rng.integers(0, 4, size=(3, 5))
    out = T.softmax_cross_entropy(Tensor(logits), labels)
    assert out.shape == (3,)
    for i in range(3):
        assert out.data[i] == T.softmax_cross_entropy(Tensor(logits[i]), labels[i]).item()
    with pytest.raises(ShapeError):
        T.softmax_cross_entropy(Tensor(logits), labels[:, :4])


def test_grad_mse():
    _fd_check(lambda x, e: T.mean_squared_error(x, Tensor(e)), (4, 2), (4, 2))


def test_softmax_ce_contract_errors():
    with pytest.raises(ShapeError):
        T.softmax_cross_entropy(Tensor(np.ones(4)), np.array([0]))
    with pytest.raises(ShapeError):
        T.softmax_cross_entropy(Tensor(np.ones((2, 3))), np.array([0]))
    with pytest.raises(ValueError):
        T.softmax_cross_entropy(Tensor(np.ones((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# gradients of gradients (needed to differentiate unrolled trajectories)

def test_double_backward_cubic():
    x = Tensor(1.7, requires_grad=True)
    y = T.mul(T.mul(x, x), x)
    (g1,) = grad(y, [x], create_graph=True)   # 3x^2
    assert g1.data == pytest.approx(3 * 1.7 ** 2)
    (g2,) = grad(g1, [x])                      # 6x
    assert g2.data == pytest.approx(6 * 1.7, rel=1e-12)


def test_double_backward_tanh_vs_fd():
    x0 = 0.37

    def first_deriv(v):
        xt = Tensor(v, requires_grad=True)
        (g,) = grad(T.tsum(T.tanh(xt)), [xt], create_graph=True)
        return g.item()

    xt = Tensor(np.array([x0]), requires_grad=True)
    (g1,) = grad(T.tsum(T.tanh(xt)), [xt], create_graph=True)
    (g2,) = grad(T.tsum(g1), [xt])
    fd = finite_diff_grad(lambda v: first_deriv(v), np.array([x0]), h=1e-5)
    assert rel_err(g2.data, fd) < 1e-6


def test_double_backward_through_sqrt_div():
    # d/dx of x/sqrt(x^2 + c): the exact shape of an adaptive update ratio
    c = 0.3
    x0 = np.array([0.8])

    def ratio_grad(v):
        xt = Tensor(v, requires_grad=True)
        out = T.tsum(T.div(xt, T.sqrt(T.add(T.mul(xt, xt), c))))
        return grad(out, [xt], create_graph=True)[0]

    g1 = ratio_grad(x0)
    fd = finite_diff_grad(lambda v: ratio_grad(v).item(), x0, h=1e-5)
    xt_probe = Tensor(x0, requires_grad=True)
    out = T.tsum(T.div(xt_probe, T.sqrt(T.add(T.mul(xt_probe, xt_probe), c))))
    (g1_attached,) = grad(out, [xt_probe], create_graph=True)
    (g2,) = grad(T.tsum(g1_attached), [xt_probe])
    assert rel_err(g2.data, fd) < 1e-6
    assert np.isfinite(g1.data).all()


# ---------------------------------------------------------------------------
# full model gradient

def test_mlp_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(42)
    model = MLP([5, 8, 3], rng)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)

    flat0 = np.concatenate([p.reshape(-1) for p in model.params])

    def loss_of_flat(flat):
        arrays, pos = [], 0
        for p in model.params:
            arrays.append(flat[pos:pos + p.size].reshape(p.shape))
            pos += p.size
        return model.loss([Tensor(a) for a in arrays], x, y).item()

    params = model.param_tensors()
    gs = grad(model.loss(params, x, y), params)
    analytic = np.concatenate([g.data.reshape(-1) for g in gs])
    fd = finite_diff_grad(loss_of_flat, flat0, h=1e-5)
    assert rel_err(analytic, fd) < 1e-6


def _mlp_case(hidden, stack, seed=43):
    """An MLP with non-zero biases, its parameter arrays and an episode,
    plain or stacked ``stack`` deep (one parameter copy per episode)."""
    rng = np.random.default_rng(seed)
    model = MLP([5, *hidden, 3], rng)
    lead = () if stack is None else (stack,)
    arrays = [rng.normal(size=lead + p.shape) for p in model.params]
    x = rng.normal(size=lead + (7, 5))
    y = rng.integers(0, 3, size=lead + (7,))
    return model, arrays, x, y


@pytest.mark.parametrize("stack", [None, 4])
@pytest.mark.parametrize("hidden", [[], [16], [16, 8]])
def test_mlp_loss_grads_is_bitwise_the_engine(hidden, stack):
    model, arrays, x, y = _mlp_case(hidden, stack)
    params = [Tensor(a, requires_grad=True) for a in arrays]
    losses = model.loss(params, x, y)
    engine = grad(T.tsum(losses), params)
    fast_losses, fast = model.loss_grads(arrays, x, y)
    assert np.array_equal(fast_losses, losses.data)
    assert len(fast) == len(engine)
    for got, want in zip(fast, engine):
        assert got.shape == want.shape
        assert np.array_equal(got, want.data)


def test_mlp_loss_grads_sums_a_stack_over_shared_parameters():
    # plain parameters on a stacked episode: the engine's matmul broadcast
    model, _, x, y = _mlp_case([16], 4)
    params = model.param_tensors()
    engine = grad(T.tsum(model.loss(params, x, y)), params)
    for got, want in zip(model.loss_grads(model.params, x, y)[1], engine):
        assert np.array_equal(got, want.data)
