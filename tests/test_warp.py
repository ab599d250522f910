import gc
import math
import struct
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpadam.nn as nn
import warpadam.tensor as T
import warpadam.warp as warp_module
from warpadam.nn import MLP
from warpadam.optim import AdamState, HyperParams, adam_step, warpadam_step
from warpadam.tasks import Episode, sample_episode, synth_proto_tasks
from warpadam.tensor import NumericError, ShapeError, Tensor, finite_diff_grad, grad
from warpadam.warp import (
    FORMS,
    MetaConfig,
    ResourceError,
    WarpMatrix,
    _FlatWarp,
    _adapt,
    _flat,
    _start_arrays,
    _unrolled_warpadam,
    _warp_leaves,
    adapt,
    adaptation_query_loss,
    adjoint_hypergrad,
    hypergrad_P,
    init_warps,
    load_warps,
    meta_update_P,
    save_warps,
    STACK_ENTRY_BUDGET,
    stack_episodes,
    stack_within_budget,
    tod_penalty,
    tod_penalty_grad,
)

from conftest import rel_err
from test_optim import _signed_zeros


def make_episode(sx, sy, qx, qy, n_way=1, k_shot=1):
    sx, qx = np.atleast_2d(sx), np.atleast_2d(qx)
    return Episode(support_x=sx, support_y=np.asarray(sy), query_x=qx,
                   query_y=np.asarray(qy), n_way=n_way, k_shot=k_shot, task_id="t")


class ScalarQuadratic:
    """L(w) = mean((w - targets)^2) / 2 on a single scalar parameter."""

    def __init__(self, w0):
        self.params = [np.array([float(w0)])]

    def loss(self, params, x, y):
        w = T.broadcast_to(params[0], np.shape(y))
        d = T.sub(w, Tensor(np.asarray(y, dtype=np.float64)))
        return T.mul(T.tmean(T.mul(d, d), axis=-1), 0.5)

    def losses(self, arrays, x, y):
        # the losses in the engine's operation order, so they have its bits
        d = arrays[0] - np.asarray(y, dtype=np.float64)
        return np.sum(d * d, axis=-1) * (1.0 / d.shape[-1]) * 0.5

    def loss_grads(self, arrays, x, y):
        d = arrays[0] - np.asarray(y, dtype=np.float64)
        return self.losses(arrays, x, y), [np.mean(d, axis=-1, keepdims=True)]

    def loss_hvp(self, arrays, x, y, vecs):
        return [1.0 * vecs[0]]  # each episode's loss has curvature 1 in its w


def quad_episode(support_targets, query_targets):
    s = np.asarray(support_targets, dtype=np.float64)
    q = np.asarray(query_targets, dtype=np.float64)
    return Episode(support_x=np.zeros((s.size, 1)), support_y=s,
                   query_x=np.zeros((q.size, 1)), query_y=q,
                   n_way=1, k_shot=s.size, task_id="quad")


# ---------------------------------------------------------------------------
# warp application

def test_identity_apply_is_noop():
    g = np.random.default_rng(0).normal(size=(3, 4))
    out = WarpMatrix.identity(12).apply(g)
    assert np.array_equal(out, g)


def test_dense_swap():
    out = WarpMatrix.dense([[0.0, 1.0], [1.0, 0.0]]).apply(np.array([3.0, 5.0]))
    assert np.array_equal(out, np.array([5.0, 3.0]))


def test_diagonal_is_elementwise():
    out = WarpMatrix.diagonal([2.0, -1.0, 0.5]).apply(np.array([1.0, 4.0, 8.0]))
    assert np.array_equal(out, np.array([2.0, -4.0, 4.0]))


def test_apply_preserves_shape():
    g = np.arange(6.0).reshape(2, 3)
    out = WarpMatrix.kronecker(np.eye(2), np.eye(3)).apply(g)
    assert out.shape == (2, 3)
    assert np.allclose(out, g)


def test_apply_dimension_mismatch():
    with pytest.raises(ShapeError):
        WarpMatrix.identity(3).apply(np.ones(4))


def test_kron_equals_dense_kronecker_product():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2))
        g = rng.normal(size=6)
        kron = WarpMatrix.kronecker(a, b)
        dense = WarpMatrix.dense(np.kron(a, b))
        worst = max(worst, float(np.max(np.abs(kron.apply(g) - dense.apply(g)))))
    assert worst < 1e-12


def test_materialize_matches_apply():
    rng = np.random.default_rng(2)
    for w in (WarpMatrix.identity(4),
              WarpMatrix.diagonal(rng.normal(size=4)),
              WarpMatrix.dense(rng.normal(size=(4, 4))),
              WarpMatrix.kronecker(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))):
        g = rng.normal(size=4)
        assert np.allclose(w.materialize() @ g, w.apply(g), atol=1e-12)


def test_graph_apply_matches_array_apply():
    rng = np.random.default_rng(3)
    for w in (WarpMatrix.identity(6),
              WarpMatrix.diagonal(rng.normal(size=6)),
              WarpMatrix.dense(rng.normal(size=(6, 6))),
              WarpMatrix.kronecker(rng.normal(size=(3, 3)), rng.normal(size=(2, 2)))):
        g = rng.normal(size=(2, 3))
        out = w.apply(Tensor(g), _warp_leaves(w))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, w.apply(g), atol=1e-14)


# ---------------------------------------------------------------------------
# off-diagonal penalty

def test_tod_identity_and_diagonal_are_zero():
    assert tod_penalty(WarpMatrix.identity(5), 3.0) == 0.0
    assert tod_penalty(WarpMatrix.diagonal(np.arange(1.0, 6.0)), 3.0) == 0.0


def test_tod_dense_hand_value():
    assert tod_penalty(WarpMatrix.dense([[1.0, 2.0], [3.0, 1.0]]), 1.0) == pytest.approx(13.0)


def test_tod_zero_weight():
    dense = WarpMatrix.dense(np.random.default_rng(4).normal(size=(3, 3)))
    assert tod_penalty(dense, 0.0) == 0.0


def test_tod_zero_iff_offdiag_zero():
    assert tod_penalty(WarpMatrix.dense(np.diag([2.0, -3.0])), 1.0) == 0.0
    m = np.diag([2.0, -3.0])
    m[0, 1] = 1e-9
    assert tod_penalty(WarpMatrix.dense(m), 1.0) > 0.0


def test_tod_kron_is_factor_wise():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [3.0, 1.0]])
    expected = 1.0 * (2.0 ** 2 + 3.0 ** 2)
    assert tod_penalty(WarpMatrix.kronecker(a, b), 1.0) == pytest.approx(expected)
    # diagonal factors -> zero penalty, matching the materialized product
    assert tod_penalty(WarpMatrix.kronecker(np.diag([1.0, 2.0]), np.eye(2)), 1.0) == 0.0


def test_tod_grad_matches_fd():
    rng = np.random.default_rng(5)
    lam = 0.37
    for w in (WarpMatrix.dense(rng.normal(size=(3, 3))),
              WarpMatrix.kronecker(rng.normal(size=(2, 2)), rng.normal(size=(3, 3)))):
        analytic = tod_penalty_grad(w, lam)
        fd = finite_diff_grad(lambda p: tod_penalty(w.with_params(p), lam),
                              w.params(), h=1e-6)
        assert rel_err(analytic, fd) < 1e-7


def test_tod_rejects_negative_weight():
    with pytest.raises(ValueError):
        tod_penalty(WarpMatrix.identity(2), -0.1)


# ---------------------------------------------------------------------------
# hypergradients

def test_hypergrad_zero_support_gradient_gives_zero():
    model = ScalarQuadratic(w0=0.7)
    episode = quad_episode([0.7], [1.5])  # support gradient is exactly zero
    cfg = MetaConfig(inner_steps=2, inner_hyper=HyperParams(eta=0.1))
    (hg,), _ = hypergrad_P(episode, model, [WarpMatrix.dense([[1.0]])], cfg)
    assert np.allclose(hg, 0.0)


@pytest.mark.parametrize("first_order", [False, True])
def test_hypergrad_zero_support_gradient_with_zero_epsilon(first_order):
    # v_hat + epsilon is exactly 0: the graph step takes the array step's
    # 0/0 := 0 instead of a NaN
    model = ScalarQuadratic(w0=0.7)
    episode = quad_episode([0.7], [1.5])
    cfg = MetaConfig(inner_steps=2, inner_hyper=HyperParams(eta=0.1, epsilon=0.0),
                     first_order=first_order)
    p0 = np.array([1.0])
    (hg,), loss = hypergrad_P(episode, model, [WarpMatrix.dense([[p0[0]]])], cfg)
    fd = finite_diff_grad(
        lambda p: adaptation_query_loss(model, [WarpMatrix.dense([[p[0]]])], episode, cfg),
        p0, h=1e-4)
    assert np.all(np.isfinite(hg))
    assert np.allclose(hg, fd, rtol=0, atol=1e-12)
    assert loss == adaptation_query_loss(model, [WarpMatrix.dense([[1.0]])], episode, cfg)


def test_hypergrad_quadratic_flat_region_matches_fd():
    # with eps=0 the first step is a pure sign step, so dL/dp = 0 a.e.
    model = ScalarQuadratic(w0=0.2)
    episode = quad_episode([1.0], [1.0])
    cfg = MetaConfig(inner_steps=1,
                     inner_hyper=HyperParams(eta=0.1, epsilon=0.0))
    p0 = np.array([0.8])
    (hg,), _ = hypergrad_P(episode, model, [WarpMatrix.dense([[p0[0]]])], cfg)
    fd = finite_diff_grad(
        lambda p: adaptation_query_loss(model, [WarpMatrix.dense([[p[0]]])], episode, cfg),
        p0, h=1e-4)
    assert np.allclose(fd, 0.0, atol=1e-10)
    assert np.allclose(hg, 0.0, atol=1e-10)


def test_hypergrad_quadratic_smooth_region_matches_fd():
    # epsilon comparable to the gradient scale makes the step genuinely p-dependent
    model = ScalarQuadratic(w0=0.2)
    episode = quad_episode([1.0, 1.4], [1.2])
    cfg = MetaConfig(inner_steps=3,
                     inner_hyper=HyperParams(eta=0.2, epsilon=1.0))
    p0 = np.array([0.9])
    (hg,), _ = hypergrad_P(episode, model, [WarpMatrix.dense([[p0[0]]])], cfg)
    fd = finite_diff_grad(
        lambda p: adaptation_query_loss(model, [WarpMatrix.dense([[p[0]]])], episode, cfg),
        p0, h=1e-6)
    assert abs(hg[0]) > 1e-6          # genuinely non-flat
    assert rel_err(hg, fd) < 1e-6


def _mlp_setup(seed=42, n=6, dim=3, classes=4):
    rng = np.random.default_rng(seed)
    model = MLP([dim, classes], rng)   # 12 + 4 = 16 parameters
    episode = make_episode(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n),
                           rng.normal(size=(n + 2, dim)), rng.integers(0, classes, size=n + 2),
                           n_way=classes)
    warps = [WarpMatrix.dense(np.eye(p.size) + 0.05 * rng.normal(size=(p.size, p.size)))
             for p in model.params]
    return model, episode, warps


def test_hypergrad_mlp_dense_matches_fd():
    model, episode, warps = _mlp_setup()
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05))
    hgs, _ = hypergrad_P(episode, model, warps, cfg)

    for i, warp in enumerate(warps):
        def objective(flat, i=i, warp=warp):
            trial = list(warps)
            trial[i] = warp.with_params(flat)
            return adaptation_query_loss(model, trial, episode, cfg)

        fd = finite_diff_grad(objective, warp.params(), h=1e-4)
        assert rel_err(hgs[i], fd) < 1e-4


def test_hypergrad_diagonal_and_kron_match_fd():
    rng = np.random.default_rng(11)
    model = MLP([4, 3], rng)
    episode = make_episode(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5),
                           rng.normal(size=(5, 4)), rng.integers(0, 3, size=5), n_way=3)
    warps = [WarpMatrix.kronecker(np.eye(4) + 0.1 * rng.normal(size=(4, 4)),
                                  np.eye(3) + 0.1 * rng.normal(size=(3, 3))),
             WarpMatrix.diagonal(1.0 + 0.2 * rng.normal(size=3))]
    cfg = MetaConfig(inner_steps=2, inner_hyper=HyperParams(eta=0.05))
    hgs, _ = hypergrad_P(episode, model, warps, cfg)
    for i, warp in enumerate(warps):
        def objective(flat, i=i, warp=warp):
            trial = list(warps)
            trial[i] = warp.with_params(flat)
            return adaptation_query_loss(model, trial, episode, cfg)

        fd = finite_diff_grad(objective, warp.params(), h=1e-4)
        assert rel_err(hgs[i], fd) < 1e-4


def test_first_order_equals_full_unroll_at_k1():
    model, episode, warps = _mlp_setup(seed=3)
    full, _ = hypergrad_P(episode, model, warps,
                       MetaConfig(inner_steps=1, inner_hyper=HyperParams(eta=0.05)))
    fo, _ = hypergrad_P(episode, model, warps,
                     MetaConfig(inner_steps=1, inner_hyper=HyperParams(eta=0.05),
                                first_order=True))
    for a, b in zip(full, fo):
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_first_order_runs_and_is_finite_at_k3():
    model, episode, warps = _mlp_setup(seed=4)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05), first_order=True)
    for hg in hypergrad_P(episode, model, warps, cfg)[0]:
        assert np.all(np.isfinite(hg))


def test_unrolled_graph_matches_array_trajectory():
    model, episode, warps = _mlp_setup(seed=5)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05))
    leaves = [_warp_leaves(w) for w in warps]
    ws = _unrolled_warpadam(model, episode, warps, leaves, cfg.inner_steps, 1, cfg.inner_hyper)
    arrays = adapt(model, warps, episode, cfg)
    for wt, arr in zip(ws, arrays):
        assert rel_err(wt.data, arr) < 1e-12


class CountingModel:
    """Forwards to an MLP and counts its ``loss_grads`` calls (one per inner
    step) and its ``losses`` calls."""

    def __init__(self, model):
        self.model = model
        self.params, self.loss, self.loss_hvp = model.params, model.loss, model.loss_hvp
        self.calls = self.loss_calls = 0

    def loss_grads(self, arrays, x, y):
        self.calls += 1
        return self.model.loss_grads(arrays, x, y)

    def losses(self, arrays, x, y):
        self.loss_calls += 1
        return self.model.losses(arrays, x, y)


def test_hypergrad_graph_is_freed_without_the_cycle_collector(monkeypatch):
    rng = np.random.default_rng(9)
    model = MLP([3, 4, 2], rng)
    episode = make_episode(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4),
                           rng.normal(size=(5, 3)), rng.integers(0, 2, size=5), n_way=2)
    warps = init_warps([p.shape for p in model.params], "dense")
    refs = []

    def recording_tanh(a):
        out = T.tanh(a)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(nn, "tanh", recording_tanh)
    gc.disable()
    try:
        hypergrad_P(episode, model, warps, MetaConfig(inner_steps=3))
        assert refs and all(r() is None for r in refs)
    finally:
        gc.enable()


def test_meta_config_rejects_nan_tod_lambda():
    with pytest.raises(ValueError, match="tod_lambda"):
        MetaConfig(tod_lambda=float("nan"))


def test_hypergrad_validates_alignment():
    model, episode, warps = _mlp_setup(seed=7)
    with pytest.raises(ShapeError):
        hypergrad_P(episode, model, warps[:1], MetaConfig())
    bad = [WarpMatrix.identity(999), WarpMatrix.identity(999)]
    with pytest.raises(ShapeError):
        hypergrad_P(episode, model, bad, MetaConfig())


# ---------------------------------------------------------------------------
# stacked episodes: E tasks in one graph

def _stack_setup(form, seed=21, n_episodes=4):
    """A hidden-layer MLP, E episodes of one geometry, and warps of ``form``.

    Under ``kron`` the weight matrices get Kronecker warps and the biases dense ones.
    """
    rng = np.random.default_rng(seed)
    table = synth_proto_tasks(3, 4, 8, 5, 0.5, rng)
    episodes = [sample_episode(table, 3, 2, 3, rng) for _ in range(n_episodes)]
    model = MLP([5, 4, 3], rng)
    warps = []
    for p in model.params:
        d = p.size
        if form == "identity":
            warps.append(WarpMatrix.identity(d))
        elif form == "diagonal":
            warps.append(WarpMatrix.diagonal(1.0 + 0.1 * rng.normal(size=d)))
        elif form == "dense" or p.ndim == 1:
            warps.append(WarpMatrix.dense(np.eye(d) + 0.05 * rng.normal(size=(d, d))))
        else:
            r, c = p.shape
            warps.append(WarpMatrix.kronecker(np.eye(r) + 0.1 * rng.normal(size=(r, r)),
                                              np.eye(c) + 0.1 * rng.normal(size=(c, c))))
    return model, episodes, warps


def _form_setup(form, n_episodes=4):
    """``_stack_setup``, or for ``auto`` a larger MLP whose warps take the
    ``auto`` policy, perturbed off the identity."""
    if form != "auto":
        return _stack_setup(form, n_episodes=n_episodes)
    rng = np.random.default_rng(24)
    table = synth_proto_tasks(3, 4, 8, 20, 0.5, rng)
    episodes = [sample_episode(table, 3, 2, 3, rng) for _ in range(n_episodes)]
    model = MLP([20, 16, 3], rng)
    warps = [w.with_params(w.params() + 0.05 * rng.normal(size=w.n_params))
             for w in init_warps([p.shape for p in model.params], "auto")]
    assert {w.form for w in warps} == {"kron", "dense"}
    return model, episodes, warps


def _per_task_sum(episodes, model, warps, cfg):
    """The per-task hypergradients added in batch order, starting from zeros."""
    totals = [np.zeros(w.n_params) for w in warps]
    for episode in episodes:
        for acc, hg in zip(totals, hypergrad_P(episode, model, warps, cfg)[0]):
            acc += hg
    return totals


@pytest.mark.parametrize("form", FORMS)
def test_stacked_full_hypergrad_matches_per_task_sum(form):
    model, episodes, warps = _stack_setup(form)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    stacked, _ = hypergrad_P(stack_episodes(episodes), model, warps, cfg)
    for got, want, warp in zip(stacked, _per_task_sum(episodes, model, warps, cfg), warps):
        assert got.shape == (warp.n_params,)
        assert rel_err(got, want, floor=1e-300) < 1e-12


@pytest.mark.parametrize("form", FORMS)
def test_stacked_first_order_hypergrad_is_bitwise_the_per_task_sum(form):
    model, episodes, warps = _stack_setup(form)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                     first_order=True)
    stacked, _ = hypergrad_P(stack_episodes(episodes), model, warps, cfg)
    for got, want in zip(stacked, _per_task_sum(episodes, model, warps, cfg)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("form", [*FORMS, "auto"])
def test_stacked_adaptation_query_loss_is_bitwise_per_episode(form):
    # so the held-out set may be cut into stacks of any size
    model, episodes, warps = _form_setup(form, n_episodes=20)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    singles = [adaptation_query_loss(model, warps, ep, cfg) for ep in episodes]
    assert all(isinstance(x, float) for x in singles)
    for size in (1, 4, 20):
        stacks = [adaptation_query_loss(model, warps, stack_episodes(episodes[i:i + size]), cfg)
                  for i in range(0, len(episodes), size)]
        assert all(losses.shape == (size,) for losses in stacks)
        assert np.array_equal(np.concatenate(stacks), singles)


def _numbered_episodes(n):
    """``n`` one-row episodes of one geometry, with task ids "0", "1", ... in order."""
    return [Episode(support_x=np.full((1, 1), float(i)), support_y=np.zeros(1, dtype=int),
                    query_x=np.full((1, 1), float(i)), query_y=np.zeros(1, dtype=int),
                    n_way=1, k_shot=1, task_id=str(i)) for i in range(n)]


@pytest.mark.parametrize("n_params, min_stack, sizes", [
    (195, 4, [20]),                    # meta-full's model: one stack
    (2437, 4, [6, 6, 6, 2]),           # meta-fo-kron's model
    (27, 4, [20]),                     # the README config's model
    (STACK_ENTRY_BUDGET, 4, [4] * 5),  # one episode fits the budget; the batch size wins
    (STACK_ENTRY_BUDGET + 1, 3, [3] * 6 + [2]),  # over the budget: the batch size
])
def test_stack_within_budget_sizes_and_order(n_params, min_stack, sizes):
    stacks = stack_within_budget(_numbered_episodes(20), n_params, min_stack)
    assert [len(s.support_y) for s in stacks] == sizes
    assert "+".join(s.task_id for s in stacks) == "+".join(map(str, range(20)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(1, 3 * STACK_ENTRY_BUDGET), st.integers(1, 8))
def test_stack_within_budget_keeps_every_episode_in_order(n, n_params, min_stack):
    stacks = stack_within_budget(_numbered_episodes(n), n_params, min_stack)
    size = max(min_stack, STACK_ENTRY_BUDGET // n_params)
    lengths = [len(s.support_y) for s in stacks]
    assert all(length == size for length in lengths[:-1])
    assert all(1 <= length <= size for length in lengths)
    assert "+".join(s.task_id for s in stacks) == "+".join(map(str, range(n)))
    if 0 < n * n_params <= STACK_ENTRY_BUDGET:
        assert len(stacks) == 1


@pytest.mark.parametrize("form", FORMS)
def test_stacked_apply_is_bitwise_per_gradient(form):
    _, _, (warp, _, _, _) = _stack_setup(form)
    gs = np.random.default_rng(22).normal(size=(4, 5, 4))
    singles = [warp.apply(g) for g in gs]
    assert np.array_equal(warp.apply(gs), singles)
    graph = warp.apply(Tensor(gs), _warp_leaves(warp)).data
    assert np.array_equal(graph, singles)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("form", ["diagonal", "dense", "kron"])
def test_factor_grads_are_the_engine_backward_of_apply(form, stacked):
    _, _, (warp, _, _, _) = _stack_setup(form)
    u_bar, g = np.random.default_rng(23).normal(size=(2,) + (4,) * stacked + (5, 4))
    u_bar[..., 0, :] = 0.0  # zero adjoints: their products with g are signed zeros
    leaves = _warp_leaves(warp)
    want = grad(T.tsum(T.mul(warp.apply(Tensor(g), leaves), Tensor(u_bar))), list(leaves))
    for got, w in zip(warp.factor_grads(u_bar, g), want, strict=True):
        assert got.tobytes() == w.data.tobytes()


@pytest.mark.parametrize("form", FORMS)
def test_stacked_unrolled_graph_is_bitwise_adapt(form):
    model, episodes, warps = _stack_setup(form)
    episode = stack_episodes(episodes)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    want = adapt(model, warps, episode, cfg)
    for cut in range(1, cfg.inner_steps + 1):
        ws = _unrolled_warpadam(model, episode, warps, [_warp_leaves(w) for w in warps],
                                cfg.inner_steps, cut, cfg.inner_hyper)
        for wt, arr in zip(ws, want, strict=True):
            assert wt.data.tobytes() == arr.tobytes()


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("form", FORMS)
def test_hypergrad_losses_are_adaptation_query_loss(form, first_order):
    model, episodes, warps = _stack_setup(form)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                     first_order=first_order)
    stacked = stack_episodes(episodes)
    _, losses = hypergrad_P(stacked, model, warps, cfg)
    assert np.array_equal(losses, adaptation_query_loss(model, warps, stacked, cfg))
    _, loss = hypergrad_P(episodes[0], model, warps, cfg)
    assert isinstance(loss, float)
    assert loss == adaptation_query_loss(model, warps, episodes[0], cfg)
    assert np.array_equal(meta_update_P(warps, episodes, model, cfg, _outer_state(warps))[2],
                          losses)


class FastPathsRaise:
    """An MLP of which only ``params`` and ``loss`` work: the methods that the
    oracle checks raise."""

    def __init__(self, model):
        self.params, self.loss = model.params, model.loss

    def loss_grads(self, *args):
        raise AssertionError("the engine oracle called loss_grads")

    def loss_hvp(self, *args):
        raise AssertionError("the engine oracle called loss_hvp")

    def losses(self, *args):
        raise AssertionError("the engine oracle called losses")


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_hypergrad_calls_none_of_the_code_it_checks(stacked, first_order):
    model, warps, episode = _adapt_setup("kron", stacked)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                     first_order=first_order)
    got, losses = hypergrad_P(episode, FastPathsRaise(model), warps, cfg)
    want, want_losses = hypergrad_P(episode, model, warps, cfg)
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()
    assert np.asarray(losses).tobytes() == np.asarray(want_losses).tobytes()


def _engine_grads(model, arrays, x, y):
    """The gradients of the summed per-episode losses, from the engine on ``model.loss``."""
    params = [Tensor(a, requires_grad=True) for a in arrays]
    return [g.data for g in grad(T.tsum(model.loss(params, x, y)), params)]


def test_adaptation_takes_mlp_gradients_without_the_engine(monkeypatch):
    model, episodes, warps = _stack_setup("kron")
    episode = stack_episodes(episodes)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    calls = []
    for owner, attr in ((T, "grad"), (warp_module, "grad"), (T, "toposort"), (MLP, "loss")):
        _counting(monkeypatch, owner, attr, calls)
    fast = adapt(model, warps, episode, cfg)
    assert calls == []
    monkeypatch.undo()
    # the reference loop takes the engine's gradients: the same bits
    engine = _per_tensor_adapt(model, warps, episode, cfg.inner_steps, cfg.inner_hyper)[0]
    for got, want in zip(fast, engine):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# array adaptation: one WarpAdam step over all parameter tensors

def _per_tensor_adapt(model, warps, episode, steps, h):
    """The reference loop: one ``warpadam_step`` per tensor per inner step,
    on the engine's gradients."""
    arrays = _start_arrays(model, episode)
    states = [AdamState.zeros(a.shape) for a in arrays]
    for _ in range(steps):
        gs = _engine_grads(model, arrays, episode.support_x, episode.support_y)
        for i in range(len(arrays)):
            states[i], arrays[i] = warpadam_step(states[i], arrays[i], gs[i], warps[i], h)
    return arrays, states


def _adapt_setup(form, stacked):
    """A model, warps of ``form`` or ``auto`` and a plain episode or a stack of 4."""
    model, episodes, warps = _form_setup(form)
    return model, warps, stack_episodes(episodes) if stacked else episodes[0]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("form", [*FORMS, "auto"])
def test_flat_adapt_is_bitwise_per_tensor_steps(form, stacked):
    model, warps, episode = _adapt_setup(form, stacked)
    h = HyperParams(eta=0.05, epsilon=0.1)
    tape = []
    arrays = _adapt(model, warps, episode, 3, h, tape)
    want_arrays, want_states = _per_tensor_adapt(model, warps, episode, 3, h)
    assert len(arrays) == len(model.params)
    for got, want in zip(arrays, want_arrays, strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # the last step's taped moments are the per-tensor states', flattened
    assert len(tape) == 3 and all(st.t == 3 for st in want_states)
    assert np.array_equal(tape[-1][2], _flat(st.m for st in want_states))
    assert np.array_equal(tape[-1][3], _flat(st.v for st in want_states))


def test_adapt_takes_one_optimizer_step_per_inner_step(monkeypatch):
    model, warps, episode = _adapt_setup("kron", stacked=True)
    calls = []
    original = warp_module.warpadam_core
    monkeypatch.setattr(warp_module, "warpadam_core",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    for steps in (0, 1, 3):
        calls.clear()
        _adapt(model, warps, episode, steps, HyperParams(eta=0.05))
        assert len(calls) == steps
    assert len(model.params) == 4


def test_adapt_tape_holds_arrays_of_its_own_per_step():
    model, warps, episode = _adapt_setup("kron", stacked=True)
    h = HyperParams(eta=0.05, epsilon=0.1)
    tape = []
    arrays = _adapt(model, warps, episode, 3, h, tape)
    assert len(tape) == 3
    entries = [a for step in tape for a in step]
    for i, a in enumerate(entries):
        assert not any(np.shares_memory(a, b) for b in entries[i + 1:] + arrays)
    # step k starts from the parameters k steps left and leaves k+1 steps' moments
    for k, (w, g, m, v) in enumerate(tape):
        start = _adapt(model, warps, episode, k, h)
        after = _per_tensor_adapt(model, warps, episode, k + 1, h)[1]
        assert np.array_equal(w, _flat(start))
        assert np.array_equal(g, _flat(model.loss_grads(start, episode.support_x,
                                                        episode.support_y)[1]))
        assert np.array_equal(m, _flat(s.m for s in after))
        assert np.array_equal(v, _flat(s.v for s in after))


def test_adapt_tapes_only_the_steps_from_tape_from():
    model, warps, episode = _adapt_setup("kron", stacked=True)
    h = HyperParams(eta=0.05, epsilon=0.1)
    full, tail = [], []
    want = _adapt(model, warps, episode, 4, h, full)
    got = _adapt(model, warps, episode, 4, h, tail, tape_from=3)
    assert len(full) == 4 and len(tail) == 2
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    for step, want_step in zip(tail, full[2:]):
        assert all(np.array_equal(a, b) for a, b in zip(step, want_step, strict=True))


# ---------------------------------------------------------------------------
# identity-valued warps: a copy in place of the product, with its bits

_SHAPES = [(5, 4), (4,), (20, 16), (16,), (4, 3), (3,)]


def _identity_valued(policy, shapes=_SHAPES):
    """``init_warps`` of ``policy``; for ``kron``, dense warps on the vectors."""
    if policy != "kron":
        return init_warps(shapes, policy)
    return [init_warps([s], "kron" if len(s) == 2 else "dense")[0] for s in shapes]


def _warp_segments(warps, g, lead):
    """``WarpMatrix.apply`` of each warp on its tensor's segment of the flat ``g``."""
    shapes = [lead + s for s in _SHAPES]
    return _flat(w.apply(seg) for w, seg in zip(warps, warp_module._views(g, shapes)))


def _count_products(monkeypatch):
    """Count the calls of every form's ``apply`` from here on."""
    calls = []

    def counting(apply):
        return lambda *args: calls.append(1) or apply(*args)

    for name, form in FORMS.items():
        monkeypatch.setitem(FORMS, name, form._replace(apply=counting(form.apply)))
    return calls


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("policy", [*FORMS, "auto"])
def test_flat_warp_has_the_bytes_of_warp_apply(monkeypatch, policy, perturbed, lead):
    rng = np.random.default_rng(51)
    warps = _identity_valued(policy)
    if perturbed:
        warps = [w.with_params(w.params() + 0.1 * rng.normal(size=w.n_params)) for w in warps]
    g = _signed_zeros(rng, rng.normal(size=math.prod(lead) * sum(map(math.prod, _SHAPES))))
    want = _warp_segments(warps, g, lead)
    products = _count_products(monkeypatch)
    got = _FlatWarp(warps, [lead + s for s in _SHAPES], lead).apply(g)
    assert got.tobytes() == want.tobytes()  # signed zeros too
    # an identity-valued warp costs a copy; each other warp, one product
    assert len(products) == sum(w.form != "identity" for w in warps if perturbed)


@pytest.mark.parametrize("off", ["diagonal entry", "dense diagonal", "dense off-diagonal",
                                 "kron second factor"])
def test_a_warp_one_ulp_off_the_identity_takes_the_product(monkeypatch, off):
    up = np.nextafter(1.0, 2.0)
    shape = (4, 3)
    if off == "diagonal entry":
        warp = WarpMatrix.diagonal([1.0] * 11 + [up])
    elif off == "kron second factor":
        warp = WarpMatrix.kronecker(np.eye(4), np.diag([1.0, up, 1.0]))
    else:
        matrix = np.eye(12)
        matrix[(0, 0) if off == "dense diagonal" else (2, 7)] = (
            up if off == "dense diagonal" else np.nextafter(0.0, 1.0))
        warp = WarpMatrix.dense(matrix)
    rng = np.random.default_rng(52)
    g = _signed_zeros(rng, rng.normal(size=shape))
    want = warp.apply(g).reshape(-1)
    products = _count_products(monkeypatch)
    assert _FlatWarp([warp], [shape]).apply(g.reshape(-1)).tobytes() == want.tobytes()
    assert len(products) == 1


class SignedZeroGrads:
    """Forwards to an MLP, with every zero gradient entry made -0.0, in the
    engine's ``loss`` and in ``loss_grads`` alike.

    ``loss`` runs the MLP on ``-n + 0.0 * n`` with ``n = -p`` for each
    parameter ``p``: that is ``p`` for a nonzero or +0.0 value, and the
    backward rules send a gradient ``g`` back as ``-(-g + 0.0 * g)``, which
    is ``g`` for a nonzero ``g`` and -0.0 for either zero.
    """

    def __init__(self, model):
        self.model = model
        self.params, self.loss_hvp, self.losses = model.params, model.loss_hvp, model.losses

    def loss(self, params, x, y):
        return self.model.loss([T.add(T.neg(n), T.mul(n, 0.0)) for n in map(T.neg, params)], x, y)

    def loss_grads(self, arrays, x, y):
        losses, grads = self.model.loss_grads(arrays, x, y)
        return losses, [np.where(g == 0, -0.0, g) for g in grads]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("policy", [*FORMS, "auto"])
def test_first_order_adjoint_at_identity_warps_has_the_engines_bytes(policy, stacked):
    # the first input feature of every support set is 0, so the first row of
    # the first weight matrix gets a -0.0 gradient at every inner step; the
    # query sets keep it, so their gradients have no zero entries
    model, episodes, _ = _form_setup(policy if policy == "auto" else "dense")
    model = SignedZeroGrads(model)
    for ep in episodes:
        ep.support_x[..., 0] = 0.0
    episode = stack_episodes(episodes) if stacked else episodes[0]
    warps = _identity_valued(policy, [p.shape for p in model.params])
    start = _start_arrays(model, episode)
    g0 = model.loss_grads(start, episode.support_x, episode.support_y)[1]
    assert np.any(np.signbit(g0[0]) & (g0[0] == 0))
    engine = _engine_grads(model, start, episode.support_x, episode.support_y)
    assert [g.tobytes() for g in g0] == [g.tobytes() for g in engine]
    for steps in (1, 3):
        cfg = MetaConfig(inner_steps=steps, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                         first_order=True)
        got, losses = adjoint_hypergrad(episode, model, warps, cfg)
        want, want_losses = hypergrad_P(episode, model, warps, cfg)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        assert np.asarray(losses).tobytes() == np.asarray(want_losses).tobytes()


class FixedGrads:
    """A model whose gradients are always ``grads``, whatever its parameters."""

    def __init__(self, params, grads):
        self.params, self.grads = params, grads

    def loss_grads(self, arrays, x, y):
        return None, [np.broadcast_to(g, a.shape) for g, a in zip(self.grads, arrays)]


def test_adapt_checks_every_segment_of_the_flat_buffer():
    episode = quad_episode([0.0], [0.0])
    warps = [WarpMatrix.identity(3), WarpMatrix.diagonal(np.ones(2))]
    h = HyperParams(eta=0.1)
    for bad in (np.nan, np.inf):
        model = FixedGrads([np.zeros(3), np.zeros(2)], [np.ones(3), np.array([1.0, bad])])
        with pytest.raises(NumericError, match="non-finite gradient passed to optimizer step"):
            _adapt(model, warps, episode, 1, h)
    # an update of -1 at step 1 carries the last tensor's largest entry past the float range
    model = FixedGrads([np.zeros(3), np.array([0.0, 1e308])], [np.ones(3), -np.ones(2)])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="warpadam step overflowed"):
        _adapt(model, warps, episode, 1, HyperParams(eta=1e308))


def test_adapt_rejects_a_warp_that_does_not_fit_its_tensor():
    model, warps, episode = _adapt_setup("dense", stacked=False)
    cfg = MetaConfig(inner_steps=1)
    for bad in (WarpMatrix.identity(7), WarpMatrix.dense(np.eye(7))):
        with pytest.raises(ShapeError):
            adapt(model, warps[:-1] + [bad], episode, cfg)
    with pytest.raises(ShapeError):
        adapt(model, warps[:-1], episode, cfg)
    # the first weight is (5, 4): a warp of one row's size would act on its
    # five rows as on a stack of five gradients, and kron factors of the
    # transposed rows would warp it as a (4, 5) matrix
    for stacked in (False, True):
        episode = _adapt_setup("dense", stacked)[2]
        for bad, what in ((WarpMatrix.dense(np.eye(4)), r"warp 0 \(dense, dim 4\)"),
                          (WarpMatrix.kronecker(np.eye(4), np.eye(5)),
                           r"warp 0 \(kron, dim 20, factors of 4 and 5 rows\)")):
            with pytest.raises(ShapeError, match=what + r" does not fit parameter tensor 0 of "
                                                 r"shape \(5, 4\)"):
                adapt(model, [bad] + warps[1:], episode, cfg)
    bias = WarpMatrix.kronecker(np.eye(1), np.eye(4))  # of the size of the (4,) bias, not a matrix
    with pytest.raises(ShapeError, match=r"warp 1 .* shape \(4,\)"):
        adapt(model, warps[:1] + [bias] + warps[2:], episode, cfg)


def test_apply_rejects_a_size_that_is_not_a_stack():
    warp = WarpMatrix.dense(np.eye(4))
    for g in (np.ones((3, 5)), np.ones(6), np.ones((2, 3, 3))):
        with pytest.raises(ShapeError):
            warp.apply(g)
        with pytest.raises(ShapeError):
            warp.apply(Tensor(g), _warp_leaves(warp))


def test_stack_episodes_rejects_mixed_geometry():
    rng = np.random.default_rng(23)
    table = synth_proto_tasks(3, 4, 8, 5, 0.5, rng)
    one_shot = sample_episode(table, 3, 1, 3, rng)
    with pytest.raises(ShapeError):
        stack_episodes([one_shot, sample_episode(table, 3, 2, 3, rng)])
    with pytest.raises(ShapeError):
        stack_episodes([one_shot, sample_episode(table, 3, 1, 4, rng)])
    with pytest.raises(ShapeError):
        stack_episodes([one_shot, sample_episode(table, 2, 1, 3, rng)])
    with pytest.raises(ValueError):
        stack_episodes([])
    stacked = stack_episodes([one_shot, sample_episode(table, 3, 1, 3, rng)])
    assert stacked.support_x.shape == (2,) + one_shot.support_x.shape
    assert stacked.query_y.shape == (2,) + one_shot.query_y.shape


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("batch", [1, 4])
def test_meta_update_builds_one_graph_per_batch(batch, first_order):
    model, episodes, warps = _stack_setup("dense", n_episodes=batch)
    counting = CountingModel(model)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05), first_order=first_order)
    meta_update_P(warps, episodes, counting, cfg, _outer_state(warps))
    assert counting.calls == cfg.inner_steps + 1  # K support gradients and one query loss
    assert counting.loss_calls == 0


def test_held_out_stack_takes_its_losses_from_one_forward_pass():
    model, episodes, warps = _stack_setup("kron")
    counting = CountingModel(model)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05))
    losses = adaptation_query_loss(counting, warps, stack_episodes(episodes), cfg)
    assert (counting.calls, counting.loss_calls) == (cfg.inner_steps, 1)
    assert losses.shape == (len(episodes),)


# ---------------------------------------------------------------------------
# the array adjoint of the unroll, against the engine

@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("form", [*FORMS, "auto"])
def test_adjoint_hypergrad_matches_the_engine(form, stacked, first_order):
    model, warps, episode = _adapt_setup(form, stacked)
    for steps in (1, 2, 8):
        cfg = MetaConfig(inner_steps=steps, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                         first_order=first_order)
        got, losses = adjoint_hypergrad(episode, model, warps, cfg)
        want, want_losses = hypergrad_P(episode, model, warps, cfg)
        for a, b, warp in zip(got, want, warps):
            assert a.shape == b.shape == (warp.n_params,)
            if first_order:
                assert a.tobytes() == b.tobytes()  # signed zeros too
            else:
                assert rel_err(a, b, floor=1e-300) < 1e-12
        assert type(losses) is type(want_losses)
        assert np.array_equal(losses, want_losses)
        assert np.array_equal(losses, adaptation_query_loss(model, warps, episode, cfg))


@pytest.mark.parametrize("first_order", [False, True])
def test_adjoint_hypergrad_zero_radicand_matches_the_engine(first_order):
    # the first input feature is 0 everywhere, so the first row of the first
    # weight matrix never gets a gradient: with epsilon 0 its radicands stay 0
    # and the steps take the 0/0 := 0 rule there. (With epsilon 0 a diagonal
    # warp's scale cancels in m_hat / sqrt(v_hat), so both results are
    # rounding noise about 0; the point is that they stay finite.)
    rng = np.random.default_rng(31)
    model = MLP([4, 5, 3], rng)
    sx, qx = rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 7, 4))
    sx[..., 0] = qx[..., 0] = 0.0
    episode = Episode(support_x=sx, support_y=rng.integers(0, 3, size=(2, 6)),
                      query_x=qx, query_y=rng.integers(0, 3, size=(2, 7)),
                      n_way=3, k_shot=2, task_id="zero")
    warps = [WarpMatrix.diagonal(1.0 + 0.1 * rng.normal(size=p.size)) for p in model.params]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.0),
                     first_order=first_order)
    assert np.all(adapt(model, warps, episode, cfg)[0][:, 0] == model.params[0][0])
    got, losses = adjoint_hypergrad(episode, model, warps, cfg)
    want, want_losses = hypergrad_P(episode, model, warps, cfg)
    for a, b in zip(got, want):
        assert np.all(np.isfinite(a))
        assert np.allclose(a, b, rtol=0, atol=1e-12)
    assert np.all(got[0][:5] == 0.0)
    assert np.array_equal(losses, want_losses)


def test_adjoint_tape_over_the_budget_stops_before_the_first_step(monkeypatch):
    model, episodes, warps = _stack_setup("dense")
    episode = stack_episodes(episodes)
    h = HyperParams(eta=0.05, epsilon=0.1)
    tape = 4 * 3 * len(episodes) * sum(p.size for p in model.params)
    want = adjoint_hypergrad(episode, model, warps, MetaConfig(inner_steps=3, inner_hyper=h))
    got = adjoint_hypergrad(episode, model, warps,
                            MetaConfig(inner_steps=3, inner_hyper=h, node_budget=tape))
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    calls = []
    _counting(monkeypatch, MLP, "loss_grads", calls)
    over = MetaConfig(inner_steps=3, inner_hyper=h, node_budget=tape - 1)
    with pytest.raises(ResourceError, match=f"{tape} float64 entries, over the budget of {tape - 1}"):
        adjoint_hypergrad(episode, model, warps, over)
    assert calls == []
    # first order tapes one step and is not capped
    adjoint_hypergrad(episode, model, warps,
                      MetaConfig(inner_steps=3, inner_hyper=h, first_order=True, node_budget=1))


def _mlp_hvp_setup(sizes, stacked, seed=33):
    rng = np.random.default_rng(seed)
    model = MLP(sizes, rng)
    lead = (3,) if stacked else ()
    arrays = [p + 0.1 * rng.normal(size=lead + p.shape) for p in model.params]
    x = rng.normal(size=lead + (7, sizes[0]))
    y = rng.integers(0, sizes[-1], size=lead + (7,))
    vecs = [rng.normal(size=a.shape) for a in arrays]
    return model, arrays, x, y, vecs


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("sizes", [[4, 3], [4, 5, 3], [4, 5, 6, 3]])
def test_mlp_loss_hvp_is_the_engine_second_derivative(sizes, stacked):
    model, arrays, x, y, vecs = _mlp_hvp_setup(sizes, stacked)
    got = model.loss_hvp(arrays, x, y, vecs)
    for a, b, p in zip(got, _engine_hvp(model, arrays, x, y, vecs), arrays):
        assert a.shape == p.shape
        assert rel_err(a, b) < 1e-12


def _engine_hvp(model, arrays, x, y, vecs):
    """The Hessian of the summed losses times ``vecs``, from the engine on ``model.loss``."""
    params = [Tensor(a, requires_grad=True) for a in arrays]
    gs = grad(T.tsum(model.loss(params, x, y)), params, create_graph=True)
    inner = sum((T.tsum(T.mul(g, Tensor(v))) for g, v in zip(gs, vecs)), Tensor(0.0))
    return [g.data for g in grad(inner, params)]


def _test_model_setup(name, stacked):
    """A test model at perturbed parameters, a plain or 3-stacked batch and vectors."""
    rng = np.random.default_rng(34)
    lead = (3,) if stacked else ()
    if name == "quadratic":
        model, x = ScalarQuadratic(0.3), np.zeros(lead + (5, 1))
        y = rng.normal(size=lead + (5,))
    else:
        model, x = CountingModel(MLP([4, 5, 3], rng)), rng.normal(size=lead + (7, 4))
        y = rng.integers(0, 3, size=lead + (7,))
    arrays = [p + 0.1 * rng.normal(size=lead + p.shape) for p in model.params]
    return model, arrays, x, y, [rng.normal(size=a.shape) for a in arrays]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", ["quadratic", "counting"])
def test_test_models_loss_grads_and_loss_hvp_are_the_engines(name, stacked):
    model, arrays, x, y, vecs = _test_model_setup(name, stacked)
    losses, grads = model.loss_grads(arrays, x, y)
    want = model.loss([Tensor(a) for a in arrays], x, y).data
    assert losses.shape == want.shape and losses.tobytes() == want.tobytes()
    for got, engine, a in zip(grads, _engine_grads(model, arrays, x, y), arrays, strict=True):
        assert got.shape == a.shape and rel_err(got, engine) < 1e-12
    hvps = model.loss_hvp(arrays, x, y, vecs)
    for got, engine, a in zip(hvps, _engine_hvp(model, arrays, x, y, vecs), arrays, strict=True):
        assert got.shape == a.shape and rel_err(got, engine) < 1e-12


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", ["quadratic", "counting"])
def test_test_models_losses_are_their_loss_grads_losses(name, stacked):
    model, arrays, x, y, _ = _test_model_setup(name, stacked)
    want = model.loss_grads(arrays, x, y)[0]
    got = model.losses(arrays, x, y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _counting(monkeypatch, owner, attr, calls):
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: calls.append(attr) or original(*a, **k))


@pytest.mark.parametrize("first_order", [False, True])
def test_meta_update_on_an_mlp_takes_the_adjoint(monkeypatch, first_order):
    model, episodes, warps = _stack_setup("kron")
    calls = []
    for owner, attr in ((T, "grad"), (warp_module, "grad"), (T, "toposort"),
                        (MLP, "loss"), (MLP, "loss_hvp")):
        _counting(monkeypatch, owner, attr, calls)
    cfg = MetaConfig(inner_steps=4, inner_hyper=HyperParams(eta=0.05), first_order=first_order)
    meta_update_P(warps, episodes, model, cfg, _outer_state(warps))
    assert calls == ([] if first_order else ["loss_hvp"] * (cfg.inner_steps - 1))


# ---------------------------------------------------------------------------
# outer loop

def _outer_state(warps):
    """A fresh outer Adam state over every warp's entries, back to back."""
    return AdamState.zeros(sum(w.n_params for w in warps))


@pytest.mark.parametrize("first_order", [False, True])
def test_meta_update_is_bitwise_one_adam_step_per_warp(first_order):
    # one warp of each form, and the reference: one outer state and one pure
    # adam_step per warp, on the same hypergradients
    model, episodes, _ = _stack_setup("dense")
    rng = np.random.default_rng(32)
    warps = [WarpMatrix.kronecker(np.eye(5) + 0.1 * rng.normal(size=(5, 5)),
                                  np.eye(4) + 0.1 * rng.normal(size=(4, 4))),
             WarpMatrix.diagonal(1.0 + 0.1 * rng.normal(size=4)),
             WarpMatrix.dense(np.eye(12) + 0.05 * rng.normal(size=(12, 12))),
             WarpMatrix.identity(3)]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05), outer_eta=0.01,
                     tod_lambda=0.1, first_order=first_order)
    outer_hyper = HyperParams(eta=cfg.outer_eta)
    state, start = _outer_state(warps), warps
    want_warps, want_states = warps, [AdamState.zeros(w.n_params) for w in warps]
    for _ in range(3):
        warps, state, losses = meta_update_P(warps, episodes, model, cfg, state)
        totals, want_losses = adjoint_hypergrad(stack_episodes(episodes), model, want_warps, cfg)
        stepped = [adam_step(s, w.params(), total / len(episodes)
                             + tod_penalty_grad(w, cfg.tod_lambda), outer_hyper)
                   for w, s, total in zip(want_warps, want_states, totals)]
        want_states = [s for s, _ in stepped]
        want_warps = [w.with_params(entries) for w, (_, entries) in zip(want_warps, stepped)]
        assert losses.tobytes() == want_losses.tobytes()
        assert [w.form for w in warps] == [w.form for w in want_warps]
        for got, want in zip(warps, want_warps):
            assert got.params().tobytes() == want.params().tobytes()
        assert state.m.tobytes() == _flat(s.m for s in want_states).tobytes()
        assert state.v.tobytes() == _flat(s.v for s in want_states).tobytes()
        assert state.t == want_states[0].t
    assert all(not np.array_equal(w.params(), w0.params()) for w, w0 in zip(warps, start[:3]))


def test_meta_update_rejects_an_outer_state_of_another_size():
    model, episodes, warps = _stack_setup("kron")
    n = sum(w.n_params for w in warps)
    for size in (0, n - 1, n + 1):
        with pytest.raises(ShapeError, match="shapes disagree"):
            meta_update_P(warps, episodes, model, MetaConfig(inner_steps=2), AdamState.zeros(size))

def test_meta_update_zero_hypergrad_is_fixed_point():
    model = ScalarQuadratic(w0=0.7)
    episode = quad_episode([0.7], [1.5])   # zero support gradient
    warps = [WarpMatrix.dense([[1.0]])]
    cfg = MetaConfig(inner_steps=2, inner_hyper=HyperParams(eta=0.1), tod_lambda=0.0)
    new_warps, _, _ = meta_update_P(warps, [episode], model, cfg, _outer_state(warps))
    assert np.array_equal(new_warps[0].factors[0], warps[0].factors[0])


def test_meta_update_preserves_form_and_dim():
    rng = np.random.default_rng(8)
    model = MLP([4, 3], rng)
    episode = make_episode(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5),
                           rng.normal(size=(5, 4)), rng.integers(0, 3, size=5), n_way=3)
    warps = [WarpMatrix.kronecker(np.eye(4), np.eye(3)), WarpMatrix.diagonal(np.ones(3))]
    state = _outer_state(warps)
    cfg = MetaConfig(inner_steps=2, inner_hyper=HyperParams(eta=0.1))
    new_warps, new_state, _ = meta_update_P(warps, [episode], model, cfg, state)
    assert [w.form for w in new_warps] == ["kron", "diagonal"]
    assert [w.dim for w in new_warps] == [12, 3]
    assert new_state.t == 1 and new_state.m.shape == (16 + 9 + 3,)
    # inputs untouched
    assert np.array_equal(warps[1].factors[0], np.ones(3))
    assert state.t == 0 and not state.m.any()


def test_meta_update_identity_form_unchanged():
    rng = np.random.default_rng(9)
    model = MLP([3, 2], rng)
    episode = make_episode(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4),
                           rng.normal(size=(4, 3)), rng.integers(0, 2, size=4), n_way=2)
    warps = [WarpMatrix.identity(6), WarpMatrix.identity(2)]
    new_warps, _, _ = meta_update_P(warps, [episode], model, MetaConfig(inner_steps=1),
                                    AdamState.zeros(0))
    assert all(w.form == "identity" for w in new_warps)


def test_meta_update_whole_pipeline_brute_force_oracle():
    # 1-parameter model, dense 1x1 warp: compare one outer step against an
    # independent route that finite-differences the whole two-level objective
    # and applies the same outer Adam rule by hand.
    model = ScalarQuadratic(w0=0.2)
    batch = [quad_episode([1.0, 1.4], [1.2]), quad_episode([-0.5, 0.1], [-0.3])]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.2, epsilon=1.0),
                     outer_eta=0.05, tod_lambda=0.1)
    p0 = np.array([0.9])
    warps = [WarpMatrix.dense([[p0[0]]])]
    new_warps, _, _ = meta_update_P(warps, batch, model, cfg, AdamState.zeros(1))

    def meta_objective(p):
        trial = [WarpMatrix.dense([[p[0]]])]
        losses = [adaptation_query_loss(model, trial, ep, cfg) for ep in batch]
        return float(np.mean(losses)) + tod_penalty(trial[0], cfg.tod_lambda)

    fd_grad = finite_diff_grad(meta_objective, p0, h=1e-6)
    _, p_expected = adam_step(AdamState.zeros(1), p0, fd_grad, HyperParams(eta=cfg.outer_eta))
    assert rel_err(new_warps[0].factors[0].reshape(-1), p_expected) < 1e-6


def test_meta_update_rejects_empty_batch():
    with pytest.raises(ValueError):
        meta_update_P([WarpMatrix.identity(1)], [], ScalarQuadratic(0.0),
                      MetaConfig(), AdamState.zeros(0))


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("missing", ["loss_grads", "loss_hvp", "losses"])
def test_meta_update_needs_a_model_with_loss_grads_and_loss_hvp(missing, first_order):
    quad = ScalarQuadratic(0.2)
    model = SimpleNamespace(params=quad.params, loss=quad.loss,
                            **{m: getattr(quad, m) for m in ("loss_grads", "loss_hvp", "losses")
                               if m != missing})
    cfg = MetaConfig(inner_steps=2, first_order=first_order)
    with pytest.raises(TypeError, match=f"SimpleNamespace has no {missing}"):
        meta_update_P([WarpMatrix.dense([[1.0]])], [quad_episode([1.0], [1.2])], model, cfg,
                      AdamState.zeros(1))
    with pytest.raises(TypeError, match=f"SimpleNamespace has no {missing}"):
        adaptation_query_loss(model, [WarpMatrix.dense([[1.0]])], quad_episode([1.0], [1.2]), cfg)


# ---------------------------------------------------------------------------
# structural defaults and checkpointing

def test_init_warps_auto_policy():
    warps = init_warps([(4, 3), (300,), (20, 30), ()], policy="auto")
    assert warps[0].form == "dense" and warps[0].dim == 12
    assert warps[1].form == "diagonal" and warps[1].dim == 300
    assert warps[2].form == "kron" and warps[2].dim == 600
    assert warps[3].form == "dense" and warps[3].dim == 1


def test_init_warps_start_as_exact_identity():
    rng = np.random.default_rng(10)
    for policy, shape in (("auto", (20, 30)), ("kron", (4, 3)),
                          ("dense", (5,)), ("diagonal", (8,)), ("identity", (3, 2))):
        g = rng.normal(size=shape)
        (w,) = init_warps([shape], policy=policy)
        assert np.array_equal(w.apply(g), g), policy


def test_init_warps_rejects_unknown_policy():
    with pytest.raises(ValueError):
        init_warps([(2, 2)], policy="banana")


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    warps = [
        WarpMatrix.identity(7),
        WarpMatrix.diagonal(rng.normal(size=5)),
        WarpMatrix.dense(rng.normal(size=(4, 4))),
        WarpMatrix.kronecker(rng.normal(size=(3, 3)), rng.normal(size=(2, 2))),
    ]
    path = tmp_path / "warps.bin"
    save_warps(path, warps)
    loaded = load_warps(path)
    assert [w.form for w in loaded] == [w.form for w in warps]
    assert [w.dim for w in loaded] == [w.dim for w in warps]
    for a, b in zip(warps, loaded):
        assert np.array_equal(a.params(), b.params())
    path2 = tmp_path / "warps2.bin"
    save_warps(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bytes_are_the_v1_format(tmp_path):
    rng = np.random.default_rng(12)
    scale, p, a, b = (rng.normal(size=5), rng.normal(size=(2, 2)),
                      rng.normal(size=(2, 2)), rng.normal(size=(3, 3)))
    warps = [WarpMatrix.identity(7), WarpMatrix.diagonal(scale), WarpMatrix.dense(p),
             WarpMatrix.kronecker(a, b)]
    assert [w.form for w in warps] == list(FORMS)  # one warp of every form

    def record(tag, dim, fa, fb, *factors):
        entries = np.concatenate([np.zeros(0)] + [f.reshape(-1) for f in factors])
        return struct.pack("<BQQQ", tag, dim, fa, fb) + struct.pack(f"<{entries.size}d", *entries)

    expected = (b"WARP" + struct.pack("<II", 1, 4) + record(0, 7, 0, 0) + record(1, 5, 0, 0, scale)
                + record(2, 2, 0, 0, p) + record(3, 6, 2, 3, a, b))
    path = tmp_path / "warps.bin"
    save_warps(path, warps)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("header, why", [
    pytest.param((2, 2, 1, 0), "1, 0 do not fit the dense form", id="dense_with_factor_dim"),
    pytest.param((0, 3, 0, 2), "0, 2 do not fit the identity form", id="identity_with_factor_dim"),
    pytest.param((3, 6, 2, 2), "do not act on dim 6", id="kron_factors_of_another_dim"),
    pytest.param((1, 0, 0, 0), "dim must be positive", id="zero_dim"),
    pytest.param((9, 1, 0, 0), "unknown form tag 9", id="unknown_tag"),
])
def test_checkpoint_rejects_an_inconsistent_header(tmp_path, header, why):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WARP" + struct.pack("<II", 1, 1) + struct.pack("<BQQQ", *header)
                     + np.ones(8).astype("<f8").tobytes())
    with pytest.raises(ValueError, match=f"{why}.*bad.bin"):
        load_warps(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_warps(path)
