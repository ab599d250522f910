import gc
import math
import struct
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpadam.nn as nn
import warpadam.tensor as T
import warpadam.warp as warp_module
from warpadam.nn import MLP, mlp_shapes
from warpadam.optim import AdamState, HyperParams, adam_step, warpadam_step
from warpadam.tasks import Episode, sample_episode, synth_proto_tasks
from warpadam.tensor import NumericError, ShapeError, Tensor, finite_diff_grad, grad
from warpadam.warp import (
    FORMS,
    MetaConfig,
    ResourceError,
    WarpMatrix,
    _FlatWarp,
    _episode_warp,
    _flat,
    _start_arrays,
    _unrolled_warpadam,
    _views,
    _warp_leaves,
    adapt,
    adaptation_query_loss,
    adjoint_hypergrad,
    held_out_losses,
    hypergrad_P,
    init_warps,
    load_warps,
    meta_train,
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


def make_episode(sx, sy, qx, qy):
    sx, qx = np.atleast_2d(sx), np.atleast_2d(qx)
    return Episode(support_x=sx, support_y=np.asarray(sy), query_x=qx, query_y=np.asarray(qy))


def _adapt(model, warps, episode, cfg, tape=None):
    """``adapt``'s parameters, with the warps resolved for the episode."""
    return adapt(model, _episode_warp(model, warps, episode), episode, cfg, tape)[0]


def _nan_tape(model, warps, episode, cfg):
    """A tape for ``adapt`` of ``cfg`` on ``episode``, NaN until written."""
    n = _episode_warp(model, warps, episode).size
    return np.full((5, cfg.inner_steps - cfg.cut + 1, n), np.nan)


class ScalarQuadratic:
    """L(w) = mean((w - targets)^2) / 2 on a single scalar parameter."""

    def __init__(self, w0):
        self.params = [np.array([float(w0)])]

    def targets(self, y):
        return y

    def loss(self, params, x, y):
        w = T.broadcast_to(params[0], np.shape(y))
        d = T.sub(w, Tensor(np.asarray(y, dtype=np.float64)))
        return T.mul(T.mul(T.tsum(T.mul(d, d), axis=-1), 1.0 / np.shape(y)[-1]), 0.5)

    def losses(self, arrays, x, y):
        # the losses in the engine's operation order, so they have its bits
        d = arrays[0] - np.asarray(y, dtype=np.float64)
        return np.sum(d * d, axis=-1) * (1.0 / d.shape[-1]) * 0.5

    def loss_grads(self, arrays, x, y):
        d = arrays[0] - np.asarray(y, dtype=np.float64)
        return self.losses(arrays, x, y), [np.mean(d, axis=-1, keepdims=True)], None

    def loss_hvp(self, arrays, forward, vecs):
        return [1.0 * vecs[0]]  # each episode's loss has curvature 1 in its w


def quad_episode(support_targets, query_targets):
    s = np.asarray(support_targets, dtype=np.float64)
    q = np.asarray(query_targets, dtype=np.float64)
    return Episode(support_x=np.zeros((s.size, 1)), support_y=s,
                   query_x=np.zeros((q.size, 1)), query_y=q)


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
                           rng.normal(size=(n + 2, dim)), rng.integers(0, classes, size=n + 2))
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
                           rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
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
    arrays = _adapt(model, warps, episode, cfg)
    for wt, arr in zip(ws, arrays):
        assert rel_err(wt.data, arr) < 1e-12


class CountingModel:
    """Forwards to an MLP and counts its ``loss_grads`` calls (one per inner
    step) and its ``losses`` calls."""

    def __init__(self, model):
        self.model = model
        self.params, self.loss, self.loss_hvp = model.params, model.loss, model.loss_hvp
        self.targets = model.targets
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
                           rng.normal(size=(5, 3)), rng.integers(0, 2, size=5))
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
    """``n`` one-row episodes of one geometry, whose support rows hold 0, 1, ... in order."""
    return [Episode(support_x=np.full((1, 1), float(i)), support_y=np.zeros(1, dtype=int),
                    query_x=np.full((1, 1), float(i)), query_y=np.zeros(1, dtype=int))
            for i in range(n)]


def _episode_numbers(stacks):
    """The numbers of ``_numbered_episodes`` in ``stacks``, read stack by stack."""
    return [int(x) for s in stacks for x in s.support_x.reshape(-1)]


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
    assert _episode_numbers(stacks) == list(range(20))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(1, 3 * STACK_ENTRY_BUDGET), st.integers(1, 8))
def test_stack_within_budget_keeps_every_episode_in_order(n, n_params, min_stack):
    stacks = stack_within_budget(_numbered_episodes(n), n_params, min_stack)
    size = max(min_stack, STACK_ENTRY_BUDGET // n_params)
    lengths = [len(s.support_y) for s in stacks]
    assert all(length == size for length in lengths[:-1])
    assert all(1 <= length <= size for length in lengths)
    assert _episode_numbers(stacks) == list(range(n))
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
    # the path adjoint_hypergrad runs: the flat warp's rule on (T, size) planes, at T 1
    flat = _FlatWarp([warp], [g.shape], g.shape[:-2])
    (got,) = flat.factor_grads(u_bar.reshape(1, -1), g.reshape(1, -1))
    for factor, w in zip(got, want, strict=True):
        assert factor.tobytes() == w.data.tobytes()


@pytest.mark.parametrize("form", FORMS)
def test_stacked_unrolled_graph_is_bitwise_adapt(form):
    model, episodes, warps = _stack_setup(form)
    episode = stack_episodes(episodes)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    want = _adapt(model, warps, episode, cfg)
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
    fast = _adapt(model, warps, episode, cfg)
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
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    tape = _nan_tape(model, warps, episode, cfg)
    arrays = _adapt(model, warps, episode, cfg, tape)
    want_arrays, want_states = _per_tensor_adapt(model, warps, episode, 3, cfg.inner_hyper)
    assert len(arrays) == len(model.params)
    for got, want in zip(arrays, want_arrays, strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # the last step's taped moments are the per-tensor states', flattened
    assert tape.shape[1] == 3 and all(st.t == 3 for st in want_states)
    assert np.array_equal(tape[2, -1], _flat(st.m for st in want_states))
    assert np.array_equal(tape[3, -1], _flat(st.v for st in want_states))


def test_adapt_takes_one_optimizer_step_per_inner_step(monkeypatch):
    model, warps, episode = _adapt_setup("kron", stacked=True)
    calls = []
    original = warp_module.adam_core
    monkeypatch.setattr(warp_module, "adam_core",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    for steps in (1, 3):
        calls.clear()
        _adapt(model, warps, episode, MetaConfig(inner_steps=steps))
        assert len(calls) == steps
    assert len(model.params) == 4


def test_adapt_tape_holds_arrays_of_its_own_per_step(monkeypatch):
    model, warps, episode = _adapt_setup("kron", stacked=True)
    h = HyperParams(eta=0.05, epsilon=0.1)
    cfg = MetaConfig(inner_steps=3, inner_hyper=h)
    tape = _nan_tape(model, warps, episode, cfg)
    live, taken = [], []  # the parameters and moments a step updates; the gradient it takes
    original = warp_module.adam_core

    def core(state, w, g, h):
        live.extend((w, state.m, state.v))
        taken.append(g)
        original(state, w, g, h)
    monkeypatch.setattr(warp_module, "adam_core", core)
    arrays = _adapt(model, warps, episode, cfg, tape)
    assert len(live) == 3 * 3 and len(taken) == 3
    assert not any(np.shares_memory(tape, a) for a in live + arrays)
    # the warp writes each step's P g into that step's row of the tape's last plane
    assert all(np.shares_memory(tape[4, k], g) for k, g in enumerate(taken))
    # step k starts from the parameters k steps left and leaves k+1 steps' moments,
    # and its moments took the warp of its gradient
    warp = _episode_warp(model, warps, episode)
    for k, (w, g, m, v, warped) in enumerate(tape.swapaxes(0, 1)):
        start = (_adapt(model, warps, episode, MetaConfig(inner_steps=k, inner_hyper=h)) if k
                 else _start_arrays(model, episode))
        after = _per_tensor_adapt(model, warps, episode, k + 1, h)[1]
        assert np.array_equal(w, _flat(start))
        assert np.array_equal(g, _flat(model.loss_grads(start, episode.support_x,
                                                        episode.support_y)[1]))
        assert np.array_equal(m, _flat(s.m for s in after))
        assert np.array_equal(v, _flat(s.v for s in after))
        assert np.array_equal(warped, warp.apply(g))


def test_adapt_writes_its_tape_without_allocating_for_it():
    model, warps, episode = _adapt_setup("auto", stacked=True)
    cfg = MetaConfig(inner_steps=6, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    warp, tape = _episode_warp(model, warps, episode), _nan_tape(model, warps, episode, cfg)
    peaks = []
    for given in (None, tape):
        tracemalloc.start()
        try:
            forwards = adapt(model, warp, episode, cfg, given)[1]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the taped call keeps the forward records of its Hessian products on purpose
    kept = sum(a.nbytes for f in forwards for a in (*f.inputs[1:], f.logit_grad, f.softmax))
    assert len(forwards) == cfg.inner_steps - cfg.cut and kept > 0
    # a taped array of its own, kept per step as a list tape keeps it, adds a row per step
    assert peaks[1] - peaks[0] - kept < tape[0, 0].nbytes
    assert not np.isnan(tape).any()


def test_adapt_tapes_only_the_steps_from_cut():
    model, warps, episode = _adapt_setup("kron", stacked=True)
    h = HyperParams(eta=0.05, epsilon=0.1)
    full_order = MetaConfig(inner_steps=4, inner_hyper=h)
    first_order = MetaConfig(inner_steps=4, inner_hyper=h, first_order=True)
    full, tail = (_nan_tape(model, warps, episode, cfg) for cfg in (full_order, first_order))
    want = _adapt(model, warps, episode, full_order, full)
    got = _adapt(model, warps, episode, first_order, tail)
    assert first_order.cut == 4 and full.shape[1] == 4 and tail.shape[1] == 1
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(tail[:, 0], full[:, 3])


# ---------------------------------------------------------------------------
# identity-valued warps: a copy in place of the product, with its bits

_SHAPES = [(5, 4), (4,), (20, 16), (16,), (4, 3), (3,)]


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
    warps = init_warps(_SHAPES, policy)
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
        self.targets = model.targets

    def loss(self, params, x, y):
        return self.model.loss([T.add(T.neg(n), T.mul(n, 0.0)) for n in map(T.neg, params)], x, y)

    def loss_grads(self, arrays, x, y):
        losses, grads, forward = self.model.loss_grads(arrays, x, y)
        return losses, [np.where(g == 0, -0.0, g) for g in grads], forward


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
    warps = init_warps([p.shape for p in model.params], policy)
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

    def targets(self, y):
        return y

    def loss_grads(self, arrays, x, y):
        return None, [np.broadcast_to(g, a.shape) for g, a in zip(self.grads, arrays)], None


def test_adapt_checks_every_segment_of_the_flat_buffer():
    episode = quad_episode([0.0], [0.0])
    warps = [WarpMatrix.identity(3), WarpMatrix.diagonal(np.ones(2))]
    cfg = MetaConfig(inner_steps=1, inner_hyper=HyperParams(eta=0.1))
    for bad in (np.nan, np.inf):
        model = FixedGrads([np.zeros(3), np.zeros(2)], [np.ones(3), np.array([1.0, bad])])
        with pytest.raises(NumericError, match="non-finite gradient passed to optimizer step"):
            _adapt(model, warps, episode, cfg)
    # an update of -1 at step 1 carries the last tensor's largest entry past the float range
    model = FixedGrads([np.zeros(3), np.array([0.0, 1e308])], [np.ones(3), -np.ones(2)])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^adam step overflowed"):
        _adapt(model, warps, episode, MetaConfig(inner_steps=1, inner_hyper=HyperParams(eta=1e308)))


def test_adapt_rejects_a_warp_that_does_not_fit_its_tensor():
    model, warps, episode = _adapt_setup("dense", stacked=False)
    cfg = MetaConfig(inner_steps=1)
    for bad in (WarpMatrix.identity(7), WarpMatrix.dense(np.eye(7))):
        with pytest.raises(ShapeError):
            _adapt(model, warps[:-1] + [bad], episode, cfg)
    with pytest.raises(ShapeError):
        _adapt(model, warps[:-1], episode, cfg)
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
                _adapt(model, [bad] + warps[1:], episode, cfg)
    bias = WarpMatrix.kronecker(np.eye(1), np.eye(4))  # of the size of the (4,) bias, not a matrix
    with pytest.raises(ShapeError, match=r"warp 1 .* shape \(4,\)"):
        _adapt(model, warps[:1] + [bias] + warps[2:], episode, cfg)


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
def test_adjoint_hypergrad_resolves_the_warps_once(monkeypatch, first_order):
    model, warps, episode = _adapt_setup("kron", stacked=True)
    built = []
    original = _FlatWarp.__init__
    monkeypatch.setattr(_FlatWarp, "__init__",
                        lambda self, *a, **k: built.append(1) or original(self, *a, **k))
    adjoint_hypergrad(episode, model, warps, MetaConfig(inner_steps=3, first_order=first_order))
    assert len(built) == 2  # the warp and its transpose


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("form", [*FORMS, "auto"])
def test_adjoint_takes_each_warps_factor_gradient_once(monkeypatch, form, stacked, first_order):
    model, warps, episode = _adapt_setup(form, stacked)
    calls = []
    for name, row in FORMS.items():
        monkeypatch.setitem(FORMS, name, row._replace(
            factor_grads=lambda *a, rule=row.factor_grads: calls.append(1) or rule(*a)))
    for steps in (1, 4):
        calls.clear()
        cfg = MetaConfig(inner_steps=steps, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                         first_order=first_order)
        adjoint_hypergrad(episode, model, warps, cfg)
        assert len(calls) == len(warps)


def test_adjoint_hypergrad_matches_the_engine_at_the_meta_full_shape():
    # meta-full's shape: an [8,16,3] MLP whose auto warps are four dense ones,
    # K=8 and a batch of 4 three-way one-shot episodes with 10 queries a class
    rng = np.random.default_rng(61)
    table = synth_proto_tasks(2, 5, 20, 8, 0.5, rng)
    episode = stack_episodes([sample_episode(table, 3, 1, 10, rng) for _ in range(4)])
    model = MLP([8, 16, 3], rng)
    warps = [w.with_params(w.params() + 0.05 * rng.normal(size=w.n_params))
             for w in init_warps([p.shape for p in model.params], "auto")]
    assert [w.form for w in warps] == ["dense"] * 4
    cfg = MetaConfig(inner_steps=8, inner_hyper=HyperParams(eta=0.1, epsilon=0.1))
    got, losses = adjoint_hypergrad(episode, model, warps, cfg)
    want, want_losses = hypergrad_P(episode, model, warps, cfg)
    for a, b in zip(got, want, strict=True):
        assert rel_err(a, b, floor=1e-300) < 1e-12
    assert np.array_equal(losses, want_losses)


@pytest.mark.parametrize("first_order", [False, True])
def test_adjoint_tape_is_one_slab_of_the_budgets_size(monkeypatch, first_order):
    model, warps, episode = _adapt_setup("auto", stacked=True)
    tapes = []
    original = warp_module.adapt
    monkeypatch.setattr(warp_module, "adapt",
                        lambda *a: tapes.append(a[-1]) or original(*a))
    n = _episode_warp(model, warps, episode).size
    for steps in (1, 3):
        cfg = MetaConfig(inner_steps=steps, first_order=first_order)
        tapes.clear()
        adjoint_hypergrad(episode, model, warps, cfg)
        (tape,) = tapes
        assert type(tape) is np.ndarray and tape.dtype == np.float64
        assert tape.shape == (5, steps - cfg.cut + 1, n)
        if cfg.cut < steps:  # the budget counts the slab's entries
            with pytest.raises(ResourceError, match=f"hold {tape.size} float64 entries"):
                adjoint_hypergrad(episode, model, warps,
                                  MetaConfig(inner_steps=steps, node_budget=tape.size - 1))
            adjoint_hypergrad(episode, model, warps,
                              MetaConfig(inner_steps=steps, node_budget=tape.size))


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
                      query_x=qx, query_y=rng.integers(0, 3, size=(2, 7)))
    warps = [WarpMatrix.diagonal(1.0 + 0.1 * rng.normal(size=p.size)) for p in model.params]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.0),
                     first_order=first_order)
    assert np.all(_adapt(model, warps, episode, cfg)[0][:, 0] == model.params[0][0])
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
    tape = 5 * 3 * len(episodes) * sum(p.size for p in model.params)
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
    got = model.loss_hvp(arrays, model.loss_grads(arrays, x, y)[2], vecs)
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
    losses, grads, forward = model.loss_grads(arrays, x, y)
    want = model.loss([Tensor(a) for a in arrays], x, y).data
    assert losses.shape == want.shape and losses.tobytes() == want.tobytes()
    for got, engine, a in zip(grads, _engine_grads(model, arrays, x, y), arrays, strict=True):
        assert got.shape == a.shape and rel_err(got, engine) < 1e-12
    hvps = model.loss_hvp(arrays, forward, vecs)
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


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_full_adjoint_runs_each_forward_and_each_warp_once(monkeypatch, steps):
    # K support forwards and one query forward: the Hessian products take the
    # forward records of the adaptation, and the adjoint walk its taped P g
    model, episodes, warps = _stack_setup("dense")
    calls = []
    _counting(monkeypatch, MLP, "_forward", calls)
    _counting(monkeypatch, nn, "softmax_cross_entropy_grad", calls)
    original = _FlatWarp.apply

    def apply(self, *args, **kwargs):
        calls.append("P" if self.warps is warps else "P^T")
        return original(self, *args, **kwargs)
    monkeypatch.setattr(_FlatWarp, "apply", apply)
    cfg = MetaConfig(inner_steps=steps, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    adjoint_hypergrad(stack_episodes(episodes), model, warps, cfg)
    assert calls.count("_forward") == steps + 1
    assert calls.count("softmax_cross_entropy_grad") == steps + 1
    assert calls.count("P") == steps and calls.count("P^T") == steps - 1


@pytest.mark.parametrize("stacked", [False, True])
def test_mlp_forward_record_outlives_the_parameters_it_was_taken_at(stacked):
    model, arrays, x, y, vecs = _mlp_hvp_setup([4, 5, 6, 3], stacked)
    w = _flat(arrays)  # a buffer of their own, as the adaptation steps
    forward = model.loss_grads(_views(w, [a.shape for a in arrays]), x, y)[2]
    held = [*forward.inputs, forward.logit_grad, forward.softmax]
    want = [a.copy() for a in held]
    w[...] = np.nan  # the next step overwrites the buffer in place
    assert not any(np.shares_memory(a, w) for a in held)
    assert [a.tobytes() for a in held] == [a.tobytes() for a in want]
    got = model.loss_hvp(arrays, forward, vecs)
    for a, b in zip(got, _engine_hvp(model, arrays, x, y, vecs), strict=True):
        assert rel_err(a, b) < 1e-12


def test_meta_update_new_warps_are_views_of_one_stepped_array_of_their_own():
    model, episodes, warps = _stack_setup("kron")
    state = _outer_state(warps)
    new_warps, new_state, _ = meta_update_P(warps, episodes, model,
                                            MetaConfig(inner_steps=2), state)
    given = [f for w in warps for f in w.factors] + [state.m, state.v]
    factors = [f for w in new_warps for f in w.factors]
    assert len(factors) == len(given) - 2
    for f in factors + [new_state.m, new_state.v]:
        assert not any(np.shares_memory(f, a) for a in given)
    # one array stepped by the outer Adam holds every new factor, without a copy per warp
    owner = _owner(factors[0])
    assert owner.size == len(state.m) and all(_owner(f) is owner for f in factors)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_adaptation_leaves_the_model_parameters_as_they_were(stacked, first_order):
    # meta_train adapts from the same model.params at every outer step
    model, episodes, warps = _stack_setup("kron")
    episode = stack_episodes(episodes) if stacked else episodes[0]
    cfg = MetaConfig(inner_steps=3, first_order=first_order)
    given = [p.tobytes() for p in model.params]
    arrays = _adapt(model, warps, episode, cfg)
    assert not any(np.shares_memory(a, p) for a in arrays for p in model.params)
    adjoint_hypergrad(episode, model, warps, cfg)
    adaptation_query_loss(model, warps, episode, cfg)
    assert [p.tobytes() for p in model.params] == given


def test_a_warp_owns_its_entries(tmp_path):
    # with_params and load_warps view one array of the warp's own, as meta_update_P's new warps do
    rng = np.random.default_rng(13)
    warps = [WarpMatrix.diagonal(rng.normal(size=5)), WarpMatrix.dense(rng.normal(size=(4, 4))),
             WarpMatrix.kronecker(rng.normal(size=(3, 3)), rng.normal(size=(2, 2)))]
    flats = [w.params() + 1.0 for w in warps]
    made = [w.with_params(flat) for w, flat in zip(warps, flats)]
    want = [w.params().tobytes() for w in made]
    save_warps(tmp_path / "warps.bin", made)
    loaded = load_warps(tmp_path / "warps.bin")
    for flat in flats:
        flat[...] = np.nan  # the caller reuses its buffer
    for got in (made, loaded):
        assert [w.params().tobytes() for w in got] == want
        owners = [_owner(w.factors[0]) for w in got]
        assert len({id(owner) for owner in owners}) == len(got)
        for w, owner in zip(got, owners):
            assert owner.size == w.n_params and owner.flags.writeable
            assert all(_owner(f) is owner for f in w.factors)


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
                           rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
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
                           rng.normal(size=(4, 3)), rng.integers(0, 2, size=4))
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
@pytest.mark.parametrize("missing", ["targets", "loss_grads", "loss_hvp", "losses"])
def test_meta_update_needs_a_model_with_loss_grads_and_loss_hvp(missing, first_order):
    quad = ScalarQuadratic(0.2)
    model = SimpleNamespace(params=quad.params, loss=quad.loss,
                            **{m: getattr(quad, m)
                               for m in ("targets", "loss_grads", "loss_hvp", "losses")
                               if m != missing})
    cfg = MetaConfig(inner_steps=2, first_order=first_order)
    with pytest.raises(TypeError, match=f"SimpleNamespace has no {missing}"):
        meta_update_P([WarpMatrix.dense([[1.0]])], [quad_episode([1.0], [1.2])], model, cfg,
                      AdamState.zeros(1))
    with pytest.raises(TypeError, match=f"SimpleNamespace has no {missing}"):
        adaptation_query_loss(model, [WarpMatrix.dense([[1.0]])], quad_episode([1.0], [1.2]), cfg)


# ---------------------------------------------------------------------------
# the meta-training loop

def _loop_setup(seed=41):
    """A linear MLP, its identity dense warps, a sampler of two-episode task
    batches and five held-out episodes, drawn from one generator."""
    rng = np.random.default_rng(seed)
    table = synth_proto_tasks(4, 4, 8, 5, 0.5, rng)
    model = MLP([5, 3], rng)
    warps = init_warps([p.shape for p in model.params], "dense")
    held_out = [sample_episode(table, 3, 1, 3, rng) for _ in range(5)]
    return model, warps, lambda: [sample_episode(table, 3, 1, 3, rng) for _ in range(2)], held_out


def _loop_cfg(**fields):
    return MetaConfig(**{"inner_steps": 2, "inner_hyper": HyperParams(eta=0.1, epsilon=0.1),
                         "outer_eta": 3e-3, "tod_lambda": 1e-2, "tasks_per_outer_step": 2,
                         **fields})


def _mean_loss(model, warps, episodes, cfg):
    return float(np.mean([adaptation_query_loss(model, warps, ep, cfg) for ep in episodes]))


def test_meta_train_evaluates_every_eval_every_steps_and_after_the_last():
    # 7 outer steps are not a multiple of eval_every 3: evaluations at 0, 3 and 6, then at 7
    model, start, next_batch, held_out = _loop_setup()
    cfg = _loop_cfg(outer_steps=7, eval_every=3)
    rows, learned, note = meta_train(model, start, cfg, next_batch, held_out)
    assert note is None
    assert [row[0] for row in rows] == list(range(8))
    assert [t for t, _, _, held in rows if not np.isnan(held)] == [0, 3, 6, 7]
    assert rows[0][3] == _mean_loss(model, start, held_out, cfg)
    assert rows[-1][3] == _mean_loss(model, learned, held_out, cfg)
    assert np.isnan(rows[-1][1])
    # the same steps by hand, on the same batches: the loop adds nothing to meta_update_P
    model, warps, next_batch, _ = _loop_setup()
    state = AdamState.zeros(sum(w.n_params for w in warps))
    for t in range(7):
        penalty = sum(tod_penalty(w, cfg.tod_lambda) for w in warps)
        warps, state, losses = meta_update_P(warps, next_batch(), model, cfg, state)
        assert rows[t][1:3] == (float(np.mean(losses)), penalty)
    assert [w.params().tobytes() for w in learned] == [w.params().tobytes() for w in warps]


def test_meta_train_without_held_out_episodes_gives_a_nan_column_and_no_warning():
    model, warps, next_batch, _ = _loop_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _, note = meta_train(model, warps, _loop_cfg(outer_steps=3, eval_every=1),
                                   next_batch, [])
    assert note is None and len(rows) == 4
    assert all(np.isnan(held) for _, _, _, held in rows)


@pytest.mark.parametrize("fields, steps_taken", [
    ({"inner_hyper": HyperParams(eta=1e200)}, 0),  # the first adaptation overflows
    ({"outer_eta": 1e300}, 1),  # the first outer step's warps overflow the next adaptation
])
def test_meta_train_stops_at_an_overflow_keeping_the_rows_and_warps_before_it(fields,
                                                                              steps_taken):
    model, start, next_batch, held_out = _loop_setup()
    cfg = _loop_cfg(outer_steps=3, eval_every=1, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, warps, note = meta_train(model, start, cfg, next_batch, held_out)
    assert note == f"second moment overflowed to non-finite values at outer step {steps_taken}"
    assert [row[0] for row in rows] == list(range(steps_taken))
    _, _, next_batch, _ = _loop_setup()  # the same batches again
    want, state = start, AdamState.zeros(sum(w.n_params for w in start))
    for _ in range(steps_taken):
        want, state, _ = meta_update_P(want, next_batch(), model, cfg, state)
    assert [w.params().tobytes() for w in warps] == [w.params().tobytes() for w in want]
    assert all(np.all(np.isfinite(w.params())) for w in warps)


@pytest.mark.parametrize("form", [*FORMS, "auto"])
def test_held_out_losses_are_the_unstacked_losses_bit_for_bit(form):
    model, episodes, warps = _form_setup(form, n_episodes=7)
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.1))
    singles = np.array([adaptation_query_loss(model, warps, ep, cfg) for ep in episodes])
    for size in (1, 3, 7):  # an n_params of the budget itself leaves stacks of min_stack
        stacks = stack_within_budget(episodes, STACK_ENTRY_BUDGET, size)
        assert held_out_losses(model, warps, stacks, cfg).tobytes() == singles.tobytes()
    assert held_out_losses(model, warps, [], cfg).shape == (0,)


# ---------------------------------------------------------------------------
# labels: checked and encoded once per episode, before the first inner step

_META_CALLS = {
    "adapt": lambda model, warps, episode, cfg: _adapt(model, warps, episode, cfg),
    "adjoint_hypergrad": lambda model, warps, episode, cfg:
        adjoint_hypergrad(episode, model, warps, cfg),
    "adaptation_query_loss": adaptation_query_loss,
}


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``; the list returned gets one entry per call."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("first_order", [False, True])
@pytest.mark.parametrize("call, field", [
    ("adapt", "support_y"),
    ("adjoint_hypergrad", "support_y"), ("adjoint_hypergrad", "query_y"),
    ("adaptation_query_loss", "support_y"), ("adaptation_query_loss", "query_y"),
])
def test_a_bad_label_raises_before_the_first_inner_step(monkeypatch, call, field, first_order):
    # the query labels used to be checked only after all K inner steps
    model, warps, episode = _adapt_setup("dense", stacked=True)
    cfg = MetaConfig(inner_steps=4, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                     first_order=first_order)
    cores = _count_calls(monkeypatch, warp_module, "adam_core")
    labels = getattr(episode, field).copy()
    labels[-1, -1] = model.sizes[-1]
    with pytest.raises(ValueError, match="out of range"):
        _META_CALLS[call](model, warps, episode._replace(**{field: labels}), cfg)
    assert cores == []
    with pytest.raises(ValueError, match="got dtype float64"):
        _META_CALLS[call](model, warps, episode._replace(**{field: labels * 0.5}), cfg)
    assert cores == []
    _META_CALLS[call](model, warps, episode, cfg)
    assert len(cores) == 4


@pytest.mark.parametrize("call, encodings", [
    ("adapt", 1), ("adjoint_hypergrad", 2), ("adaptation_query_loss", 2),
])
def test_labels_are_encoded_once_per_episode_whatever_k(monkeypatch, call, encodings):
    model, warps, episode = _adapt_setup("dense", stacked=True)
    encoded = _count_calls(monkeypatch, T, "encode_labels")
    for steps in (2, 8):
        for first_order in (False, True):
            cfg = MetaConfig(inner_steps=steps, inner_hyper=HyperParams(eta=0.05, epsilon=0.1),
                             first_order=first_order)
            encoded.clear()
            _META_CALLS[call](model, warps, episode, cfg)
            assert len(encoded) == encodings


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


@pytest.mark.parametrize("sizes", [[6, 3], [6, 5, 3], [4, warp_module.DENSE_MAX + 1, 2]],
                         ids=["hidden-0", "hidden-5", "bias-over-dense-max"])
@pytest.mark.parametrize("policy", ["auto", *FORMS])
def test_every_policy_fits_every_mlp_at_identity(policy, sizes):
    # kron does not fit a bias, which takes auto's form instead
    shapes = mlp_shapes(sizes)
    warps = init_warps(shapes, policy)
    flat = _FlatWarp(warps, shapes)
    g = np.random.default_rng(12).normal(size=flat.size)  # no zeros, whose sign a product drops
    assert flat.apply(g).tobytes() == g.tobytes()
    for w, seg in zip(warps, _views(g, shapes), strict=True):
        assert w.apply(seg).tobytes() == seg.tobytes()
    if policy == "kron":
        auto = init_warps(shapes)
        assert [w.form for w in warps] == ["kron" if len(s) == 2 else a.form
                                           for s, a in zip(shapes, auto)]


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
