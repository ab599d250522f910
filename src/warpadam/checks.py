"""Self-verification suite behind ``warpadam check``.

Each check compares an analytic quantity against an independent oracle
(central finite differences, explicit Kronecker products, or bit-exact
reduction identities) and reports its worst relative error. ``perturb``
injects a bias into every analytic gradient before comparison; it exists as a
negative control so the harness itself can be shown to fail when gradients
are wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import MLP
from .optim import AdamState, HyperParams, adam_step, warpadam_step
from .tasks import Episode
from .tensor import Tensor, finite_diff_grad, grad
from .warp import (MetaConfig, WarpMatrix, adaptation_query_loss, adjoint_hypergrad, hypergrad_P,
                   tod_penalty)


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def _rel(a, b, floor=1e-8) -> float:
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.max(np.abs(b), initial=0.0), floor)
    return float(np.max(np.abs(a - b), initial=0.0) / denom)


def _primitive_cases(rng):
    w_const = Tensor(rng.normal(size=(4, 2)))  # drawn once: builds must be pure in x
    return [
        ("matmul", (3, 4), lambda x: T.tsum(T.matmul(x, w_const))),
        ("tanh", (5,), lambda x: T.tsum(T.tanh(x))),
        ("relu_mix", (6,), lambda x: T.tsum(T.mul(T.relu(x), 0.7))),
        ("sqrt_div", (5,), lambda x: T.tsum(T.div(x, T.sqrt(T.add(T.mul(x, x), 0.5))))),
        ("softmax_ce", (4, 3), lambda x: T.softmax_cross_entropy(x, np.array([0, 2, 1, 1]))),
        ("mse", (4, 2), lambda x: T.mean_squared_error(x, Tensor(np.full((4, 2), 0.25)))),
        ("reductions", (3, 4), lambda x: T.tmean(T.mul(T.tsum(x, axis=0), T.tsum(x, axis=0)))),
    ]


def check_primitive_gradients(perturb: float = 0.0, trials: int = 20) -> list[CheckResult]:
    rng = np.random.default_rng(2024)
    results = []
    for name, shape, build in _primitive_cases(rng):
        worst = 0.0
        for _ in range(trials):
            x = rng.uniform(-1.0, 1.0, size=shape)
            xt = Tensor(x, requires_grad=True)
            (g,) = grad(build(xt), [xt])
            fd = finite_diff_grad(lambda v: build(Tensor(v)).item(), x, h=1e-5)
            worst = max(worst, _rel(g.data + perturb, fd))
        results.append(CheckResult(f"grad.{name}", worst, 1e-5))
    return results


def check_mlp_gradient(perturb: float = 0.0) -> list[CheckResult]:
    """The MLP loss gradient from the engine and from ``MLP.loss_grads``."""
    rng = np.random.default_rng(7)
    model = MLP([6, 8, 4], rng)
    x = rng.normal(size=(10, 6))
    y = rng.integers(0, 4, size=10)
    params = model.param_tensors()
    engine = [g.data for g in grad(model.loss(params, x, y), params)]
    fast = model.loss_grads(model.params, x, y)[1]

    def loss_of_flat(flat):
        arrays, pos = [], 0
        for p in model.params:
            arrays.append(flat[pos:pos + p.size].reshape(p.shape))
            pos += p.size
        return model.loss([Tensor(a) for a in arrays], x, y).item()

    flat0 = np.concatenate([p.reshape(-1) for p in model.params])
    fd = finite_diff_grad(loss_of_flat, flat0, h=1e-5)
    return [CheckResult(name, _rel(np.concatenate([g.reshape(-1) for g in gs]) + perturb, fd), 1e-5)
            for name, gs in (("grad.mlp_cross_entropy", engine), ("grad.mlp_loss_grads", fast))]


def check_mlp_hvp(perturb: float = 0.0) -> CheckResult:
    """``MLP.loss_hvp`` against central differences of ``loss_grads`` along
    the same vectors, on a hidden-layer MLP (so the tanh terms count), for a
    plain episode and a stack of three."""
    rng = np.random.default_rng(23)
    model = MLP([5, 6, 3], rng)
    worst, step = 0.0, 1e-5
    for lead in ((), (3,)):
        arrays = [p + 0.1 * rng.normal(size=lead + p.shape) for p in model.params]
        x = rng.normal(size=lead + (8, 5))
        y = rng.integers(0, 3, size=lead + (8,))
        for _ in range(5):
            vecs = [rng.normal(size=a.shape) for a in arrays]
            hvp = model.loss_hvp(arrays, x, y, vecs)
            plus = model.loss_grads([a + step * v for a, v in zip(arrays, vecs)], x, y)[1]
            minus = model.loss_grads([a - step * v for a, v in zip(arrays, vecs)], x, y)[1]
            fd = np.concatenate([((a - b) / (2.0 * step)).reshape(-1)
                                 for a, b in zip(plus, minus)])
            worst = max(worst, _rel(np.concatenate([h.reshape(-1) for h in hvp]) + perturb, fd))
    return CheckResult("grad.mlp_loss_hvp", worst, 1e-5)


def check_kron_equivalence() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2))
        g = rng.normal(size=6)
        kron = WarpMatrix.kronecker(a, b).apply(g)
        dense = WarpMatrix.dense(np.kron(a, b)).apply(g)
        worst = max(worst, float(np.max(np.abs(kron - dense))))
    return CheckResult("warp.kron_vs_dense", worst, 1e-12)


def check_identity_reduction() -> CheckResult:
    rng = np.random.default_rng(13)
    w_a = rng.normal(size=8)
    w_w = w_a.copy()
    sa, sw = AdamState.zeros((8,)), AdamState.zeros((8,))
    ident = WarpMatrix.identity(8)
    h = HyperParams(eta=0.05)
    worst = 0.0
    for _ in range(50):
        g = rng.normal(size=8)
        sa, w_a = adam_step(sa, w_a, g, h)
        sw, w_w = warpadam_step(sw, w_w, g, ident, h)
        if not np.array_equal(w_a, w_w):
            worst = max(worst, float(np.max(np.abs(w_a - w_w))))
    return CheckResult("warp.identity_reduction_bitwise", worst, 1e-300)


def check_tod_zero_cases() -> CheckResult:
    rng = np.random.default_rng(17)
    worst = max(
        abs(tod_penalty(WarpMatrix.identity(5), 3.0)),
        abs(tod_penalty(WarpMatrix.diagonal(rng.normal(size=4)), 2.0)),
        abs(tod_penalty(WarpMatrix.dense(rng.normal(size=(4, 4))), 0.0)),
    )
    return CheckResult("warp.tod_zero_cases", worst, 1e-300)


def check_hypergradient(perturb: float = 0.0) -> CheckResult:
    rng = np.random.default_rng(19)
    model = MLP([3, 4], rng)
    episode = Episode(
        support_x=rng.normal(size=(6, 3)), support_y=rng.integers(0, 4, size=6),
        query_x=rng.normal(size=(8, 3)), query_y=rng.integers(0, 4, size=8),
        n_way=4, k_shot=1, task_id="check")
    warps = [WarpMatrix.dense(np.eye(p.size) + 0.05 * rng.normal(size=(p.size, p.size)))
             for p in model.params]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05))
    hgs, _ = hypergrad_P(episode, model, warps, cfg)
    return CheckResult("warp.hypergradient_vs_fd",
                       _worst_vs_fd(hgs, perturb, model, warps, episode, cfg), 1e-4)


def _worst_vs_fd(hgs, perturb, model, warps, episode, cfg) -> float:
    """The largest relative error of the hypergradients ``hgs`` (plus
    ``perturb``) against finite differences of the adaptation's query loss."""
    worst = 0.0
    for i, warp in enumerate(warps):
        def objective(flat, i=i, warp=warp):
            trial = list(warps)
            trial[i] = warp.with_params(flat)
            return adaptation_query_loss(model, trial, episode, cfg)

        fd = finite_diff_grad(objective, warp.params(), h=1e-4)
        worst = max(worst, _rel(hgs[i] + perturb, fd))
    return worst


def check_hypergradient_adjoint(perturb: float = 0.0) -> list[CheckResult]:
    """The full ``adjoint_hypergrad`` against finite differences of the
    adaptation's query loss and against the engine's ``hypergrad_P``: a
    hidden-layer MLP with kron, diagonal and dense warps."""
    rng = np.random.default_rng(29)
    model = MLP([4, 3, 3], rng)
    episode = Episode(
        support_x=rng.normal(size=(6, 4)), support_y=rng.integers(0, 3, size=6),
        query_x=rng.normal(size=(8, 4)), query_y=rng.integers(0, 3, size=8),
        n_way=3, k_shot=2, task_id="check")
    warps = [WarpMatrix.kronecker(np.eye(4) + 0.1 * rng.normal(size=(4, 4)),
                                  np.eye(3) + 0.1 * rng.normal(size=(3, 3))),
             WarpMatrix.diagonal(1.0 + 0.2 * rng.normal(size=3)),
             WarpMatrix.dense(np.eye(9) + 0.05 * rng.normal(size=(9, 9))),
             WarpMatrix.diagonal(1.0 + 0.2 * rng.normal(size=3))]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05, epsilon=0.01))
    hgs, _ = adjoint_hypergrad(episode, model, warps, cfg)
    engine, _ = hypergrad_P(episode, model, warps, cfg)
    return [CheckResult("warp.hypergradient_adjoint_vs_fd",
                        _worst_vs_fd(hgs, perturb, model, warps, episode, cfg), 1e-4),
            CheckResult("warp.hypergradient_adjoint_vs_engine",
                        max(_rel(a + perturb, b) for a, b in zip(hgs, engine)), 1e-10)]


def run_all(perturb: float = 0.0) -> list[CheckResult]:
    results = check_primitive_gradients(perturb)
    results.extend(check_mlp_gradient(perturb))
    results.append(check_mlp_hvp(perturb))
    results.append(check_kron_equivalence())
    results.append(check_identity_reduction())
    results.append(check_tod_zero_cases())
    results.append(check_hypergradient(perturb))
    results.extend(check_hypergradient_adjoint(perturb))
    return results
