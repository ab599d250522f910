"""Self-verification suite behind ``warpadam check``.

Each check compares an analytic quantity against an independent oracle
(central finite differences, explicit Kronecker products, or bit-exact
reduction identities) and reports its worst relative error. Every error goes
through ``_worst``, which counts a NaN or infinite error as ``inf``, so a
check fails on it. ``perturb``
injects a bias into every analytic gradient before comparison; it exists as a
negative control so the harness itself can be shown to fail when gradients
are wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import MLP, mlp_shapes
from .optim import AdamState, HyperParams, adam_step, warpadam_step
from .tasks import Episode
from .tensor import Tensor, finite_diff_grad, grad
from .warp import (MetaConfig, WarpMatrix, _flat, _views, adaptation_query_loss, adjoint_hypergrad,
                   hypergrad_P, tod_penalty)


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def _worst(errors) -> float:
    """The largest entry of ``errors`` (floats or arrays), 0.0 for none.

    A NaN or infinite entry counts as ``inf``. Python's ``max`` would keep
    its other argument against a NaN, so a NaN error would pass.
    """
    worst = 0.0
    for err in errors:
        err = np.asarray(err, dtype=np.float64)
        if not np.all(np.isfinite(err)):
            return math.inf
        worst = max(worst, float(np.max(err, initial=0.0)))
    return worst


def _rel(a, b, floor=1e-8) -> float:
    """The largest ``|a - b|`` over the largest ``|b|`` (at least ``floor``);
    ``inf`` when either holds a NaN or an infinity."""
    diff, scale = _worst([np.abs(np.subtract(a, b))]), _worst([np.abs(b)])
    return math.inf if math.isinf(scale) else diff / max(scale, floor)


def _primitive_cases(rng):
    w_const = Tensor(rng.normal(size=(4, 2)))  # drawn once: builds must be pure in x
    return [
        ("matmul", (3, 4), lambda x: T.tsum(T.matmul(x, w_const))),
        ("tanh", (5,), lambda x: T.tsum(T.tanh(x))),
        ("sqrt_div", (5,), lambda x: T.tsum(T.div(x, T.sqrt(T.add(T.mul(x, x), 0.5))))),
        ("softmax_ce", (4, 3), lambda x: T.softmax_cross_entropy(x, np.array([0, 2, 1, 1]))),
        ("reductions", (3, 4),
         lambda x: T.mul(T.tsum(T.mul(T.tsum(x, axis=0), T.tsum(x, axis=0))), 0.25)),
    ]


def check_primitive_gradients(perturb: float = 0.0, trials: int = 20) -> list[CheckResult]:
    rng = np.random.default_rng(2024)
    results = []
    for name, shape, build in _primitive_cases(rng):
        errors = []
        for _ in range(trials):
            x = rng.uniform(-1.0, 1.0, size=shape)
            xt = Tensor(x, requires_grad=True)
            (g,) = grad(build(xt), [xt])
            fd = finite_diff_grad(lambda v: build(Tensor(v)).item(), x, h=1e-5)
            errors.append(_rel(g.data + perturb, fd))
        results.append(CheckResult(f"grad.{name}", _worst(errors), 1e-5))
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
        return model.loss([Tensor(a) for a in _views(flat, mlp_shapes(model.sizes))], x, y).item()

    fd = finite_diff_grad(loss_of_flat, _flat(model.params), h=1e-5)
    return [CheckResult(name, _rel(_flat(gs) + perturb, fd), 1e-5)
            for name, gs in (("grad.mlp_cross_entropy", engine), ("grad.mlp_loss_grads", fast))]


def check_mlp_hvp(perturb: float = 0.0) -> CheckResult:
    """``MLP.loss_hvp`` against central differences of ``loss_grads`` along
    the same vectors, on a hidden-layer MLP (so the tanh terms count), for a
    plain episode and a stack of three."""
    rng = np.random.default_rng(23)
    model = MLP([5, 6, 3], rng)
    errors, step = [], 1e-5
    for lead in ((), (3,)):
        arrays = [p + 0.1 * rng.normal(size=lead + p.shape) for p in model.params]
        x = rng.normal(size=lead + (8, 5))
        y = rng.integers(0, 3, size=lead + (8,))
        for _ in range(5):
            vecs = [rng.normal(size=a.shape) for a in arrays]
            hvp = model.loss_hvp(arrays, model.loss_grads(arrays, x, y)[2], vecs)
            plus = model.loss_grads([a + step * v for a, v in zip(arrays, vecs)], x, y)[1]
            minus = model.loss_grads([a - step * v for a, v in zip(arrays, vecs)], x, y)[1]
            fd = np.concatenate([((a - b) / (2.0 * step)).reshape(-1)
                                 for a, b in zip(plus, minus)])
            errors.append(_rel(np.concatenate([h.reshape(-1) for h in hvp]) + perturb, fd))
    return CheckResult("grad.mlp_loss_hvp", _worst(errors), 1e-5)


def check_kron_equivalence() -> CheckResult:
    rng = np.random.default_rng(11)
    errors = []
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2))
        g = rng.normal(size=6)
        kron = WarpMatrix.kronecker(a, b).apply(g)
        dense = WarpMatrix.dense(np.kron(a, b)).apply(g)
        errors.append(np.abs(kron - dense))
    return CheckResult("warp.kron_vs_dense", _worst(errors), 1e-12)


def check_identity_reduction() -> CheckResult:
    rng = np.random.default_rng(13)
    w_a = rng.normal(size=8)
    w_w = w_a.copy()
    sa, sw = AdamState.zeros((8,)), AdamState.zeros((8,))
    ident = WarpMatrix.identity(8)
    h = HyperParams(eta=0.05)
    errors = []
    for _ in range(50):
        g = rng.normal(size=8)
        sa, w_a = adam_step(sa, w_a, g, h)
        sw, w_w = warpadam_step(sw, w_w, g, ident, h)
        if not np.array_equal(w_a, w_w):
            errors.append(np.abs(w_a - w_w))
    return CheckResult("warp.identity_reduction_bitwise", _worst(errors), 1e-300)


def check_tod_zero_cases() -> CheckResult:
    rng = np.random.default_rng(17)
    worst = _worst(abs(value) for value in (
        tod_penalty(WarpMatrix.identity(5), 3.0),
        tod_penalty(WarpMatrix.diagonal(rng.normal(size=4)), 2.0),
        tod_penalty(WarpMatrix.dense(rng.normal(size=(4, 4))), 0.0),
    ))
    return CheckResult("warp.tod_zero_cases", worst, 1e-300)


def check_hypergradient(perturb: float = 0.0) -> CheckResult:
    rng = np.random.default_rng(19)
    model = MLP([3, 4], rng)
    episode = Episode(support_x=rng.normal(size=(6, 3)), support_y=rng.integers(0, 4, size=6),
                      query_x=rng.normal(size=(8, 3)), query_y=rng.integers(0, 4, size=8))
    warps = [WarpMatrix.dense(np.eye(p.size) + 0.05 * rng.normal(size=(p.size, p.size)))
             for p in model.params]
    cfg = MetaConfig(inner_steps=3, inner_hyper=HyperParams(eta=0.05))
    hgs, _ = hypergrad_P(episode, model, warps, cfg)
    return CheckResult("warp.hypergradient_vs_fd",
                       _worst_vs_fd(hgs, perturb, model, warps, episode, cfg), 1e-4)


def _worst_vs_fd(hgs, perturb, model, warps, episode, cfg) -> float:
    """The largest relative error of the hypergradients ``hgs`` (plus
    ``perturb``) against finite differences of the adaptation's query loss."""
    errors = []
    for i, warp in enumerate(warps):
        def objective(flat, i=i, warp=warp):
            trial = list(warps)
            trial[i] = warp.with_params(flat)
            return adaptation_query_loss(model, trial, episode, cfg)

        fd = finite_diff_grad(objective, warp.params(), h=1e-4)
        errors.append(_rel(hgs[i] + perturb, fd))
    return _worst(errors)


def check_hypergradient_adjoint(perturb: float = 0.0) -> list[CheckResult]:
    """The full ``adjoint_hypergrad`` against finite differences of the
    adaptation's query loss and against the engine's ``hypergrad_P``: a
    hidden-layer MLP with kron, diagonal and dense warps."""
    rng = np.random.default_rng(29)
    model = MLP([4, 3, 3], rng)
    episode = Episode(support_x=rng.normal(size=(6, 4)), support_y=rng.integers(0, 3, size=6),
                      query_x=rng.normal(size=(8, 4)), query_y=rng.integers(0, 3, size=8))
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
                        _worst(_rel(a + perturb, b) for a, b in zip(hgs, engine)), 1e-10)]


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
