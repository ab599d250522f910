"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
measured margins. Each criterion asserts its stated tolerance and runtime
budget.
"""

import time

import numpy as np
import pytest

import warpadam.tensor as T
from warpadam.bench import read_curve_csv
from warpadam.cli import main
from warpadam.nn import MLP
from warpadam.optim import (
    AdamState,
    HyperParams,
    adam_step,
    radam_rectifier,
    radam_rho,
    warpadam_step,
)
from warpadam.tasks import sample_episode, synth_proto_tasks
from warpadam.tensor import Tensor, finite_diff_grad, grad
from warpadam.warp import (
    MetaConfig,
    WarpMatrix,
    adaptation_query_loss,
    hypergrad_P,
    init_warps,
    meta_train,
)

from conftest import rel_err


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def done(self) -> float:
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s over budget {self.seconds}s"
        return elapsed


def fixed_episode(seed=0, n=6, dim=8, classes=5, queries=10):
    rng = np.random.default_rng(seed)
    table = synth_proto_tasks(2, classes, max(queries + 2, 12), dim, 0.2, rng)
    return table, sample_episode(table, classes, 1, queries, rng)


def support_grads(model, arrays, x, y):
    params = [Tensor(a, requires_grad=True) for a in arrays]
    return [g.data for g in grad(model.loss(params, x, y), params)]


def test_a1_reduction_identity():
    budget = Budget(5)
    rng = np.random.default_rng(0)
    _, ep = fixed_episode()
    model = MLP([8, 16, 5], rng)  # 2-layer MLP
    h = HyperParams(eta=0.01)

    w_adam = model.clone_params()
    w_warp = model.clone_params()
    s_adam = [AdamState.zeros(p.shape) for p in model.params]
    s_warp = [AdamState.zeros(p.shape) for p in model.params]
    warps = [WarpMatrix.identity(p.size) for p in model.params]

    for step in range(100):
        g_a = support_grads(model, w_adam, ep.support_x, ep.support_y)
        g_w = support_grads(model, w_warp, ep.support_x, ep.support_y)
        for i in range(len(w_adam)):
            assert np.array_equal(g_a[i], g_w[i])
            s_adam[i], w_adam[i] = adam_step(s_adam[i], w_adam[i], g_a[i], h)
            s_warp[i], w_warp[i] = warpadam_step(s_warp[i], w_warp[i], g_w[i], warps[i], h)
            assert np.array_equal(w_adam[i], w_warp[i]), f"step {step}, tensor {i}"
    elapsed = budget.done()
    print(f"\nA1 PASS: 100 steps bit-identical (Adam vs WarpAdam@identity), {elapsed:.2f}s")


def test_a2_diagonal_scale_degeneracy():
    budget = Budget(5)
    rng = np.random.default_rng(1)
    _, ep = fixed_episode(seed=1)
    model = MLP([8, 16, 5], rng)
    h = HyperParams(eta=0.01, epsilon=0.0)
    warps = [WarpMatrix.diagonal(rng.uniform(0.1, 10.0, size=p.size)) for p in model.params]

    w_adam = model.clone_params()
    w_warp = model.clone_params()
    s_adam = [AdamState.zeros(p.shape) for p in model.params]
    s_warp = [AdamState.zeros(p.shape) for p in model.params]

    worst = 0.0
    for _ in range(50):
        g_a = support_grads(model, w_adam, ep.support_x, ep.support_y)
        g_w = support_grads(model, w_warp, ep.support_x, ep.support_y)
        for i in range(len(w_adam)):
            s_adam[i], w_adam[i] = adam_step(s_adam[i], w_adam[i], g_a[i], h)
            s_warp[i], w_warp[i] = warpadam_step(s_warp[i], w_warp[i], g_w[i], warps[i], h)
            worst = max(worst, rel_err(w_warp[i], w_adam[i]))
    assert worst < 1e-10
    elapsed = budget.done()
    print(f"\nA2 PASS: diagonal positive scaling cancels, worst rel err {worst:.2e} "
          f"(tol 1e-10), {elapsed:.2f}s")


def test_a3_gradient_oracle():
    budget = Budget(30)
    rng = np.random.default_rng(2)
    const4x2 = Tensor(rng.normal(size=(4, 2)))
    weights3x4 = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)))  # non-uniform: softmax rows sum to 1
    labels = np.array([0, 2, 1])
    cases = [
        ("add", (3, 2), lambda x: T.tsum(T.mul(T.add(x, 0.3), T.add(x, 0.3)))),
        ("sub", (3, 2), lambda x: T.tsum(T.mul(T.sub(x, 0.2), T.sub(x, 0.2)))),
        ("mul", (4,), lambda x: T.tsum(T.mul(x, T.mul(x, 0.5)))),
        ("div", (4,), lambda x: T.tsum(T.div(x, T.add(T.mul(x, x), 2.0)))),
        ("neg", (4,), lambda x: T.tsum(T.mul(T.neg(x), x))),
        ("matmul", (3, 4), lambda x: T.tsum(T.matmul(x, const4x2))),
        ("transpose", (3, 4), lambda x: T.tsum(T.mul(T.transpose(x), T.transpose(x)))),
        ("reshape", (2, 3), lambda x: T.tsum(T.mul(T.reshape(x, (6,)), T.reshape(x, (6,))))),
        ("broadcast", (3,), lambda x: T.tsum(T.mul(T.broadcast_to(x, (4, 3)), 0.7))),
        ("sum", (4, 3), lambda x: T.tsum(T.mul(T.tsum(x, axis=0), T.tsum(x, axis=0)))),
        ("tanh", (5,), lambda x: T.tsum(T.tanh(x))),
        ("sqrt", (5,), lambda x: T.tsum(T.sqrt(T.add(T.mul(x, x), 0.5)))),
        ("softmax", (3, 4), lambda x: T.tsum(T.mul(T.softmax(x, axis=1), weights3x4))),
        ("softmax_ce", (3, 4), lambda x: T.softmax_cross_entropy(x, labels)),
    ]
    worst_overall = 0.0
    for name, shape, build in cases:
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=shape)
            xt = Tensor(x, requires_grad=True)
            (g,) = grad(build(xt), [xt])
            fd = finite_diff_grad(lambda v: build(Tensor(v)).item(), x, h=1e-5)
            worst = max(worst, rel_err(g.data, fd))
        assert worst < 1e-5, f"{name}: worst rel err {worst}"
        worst_overall = max(worst_overall, worst)

    # full 2-layer MLP cross-entropy gradient
    model = MLP([4, 6, 3], rng)  # 51 parameters
    worst_mlp = 0.0
    for _ in range(100):
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        flat0 = np.concatenate([rng.uniform(-1, 1, size=p.size) for p in model.params])

        def loss_of_flat(flat):
            arrays, pos = [], 0
            for p in model.params:
                arrays.append(flat[pos:pos + p.size].reshape(p.shape))
                pos += p.size
            return model.loss([Tensor(a) for a in arrays], x, y).item()

        arrays, pos = [], 0
        for p in model.params:
            arrays.append(flat0[pos:pos + p.size].reshape(p.shape))
            pos += p.size
        params = [Tensor(a, requires_grad=True) for a in arrays]
        gs = grad(model.loss(params, x, y), params)
        analytic = np.concatenate([g.data.reshape(-1) for g in gs])
        fd = finite_diff_grad(loss_of_flat, flat0, h=1e-5)
        worst_mlp = max(worst_mlp, rel_err(analytic, fd))
    assert worst_mlp < 1e-5
    elapsed = budget.done()
    print(f"\nA3 PASS: 17 primitives + full MLP loss vs finite differences, "
          f"worst rel err {max(worst_overall, worst_mlp):.2e} (tol 1e-5), {elapsed:.1f}s")


def test_a4_hypergradient_oracle():
    budget = Budget(60)
    rng = np.random.default_rng(3)
    model = MLP([4, 3], rng)  # 15 parameters <= 50
    n_params = sum(p.size for p in model.params)
    assert n_params <= 50
    table = synth_proto_tasks(1, 3, 12, 4, 0.3, rng)
    episode = sample_episode(table, 3, 1, 4, rng)
    warps = [WarpMatrix.dense(np.eye(p.size) + 0.05 * rng.normal(size=(p.size, p.size)))
             for p in model.params]
    cfg = MetaConfig(inner_steps=5, inner_hyper=HyperParams(eta=0.05))
    assert cfg.inner_steps <= 5

    hgs, _ = hypergrad_P(episode, model, warps, cfg)
    worst = 0.0
    for i, warp in enumerate(warps):
        def objective(flat, i=i, warp=warp):
            trial = list(warps)
            trial[i] = warp.with_params(flat)
            return adaptation_query_loss(model, trial, episode, cfg)

        fd = finite_diff_grad(objective, warp.params(), h=1e-4)
        worst = max(worst, rel_err(hgs[i], fd))
    assert worst < 1e-4
    elapsed = budget.done()
    print(f"\nA4 PASS: full-unroll hypergradient vs finite differences over "
          f"{sum(w.n_params for w in warps)} warp entries, worst rel err {worst:.2e} "
          f"(tol 1e-4), {elapsed:.1f}s")


def _a5_run_seed(seed, outer_steps=200):
    rng = np.random.default_rng(seed)
    table = synth_proto_tasks(10, 5, 20, 8, 0.5, rng)
    names = table.alphabet_names()
    train_t, eval_t = table.restricted(names[:8]), table.restricted(names[8:])
    model = MLP([8, 3], rng)
    cfg = MetaConfig(inner_steps=5, inner_hyper=HyperParams(eta=0.1, epsilon=0.1),
                     outer_eta=3e-3, tod_lambda=1e-3, tasks_per_outer_step=4,
                     outer_steps=outer_steps, eval_every=outer_steps)
    warps = init_warps([p.shape for p in model.params], "dense")

    eval_rng = np.random.default_rng(seed + 10_000)
    eval_set = [sample_episode(eval_t, 3, 1, 10, eval_rng) for _ in range(40)]
    # the held-out loss at the identity warps (row 0) and at the learned ones (the last row)
    rows, _, note = meta_train(model, warps, cfg,
                               lambda: [sample_episode(train_t, 3, 1, 10, rng) for _ in range(4)],
                               eval_set)
    assert note is None, note
    return rows[0][3], rows[-1][3]


def test_a5_meta_learning_efficacy():
    budget = Budget(600)
    wins = 0
    margins = []
    for seed in range(10):
        baseline, learned = _a5_run_seed(seed)
        wins += learned <= baseline
        margins.append(baseline - learned)
    assert wins >= 8, f"learned warp beat identity in only {wins}/10 seeds"
    elapsed = budget.done()
    print(f"\nA5 PASS: learned warp <= identity baseline in {wins}/10 seeds "
          f"(mean margin {np.mean(margins):+.4f} nats), {elapsed:.0f}s")


def _offdiag_norm(warps):
    total = 0.0
    for w in warps:
        off = w.factors[0] - np.diag(np.diag(w.factors[0]))
        total += float(np.sum(off * off))
    return float(np.sqrt(total))


def test_a6_tod_effect():
    budget = Budget(600)

    def train_with_lambda(lam, seed=0, outer_steps=100):
        rng = np.random.default_rng(seed)
        table = synth_proto_tasks(10, 5, 20, 8, 0.5, rng)
        names = table.alphabet_names()
        train_t = table.restricted(names[:8])
        model = MLP([8, 3], rng)
        cfg = MetaConfig(inner_steps=5, inner_hyper=HyperParams(eta=0.1, epsilon=0.1),
                         outer_eta=3e-3, tod_lambda=lam, tasks_per_outer_step=4,
                         outer_steps=outer_steps)
        warps = init_warps([p.shape for p in model.params], "dense")
        _, warps, note = meta_train(
            model, warps, cfg, lambda: [sample_episode(train_t, 3, 1, 10, rng) for _ in range(4)],
            [])
        assert note is None, note
        return _offdiag_norm(warps)

    norms = [train_with_lambda(lam) for lam in (0.0, 1e-3, 1e-1)]
    assert norms[0] >= norms[1] >= norms[2], f"off-diagonal norms not non-increasing: {norms}"
    elapsed = budget.done()
    print(f"\nA6 PASS: off-diagonal Frobenius norm non-increasing over the lambda sweep "
          f"{[f'{n:.4f}' for n in norms]}, {elapsed:.0f}s")


def test_a7_kronecker_equivalence():
    budget = Budget(5)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2))
        g = rng.normal(size=6)
        kron = WarpMatrix.kronecker(a, b).apply(g)
        dense = WarpMatrix.dense(np.kron(a, b)).apply(g)
        worst = max(worst, float(np.max(np.abs(kron - dense))))
    assert worst < 1e-12
    elapsed = budget.done()
    print(f"\nA7 PASS: Kronecker apply == dense Kronecker product, worst abs err "
          f"{worst:.2e} (tol 1e-12), {elapsed:.2f}s")


def test_a8_radam_rectification():
    budget = Budget(1)
    rho_inf, rho_1 = radam_rho(1, 0.999)
    assert rho_inf == pytest.approx(1999.0)
    assert rho_1 == pytest.approx(1.0, abs=1e-9)
    assert rho_1 <= 4.0  # un-rectified branch at t=1
    # the un-rectified branch really takes the plain momentum step
    g = np.array([0.4, -0.2])
    h = HyperParams(eta=0.1, beta2=0.999)
    from warpadam.optim import radam_step
    _, w1 = radam_step(AdamState.zeros((2,)), np.zeros(2), g, h)
    assert rel_err(w1, -h.eta * g) < 1e-12

    rho_inf_l, rho_large = radam_rho(100_000, 0.999)
    assert abs(rho_large - 1999.0) < 1e-6
    assert abs(radam_rectifier(rho_large, rho_inf_l) - 1.0) < 1e-6
    elapsed = budget.done()
    print(f"\nA8 PASS: rho_1={rho_1:.12f} (un-rectified), rho_t->rho_inf=1999 and "
          f"r_t->1 within 1e-6, {elapsed:.3f}s")


A9_CONFIG = """
run.n_tasks=3
run.steps_per_task=20
run.eval_every=10
run.seed=9
hyper.eta=0.02
model.hidden=8
compare.optimizers=sgd,momentum,radam,adamw,warpadam
tasks.synth.alphabets=3
tasks.synth.classes=6
tasks.synth.instances=15
tasks.synth.dim=10
tasks.synth.noise=0.15
tasks.n_way=4
tasks.k_shot=2
tasks.query_per_class=5
tasks2.synth.alphabets=3
tasks2.synth.classes=5
tasks2.synth.instances=15
tasks2.synth.dim=8
tasks2.synth.noise=0.05
tasks2.n_way=3
tasks2.k_shot=2
tasks2.query_per_class=5
"""


def test_a9_table_shape_reproduction(tmp_path):
    budget = Budget(600)
    cfg_path = tmp_path / "cmp.txt"
    cfg_path.write_text(A9_CONFIG)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0

    text = (out / "compare.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "algorithm,training_time_s,convergence_epochs,validation_accuracy_pct"
    data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(data) == 10  # 5 optimizers x 2 blocks
    names = [ln.split(",")[0] for ln in data]
    assert names == ["sgd", "momentum", "radam", "adamw", "warpadam"] * 2
    assert all(len(ln.split(",")) == 4 for ln in data)
    assert len(text.split("\n\n")) == 2  # two blocks
    footer = [ln for ln in lines if ln.startswith("#")]
    assert any("79.6" in ln for ln in footer)  # reference values quoted, not asserted
    assert any("99.2" in ln for ln in footer)
    assert any("not asserted" in ln for ln in footer)
    elapsed = budget.done()
    print(f"\nA9 PASS: two-block comparison CSV with exact columns plus reference "
          f"footer, {elapsed:.1f}s")


RUN_CONFIG = """
run.optimizer=warpadam
run.n_tasks=2
run.steps_per_task=10
run.eval_every=5
run.seed=13
hyper.eta=0.05
model.hidden=6
tasks.synth.alphabets=2
tasks.synth.classes=5
tasks.synth.instances=12
tasks.synth.dim=8
tasks.synth.noise=0.1
tasks.n_way=3
tasks.k_shot=2
tasks.query_per_class=3
"""

META_CONFIG = """
run.seed=17
model.hidden=0
meta.inner_steps=3
meta.outer_steps=6
meta.outer_eta=0.003
meta.tasks_per_outer_step=2
meta.eval_episodes=4
meta.eval_every=3
inner.eta=0.1
inner.epsilon=0.1
tasks.synth.alphabets=4
tasks.synth.classes=4
tasks.synth.instances=10
tasks.synth.dim=6
tasks.synth.noise=0.4
tasks.n_way=3
tasks.k_shot=1
tasks.query_per_class=3
tasks.train_alphabets=alpha00,alpha01,alpha02
tasks.eval_alphabets=alpha03
"""


def _strip_wall(records):
    return [(r.task_index, r.step, r.train_loss, r.train_acc, r.val_loss, r.val_acc)
            for r in records]


def test_a10_determinism_from_manifest(tmp_path):
    budget = Budget(120)
    # run: re-running from the emitted manifest reproduces the curve exactly
    cfg = tmp_path / "run.txt"
    cfg.write_text(RUN_CONFIG)
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfg), "--out", str(o1)]) == 0
    assert main(["run", "--config", str(o1 / "manifest.txt"), "--out", str(o2)]) == 0
    r1 = read_curve_csv(o1 / "curve.csv")
    r2 = read_curve_csv(o2 / "curve.csv")
    assert _strip_wall(r1) == _strip_wall(r2)

    # meta-train: checkpoint and curve are bit-identical under the same manifest
    mcfg = tmp_path / "meta.txt"
    mcfg.write_text(META_CONFIG)
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["meta-train", "--config", str(mcfg), "--out", str(m1)]) == 0
    assert main(["meta-train", "--config", str(m1 / "manifest.txt"), "--out", str(m2)]) == 0
    assert (m1 / "warps.bin").read_bytes() == (m2 / "warps.bin").read_bytes()
    assert (m1 / "meta_curve.csv").read_bytes() == (m2 / "meta_curve.csv").read_bytes()
    # manifests agree on everything but their own output locations
    keep = lambda text: sorted(ln for ln in text.splitlines() if not ln.startswith("out="))
    assert keep((m1 / "manifest.txt").read_text()) == keep((m2 / "manifest.txt").read_text())
    elapsed = budget.done()
    print(f"\nA10 PASS: run and meta-train reproduce bit-identically from their "
          f"manifests (wall_ms excepted), {elapsed:.1f}s")
