"""The gradient warp matrix and the meta-learning loop that trains it.

A warp is a learnable linear map applied to a parameter tensor's flattened
gradient before the optimizer's moment updates. Four structural forms are
supported:

- identity: the no-op map (zero trainable entries),
- diagonal: elementwise scaling (d entries),
- dense: a full d x d matrix acting on the flattened gradient,
- kron: two factors (A: r x r, B: c x c) applied to a matrix-shaped gradient
  as A @ G @ B.T, equivalent to the dense Kronecker product A (x) B acting on
  the row-major flattened gradient without ever materializing d x d.

Warps are learned by differentiating a query loss through K unrolled WarpAdam
steps on a support loss (the hypergradient), averaging over a task batch,
adding the gradient of the off-diagonal (TOD) penalty, and taking one Adam
step on the warp's entries.

The meta-learning functions take an episode or a *stacked* episode: E
episodes of one geometry whose arrays carry E on axis 0 (``stack_episodes``).
A stack adapts E parameter copies side by side in one graph, and the warps,
shared by all E, receive the sum of the E per-episode hypergradients.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .optim import AdamState, HyperParams, adam_step, warpadam_step
from .tasks import Episode
from .tensor import ShapeError, Tensor, grad

FORMS = ("identity", "diagonal", "dense", "kron")
_FORM_TAGS = {name: tag for tag, name in enumerate(FORMS)}


class ResourceError(RuntimeError):
    """An unrolled graph outgrew the configured node budget."""


@dataclass
class WarpMatrix:
    """One structural representation of the warp, fixed at construction.

    ``entries`` holds the diagonal vector or the dense matrix; Kronecker
    factors live in ``factor_a``/``factor_b``. Use the classmethod
    constructors rather than building instances by hand.
    """

    form: str
    dim: int
    entries: np.ndarray | None = None
    factor_a: np.ndarray | None = None
    factor_b: np.ndarray | None = None

    @classmethod
    def identity(cls, dim: int) -> "WarpMatrix":
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        return cls(form="identity", dim=int(dim))

    @classmethod
    def diagonal(cls, values) -> "WarpMatrix":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size < 1:
            raise ValueError("diagonal warp needs at least one entry")
        return cls(form="diagonal", dim=values.size, entries=values.copy())

    @classmethod
    def dense(cls, matrix) -> "WarpMatrix":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"dense warp must be square, got {matrix.shape}")
        return cls(form="dense", dim=matrix.shape[0], entries=matrix.copy())

    @classmethod
    def kronecker(cls, a, b) -> "WarpMatrix":
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        for name, f in (("A", a), ("B", b)):
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ShapeError(f"kron factor {name} must be square, got {f.shape}")
        return cls(form="kron", dim=a.shape[0] * b.shape[0],
                   factor_a=a.copy(), factor_b=b.copy())

    # -- application ------------------------------------------------------

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Transform a gradient array, or a stack of them on axis 0; shape is kept."""
        g = np.asarray(g, dtype=np.float64)
        lead = _stack_axes(self.dim, g.shape)
        if self.form == "identity":
            return g
        flat = g.reshape(lead + (self.dim,))
        if self.form == "diagonal":
            out = self.entries * flat
        elif self.form == "dense":
            out = self.entries @ flat[..., None]  # one matrix-vector product per gradient
        else:
            a, b = self.factor_a, self.factor_b
            out = a @ flat.reshape(lead + (a.shape[0], b.shape[0])) @ b.T
        return out.reshape(g.shape)

    def materialize(self) -> np.ndarray:
        """The explicit d x d matrix (Kronecker product for the kron form)."""
        if self.form == "identity":
            return np.eye(self.dim)
        if self.form == "diagonal":
            return np.diag(self.entries)
        if self.form == "dense":
            return self.entries.copy()
        return np.kron(self.factor_a, self.factor_b)

    # -- trainable entries --------------------------------------------------

    @property
    def n_params(self) -> int:
        if self.form == "identity":
            return 0
        if self.form == "diagonal":
            return self.dim
        if self.form == "dense":
            return self.dim * self.dim
        return self.factor_a.size + self.factor_b.size

    def params(self) -> np.ndarray:
        if self.form == "identity":
            return np.zeros(0)
        if self.form in ("diagonal", "dense"):
            return self.entries.reshape(-1).copy()
        return np.concatenate([self.factor_a.reshape(-1), self.factor_b.reshape(-1)])

    def with_params(self, flat: np.ndarray) -> "WarpMatrix":
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        if flat.size != self.n_params:
            raise ShapeError(f"expected {self.n_params} entries for {self.form} warp, got {flat.size}")
        if self.form == "identity":
            return WarpMatrix.identity(self.dim)
        if self.form == "diagonal":
            return WarpMatrix.diagonal(flat)
        if self.form == "dense":
            return WarpMatrix.dense(flat.reshape(self.dim, self.dim))
        na = self.factor_a.shape[0]
        nb = self.factor_b.shape[0]
        return WarpMatrix.kronecker(flat[: na * na].reshape(na, na),
                                    flat[na * na:].reshape(nb, nb))


def _stack_axes(dim: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """``()`` for one gradient of a dim-``dim`` warp, ``(E,)`` for a stack of E."""
    size = math.prod(shape)
    if size == dim:
        return ()
    if shape and size == shape[0] * dim:
        return shape[:1]
    raise ShapeError(f"warp of dim {dim} applied to gradient of shape {shape}: "
                     f"size {size} is neither {dim} nor a stack of {dim}-sized gradients")


def warp_apply(warp: WarpMatrix, g: np.ndarray) -> np.ndarray:
    """Apply the warp to a gradient under its structural form."""
    return warp.apply(g)


def tod_penalty(warp: WarpMatrix, lam: float) -> float:
    """Off-diagonal energy penalty: lam * sum of squared off-diagonal entries.

    Identity and diagonal forms have none by construction. The kron form is
    penalized factor-wise, which has the same zero set as penalizing the
    materialized product: A (x) B is diagonal iff both factors are.
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be non-negative, got {lam}")
    if lam == 0.0 or warp.form in ("identity", "diagonal"):
        return 0.0
    if warp.form == "dense":
        return lam * _offdiag_sq(warp.entries)
    return lam * (_offdiag_sq(warp.factor_a) + _offdiag_sq(warp.factor_b))


def _offdiag_sq(m: np.ndarray) -> float:
    off = m - np.diag(np.diag(m))
    return float(np.sum(off * off))


def tod_penalty_grad(warp: WarpMatrix, lam: float) -> np.ndarray:
    """d(tod_penalty)/d(entries), aligned with ``WarpMatrix.params()``."""
    if warp.form in ("identity", "diagonal"):
        return np.zeros(warp.n_params)
    if warp.form == "dense":
        off = warp.entries - np.diag(np.diag(warp.entries))
        return (2.0 * lam * off).reshape(-1)
    ga = 2.0 * lam * (warp.factor_a - np.diag(np.diag(warp.factor_a)))
    gb = 2.0 * lam * (warp.factor_b - np.diag(np.diag(warp.factor_b)))
    return np.concatenate([ga.reshape(-1), gb.reshape(-1)])


@dataclass(frozen=True)
class MetaConfig:
    """Inner/outer loop hyperparameters for warp training.

    ``node_budget`` caps the tensors the full (not first-order) unroll may
    create: graph nodes, the backward nodes of each inner ``grad`` and
    constants. One unroll serves a whole task batch (the episodes are
    stacked), so the budget counts one batch's unroll, whose node count does
    not grow with ``tasks_per_outer_step``. It is checked after every inner
    step, so an oversized unroll stops with ``ResourceError`` before its next
    step is built.
    """

    inner_steps: int = 5
    inner_hyper: HyperParams = field(default_factory=HyperParams)
    outer_eta: float = 1e-3
    tod_lambda: float = 1e-3
    first_order: bool = False
    tasks_per_outer_step: int = 4
    node_budget: int = 500_000

    def __post_init__(self):
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if not self.outer_eta > 0:
            raise ValueError(f"outer_eta must be positive, got {self.outer_eta}")
        if self.tod_lambda < 0:
            raise ValueError(f"tod_lambda must be non-negative, got {self.tod_lambda}")
        if self.tasks_per_outer_step < 1:
            raise ValueError(f"tasks_per_outer_step must be >= 1, got {self.tasks_per_outer_step}")
        if self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")


def init_warps(shapes: Sequence[tuple[int, ...]], policy: str = "auto",
               dense_max: int = 256) -> list[WarpMatrix]:
    """Identity-valued warps for a list of parameter shapes.

    ``auto`` picks dense for small tensors (d <= dense_max), Kronecker factors
    for larger matrix-shaped tensors, and diagonal otherwise. Every form
    starts as an exact identity, so fresh meta-training begins at vanilla
    Adam behavior.
    """
    warps = []
    for shape in shapes:
        d = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if policy == "identity":
            warps.append(WarpMatrix.identity(d))
        elif policy == "diagonal":
            warps.append(WarpMatrix.diagonal(np.ones(d)))
        elif policy == "dense":
            warps.append(WarpMatrix.dense(np.eye(d)))
        elif policy == "kron":
            if len(shape) != 2:
                raise ValueError(f"kron policy needs matrix-shaped tensors, got shape {shape}")
            warps.append(WarpMatrix.kronecker(np.eye(shape[0]), np.eye(shape[1])))
        elif policy == "auto":
            if d <= dense_max:
                warps.append(WarpMatrix.dense(np.eye(d)))
            elif len(shape) == 2:
                warps.append(WarpMatrix.kronecker(np.eye(shape[0]), np.eye(shape[1])))
            else:
                warps.append(WarpMatrix.diagonal(np.ones(d)))
        else:
            raise ValueError(f"unknown warp policy {policy!r}")
    return warps


# ---------------------------------------------------------------------------
# graph-side application (the unrolled, differentiable path)


def _warp_leaves(warp: WarpMatrix) -> tuple[Tensor, ...]:
    if warp.form == "identity":
        return ()
    if warp.form in ("diagonal", "dense"):
        return (Tensor(warp.entries, requires_grad=True),)
    return (Tensor(warp.factor_a, requires_grad=True),
            Tensor(warp.factor_b, requires_grad=True))


def _apply_leaves(warp: WarpMatrix, leaves: tuple[Tensor, ...], g: Tensor) -> Tensor:
    """Graph-side ``WarpMatrix.apply``: ``g`` may be a stack on axis 0."""
    lead = _stack_axes(warp.dim, g.shape)
    if warp.form == "identity":
        return g
    if warp.form == "diagonal":
        out = T.mul(leaves[0], T.reshape(g, lead + (warp.dim,)))
    elif warp.form == "dense":
        out = T.matmul(leaves[0], T.reshape(g, lead + (warp.dim, 1)))
    else:
        a, b = leaves
        gm = T.reshape(g, lead + (warp.factor_a.shape[0], warp.factor_b.shape[0]))
        out = T.matmul(T.matmul(a, gm), T.transpose(b))
    return T.reshape(out, g.shape)


def _pack_leaf_grads(warp: WarpMatrix, leaf_grads: list[Tensor]) -> np.ndarray:
    if warp.form == "identity":
        return np.zeros(0)
    if warp.form in ("diagonal", "dense"):
        return leaf_grads[0].data.reshape(-1).copy()
    return np.concatenate([leaf_grads[0].data.reshape(-1), leaf_grads[1].data.reshape(-1)])


def _unrolled_warpadam(params: list[Tensor], warps: Sequence[WarpMatrix],
                       leaves_per_warp: list[tuple[Tensor, ...]], model, episode,
                       steps: int, h: HyperParams, node_budget: int) -> list[Tensor]:
    """Run ``steps`` differentiable WarpAdam updates on the support loss.

    ``params`` are stacked like ``episode``; each step differentiates the sum
    of the per-episode support losses. Raises ``ResourceError`` as soon as the
    tensors created since the unroll began exceed ``node_budget``, before the
    next step is built.
    """
    start = T.creation_mark()
    ms = [Tensor(np.zeros(p.shape)) for p in params]
    vs = [Tensor(np.zeros(p.shape)) for p in params]
    ws = list(params)
    for k in range(1, steps + 1):
        loss = T.tsum(model.loss(ws, episode.support_x, episode.support_y))
        gs = grad(loss, ws, create_graph=True)
        c1 = 1.0 - h.beta1 ** k
        c2 = 1.0 - h.beta2 ** k
        for i, (w, g) in enumerate(zip(ws, gs)):
            gw = _apply_leaves(warps[i], leaves_per_warp[i], g)
            ms[i] = T.add(T.mul(ms[i], h.beta1), T.mul(gw, 1.0 - h.beta1))
            vs[i] = T.add(T.mul(vs[i], h.beta2), T.mul(T.mul(gw, gw), 1.0 - h.beta2))
            m_hat = T.mul(ms[i], 1.0 / c1)
            v_hat = T.mul(vs[i], 1.0 / c2)
            update = T.div(m_hat, T.sqrt(T.add(v_hat, h.epsilon)))
            ws[i] = T.sub(w, T.mul(update, h.eta))
        created = T.creation_mark() - start - k  # each mark takes an index too
        if created > node_budget:
            raise ResourceError(
                f"unrolled graph created {created} tensors in {k} of {steps} inner steps, "
                f"over the budget of {node_budget}; reduce inner_steps or set first_order=True")
    return ws


def stack_episodes(episodes: Sequence[Episode]) -> Episode:
    """E episodes of one geometry as one episode whose arrays carry E on axis 0."""
    if len(episodes) == 0:
        raise ValueError("need at least one episode to stack")

    def geometry(ep):
        return (np.shape(ep.support_x), np.shape(ep.support_y), np.shape(ep.query_x),
                np.shape(ep.query_y), ep.n_way, ep.k_shot)

    first = geometry(episodes[0])
    for i, ep in enumerate(episodes):
        if geometry(ep) != first:
            raise ShapeError(f"episode {i} has geometry {geometry(ep)}, episode 0 has {first}; "
                             "only episodes of one geometry stack")
    return Episode(
        support_x=np.stack([ep.support_x for ep in episodes]),
        support_y=np.stack([ep.support_y for ep in episodes]),
        query_x=np.stack([ep.query_x for ep in episodes]),
        query_y=np.stack([ep.query_y for ep in episodes]),
        n_way=episodes[0].n_way, k_shot=episodes[0].k_shot,
        task_id="+".join(ep.task_id for ep in episodes),
    )


def _start_arrays(model, episode) -> list[np.ndarray]:
    """Copies of the model's parameters, one per episode of a stack."""
    lead = np.shape(episode.support_x)[:-2]
    return [np.broadcast_to(p, lead + p.shape).copy() for p in model.params]


def _detached_grads(model, param_arrays: list[np.ndarray], x, y) -> list[np.ndarray]:
    params = [Tensor(p, requires_grad=True) for p in param_arrays]
    loss = T.tsum(model.loss(params, x, y))
    return [g.data for g in grad(loss, params)]


def _adapt(model, warps: Sequence[WarpMatrix], episode, steps: int, h: HyperParams):
    """``steps`` array WarpAdam steps on the support loss; the arrays and their states."""
    arrays = _start_arrays(model, episode)
    states = [AdamState.zeros(a.shape) for a in arrays]
    for _ in range(steps):
        gs = _detached_grads(model, arrays, episode.support_x, episode.support_y)
        for i in range(len(arrays)):
            states[i], arrays[i] = warpadam_step(states[i], arrays[i], gs[i], warps[i], h)
    return arrays, states


def hypergrad_P(episode, model, warps: Sequence[WarpMatrix],
                cfg: MetaConfig) -> list[np.ndarray]:
    """d(query loss after K inner WarpAdam steps) / d(warp entries).

    The model is never mutated: its parameters are cloned into the graph as
    differentiation roots. With ``cfg.first_order`` the first K-1 steps run
    detached and only the final step's direct dependence on the warp is kept;
    otherwise the full trajectory is unrolled and differentiated. For a
    stacked episode the graph root is the sum of the E query losses, so the
    result is the sum of the E per-episode hypergradients.
    """
    if len(warps) != len(model.params):
        raise ShapeError(f"{len(warps)} warps for {len(model.params)} parameter tensors")
    if np.size(episode.support_y) == 0 or np.size(episode.query_y) == 0:
        raise ValueError("episode needs non-empty support and query sets")
    for w, p in zip(warps, model.params):
        if w.dim != p.size:
            raise ShapeError(f"warp dim {w.dim} does not match parameter size {p.size}")

    leaves_per_warp = [_warp_leaves(w) for w in warps]
    h = cfg.inner_hyper

    if cfg.first_order:
        arrays, states = _adapt(model, warps, episode, cfg.inner_steps - 1, h)
        gs = _detached_grads(model, arrays, episode.support_x, episode.support_y)
        k = cfg.inner_steps
        c1 = 1.0 - h.beta1 ** k
        c2 = 1.0 - h.beta2 ** k
        ws = []
        for i, (arr, st) in enumerate(zip(arrays, states)):
            gw = _apply_leaves(warps[i], leaves_per_warp[i], Tensor(gs[i]))
            m = T.add(T.mul(Tensor(st.m), h.beta1), T.mul(gw, 1.0 - h.beta1))
            v = T.add(T.mul(Tensor(st.v), h.beta2), T.mul(T.mul(gw, gw), 1.0 - h.beta2))
            update = T.div(T.mul(m, 1.0 / c1), T.sqrt(T.add(T.mul(v, 1.0 / c2), h.epsilon)))
            ws.append(T.sub(Tensor(arr), T.mul(update, h.eta)))
    else:
        params = [Tensor(a, requires_grad=True) for a in _start_arrays(model, episode)]
        ws = _unrolled_warpadam(params, warps, leaves_per_warp, model, episode,
                                cfg.inner_steps, h, cfg.node_budget)
    query_loss = T.tsum(model.loss(ws, episode.query_x, episode.query_y))

    all_leaves = [leaf for leaves in leaves_per_warp for leaf in leaves]
    leaf_grads = grad(query_loss, all_leaves)
    out = []
    pos = 0
    for warp, leaves in zip(warps, leaves_per_warp):
        out.append(_pack_leaf_grads(warp, leaf_grads[pos:pos + len(leaves)]))
        pos += len(leaves)
    return out


def adapt(model, warps: Sequence[WarpMatrix], episode, cfg: MetaConfig) -> list[np.ndarray]:
    """K plain (non-differentiable) inner WarpAdam steps; returns adapted params.

    For a stacked episode every array carries one adapted copy per episode on
    axis 0.
    """
    return _adapt(model, warps, episode, cfg.inner_steps, cfg.inner_hyper)[0]


def adaptation_query_loss(model, warps: Sequence[WarpMatrix], episode, cfg: MetaConfig):
    """Query loss after K inner steps (the meta-objective, minus the penalty).

    A float for an episode; for a stacked episode, the array of its E losses.
    """
    arrays = adapt(model, warps, episode, cfg)
    losses = model.loss([Tensor(a) for a in arrays], episode.query_x, episode.query_y).data
    return float(losses) if losses.ndim == 0 else losses


def meta_update_P(warps: Sequence[WarpMatrix], task_batch, model, cfg: MetaConfig,
                  outer_states: Sequence[AdamState]):
    """One outer step: averaged hypergradient + penalty gradient, Adam on entries.

    The batch is stacked into one episode and differentiated as one graph, so
    the warps receive the sum of the per-task hypergradients from that graph's
    backward pass. Its summation order differs from adding per-task results,
    so the full hypergradient can differ from that sum in the last bits; the
    first-order one does not. Structural forms are preserved; the identity
    form has no entries and is returned unchanged.
    """
    if len(task_batch) == 0:
        raise ValueError("task batch must be non-empty")
    if len(outer_states) != len(warps):
        raise ShapeError(f"{len(outer_states)} outer states for {len(warps)} warps")

    totals = hypergrad_P(stack_episodes(task_batch), model, warps, cfg)
    outer_hyper = HyperParams(eta=cfg.outer_eta)

    new_warps: list[WarpMatrix] = []
    new_states: list[AdamState] = []
    for warp, state, total in zip(warps, outer_states, totals):
        if warp.n_params == 0:
            new_warps.append(warp)
            new_states.append(state)
            continue
        g = total / len(task_batch) + tod_penalty_grad(warp, cfg.tod_lambda)
        state2, flat = adam_step(state, warp.params(), g, outer_hyper)
        new_warps.append(warp.with_params(flat))
        new_states.append(state2)
    return new_warps, new_states


# ---------------------------------------------------------------------------
# checkpoint format: magic "WARP", u32 version, u32 count, then per matrix
# u8 form tag, u64 dim, u64 factor dims (two, zero when unused), entries as
# little-endian float64. Round-trips bit-exactly.

_MAGIC = b"WARP"
_VERSION = 1


def save_warps(path, warps: Sequence[WarpMatrix]) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(warps)))
        for w in warps:
            fa = w.factor_a.shape[0] if w.factor_a is not None else 0
            fb = w.factor_b.shape[0] if w.factor_b is not None else 0
            f.write(struct.pack("<BQQQ", _FORM_TAGS[w.form], w.dim, fa, fb))
            entries = w.params()
            f.write(entries.astype("<f8").tobytes())


def load_warps(path) -> list[WarpMatrix]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"not a warp checkpoint (bad magic) in {path}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported warp checkpoint version {version} in {path}")
    offset = 12
    warps = []
    for _ in range(count):
        tag, dim, fa, fb = struct.unpack_from("<BQQQ", blob, offset)
        offset += 25
        form = FORMS[tag] if tag < len(FORMS) else None
        if form is None:
            raise ValueError(f"unknown warp form tag {tag} in {path}")
        if form == "identity":
            n = 0
        elif form == "diagonal":
            n = dim
        elif form == "dense":
            n = dim * dim
        else:
            n = fa * fa + fb * fb
        entries = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).astype(np.float64)
        offset += n * 8
        if form == "identity":
            warps.append(WarpMatrix.identity(dim))
        elif form == "diagonal":
            warps.append(WarpMatrix.diagonal(entries))
        elif form == "dense":
            warps.append(WarpMatrix.dense(entries.reshape(dim, dim)))
        else:
            if fa * fb != dim:
                raise ValueError(f"inconsistent kron dims {fa}x{fb} != {dim} in {path}")
            warps.append(WarpMatrix.kronecker(entries[: fa * fa].reshape(fa, fa),
                                              entries[fa * fa:].reshape(fb, fb)))
    return warps
