"""The gradient warp matrix and the meta-learning loop that trains it.

A warp is a learnable linear map applied to a parameter tensor's flattened
gradient before the optimizer's moment updates. A warp holds its form, its
dim d and a tuple of factors; four structural forms are supported:

- identity: the no-op map, no factors,
- diagonal: elementwise scaling by a d-vector,
- dense: a full d x d matrix acting on the flattened gradient,
- kron: two factors (A: r x r, B: c x c) applied to a matrix-shaped gradient
  as A @ G @ B.T, equivalent to the dense Kronecker product A (x) B acting on
  the row-major flattened gradient without ever materializing d x d.

Each form is one row of ``FORMS`` (see ``Form``). Everything else (entries,
penalty, graph leaves, checkpoints) works on the factors without naming a
form, so a new form is one new row.

Warps are learned by differentiating a query loss through K unrolled WarpAdam
steps on a support loss (the hypergradient), averaging over a task batch,
adding the gradient of the off-diagonal (TOD) penalty, and taking one Adam
step on every warp's entries at once (``meta_update_P``), in the one outer
loop, ``meta_train``. The unrolled step shares ``optim.adam_moments`` with
the array optimizer, so the graph's trajectory has ``adapt``'s bits.

A meta-learned model supplies ``params``, ``targets`` (an episode's labels,
prepared once before its first step), ``loss_grads``, ``loss_hvp`` and
``losses`` (see ``nn``). ``meta_update_P`` takes its hypergradient from
``adjoint_hypergrad``, reverse mode through the array steps by hand, with
the model's Hessian-vector product. ``hypergrad_P`` unrolls the steps as an
autodiff graph of the model's ``loss`` and differentiates it with the engine:
the oracle that the tests and ``warpadam check`` compare the adjoint with,
on no run-time path. The adjoint's first-order result has its bits, and the
full one matches it to rounding.

The meta-learning functions take an episode or a *stacked* episode: E
episodes of one geometry whose arrays carry E on axis 0 (``stack_episodes``).
A stack adapts E parameter copies side by side in one graph, and the warps,
shared by all E, receive the sum of the E per-episode hypergradients.
Each episode's losses do not depend on the stack it is in, so
``stack_within_budget`` can size the stacks of an evaluation by memory alone.

Array adaptation (``adapt``, which ``adaptation_query_loss`` runs and
which is the forward pass of ``adjoint_hypergrad``) keeps the parameters of
all tensors in one flat buffer with one Adam state, read through per-tensor
views (``_views``), so each inner step is one in-place ``optim.adam_core``
on the warped gradient (the "foreach" form of an optimizer, with the bits
of one step per tensor); only the warps act tensor by tensor, each on its
segment.
``bench.run_sequential_tasks`` steps its parameters the same way. There
each warp is resolved once (``_FlatWarp``): an identity-valued warp costs a
copy, with the product's bits, so WarpAdam at ``init_warps``'s warps costs
what Adam costs plus that copy.
``WarpMatrix.apply`` always multiplies, so the engine oracle does not
depend on that shortcut.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .optim import (AdamState, HyperParams, adam_adjoint, adam_core, adam_moments, adam_step,
                    check_field, check_step_inputs)
# unused; perfbench's tracer patches warp.warpadam_step (ROADMAP item 1)
from .optim import warpadam_step  # noqa: F401
from .tasks import Blob, Episode
from .tensor import NumericError, ShapeError, Tensor, grad


class ResourceError(RuntimeError):
    """A full hypergradient's tape would outgrow the configured budget."""


class Form(NamedTuple):
    """One structural warp form: a row of ``FORMS``.

    ``tag`` marks the form in checkpoints; ``shapes(dim, fa, fb)`` gives its
    factor shapes from a checkpoint header's dim and factor dims;
    ``apply(factors, g, lead)`` warps ``g``, one gradient or a stack of them on
    the axes ``lead``, and keeps its shape. ``apply`` uses operators only, so
    it runs on factor arrays and on graph leaves alike.
    ``factor_grads(factors, u_bar, g, lead)``, where ``lead`` is ``(T,)`` or
    ``(T, E)`` for T steps, is d<u_bar, apply(factors, g, lead)>/d(factors)
    on arrays; with T 1 it has the bits of the engine's backward of ``apply``.
    """

    tag: int
    shapes: Callable[[int, int, int], tuple[tuple[int, ...], ...]]
    apply: Callable
    factor_grads: Callable


def _kron_shapes(dim: int, fa: int, fb: int):
    if fa * fb != dim:
        raise ShapeError(f"kron factors of {fa} and {fb} rows do not act on dim {dim}")
    return (fa, fa), (fb, fb)


def _kron_apply(factors, g, lead):
    a, b = factors
    return (a @ g.reshape(lead + (a.shape[0], b.shape[0])) @ b.T).reshape(g.shape)


def _sum_to(x, shape):  # a steps axis of 1 is dropped: its np.sum would make -0.0 +0.0
    return T.sum_to(x[0] if len(x) == 1 else x, shape)


def _kron_factor_grads(factors, u_bar, g, lead):
    a, b = factors
    shape = lead + (a.shape[0], b.shape[0])
    g, u_bar = g.reshape(shape), u_bar.reshape(shape)
    a_bar = _sum_to(u_bar @ b @ g.swapaxes(-1, -2), a.shape)
    b_bar = _sum_to((a @ g).swapaxes(-1, -2) @ u_bar, b.shape).swapaxes(-1, -2)
    return a_bar, b_bar


def _diagonal_factor_grads(factors, u_bar, g, lead):
    shape = lead + factors[0].shape
    return (_sum_to(u_bar.reshape(shape) * g.reshape(shape), factors[0].shape),)


def _dense_factor_grads(factors, u_bar, g, lead):
    # the engine's matmul backward sums the stack of outer products over E in
    # episode order: one k=T product per episode, added into +0.0, is that sum
    # with matmul's signed zeros at T 1. One product over all T * E rows is not.
    d = factors[0].shape[0]
    u_bar, g = u_bar.reshape(lead[0], -1, d), g.reshape(lead[0], -1, d)
    total = np.zeros((d, d))
    for e in range(g.shape[1]):
        total += u_bar[:, e].T @ g[:, e]
    return (total,)


FORMS = {
    "identity": Form(0, lambda dim, fa, fb: (), lambda f, g, lead: g,
                     lambda f, u_bar, g, lead: ()),
    "diagonal": Form(1, lambda dim, fa, fb: ((dim,),),
                     lambda f, g, lead: (f[0] * g.reshape(lead + f[0].shape)).reshape(g.shape),
                     _diagonal_factor_grads),
    "dense": Form(  # one matrix-vector product per gradient
        2, lambda dim, fa, fb: ((dim, dim),),
        lambda f, g, lead: (f[0] @ g.reshape(lead + (f[0].shape[0], 1))).reshape(g.shape),
        _dense_factor_grads),
    "kron": Form(3, _kron_shapes, _kron_apply, _kron_factor_grads),
}
_FORM_BY_TAG = {form.tag: name for name, form in FORMS.items()}


@dataclass
class WarpMatrix:
    """One structural representation of the warp, fixed at construction.

    ``factors`` holds the form's arrays, in the shapes its ``FORMS`` row
    gives; construction checks them. Use the classmethod constructors rather
    than building instances by hand.
    """

    form: str
    dim: int
    factors: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"warp dim must be positive, got {self.dim}")
        shapes = tuple(f.shape for f in self.factors)
        want = FORMS[self.form].shapes(self.dim, *_factor_dims(self.factors))
        if shapes != want:
            raise ShapeError(f"a {self.form} warp of dim {self.dim} takes factors of shapes "
                             f"{want}, got {shapes}")

    @classmethod
    def identity(cls, dim: int) -> "WarpMatrix":
        return cls(form="identity", dim=int(dim))

    @classmethod
    def diagonal(cls, values) -> "WarpMatrix":
        values = np.array(values, dtype=np.float64).reshape(-1)
        return cls(form="diagonal", dim=values.size, factors=(values,))

    @classmethod
    def dense(cls, matrix) -> "WarpMatrix":
        matrix = np.array(matrix, dtype=np.float64, ndmin=1)
        return cls(form="dense", dim=matrix.shape[0], factors=(matrix,))

    @classmethod
    def kronecker(cls, a, b) -> "WarpMatrix":
        a, b = (np.array(f, dtype=np.float64, ndmin=1) for f in (a, b))
        return cls(form="kron", dim=a.shape[0] * b.shape[0], factors=(a, b))

    # -- application ------------------------------------------------------

    def apply(self, g, factors=None):
        """Warp a gradient, or a stack of them on axis 0; the shape is kept.

        Given ``factors`` (this warp's factors as graph leaves, from
        ``_warp_leaves``), ``g`` is a tensor and the result a graph node.
        """
        if factors is None:
            g, factors = np.asarray(g, dtype=np.float64), self.factors
        return FORMS[self.form].apply(factors, g, _stack_axes(self.dim, g.shape))

    def transposed(self) -> "WarpMatrix":
        """The warp of the transposed matrix: every factor transposed, as
        (A (x) B)^T = A^T (x) B^T."""
        return WarpMatrix(self.form, self.dim, tuple(f.T for f in self.factors))

    def materialize(self) -> np.ndarray:
        """The explicit d x d matrix (Kronecker product for the kron form)."""
        return self.apply(np.eye(self.dim)).T  # row i of the stack is P @ e_i

    # -- trainable entries --------------------------------------------------

    @property
    def n_params(self) -> int:
        return sum(f.size for f in self.factors)

    def params(self) -> np.ndarray:
        return _flat(self.factors)

    def with_params(self, flat: np.ndarray) -> "WarpMatrix":
        flat = np.array(flat, dtype=np.float64).reshape(-1)  # a copy: the warp owns its entries
        if flat.size != self.n_params:
            raise ShapeError(f"expected {self.n_params} entries for {self.form} warp, got {flat.size}")
        return WarpMatrix(self.form, self.dim, tuple(_views(flat, [f.shape for f in self.factors])))


def _flat(arrays) -> np.ndarray:
    """The arrays' entries, concatenated in row-major order (a copy)."""
    return np.concatenate([np.zeros(0)] + [a.reshape(-1) for a in arrays])


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive runs of ``flat`` (of its every row) as views shaped as ``shapes``."""
    out, pos = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[..., pos:pos + n].reshape(flat.shape[:-1] + tuple(shape)))
        pos += n
    return out


def _stack_axes(dim: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """``()`` for one gradient of a dim-``dim`` warp, ``(E,)`` for a stack of E."""
    size = math.prod(shape)
    if size == dim:
        return ()
    if shape and size == shape[0] * dim:
        return shape[:1]
    raise ShapeError(f"warp of dim {dim} applied to gradient of shape {shape}: "
                     f"size {size} is neither {dim} nor a stack of {dim}-sized gradients")


def tod_penalty(warp: WarpMatrix, lam: float) -> float:
    """Off-diagonal energy penalty: lam * sum of squared off-diagonal entries.

    Square factors are penalized off their diagonal; vector factors have no
    off-diagonal part, so identity and diagonal warps cost nothing. The kron
    form is penalized factor-wise, which has the same zero set as penalizing
    the materialized product: A (x) B is diagonal iff both factors are.
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be non-negative, got {lam}")
    if lam == 0.0:
        return 0.0
    offs = map(_off_diagonal, warp.factors)
    return lam * sum((float(np.sum(off * off)) for off in offs), 0.0)


def _off_diagonal(f: np.ndarray) -> np.ndarray:
    """A square factor's off-diagonal part; zeros for a vector factor."""
    return f - np.diag(np.diag(f)) if f.ndim == 2 else np.zeros_like(f)


def tod_penalty_grad(warp: WarpMatrix, lam: float) -> np.ndarray:
    """d(tod_penalty)/d(entries), aligned with ``WarpMatrix.params()``."""
    return _flat(2.0 * lam * _off_diagonal(f) for f in warp.factors)


@dataclass(frozen=True)
class MetaConfig:
    """Inner/outer loop hyperparameters for warp training.

    ``cut`` is the first inner step that the hypergradient differentiates
    (Shaban et al. 2019's truncation point): 1, or K with ``first_order``.
    ``adapt`` tapes from it and both hypergradients stop at it, so another
    truncation point is another value of ``cut`` alone.
    ``node_budget`` caps the float64 entries that the tape of a full (not
    first-order) ``adjoint_hypergrad`` of one task batch may hold: a slab of
    five planes ``(w, g, m, v, P g)``, each a row of stacked parameters per
    step, so ``5 * inner_steps * tasks * parameters``. An oversized tape stops
    with ``ResourceError`` before the first inner step. A first-order
    hypergradient tapes one step and is not capped.
    ``outer_steps`` and ``eval_every`` shape ``meta_train``'s loop: the outer
    steps it takes and the steps between two held-out evaluations;
    ``eval_episodes`` is the held-out episodes ``meta-train`` samples for it.
    """

    inner_steps: int = 5
    inner_hyper: HyperParams = field(default_factory=HyperParams)
    outer_eta: float = 1e-3
    tod_lambda: float = 1e-3
    first_order: bool = False
    tasks_per_outer_step: int = 4
    node_budget: int = 500_000
    outer_steps: int = 200
    eval_episodes: int = 20
    eval_every: int = 10

    def __post_init__(self):
        check_field(self, "inner_steps", self.inner_steps >= 1, "must be >= 1")
        check_field(self, "outer_eta", self.outer_eta > 0, "must be positive")
        check_field(self, "tod_lambda", self.tod_lambda >= 0, "must be non-negative")
        check_field(self, "tasks_per_outer_step", self.tasks_per_outer_step >= 1, "must be >= 1")
        check_field(self, "node_budget", self.node_budget >= 1, "must be positive")
        check_field(self, "outer_steps", self.outer_steps >= 0, "must be >= 0")
        check_field(self, "eval_episodes", self.eval_episodes >= 1, "must be >= 1")
        check_field(self, "eval_every", self.eval_every >= 1, "must be >= 1")

    @property
    def cut(self) -> int:
        return self.inner_steps if self.first_order else 1


DENSE_MAX = 256  # the most entries of a tensor that the ``auto`` policy warps densely


def init_warps(shapes: Sequence[tuple[int, ...]], policy: str = "auto") -> list[WarpMatrix]:
    """Warps for ``shapes``, every factor an identity (ones or an identity
    matrix): fresh meta-training starts at Adam. Each tensor takes the form
    ``policy`` names where that form fits it, and ``auto``'s form otherwise:
    dense for a small tensor (d <= DENSE_MAX entries in total), Kronecker
    factors for a larger matrix and diagonal otherwise. Only kron can fail to
    fit: ``kron`` leaves each tensor that is not a matrix to ``auto``."""
    if policy != "auto" and policy not in FORMS:
        raise ValueError(f"unknown warp policy {policy!r}")
    warps = []
    for shape in shapes:
        d, matrix = int(math.prod(shape)), len(shape) == 2
        form = (policy if policy != "auto" and (matrix or policy != "kron")
                else "dense" if d <= DENSE_MAX else "kron" if matrix else "diagonal")
        rows, cols = shape if matrix else (0, 0)
        factors = tuple(np.ones(s) if len(s) == 1 else np.eye(s[0])
                        for s in FORMS[form].shapes(d, rows, cols))
        warps.append(WarpMatrix(form, d, factors))
    return warps


# ---------------------------------------------------------------------------
# the unrolled, differentiable path


def _warp_leaves(warp: WarpMatrix) -> tuple[Tensor, ...]:
    """The warp's factors as graph leaves, for ``WarpMatrix.apply``."""
    return tuple(Tensor(f, requires_grad=True) for f in warp.factors)


def _adam_graph_step(w, m, v, warped, t: int, h: HyperParams):
    """Differentiable Adam step ``t`` on ``warped``, ``P g``: ``(w', m', v')`` as nodes.

    The graph twin of ``optim.adam_core``, which WarpAdam runs on ``P g``. It
    computes the array step's values bit for bit. Where ``v_hat + epsilon``
    is 0 (only with epsilon 0 and an all-zero warped gradient history) the
    ratio is the constant 0, as in the array step, and ``sqrt`` sees 1
    there, so its backward stays finite; those entries are masked only when
    there are any, so other graphs are unchanged.
    """
    m, v, m_hat, v_hat = adam_moments(m, v, warped, t, h)
    radicand = v_hat + h.epsilon
    zero = radicand.data == 0
    if zero.any():
        m_hat, radicand = m_hat * ~zero, radicand + zero
    return w - m_hat / T.sqrt(radicand) * h.eta, m, v


def _unrolled_warpadam(model, episode, warps: Sequence[WarpMatrix],
                       leaves: list[tuple[Tensor, ...]], steps: int, cut: int,
                       h: HyperParams) -> list[Tensor]:
    """``steps`` differentiable WarpAdam updates on the support loss, from
    ``_start_arrays``; the parameters after them, as graph nodes.

    Each step takes the gradient of the sum of the per-episode support
    losses of ``model.loss``. The steps up to ``cut`` start from the
    parameters as fresh leaves and the moments as constants, and take that
    gradient as a constant, as no warp reaches those leaves; the steps after
    ``cut`` take it with ``create_graph``. So the warps reach the result
    through steps ``cut`` to ``steps``: ``cut`` 1 unrolls every step,
    ``cut`` ``steps`` keeps only the last.
    """
    ws = [Tensor(a) for a in _start_arrays(model, episode)]
    ms = [Tensor(np.zeros(w.shape)) for w in ws]
    vs = list(ms)
    for k in range(1, steps + 1):
        if k <= cut:
            ws = [Tensor(w.data, requires_grad=True) for w in ws]
            ms, vs = [Tensor(m.data) for m in ms], [Tensor(v.data) for v in vs]
        loss = T.tsum(model.loss(ws, episode.support_x, episode.support_y))
        gs = grad(loss, ws, create_graph=k > cut)
        for i, g in enumerate(gs):
            ws[i], ms[i], vs[i] = _adam_graph_step(ws[i], ms[i], vs[i],
                                                   warps[i].apply(g, leaves[i]), k, h)
    return ws


def stack_episodes(episodes: Sequence[Episode]) -> Episode:
    """E episodes of one geometry (the shapes of their four arrays) as one
    episode whose arrays carry E on axis 0."""
    if len(episodes) == 0:
        raise ValueError("need at least one episode to stack")

    shapes = [tuple(map(np.shape, ep)) for ep in episodes]
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise ShapeError(f"episode {i} has array shapes {shape}, episode 0 has "
                             f"{shapes[0]}; only episodes of one geometry stack")
    return Episode(*map(np.stack, zip(*episodes)))


# The float64 entries (128 KiB) that one flat array of a stack's parameters
# (``adapt``'s w, g, m and v, and the temporaries of its steps) may hold, so
# that the memory an evaluation takes is bounded by a constant.
STACK_ENTRY_BUDGET = 16384


def stack_within_budget(episodes: Sequence[Episode], n_params: int,
                        min_stack: int) -> list[Episode]:
    """The episodes, in order, as stacks of ``max(min_stack,
    STACK_ENTRY_BUDGET // n_params)`` (the last may be shorter).

    So a model of ``n_params`` parameters gets as many episodes per stack as
    keep its stacked copy within the budget, and never fewer than
    ``min_stack``. No stack is empty.
    """
    size = max(min_stack, STACK_ENTRY_BUDGET // n_params)
    return [stack_episodes(episodes[start:start + size])
            for start in range(0, len(episodes), size)]


def _stack_lead(episode) -> tuple[int, ...]:
    """``()`` for a plain episode, ``(E,)`` for a stack of E."""
    return np.shape(episode.support_x)[:-2]


def _start_arrays(model, episode) -> list[np.ndarray]:
    """Copies of the model's parameters, one per episode of a stack."""
    lead = _stack_lead(episode)
    return [np.broadcast_to(p, lead + p.shape).copy() for p in model.params]


def _per_episode(losses: np.ndarray):
    """A float for a plain episode's loss, the array of E losses for a stack."""
    return float(losses) if losses.ndim == 0 else losses


def _is_identity(factor: np.ndarray) -> bool:
    """Whether a factor is a vector of ones or an identity matrix."""
    if factor.ndim == 1:
        return bool(np.all(factor == 1.0))
    return bool(np.all(np.diagonal(factor) == 1.0)) and np.count_nonzero(factor) == len(factor)


def _segment_apply(warp: WarpMatrix, shape: tuple[int, ...]):
    """``apply(g, out)``: the warp of a tensor of ``shape`` (plain or stacked),
    from the tensor's flat segment ``g`` into its flat segment ``out``.

    A warp whose factors are all identities needs no product. Its result has
    the product's bits: a product by an identity matrix (dense, or a kron
    factor) turns -0.0 into +0.0, as adding 0.0 does, and a product by ones
    (diagonal) keeps every bit, as a copy does.
    """
    if all(map(_is_identity, warp.factors)):
        if any(f.ndim == 2 for f in warp.factors):
            return lambda g, out: np.add(g, 0.0, out=out)
        return lambda g, out: np.copyto(out, g)
    form_apply, factors, lead = FORMS[warp.form].apply, warp.factors, _stack_axes(warp.dim, shape)

    def product(g, out):
        out.reshape(shape)[...] = form_apply(factors, g.reshape(shape), lead)
    return product


class _FlatWarp:
    """The warps of an adaptation as one warp of its flat buffer (see ``adapt``).

    ``shapes`` are the tensors' shapes in the buffer, each starting with the
    stack axes ``lead``. Construction checks that each warp fits its tensor:
    its dim is the tensor's size, and a warp of two factors (kron) acts on a
    matrix of their rows. It then resolves each warp once into the function
    that applies it to its segment (``_segment_apply``): an identity-valued
    warp, such as every warp of ``init_warps``, costs a copy. ``apply`` warps
    each tensor's segment, in the tensor's plain or stacked shape, with that
    tensor's warp, into the same segment of a new flat array, with the bits
    of ``WarpMatrix.apply``.
    """

    def __init__(self, warps: Sequence[WarpMatrix], shapes, lead: tuple[int, ...] = ()):
        if len(warps) != len(shapes):
            raise ShapeError(f"{len(warps)} warps for {len(shapes)} parameter tensors")
        for i, (warp, shape) in enumerate(zip(warps, shapes)):
            shape, rows = tuple(shape[len(lead):]), _factor_dims(warp.factors)
            if warp.dim != math.prod(shape) or rows not in ((0, 0), shape):
                of_rows = f", factors of {rows[0]} and {rows[1]} rows" if rows != (0, 0) else ""
                raise ShapeError(f"warp {i} ({warp.form}, dim {warp.dim}{of_rows}) does not fit "
                                 f"parameter tensor {i} of shape {shape}")
        self.warps, self.shapes, self.lead = warps, shapes, lead
        ends = [0, *accumulate(math.prod(shape) for shape in shapes)]
        self.size = ends[-1]
        self._segments = [(slice(start, end), _segment_apply(warp, tuple(shape)))
                          for start, end, warp, shape in zip(ends, ends[1:], warps, shapes)]

    def apply(self, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``g`` warped segment by segment, into ``out`` (a new array without it)."""
        if g.shape != (self.size,):
            raise ShapeError(f"flat warp of {self.size} entries applied to shape {g.shape}")
        if out is None:
            out = np.empty_like(g)
        for segment, apply in self._segments:
            apply(g[segment], out[segment])
        return out

    def factor_grads(self, u_bar: np.ndarray, g: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Each warp's form rule, once, on its segments of (T, size) planes."""
        lead = u_bar.shape[:1] + self.lead
        return [FORMS[warp.form].factor_grads(warp.factors, ub, seg, lead) for warp, ub, seg in
                zip(self.warps, _views(u_bar, self.shapes), _views(g, self.shapes))]


def _episode_warp(model, warps: Sequence[WarpMatrix], episode) -> _FlatWarp:
    """The warps resolved once for ``adapt`` on ``episode``: one ``_FlatWarp``
    over the model's parameters in the episode's plain or stacked shapes. A
    warp that does not fit its tensor raises ``ShapeError``."""
    lead = _stack_lead(episode)
    return _FlatWarp(warps, [lead + np.shape(p) for p in model.params], lead)


def adapt(model, warp: _FlatWarp, episode, cfg: MetaConfig,
          tape=None) -> tuple[list[np.ndarray], list]:
    """``cfg.inner_steps`` array WarpAdam steps, with ``cfg.inner_hyper``, on
    the support loss, warped by ``warp`` (``_episode_warp``); the adapted
    parameters, and the forward records of the taped steps after ``cut``.

    The parameters of all tensors live in one flat buffer with one
    ``AdamState`` over it, and each inner step is one in-place ``adam_core``
    over every tensor, on the gradient that ``warp`` warped. The adapted
    parameters are per-tensor views of that buffer, in their plain or stacked
    shapes: for a stacked episode every array carries one adapted copy per
    episode on axis 0.

    Given a ``tape`` (a ``(5, K - cut + 1, warp.size)`` array), step ``t``
    from ``cfg.cut`` on writes its flat ``(w, g, m, v, P g)`` into row
    ``t - cut`` of the five planes, allocating nothing: the parameters it
    started from, the gradient there, the moments it left, and the warped
    gradient that its moments took, which the warp writes there.

    The gradients come from ``model.loss_grads``, on the support labels
    prepared once by ``model.targets``. The forward record that it returns at
    the start of each taped step after ``cut`` is kept, in step order, for
    that step's Hessian product in ``adjoint_hypergrad``; without a tape the
    list is empty.
    """
    support_y = model.targets(episode.support_y)
    w = _flat(np.broadcast_to(p, shape) for p, shape in zip(model.params, warp.shapes))
    arrays, state, forwards = _views(w, warp.shapes), AdamState.zeros(w.shape), []
    for t in range(1, cfg.inner_steps + 1):
        _, grads, forward = model.loss_grads(arrays, episode.support_x, support_y)
        g = _flat(grads)
        check_step_inputs(state, w, g)
        rows = tape[:, t - cfg.cut] if tape is not None and t >= cfg.cut else None
        if rows is not None:
            rows[0], rows[1] = w, g
            if t > cfg.cut:
                forwards.append(forward)
        adam_core(state, w, warp.apply(g, None if rows is None else rows[4]), cfg.inner_hyper)
        if rows is not None:
            rows[2], rows[3] = state.m, state.v
    return arrays, forwards


def _check_model(model) -> None:
    """``TypeError`` naming the first of a meta-learned model's methods it lacks."""
    for name in ("params", "targets", "loss_grads", "loss_hvp", "losses"):
        if not hasattr(model, name):
            raise TypeError(f"{type(model).__name__} has no {name}: a meta-learned model "
                            "supplies params, targets, loss_grads, loss_hvp and losses")


def _check_episode(episode) -> None:
    if np.size(episode.support_y) == 0 or np.size(episode.query_y) == 0:
        raise ValueError("episode needs non-empty support and query sets")


def hypergrad_P(episode, model, warps: Sequence[WarpMatrix],
                cfg: MetaConfig) -> tuple[list[np.ndarray], float | np.ndarray]:
    """d(query loss after K inner WarpAdam steps) / d(warp entries), and that loss.

    Returns ``(hypergradients, losses)``: one flat array per warp, and the
    query losses the graph differentiated, which are ``adaptation_query_loss``'s
    values bit for bit (a float for an episode, the E losses for a stack).

    This is the autodiff engine's hypergradient: the oracle that
    ``adjoint_hypergrad`` is tested against, on no run-time path. It takes
    only ``params`` and ``loss`` from the model, so it runs none of the code
    it checks, and the model is never mutated. ``_unrolled_warpadam`` runs
    the K steps in the engine, and the graph keeps those from ``cfg.cut`` on:
    every step (``cut`` 1), or for first order only the last (``cut`` K), so
    that only its direct dependence on the warps counts. The engine walks
    every node an output reaches, so each step of the full unroll walks the
    graph of the steps before it, and its cost grows with K squared. For a
    stacked episode the graph root is the sum of the E query losses, so the
    hypergradient is the sum of the E per-episode hypergradients. No budget
    caps it.
    """
    _check_episode(episode)
    _episode_warp(model, warps, episode)  # raises on a warp that does not fit
    leaves = [_warp_leaves(w) for w in warps]
    ws = _unrolled_warpadam(model, episode, warps, leaves, cfg.inner_steps, cfg.cut,
                            cfg.inner_hyper)
    losses = model.loss(ws, episode.query_x, episode.query_y)
    leaf_grads = iter(grad(T.tsum(losses), [leaf for factors in leaves for leaf in factors]))
    return ([_flat(next(leaf_grads).data for _ in factors) for factors in leaves],
            _per_episode(losses.data))


def adjoint_hypergrad(episode, model, warps: Sequence[WarpMatrix],
                      cfg: MetaConfig) -> tuple[list[np.ndarray], float | np.ndarray]:
    """``hypergrad_P``'s hypergradients and losses, by reverse mode on arrays.

    The model supplies ``params``, ``targets``, ``loss_grads``, ``loss_hvp``
    and ``losses``; one that lacks any of them raises ``TypeError`` naming it.
    The labels go through ``targets`` and the warps are resolved, with their
    transpose, once, before the first step. The forward pass is
    ``adapt`` with one tape slab; the backward pass walks the steps from the
    last: ``optim.adam_adjoint`` gives the adjoint ``u_bar`` of the taped
    warped gradient ``P g``, the parameters' adjoint gains ``H(w) P^T u_bar``
    (the transposed warp, and ``loss_hvp``'s Hessian product on the forward
    record that ``adapt`` kept; Maclaurin et al. 2015, Pearlmutter 1994), and
    ``u_bar`` overwrites the spent ``w``. Each warp's ``factor_grads`` of
    ``<u_bar, P g>`` over all steps is then one contraction of the ``w`` and
    ``g`` planes. The walk stops at step ``cfg.cut``, whose start parameters
    count as independent of the warps, so Hessian products are taken only
    after ``cut``. With ``cut`` before the last step, a tape over
    ``cfg.node_budget`` float64 entries raises ``ResourceError`` before the
    first step. First order (``cut`` K) has the bits of ``hypergrad_P``'s
    result; the full result matches it to rounding.
    """
    _check_model(model)
    _check_episode(episode)
    episode = episode._replace(support_y=model.targets(episode.support_y),
                               query_y=model.targets(episode.query_y))
    h, steps, cut = cfg.inner_hyper, cfg.inner_steps, cfg.cut
    warp = _episode_warp(model, warps, episode)
    shape = (5, steps - cut + 1, warp.size)  # (w, g, m, v, P g) planes of a row per taped step
    if cut < steps and math.prod(shape) > cfg.node_budget:
        raise ResourceError(f"adjoint tape would hold {math.prod(shape)} float64 entries, over "
                            f"the budget of {cfg.node_budget}; reduce meta.inner_steps, set "
                            "meta.first_order=true or raise meta.node_budget")
    warp_t = _FlatWarp([w.transposed() for w in warps], warp.shapes, warp.lead)
    tape = np.empty(shape)
    arrays, forwards = adapt(model, warp, episode, cfg, tape)
    losses, query_grads, _ = model.loss_grads(arrays, episode.query_x, episode.query_y)
    w_bar, m_bar, v_bar = _flat(query_grads), 0.0, 0.0
    for t, (w, g, m, v, warped) in zip(range(steps, cut - 1, -1), tape.swapaxes(0, 1)[::-1]):
        u_bar, m_bar, v_bar = adam_adjoint(w_bar, m_bar, v_bar, warped, m, v, t, h)
        if t > cut:
            g_bar = _views(warp_t.apply(u_bar), warp.shapes)
            w_bar = w_bar + _flat(model.loss_hvp(_views(w, warp.shapes), forwards[t - cut - 1],
                                                 g_bar))
        w[...] = u_bar
    return [_flat(factors) for factors in warp.factor_grads(tape[0], tape[1])], _per_episode(losses)


def adaptation_query_loss(model, warps: Sequence[WarpMatrix], episode, cfg: MetaConfig):
    """Query loss after K inner steps (the meta-objective, minus the penalty).

    A float for an episode; for a stacked episode, the array of its E losses.
    The losses are ``model.losses``: the values of ``loss_grads``, from the
    forward pass alone, as no gradient of the query loss is needed. The model
    supplies the methods ``adjoint_hypergrad`` names; the query labels go
    through ``targets`` before the first step.
    """
    _check_model(model)
    query_y = model.targets(episode.query_y)
    arrays = adapt(model, _episode_warp(model, warps, episode), episode, cfg)[0]
    return _per_episode(model.losses(arrays, episode.query_x, query_y))


def meta_update_P(warps: Sequence[WarpMatrix], task_batch, model, cfg: MetaConfig,
                  outer_state: AdamState):
    """One outer step: averaged hypergradient + penalty gradient, Adam on entries.

    ``outer_state`` is one Adam state over every warp's entries, back to back
    in warp order (``AdamState.zeros(sum(w.n_params for w in warps))`` to
    start); one of another size raises ``ShapeError``. Adam is elementwise,
    so one step over them all has the bits of one step per warp.

    Returns ``(warps, state, losses)``: the updated warps and outer Adam
    state, and the batch's E query losses after adaptation with the warps
    as given (the hypergradient's losses, so ``adaptation_query_loss``'s bits).
    The batch is stacked into one episode and differentiated at once, so the
    warps receive the sum of the per-task hypergradients. Its summation order
    differs from adding per-task results, so the full hypergradient can differ
    from that sum in the last bits; the first-order one does not. The
    hypergradient is ``adjoint_hypergrad``'s, so the model supplies
    ``params``, ``targets``, ``loss_grads``, ``loss_hvp`` and ``losses``. Structural
    forms are preserved; a warp without entries (the identity form) takes an
    empty step and comes back equal. The new warps' factors are views of the
    one array of stepped entries, which shares no memory with the inputs.
    """
    if len(task_batch) == 0:
        raise ValueError("task batch must be non-empty")

    totals, losses = adjoint_hypergrad(stack_episodes(task_batch), model, warps, cfg)
    factors = [f for warp in warps for f in warp.factors]
    entries = _flat(factors)
    g = _flat(total / len(task_batch) + tod_penalty_grad(warp, cfg.tod_lambda)
              for warp, total in zip(warps, totals))
    state, entries = adam_step(outer_state, entries, g, HyperParams(eta=cfg.outer_eta))
    views = iter(_views(entries, [f.shape for f in factors]))
    new_warps = [WarpMatrix(warp.form, warp.dim, tuple(next(views) for _ in warp.factors))
                 for warp in warps]
    return new_warps, state, losses


def held_out_losses(model, warps: Sequence[WarpMatrix], stacks, cfg: MetaConfig) -> np.ndarray:
    """The query losses of the held-out ``stacks`` (``stack_within_budget``),
    one per episode in order, each ``adaptation_query_loss``'s bits."""
    return _flat(adaptation_query_loss(model, warps, stack, cfg) for stack in stacks)


def meta_train(model, warps: Sequence[WarpMatrix], cfg: MetaConfig,
               next_batch: Callable[[], Sequence[Episode]], held_out: Sequence[Episode]):
    """``cfg.outer_steps`` steps of ``meta_update_P`` from ``warps`` and a fresh
    outer Adam state, on the batches ``next_batch()`` returns. The mean query
    loss of ``held_out`` (stacked once, NaN without episodes) is taken before
    every ``cfg.eval_every``-th step and after the last. Returns ``(rows,
    warps, note)``: ``meta_curve.csv``'s rows, the last finite warps, and
    ``None`` or the divergence (a ``NumericError`` or a non-finite batch loss)
    that ended the loop.
    """
    stacks = stack_within_budget(held_out, sum(p.size for p in model.params),
                                 cfg.tasks_per_outer_step)
    del held_out  # the stacks hold copies: the episodes are freed if the caller keeps none
    state = AdamState.zeros(sum(w.n_params for w in warps))

    def evaluate(current):
        return float(np.mean(held_out_losses(model, current, stacks, cfg))) if stacks else np.nan

    def tod(current):
        return sum(tod_penalty(w, cfg.tod_lambda) for w in current)

    rows, note = [], None
    try:  # overflow is caught by the checks that raise NumericError, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(cfg.outer_steps):
                batch = next_batch()
                held = evaluate(warps) if t % cfg.eval_every == 0 else np.nan
                # the batch loss is the one the hypergradient's own adaptation reached
                new_warps, new_state, losses = meta_update_P(warps, batch, model, cfg, state)
                batch_loss = float(np.mean(losses))
                rows.append((t, batch_loss, tod(warps), held))
                if not np.isfinite(batch_loss):
                    raise NumericError("non-finite meta objective")
                warps, state = new_warps, new_state
            t = cfg.outer_steps
            rows.append((t, np.nan, tod(warps), evaluate(warps)))
    except NumericError as exc:
        note = f"{exc} at outer step {t}"
    return rows, warps, note


# ---------------------------------------------------------------------------
# checkpoint format: magic "WARP", u32 version, u32 count, then per matrix
# u8 form tag, u64 dim, u64 factor dims (two, zero when unused), entries as
# little-endian float64. Round-trips bit-exactly.

_MAGIC = b"WARP"
_VERSION = 1


def _factor_dims(factors) -> tuple[int, int]:
    """The header's two factor dims: zero when ``dim`` alone fixes the factor
    shapes (fewer than two factors), else each factor's last axis."""
    return (0, 0) if len(factors) < 2 else tuple(f.shape[-1] for f in factors)


def save_warps(path, warps: Sequence[WarpMatrix]) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(warps)))
        for w in warps:
            f.write(struct.pack("<BQQQ", FORMS[w.form].tag, w.dim, *_factor_dims(w.factors)))
            f.write(w.params().astype("<f8").tobytes())


def load_warps(path) -> list[WarpMatrix]:
    """The warps of a checkpoint file, read by ``tasks.Blob``."""
    blob = Blob(path, "warp checkpoint", _MAGIC, _VERSION)
    count = blob.uint(4, "file header")
    warps = []
    for i in range(count):
        tag, dim, fa, fb = (blob.uint(n, f"warp {i}: header") for n in (1, 8, 8, 8))
        if (form := _FORM_BY_TAG.get(tag)) is None:
            raise blob.bad(f"warp {i}: unknown form tag {tag}")
        try:  # the reader's own errors are not ShapeErrors, so none is named twice
            shapes = FORMS[form].shapes(dim, fa, fb)
            entries = blob.floats(sum(math.prod(shape) for shape in shapes), f"warp {i}")
            warps.append(WarpMatrix(form, dim, tuple(_views(entries, shapes))))
            if _factor_dims(warps[-1].factors) != (fa, fb):
                raise ShapeError(f"factor dims {fa}, {fb} do not fit the {form} form")
        except ShapeError as exc:
            raise blob.bad(f"warp {i}: {exc}") from None
    blob.end(f"{count} warps")
    return warps
