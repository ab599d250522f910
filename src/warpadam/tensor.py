"""Dense float64 tensors with a reverse-mode automatic differentiation graph.

The primitive set is the minimal closure needed for multi-layer perceptrons
and unrolled optimizer updates: matmul, elementwise arithmetic with scalar and
numpy-style broadcasting, tanh, relu, sqrt, softmax / softmax-cross-entropy,
mean-squared-error, reshape, transpose, and sum/mean reductions.

``matmul``, ``transpose`` and ``softmax_cross_entropy`` act on the last two
axes and carry any leading axes along, so a stack of E independent problems
(E episodes of a task batch) runs as one graph. ``matmul`` broadcasts a 2-D
operand over the other's leading axes; its backward reduces with the inverse
of broadcasting, so a shared operand receives the sum over the stack.

Backward rules are written in terms of the public primitives, so the vector-
Jacobian products are graph nodes too and can be differentiated again. That is
what lets a query loss be differentiated with respect to a warp matrix that
acted on gradients *inside* earlier optimizer steps.

Everything is 64-bit; gradient-check tolerances throughout the test suite
assume it. Rank-0 tensors are allowed and behave as 1-element tensors.

The engine is the oracle: the tests and ``warpadam check`` compare every
fast path (``nn.MLP.loss_grads`` and ``loss_hvp``, ``warp.adjoint_hypergrad``)
with it, and no run-time path calls it. So it stays plain: ``grad`` walks
every node the output reaches, and a backward rule that needs its op's output
computes it again from the inputs. Graphs hold no reference cycles, so they
are freed by reference counting as soon as the last tensor of a graph is
dropped. Graphs are built and walked single-threaded.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """A value that must be finite is NaN or infinite."""


class Tensor:
    """A float64 array plus its position in an autodiff graph.

    ``requires_grad`` marks tensors that participate in differentiation; it
    propagates through operations, so a node requires grad iff some ancestor
    leaf does. Operations never mutate operands.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_bwd", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _bwd=None, _op=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = _parents
        self._bwd: Callable | None = _bwd
        self._op = _op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = f" op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # operator sugar; everything funnels into the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    @property
    def T(self):
        return transpose(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
    """Create an op output; it joins the graph only if some input requires grad."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _bwd=bwd, _op=op)
    return Tensor(data)


def sum_to(t, shape: tuple[int, ...]):
    """Reduce a broadcast result back to ``shape`` (the inverse of broadcasting).

    ``t`` is a tensor or an array; the same reductions run on either.
    """
    if t.shape == shape:
        return t
    extra = t.ndim - len(shape)
    if extra > 0:
        t = t.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (have, want) in enumerate(zip(t.shape, shape)) if want == 1 and have != 1)
    if axes:
        t = t.sum(axis=axes, keepdims=True)
    if t.shape != shape:
        t = t.reshape(shape)
    return t


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return sum_to(g, a.shape), sum_to(g, b.shape)

    return _node(a.data + b.data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return sum_to(g, a.shape), sum_to(neg(g), b.shape)

    return _node(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return sum_to(mul(g, b), a.shape), sum_to(mul(g, a), b.shape)

    return _node(a.data * b.data, (a, b), bwd, "mul")


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):  # no gradient for a constant operand, such as a bias correction
        ga = sum_to(div(g, b), a.shape) if a.requires_grad else None
        gb = sum_to(neg(div(mul(g, a), mul(b, b))), b.shape) if b.requires_grad else None
        return ga, gb

    return _node(a.data / b.data, (a, b), bwd, "div")


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        return (neg(g),)

    return _node(-a.data, (a,), bwd, "neg")


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs operands of at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul leading axes do not broadcast: {a.shape} @ {b.shape}") from None

    def bwd(g):
        return (sum_to(matmul(g, transpose(b)), a.shape),
                sum_to(matmul(transpose(a), g), b.shape))

    return _node(out, (a, b), bwd, "matmul")


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose needs an operand of at least 2-D, got {a.shape}")

    def bwd(g):
        return (transpose(g),)

    return _node(a.data.swapaxes(-1, -2), (a,), bwd, "transpose")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} (size {a.size}) to {shape}")

    def bwd(g):
        return (reshape(g, a.shape),)

    return _node(a.data.reshape(shape), (a,), bwd, "reshape")


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        return (sum_to(g, a.shape),)

    return _node(np.broadcast_to(a.data, shape).copy(), (a,), bwd, "broadcast")


def _normalize_axis(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim if ndim else 0 for a in axis)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    out = a.data.sum(axis=axes if a.ndim else None, keepdims=keepdims)
    kept = tuple(1 if i in axes else s for i, s in enumerate(a.shape))

    def bwd(g):
        gg = g if keepdims or not a.ndim else reshape(g, kept)
        return (broadcast_to(gg, a.shape),)

    return _node(out, (a,), bwd, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axis(axis, a.ndim)
    n = int(np.prod([a.shape[i] for i in axes], dtype=np.int64)) if a.ndim else 1
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def tanh(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):  # the output again: holding the node would be a reference cycle
        out = tanh(a)
        return (mul(g, sub(1.0, mul(out, out))),)

    return _node(np.tanh(a.data), (a,), bwd, "tanh")


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = Tensor((a.data > 0).astype(np.float64))

    def bwd(g):
        return (mul(g, mask),)

    return _node(np.maximum(a.data, 0.0), (a,), bwd, "relu")


def sqrt(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        return (div(g, mul(sqrt(a), 2.0)),)

    return _node(np.sqrt(a.data), (a,), bwd, "sqrt")


def _softmax_data(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        out = softmax(a, axis)
        inner = tsum(mul(g, out), axis=axis, keepdims=True)
        return (mul(out, sub(g, broadcast_to(inner, out.shape))),)

    return _node(_softmax_data(a.data, axis), (a,), bwd, "softmax")


def _cross_entropy_data(logits: np.ndarray, labels) -> np.ndarray:
    """``softmax_cross_entropy``'s checked forward on arrays: the per-index means."""
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise ShapeError(f"logits must be (..., batch, classes), got {logits.shape}")
    c = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels must have shape {logits.shape[:-1]}, got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels out of range [0, {c})")
    rows, cols = np.arange(labels.size), labels.reshape(-1).astype(np.int64)

    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted.reshape(-1, c)[rows, cols].reshape(labels.shape)
    return np.mean(lse - picked, axis=-1)


def _one_hot(labels, c: int) -> np.ndarray:
    """The rows of the c x c identity that ``labels`` pick, shaped ``labels.shape + (c,)``."""
    return np.eye(c)[np.asarray(labels).astype(np.int64)]


def softmax_cross_entropy_grad(logits: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """``softmax_cross_entropy`` of an array, and the gradient of its sum.

    The array twin of the primitive and of its backward rule under a unit
    upstream gradient: the same numpy operations in the same order, so both
    results carry the bits the graph would give.
    """
    ce = _cross_entropy_data(logits, labels)
    onehot = _one_hot(labels, logits.shape[-1])
    return ce, (1.0 / logits.shape[-2]) * (_softmax_data(logits, -1) - onehot)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) over the last axis against integer labels.

    ``logits`` is ``(..., n, c)`` and ``labels`` ``(..., n)``; the result holds
    one mean over the n rows for each leading index (a scalar for 2-D logits).
    """
    logits = _as_tensor(logits)
    ce = _cross_entropy_data(logits.data, labels)
    onehot_t = Tensor(_one_hot(labels, logits.shape[-1]))
    n = logits.shape[-2]

    def bwd(g):
        p = softmax(logits, axis=-1)
        per_row = mul(g, 1.0 / n)
        if per_row.ndim:  # one scale per leading index, broadcast over its (n, c) block
            per_row = reshape(per_row, per_row.shape + (1, 1))
        return (mul(broadcast_to(per_row, logits.shape), sub(p, onehot_t)),)

    return _node(ce, (logits,), bwd, "softmax_ce")


def mean_squared_error(pred, target) -> Tensor:
    """Mean of squared differences over all elements."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse operands must share a shape, got {pred.shape} vs {target.shape}")
    d = sub(pred, target)
    return tmean(mul(d, d))


# ---------------------------------------------------------------------------
# differentiation


def toposort(root: Tensor) -> list[Tensor]:
    """Unique nodes reachable from ``root``, with every node after its inputs."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents)
    return order


def _accumulate(root: Tensor) -> dict[int, Tensor]:
    """Gradients of ``root`` by node id, for every node it reaches."""
    if root.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {root.shape}")
    grads: dict[int, Tensor] = {id(root): Tensor(np.ones_like(root.data))}
    for node in reversed(toposort(root)):
        g = grads.get(id(node))
        if g is None or node._bwd is None:
            continue
        for parent, pg in zip(node._parents, node._bwd(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = grads.get(id(parent))
            grads[id(parent)] = pg if held is None else add(held, pg)
    return grads


def grad(output: Tensor, inputs: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """d(output)/d(input) for each input; zeros for inputs the output never saw.

    With ``create_graph`` the returned tensors stay attached to the graph so
    they can be differentiated again (gradients of gradients). Without it
    they are constants: new tensors of the same arrays, detached from the
    graph that the backward pass built.
    """
    grads = _accumulate(output)
    result = []
    for t in inputs:
        g = grads.get(id(t))
        if g is None:
            result.append(Tensor(np.zeros_like(t.data)))
        else:
            result.append(g if create_graph else Tensor(g.data))
    return result


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, coordinatewise.

    This is the independent oracle the analytic gradients are checked against;
    it never touches the graph machinery.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += h
        xm[i] -= h
        fp = float(f(xp.reshape(x.shape)))
        fm = float(f(xm.reshape(x.shape)))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value while probing coordinate {i}")
        flat[i] = (fp - fm) / (2.0 * h)
    return out
