"""Small dense networks built on the autodiff tensors.

A model here is just a list of float64 parameter arrays plus pure functions
of them. ``loss(param_tensors, x, y) -> Tensor`` rebuilds the forward graph
from parameter tensors for the autodiff engine; ``MLP`` is the stock
classifier.

``loss`` returns one loss per episode. For a plain episode that is a scalar.
Meta-learning also calls it on a stack of E episodes: every parameter tensor
is shaped ``(E,) + shape``, ``x`` and ``y`` carry E on axis 0, and the result
has shape ``(E,)``, with entry e depending only on episode e.

A meta-learned model (``warp.meta_update_P``) supplies ``params`` and three
methods on parameter arrays, computed without a graph:

- ``loss_grads(arrays, x, y) -> (losses, grads)``: the values ``loss`` gives
  and the gradient of their sum with respect to each parameter array. The
  adaptation takes its steps and the hypergradient's query losses from it;
- ``loss_hvp(arrays, x, y, vecs)``: the Hessian of the losses' sum times the
  arrays ``vecs``, one array per parameter, for ``warp.adjoint_hypergrad``;
- ``losses(arrays, x, y)``: the losses of ``loss_grads``, bit for bit, from
  the forward pass alone, for ``warp.adaptation_query_loss``.

The engine stays the oracle: ``MLP.loss_grads`` is tested to return exactly
the bits of ``grad`` on ``loss``, and ``MLP.loss_hvp`` to match the engine's
second derivative. ``MLP.loss_accuracy`` takes ``loss``'s values and the
accuracy from the same numpy forward; the benchmark's curves record both
with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import (Tensor, _cross_entropy_data, _softmax_data, add, matmul,
                     softmax_cross_entropy, softmax_cross_entropy_grad, sum_to, tanh)


def _bias_rows(b):
    """A bias (array or tensor) as the rows it adds: a stacked (E, c) bias as
    (E, 1, c), one bias row per episode."""
    return b.reshape(b.shape[0], 1, b.shape[1]) if b.ndim == 2 else b


class MLP:
    """Fully connected tanh classifier: sizes[0] -> ... -> sizes[-1] logits.

    An empty hidden list gives a plain linear softmax classifier. Weights are
    Gaussian with 1/sqrt(fan_in) scale, biases zero, drawn from the caller's
    generator so runs stay reproducible.
    """

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"need at least input and output sizes, all positive: {sizes}")
        self.sizes = sizes
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            self.params.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
            self.params.append(np.zeros(fan_out))

    def param_tensors(self, arrays: Sequence[np.ndarray] | None = None,
                      requires_grad: bool = True) -> list[Tensor]:
        src = self.params if arrays is None else arrays
        return [Tensor(a, requires_grad=requires_grad) for a in src]

    def logits(self, params: Sequence[Tensor], x: np.ndarray) -> Tensor:
        h: Tensor = Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        n_layers = len(params) // 2
        for i in range(n_layers):
            h = add(matmul(h, params[2 * i]), _bias_rows(params[2 * i + 1]))
            if i < n_layers - 1:
                h = tanh(h)
        return h

    def loss(self, params: Sequence[Tensor], x: np.ndarray, y: np.ndarray) -> Tensor:
        return softmax_cross_entropy(self.logits(params, x), y)

    def _forward(self, arrays: Sequence[np.ndarray], x: np.ndarray):
        """``logits`` on parameter arrays, in plain numpy: each layer's input
        followed by the logits, and the biases as the rows they add."""
        n_layers = len(arrays) // 2
        biases = [_bias_rows(b) for b in arrays[1::2]]
        hs = [np.atleast_2d(np.asarray(x, dtype=np.float64))]  # each layer's input
        for i in range(n_layers):
            z = hs[i] @ arrays[2 * i] + biases[i]
            hs.append(np.tanh(z) if i < n_layers - 1 else z)
        return hs, biases

    def loss_grads(self, arrays: Sequence[np.ndarray], x: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """``loss`` on parameter arrays, and the gradient of the losses' sum.

        Plain numpy, for plain and stacked episodes: the forward, then the
        backward rules of ``softmax_cross_entropy``, ``tanh``, ``matmul`` and
        ``add`` (with ``sum_to``) as the engine runs them, operation for
        operation, so both results are the bits of ``grad`` on ``loss``.
        """
        n_layers = len(arrays) // 2
        hs, biases = self._forward(arrays, x)
        losses, g = softmax_cross_entropy_grad(hs.pop(), y)
        grads: list[np.ndarray] = [None] * len(arrays)
        for i in reversed(range(n_layers)):
            w, h = arrays[2 * i], hs[i]
            grads[2 * i + 1] = sum_to(g, biases[i].shape).reshape(arrays[2 * i + 1].shape)
            grads[2 * i] = sum_to(h.swapaxes(-1, -2) @ g, w.shape)
            if i:  # back through the previous layer's tanh
                g = sum_to(g @ w.swapaxes(-1, -2), h.shape) * (1.0 - h * h)
        return losses, grads

    def loss_hvp(self, arrays: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray,
                 vecs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The Hessian of the losses' sum at ``arrays``, times ``vecs``.

        The R-operator pass over ``loss_grads`` (Pearlmutter 1994): every
        forward and backward quantity of ``loss_grads`` is carried together
        with its directional derivative along ``vecs`` (``r_`` names), for
        plain and stacked episodes and any depth. Returns one array per
        parameter, shaped like it.
        """
        n_layers = len(arrays) // 2
        ws, dws = arrays[0::2], vecs[0::2]
        hs, biases = self._forward(arrays, x)
        z = hs.pop()  # the logits; hs[i] is layer i's input, the tanh output of layer i - 1
        r_biases = [_bias_rows(db.reshape(b.shape)) for b, db in zip(arrays[1::2], vecs[1::2])]
        r_hs = [None]  # the input does not move along vecs
        for i in range(n_layers):
            r_z = hs[i] @ dws[i] + r_biases[i]
            if i:
                r_z += r_hs[i] @ ws[i]
            if i < n_layers - 1:
                h = hs[i + 1]
                r_hs.append((1.0 - h * h) * r_z)
        g = softmax_cross_entropy_grad(z, y)[1]
        p = _softmax_data(z, -1)
        r_g = (1.0 / z.shape[-2]) * p * (r_z - np.sum(p * r_z, axis=-1, keepdims=True))
        out: list[np.ndarray] = [None] * len(arrays)
        for i in reversed(range(n_layers)):
            w, h = ws[i], hs[i]
            out[2 * i + 1] = sum_to(r_g, biases[i].shape).reshape(arrays[2 * i + 1].shape)
            r_gw = h.swapaxes(-1, -2) @ r_g
            if i:
                r_gw += r_hs[i].swapaxes(-1, -2) @ g
            out[2 * i] = sum_to(r_gw, w.shape)
            if i:  # back through the previous layer's tanh
                g_h = g @ w.swapaxes(-1, -2)
                r_g_h = r_g @ w.swapaxes(-1, -2) + g @ dws[i].swapaxes(-1, -2)
                slope = 1.0 - h * h
                g, r_g = g_h * slope, r_g_h * slope - g_h * (2.0 * h * r_hs[i])
        return out

    def losses(self, arrays: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``loss`` on parameter arrays, from the numpy forward alone: the
        losses of ``loss_grads``, without its backward pass."""
        return _cross_entropy_data(self._forward(arrays, x)[0][-1], y)

    def loss_accuracy(self, arrays: Sequence[np.ndarray], x: np.ndarray,
                      y: np.ndarray) -> tuple[np.ndarray, float]:
        """``loss`` on parameter arrays, and the fraction of rows whose largest
        logit is the label, from one numpy forward (the values of the engine's)."""
        logits = self._forward(arrays, x)[0][-1]
        losses = _cross_entropy_data(logits, y)
        return losses, float(np.mean(np.argmax(logits, axis=-1) == np.asarray(y)))

    def clone_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]
