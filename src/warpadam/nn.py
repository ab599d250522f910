"""Small dense networks built on the autodiff tensors.

A model here is just a list of float64 parameter arrays plus pure functions
that rebuild the forward graph from parameter tensors. Anything with a
``params`` list and a ``loss(param_tensors, x, y) -> Tensor`` method can be
trained and meta-trained; ``MLP`` is the stock classifier.

``loss`` returns one loss per episode. For a plain episode that is a scalar.
Meta-learning also calls it on a stack of E episodes: every parameter tensor
is shaped ``(E,) + shape``, ``x`` and ``y`` carry E on axis 0, and the result
has shape ``(E,)``, with entry e depending only on episode e.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, add, matmul, reshape, softmax_cross_entropy, tanh


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
            w, b = params[2 * i], params[2 * i + 1]
            if b.ndim == 2:  # stacked (E, c): one bias row per episode
                b = reshape(b, (b.shape[0], 1, b.shape[1]))
            h = add(matmul(h, w), b)
            if i < n_layers - 1:
                h = tanh(h)
        return h

    def loss(self, params: Sequence[Tensor], x: np.ndarray, y: np.ndarray) -> Tensor:
        return softmax_cross_entropy(self.logits(params, x), y)

    def accuracy(self, arrays: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
        logits = self.logits(self.param_tensors(arrays, requires_grad=False), x)
        pred = np.argmax(logits.data, axis=-1)
        return float(np.mean(pred == np.asarray(y)))

    def clone_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]
