"""WarpAdam: Adam with a learnable gradient warp, plus the machinery to learn it.

The package is organized as:

- ``tensor``: float64 tensors with a reverse-mode autodiff graph whose backward
  rules are themselves differentiable (needed to push gradients through
  unrolled optimizer trajectories).
- ``nn``: small dense networks built on those tensors.
- ``optim``: optimizer steps — Adam, WarpAdam, and the baseline suite (SGD,
  Momentum, AMSGrad, AdamW, RAdam), each written once as an in-place core
  (``STEP_CORES``) for loops that own their arrays, and wrapped as a pure
  step (``STEP_FUNCS``); WarpAdam is Adam's core on the warped gradient
  ``P g``, which feeds both moments, and its pure step is ``warpadam_step``.
  The Adam family shares one moment update, ``adam_moments``.
- ``warp``: the warp matrix, one ``FORMS`` row per structural form, the
  off-diagonal (TOD) penalty, unrolled hypergradients truncated at one step
  (``MetaConfig.cut``), and the one outer loop that learns the warps,
  ``meta_train``, with one Adam state over all their entries.
- ``tasks``: episodic few-shot task sources (synthetic families and a PGM
  image-directory importer).
- ``bench``: sequential-task training curves, optimizer comparison tables,
  and their CSV formats.
- ``cli``: the ``warpadam`` command.
"""

__version__ = "0.1.0"

from .tensor import Tensor, ShapeError, NumericError, grad, finite_diff_grad
from .optim import HyperParams, AdamState, adam_step, warpadam_step
from .warp import WarpMatrix, MetaConfig, tod_penalty, hypergrad_P, meta_update_P

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "grad",
    "finite_diff_grad",
    "HyperParams",
    "AdamState",
    "adam_step",
    "warpadam_step",
    "WarpMatrix",
    "MetaConfig",
    "tod_penalty",
    "hypergrad_P",
    "meta_update_P",
    "__version__",
]
