"""Optimizer steps: in-place cores, and pure steps with one uniform interface.

Each optimizer's math is written once, as an in-place core
``core(state, w, g, h, buf)``: it updates the caller's parameters ``w`` and
``state`` (moments, ``v_max`` and step count) in place, taking its
temporaries from ``buf``, the two work arrays of ``step_buffers``, which a
loop allocates once. ``STEP_CORES`` holds every core but WarpAdam's (which
also takes a warp) by optimizer kind. A loop that owns its arrays, such as
one over a flat buffer of every parameter tensor, steps them with a core.

Each public step is a pure wrapper: it checks and copies its inputs and runs
the core on the copies, so it maps ``(state, w, g) -> (state', w')`` without
mutating anything, and trajectories stay replayable. ``STEP_FUNCS`` holds them
by kind. The Adam family uses

    m_t = b1*m_{t-1} + (1-b1)*g
    v_t = b2*v_{t-1} + (1-b2)*g^2
    m^ = m_t / (1 - b1^t),  v^ = v_t / (1 - b2^t)
    w' = w - eta * m^ / sqrt(v^ + eps)

with epsilon *inside* the square root. ``adam_moments`` is the only copy of
the first three lines. It uses operators only (augmented assignments, which
update arrays in place and build new nodes on tensors), so the unrolled,
differentiable WarpAdam of the warp module runs it on autodiff tensors and
gets the bits of the array steps. WarpAdam is the same rule with g replaced by
P@g in both moment updates (warped preconditioning, Flennerhag et al. 2020);
with P = identity the two code paths share every arithmetic instruction, so
their outputs are bit-identical.

A zero denominator (possible only with eps=0 and an all-zero gradient
history) yields a zero update rather than NaN: 0/0 := 0 for the ratio. A core
raises ``NumericError`` when the Adam or WarpAdam second moment or the new
parameters are not finite; the wrappers also check the gradient
(``check_step_inputs``), which a loop over its own arrays does itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import NumericError, ShapeError


@dataclass(frozen=True)
class HyperParams:
    eta: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0   # AdamW only
    momentum: float = 0.9       # Momentum only

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class AdamState:
    """Moment accumulators and step counter of one parameter array.

    The array is one tensor, or one flat buffer holding several tensors' entries
    back to back (the warp module's adaptation steps all its tensors at once).

    ``m`` doubles as the velocity buffer for the Momentum baseline; ``v_max``
    is the AMSGrad running maximum of the bias-corrected second moment.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    v_max: np.ndarray | None = None

    @classmethod
    def zeros(cls, shape, amsgrad: bool = False) -> "AdamState":
        return cls(
            m=np.zeros(shape),
            v=np.zeros(shape),
            t=0,
            v_max=np.zeros(shape) if amsgrad else None,
        )


def bias_correct(m, v, t: int, beta1: float, beta2: float, out=None):
    """Undo the zero-initialization bias of the moment estimates.

    ``out`` takes two arrays to write ``m_hat`` and ``v_hat`` into; without
    it (and on autodiff tensors) the results are new.
    """
    if t < 1:
        raise ValueError(f"bias correction needs t >= 1, got t={t}")
    c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    if out is None:
        return m / c1, v / c2
    return np.divide(m, c1, out=out[0]), np.divide(v, c2, out=out[1])


def adam_moments(m, v, g, t: int, h: HyperParams, out=None):
    """Step ``t`` of the moment update: ``(m, v, m_hat, v_hat)``.

    ``m``, ``v`` and ``g`` are arrays, or autodiff tensors for a
    differentiable step; the same operations run on either. On arrays the
    augmented assignments update ``m`` and ``v`` in place (the caller owns
    them), and ``out`` (see ``bias_correct``) takes the corrected moments.
    Tensors have no in-place operations, so there ``m *= b`` builds the node
    ``b * m`` builds and the inputs stay as they were.
    """
    m *= h.beta1
    m += (1.0 - h.beta1) * g
    v *= h.beta2
    v += (1.0 - h.beta2) * (g * g)
    m_hat, v_hat = bias_correct(m, v, t, h.beta1, h.beta2, out)
    return m, v, m_hat, v_hat


def adam_adjoint(w_bar, m_bar, v_bar, g, m, v, t: int, h: HyperParams):
    """Reverse mode through Adam step ``t``, on arrays.

    ``g`` is the gradient the step took (the warped one, for WarpAdam), ``m``
    and ``v`` the moments it left. ``w_bar`` is the adjoint of its output
    parameters, ``m_bar`` and ``v_bar`` those of its output moments (0 for
    the last step). Returns ``(g_bar, m_bar, v_bar)``: the adjoint of ``g``
    and of the moments the step started from. The adjoint of the input
    parameters is ``w_bar`` itself.

    Every rule is the engine's backward rule for the unrolled step, in the
    engine's order, so without incoming moment adjoints ``g_bar`` has the bits
    of ``grad`` through one graph step. Where ``v_hat + epsilon`` is 0 the
    ratio is the constant 0 of the 0/0 := 0 rule, and its adjoints are 0.
    Those entries are masked only when there are any (as in the graph step):
    a mask of ones would change no bit. Each rule writes over a temporary
    that is no longer needed, so a call allocates six arrays.
    """
    m_hat, radicand = bias_correct(m, v, t, h.beta1, h.beta2)
    radicand += h.epsilon
    keep = None
    if not radicand.min(initial=math.inf) > 0:  # only with epsilon 0
        keep = np.where(radicand == 0, 0.0, 1.0)
        m_hat *= keep
        radicand += 1.0 - keep  # sqrt sees 1 where the radicand is 0
    root = np.sqrt(radicand, out=radicand)
    ratio_bar = np.negative(w_bar)
    ratio_bar *= h.eta
    m_bar_in, m_bar = m_bar, ratio_bar / root
    if keep is not None:
        m_bar *= keep
    m_bar /= 1.0 - h.beta1 ** t
    m_bar += m_bar_in
    root_bar = np.multiply(ratio_bar, m_hat, out=ratio_bar)
    root_bar /= np.multiply(root, root, out=m_hat)
    np.negative(root_bar, out=root_bar)
    root_bar /= np.multiply(root, 2.0, out=root)
    root_bar /= 1.0 - h.beta2 ** t
    root_bar += v_bar
    v_bar = root_bar
    square_bar = np.multiply(v_bar, 1.0 - h.beta2)  # from g * g, once per factor
    square_bar *= g
    g_bar = np.multiply(m_bar, 1.0 - h.beta1)
    g_bar += square_bar
    g_bar += square_bar
    m_bar *= h.beta1
    v_bar *= h.beta2
    return g_bar, m_bar, v_bar


def check_step_inputs(state: AdamState, w: np.ndarray, g: np.ndarray) -> None:
    """The checks every step makes on its inputs: matching shapes, a finite gradient."""
    if not (w.shape == g.shape == state.m.shape == state.v.shape):
        raise ShapeError(
            f"parameter/gradient/state shapes disagree: w={w.shape} g={g.shape} "
            f"m={state.m.shape} v={state.v.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient passed to optimizer step")


def step_buffers(shape) -> tuple[np.ndarray, np.ndarray]:
    """The two work arrays of an in-place core, for parameters of ``shape``."""
    return np.empty(shape), np.empty(shape)


def _safe_ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    # num / denom, written into num, with 0/0 := 0; a zero denominator only
    # occurs with eps=0 and zero history, so the mask is built only then
    if denom.min(initial=math.inf) > 0:
        return np.divide(num, denom, out=num)
    positive = denom > 0
    np.divide(num, denom, out=num, where=positive)
    num[~positive] = 0.0
    return num


def _finite_or_raise(w: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(w)):
        raise NumericError(f"{what} overflowed to non-finite values")


def _adam_direction(state: AdamState, g_used, h: HyperParams, buf) -> np.ndarray:
    """Shared moment update, in place; returns the update ratio, in ``buf[0]``."""
    state.t += 1
    _, _, m_hat, v_hat = adam_moments(state.m, state.v, g_used, state.t, h, buf)
    if not np.all(np.isfinite(state.v)):
        raise NumericError("second moment overflowed to non-finite values")
    v_hat += h.epsilon
    return _safe_ratio(m_hat, np.sqrt(v_hat, out=v_hat))


def _descend(w: np.ndarray, update: np.ndarray, h: HyperParams, what: str, out=None) -> None:
    """``w -= eta * update`` in place, then the finiteness check; the product
    goes to ``out``, or over ``update`` when that is scratch."""
    w -= np.multiply(update, h.eta, out=update if out is None else out)
    _finite_or_raise(w, what)


# ---------------------------------------------------------------------------
# in-place cores: ``core(state, w, g, h, buf)`` updates the caller's ``w`` and
# ``state`` (its arrays and its step count) in place, with ``buf`` from
# ``step_buffers`` as scratch. They do not check their inputs. WarpAdam's
# core takes the warp after ``buf``.


def adam_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf) -> None:
    _descend(w, _adam_direction(state, g, h, buf), h, "adam step")


def warpadam_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf,
                  warp) -> None:
    """WarpAdam's core; see ``warpadam_step``. ``warp`` needs only ``apply``."""
    _descend(w, _adam_direction(state, warp.apply(g), h, buf), h, "warpadam step")


def sgd_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf) -> None:
    state.t += 1
    _descend(w, g, h, "sgd step", buf[0])


def momentum_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf) -> None:
    # heavy-ball velocity: u <- mu*u + g, stored in state.m
    state.t += 1
    state.m *= h.momentum
    state.m += g
    _descend(w, state.m, h, "momentum step", buf[0])


def amsgrad_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf) -> None:
    state.t += 1
    _, _, m_hat, v_hat = adam_moments(state.m, state.v, g, state.t, h, buf)
    if state.v_max is None:
        state.v_max = np.zeros_like(state.v)
    np.maximum(state.v_max, v_hat, out=state.v_max)
    np.add(state.v_max, h.epsilon, out=v_hat)
    _descend(w, _safe_ratio(m_hat, np.sqrt(v_hat, out=v_hat)), h, "amsgrad step")


def adamw_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf) -> None:
    # decoupled decay: the wd term bypasses the adaptive denominator
    update = _adam_direction(state, g, h, buf)
    decay = np.multiply(w, h.eta * h.weight_decay, out=buf[1])
    w -= np.multiply(update, h.eta, out=update)
    w -= decay
    _finite_or_raise(w, "adamw step")


def radam_rho(t: int, beta2: float) -> tuple[float, float]:
    """(rho_inf, rho_t) of the variance-rectification schedule."""
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    b2t = beta2 ** t
    rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    return rho_inf, rho_t


def radam_rectifier(rho_t: float, rho_inf: float) -> float:
    return math.sqrt(
        ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
        / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
    )


def radam_core(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, buf) -> None:
    state.t += 1
    _, _, update, v_hat = adam_moments(state.m, state.v, g, state.t, h, buf)
    rho_inf, rho_t = radam_rho(state.t, h.beta2)
    if rho_t > 4.0:
        v_hat += h.epsilon
        update = _safe_ratio(update, np.sqrt(v_hat, out=v_hat))
        update *= radam_rectifier(rho_t, rho_inf)
    # else the variance estimate is not yet tractable: a plain momentum step on m_hat
    _descend(w, update, h, "radam step")


# ---------------------------------------------------------------------------
# pure steps: checked copies of the inputs, then the core


def _pure(core, state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams, *extra):
    """``core`` run on checked copies of a step's inputs: the pure step."""
    check_step_inputs(state, w, g)
    v_max = None if state.v_max is None else np.array(state.v_max, dtype=np.float64)
    state = AdamState(np.array(state.m, dtype=np.float64), np.array(state.v, dtype=np.float64),
                      state.t, v_max)
    w = np.array(w, dtype=np.float64)
    core(state, w, g, h, step_buffers(w.shape), *extra)
    return state, w


def adam_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    return _pure(adam_core, state, w, g, h)


def warpadam_step(state: AdamState, w: np.ndarray, g: np.ndarray, warp, h: HyperParams):
    """Adam with the gradient pre-transformed by the warp matrix.

    The transformed gradient feeds *both* moment updates; the parameter update
    rule itself is unchanged. ``warp.apply`` checks ``g`` against the warp's dim.
    """
    return _pure(warpadam_core, state, w, g, h, warp)


def sgd_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    return _pure(sgd_core, state, w, g, h)


def momentum_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    return _pure(momentum_core, state, w, g, h)


def amsgrad_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    return _pure(amsgrad_core, state, w, g, h)


def adamw_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    return _pure(adamw_core, state, w, g, h)


def radam_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    return _pure(radam_core, state, w, g, h)


STEP_FUNCS = {
    "sgd": sgd_step,
    "momentum": momentum_step,
    "amsgrad": amsgrad_step,
    "adamw": adamw_step,
    "radam": radam_step,
    "adam": adam_step,
}
STEP_CORES = {
    "sgd": sgd_core,
    "momentum": momentum_core,
    "amsgrad": amsgrad_core,
    "adamw": adamw_core,
    "radam": radam_core,
    "adam": adam_core,
}
