"""Optimizer step functions with one uniform, pure interface.

Every step maps ``(state, w, g) -> (state', w')`` without mutating anything,
so trajectories are replayable and safe to run concurrently on disjoint
parameter tensors. ``STEP_FUNCS`` holds every step but WarpAdam's (which
also takes a warp) by optimizer kind. The Adam family uses

    m_t = b1*m_{t-1} + (1-b1)*g
    v_t = b2*v_{t-1} + (1-b2)*g^2
    m^ = m_t / (1 - b1^t),  v^ = v_t / (1 - b2^t)
    w' = w - eta * m^ / sqrt(v^ + eps)

with epsilon *inside* the square root. ``adam_moments`` is the only copy of
the first three lines. It uses operators only, so the unrolled, differentiable
WarpAdam of the warp module runs it on autodiff tensors and gets the bits of
the array steps. WarpAdam is the same rule with g replaced by P@g in both
moment updates; with P = identity the two code paths share every arithmetic
instruction, so their outputs are bit-identical.

A zero denominator (possible only with eps=0 and an all-zero gradient
history) yields a zero update rather than NaN: 0/0 := 0 for the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def bias_correct(m: np.ndarray, v: np.ndarray, t: int, beta1: float, beta2: float):
    """Undo the zero-initialization bias of the moment estimates."""
    if t < 1:
        raise ValueError(f"bias correction needs t >= 1, got t={t}")
    return m / (1.0 - beta1 ** t), v / (1.0 - beta2 ** t)


def adam_moments(m, v, g, t: int, h: HyperParams):
    """Step ``t`` of the moment update: ``(m, v, m_hat, v_hat)``.

    ``m``, ``v`` and ``g`` are arrays, or autodiff tensors for a
    differentiable step; the same operations run on either.
    """
    m = h.beta1 * m + (1.0 - h.beta1) * g
    v = h.beta2 * v + (1.0 - h.beta2) * (g * g)
    m_hat, v_hat = bias_correct(m, v, t, h.beta1, h.beta2)
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
    """
    m_hat, v_hat = bias_correct(m, v, t, h.beta1, h.beta2)
    radicand = v_hat + h.epsilon
    zero = radicand == 0
    keep = ~zero
    root = np.sqrt(radicand + zero)
    ratio_bar = -w_bar * h.eta
    root_bar = -((ratio_bar * (m_hat * keep)) / (root * root))
    m_bar = ratio_bar / root * keep / (1.0 - h.beta1 ** t) + m_bar
    v_bar = root_bar / (root * 2.0) / (1.0 - h.beta2 ** t) + v_bar
    square_bar = v_bar * (1.0 - h.beta2) * g  # from g * g, once per factor
    g_bar = m_bar * (1.0 - h.beta1) + square_bar + square_bar
    return g_bar, h.beta1 * m_bar, h.beta2 * v_bar


def _check_step_inputs(state: AdamState, w: np.ndarray, g: np.ndarray) -> None:
    if not (w.shape == g.shape == state.m.shape == state.v.shape):
        raise ShapeError(
            f"parameter/gradient/state shapes disagree: w={w.shape} g={g.shape} "
            f"m={state.m.shape} v={state.v.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient passed to optimizer step")


def _safe_ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    # 0/0 := 0; a zero denominator only occurs with eps=0 and zero history
    out = np.zeros_like(num)
    np.divide(num, denom, out=out, where=denom > 0)
    return out


def _finite_or_raise(w: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(w)):
        raise NumericError(f"{what} overflowed to non-finite values")
    return w


def _adam_direction(state: AdamState, g_used: np.ndarray, h: HyperParams):
    """Shared moment update; returns the new state and the update ratio."""
    t = state.t + 1
    m, v, m_hat, v_hat = adam_moments(state.m, state.v, g_used, t, h)
    if not np.all(np.isfinite(v)):
        raise NumericError("second moment overflowed to non-finite values")
    denom = np.sqrt(v_hat + h.epsilon)
    update = _safe_ratio(m_hat, denom)
    return AdamState(m=m, v=v, t=t, v_max=state.v_max), update


def adam_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    _check_step_inputs(state, w, g)
    new_state, update = _adam_direction(state, g, h)
    return new_state, _finite_or_raise(w - h.eta * update, "adam step")


def warpadam_step(state: AdamState, w: np.ndarray, g: np.ndarray, warp,
                  h: HyperParams, warp_update: bool = False):
    """Adam with the gradient pre-transformed by the warp matrix.

    The transformed gradient feeds *both* moment updates; the parameter update
    rule itself is unchanged. ``warp_update=True`` switches to the alternative
    placement that accumulates the raw gradient and warps the final update
    direction instead; it is off by default and exists for comparison only.
    """
    _check_step_inputs(state, w, g)  # warp.apply checks g against the warp's dim
    if warp_update:
        new_state, update = _adam_direction(state, g, h)
        update = warp.apply(update)
    else:
        new_state, update = _adam_direction(state, warp.apply(g), h)
    return new_state, _finite_or_raise(w - h.eta * update, "warpadam step")


# ---------------------------------------------------------------------------
# baselines


def sgd_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    _check_step_inputs(state, w, g)
    new_state = replace(state, t=state.t + 1)
    return new_state, _finite_or_raise(w - h.eta * g, "sgd step")


def momentum_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    # heavy-ball velocity: u <- mu*u + g, stored in state.m
    _check_step_inputs(state, w, g)
    u = h.momentum * state.m + g
    new_state = AdamState(m=u, v=state.v, t=state.t + 1, v_max=state.v_max)
    return new_state, _finite_or_raise(w - h.eta * u, "momentum step")


def amsgrad_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    _check_step_inputs(state, w, g)
    t = state.t + 1
    m, v, m_hat, v_hat = adam_moments(state.m, state.v, g, t, h)
    v_max_prev = state.v_max if state.v_max is not None else np.zeros_like(v)
    v_max = np.maximum(v_max_prev, v_hat)
    update = _safe_ratio(m_hat, np.sqrt(v_max + h.epsilon))
    return AdamState(m=m, v=v, t=t, v_max=v_max), _finite_or_raise(
        w - h.eta * update, "amsgrad step")


def adamw_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    # decoupled decay: the wd term bypasses the adaptive denominator
    _check_step_inputs(state, w, g)
    new_state, update = _adam_direction(state, g, h)
    w_new = w - h.eta * update - h.eta * h.weight_decay * w
    return new_state, _finite_or_raise(w_new, "adamw step")


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


def radam_step(state: AdamState, w: np.ndarray, g: np.ndarray, h: HyperParams):
    _check_step_inputs(state, w, g)
    t = state.t + 1
    m, v, m_hat, v_hat = adam_moments(state.m, state.v, g, t, h)
    rho_inf, rho_t = radam_rho(t, h.beta2)
    new_state = AdamState(m=m, v=v, t=t, v_max=state.v_max)
    if rho_t > 4.0:
        r = radam_rectifier(rho_t, rho_inf)
        update = r * _safe_ratio(m_hat, np.sqrt(v_hat + h.epsilon))
    else:
        # variance estimate not yet tractable: plain momentum step
        update = m_hat
    return new_state, _finite_or_raise(w - h.eta * update, "radam step")


STEP_FUNCS = {
    "sgd": sgd_step,
    "momentum": momentum_step,
    "amsgrad": amsgrad_step,
    "adamw": adamw_step,
    "radam": radam_step,
    "adam": adam_step,
}
