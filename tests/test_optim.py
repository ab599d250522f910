import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpadam.optim import (
    STEP_FUNCS,
    AdamState,
    HyperParams,
    _safe_ratio,
    adam_adjoint,
    adam_moments,
    adam_step,
    amsgrad_step,
    bias_correct,
    momentum_step,
    radam_rectifier,
    radam_rho,
    radam_step,
    sgd_step,
    warpadam_step,
)
from warpadam.tensor import NumericError, ShapeError, Tensor
from warpadam.warp import WarpMatrix

from conftest import rel_err


def fresh(shape, amsgrad=False):
    return AdamState.zeros(shape, amsgrad=amsgrad)


# ---------------------------------------------------------------------------
# bias correction

def test_bias_correct_first_step_values():
    m_hat, v_hat = bias_correct(np.array(0.05), np.array(0.00025), 1, 0.9, 0.999)
    assert m_hat == pytest.approx(0.5)
    assert v_hat == pytest.approx(0.25)


def test_bias_correct_asymptotic_identity():
    m = np.array([0.3, -0.2])
    v = np.array([0.7, 0.1])
    # correction factor -> 1 as t grows; exact once beta^t underflows
    m_hat, v_hat = bias_correct(m, v, 10_000, 0.9, 0.999)
    assert rel_err(m_hat, m) < 1e-12
    assert rel_err(v_hat, v) < 1e-4
    m_hat, v_hat = bias_correct(m, v, 1_000_000, 0.9, 0.999)
    assert np.array_equal(m_hat, m)
    assert np.array_equal(v_hat, v)


def test_bias_correct_rejects_t_zero():
    with pytest.raises(ValueError):
        bias_correct(np.zeros(1), np.zeros(1), 0, 0.9, 0.999)


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradient_is_fixed_point():
    w = np.array([1.0, -2.0, 3.0])
    state, w2 = adam_step(fresh(w.shape), w, np.zeros_like(w), HyperParams())
    assert np.array_equal(w2, w)
    assert state.t == 1


def test_adam_hand_worked_scalar():
    h = HyperParams(eta=0.1, beta1=0.9, beta2=0.999, epsilon=0.0)
    state, w2 = adam_step(fresh(()), np.array(1.0), np.array(0.5), h)
    assert state.m == pytest.approx(0.05)
    assert state.v == pytest.approx(0.00025)
    m_hat, v_hat = bias_correct(state.m, state.v, state.t, h.beta1, h.beta2)
    assert m_hat == pytest.approx(0.5)
    assert v_hat == pytest.approx(0.25)
    assert w2 == pytest.approx(0.9)


def test_adam_first_step_is_sign_step():
    rng = np.random.default_rng(5)
    g = rng.normal(size=8)
    h = HyperParams(eta=0.01, epsilon=0.0)
    w = rng.normal(size=8)
    _, w2 = adam_step(fresh(w.shape), w, g, h)
    assert np.allclose(w2, w - h.eta * np.sign(g), atol=1e-12)


def test_adam_shape_and_numeric_errors():
    with pytest.raises(ShapeError):
        adam_step(fresh((3,)), np.zeros(3), np.zeros(4), HyperParams())
    with pytest.raises(NumericError):
        adam_step(fresh((2,)), np.zeros(2), np.array([1.0, np.nan]), HyperParams())


def test_adam_purity():
    rng = np.random.default_rng(6)
    w = rng.normal(size=4)
    g = rng.normal(size=4)
    state = fresh(w.shape)
    w_snap, g_snap, m_snap = w.copy(), g.copy(), state.m.copy()
    s1, w1 = adam_step(state, w, g, HyperParams())
    s2, w2 = adam_step(state, w, g, HyperParams())
    assert np.array_equal(w1, w2) and np.array_equal(s1.m, s2.m)
    assert np.array_equal(w, w_snap) and np.array_equal(g, g_snap)
    assert np.array_equal(state.m, m_snap) and state.t == 0


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(eta=0.0)
    with pytest.raises(ValueError):
        HyperParams(beta1=1.0)
    with pytest.raises(ValueError):
        HyperParams(epsilon=-1e-9)
    for field in ("epsilon", "weight_decay"):
        with pytest.raises(ValueError, match=field):
            HyperParams(**{field: float("nan")})


# ---------------------------------------------------------------------------
# warpadam

def test_warpadam_identity_reduces_to_adam_bitwise():
    rng = np.random.default_rng(7)
    w_a = rng.normal(size=6)
    w_w = w_a.copy()
    sa, sw = fresh((6,)), fresh((6,))
    warp = WarpMatrix.identity(6)
    h = HyperParams(eta=0.05)
    for _ in range(25):
        g = rng.normal(size=6)
        sa, w_a = adam_step(sa, w_a, g, h)
        sw, w_w = warpadam_step(sw, w_w, g, warp, h)
        assert np.array_equal(w_a, w_w)
        assert np.array_equal(sa.m, sw.m) and np.array_equal(sa.v, sw.v)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
def test_warpadam_identity_reduction_property(dim, seed, steps):
    rng = np.random.default_rng(seed)
    w_a = rng.normal(size=dim)
    w_w = w_a.copy()
    sa, sw = fresh((dim,)), fresh((dim,))
    warp = WarpMatrix.identity(dim)
    for _ in range(steps):
        g = rng.normal(size=dim)
        sa, w_a = adam_step(sa, w_a, g, HyperParams())
        sw, w_w = warpadam_step(sw, w_w, g, warp, HyperParams())
    assert np.array_equal(w_a, w_w)


def test_warpadam_coordinate_swap():
    # swapping P moves the coordinate the raw gradient never touched
    h = HyperParams(eta=0.1, epsilon=1e-8)
    warp = WarpMatrix.dense([[0.0, 1.0], [1.0, 0.0]])
    state, w2 = warpadam_step(fresh((2,)), np.zeros(2), np.array([1.0, 0.0]), warp, h)
    assert np.allclose(state.m, [0.0, 0.1 * 1.0])
    assert w2[0] == pytest.approx(0.0, abs=1e-15)
    assert w2[1] == pytest.approx(-0.1, rel=1e-3)


def test_warpadam_positive_scale_cancels():
    rng = np.random.default_rng(8)
    h = HyperParams(eta=0.02, epsilon=0.0)
    c = 3.7
    warp = WarpMatrix.dense(c * np.eye(5))
    w_a = rng.normal(size=5)
    w_w = w_a.copy()
    sa, sw = fresh((5,)), fresh((5,))
    for _ in range(20):
        g = rng.normal(size=5)
        sa, w_a = adam_step(sa, w_a, g, h)
        sw, w_w = warpadam_step(sw, w_w, g, warp, h)
    assert rel_err(w_w, w_a) < 1e-12


def test_warpadam_diagonal_scale_degeneracy():
    rng = np.random.default_rng(9)
    h = HyperParams(eta=0.02, epsilon=0.0)
    scales = rng.uniform(0.1, 10.0, size=7)
    warp = WarpMatrix.diagonal(scales)
    w_a = rng.normal(size=7)
    w_w = w_a.copy()
    sa, sw = fresh((7,)), fresh((7,))
    for _ in range(50):
        g = rng.normal(size=7)
        sa, w_a = adam_step(sa, w_a, g, h)
        sw, w_w = warpadam_step(sw, w_w, g, warp, h)
        assert rel_err(w_w, w_a) < 1e-10


def test_warpadam_first_step_bias_exactness():
    rng = np.random.default_rng(10)
    g = rng.normal(size=4)
    warp = WarpMatrix.dense(rng.normal(size=(4, 4)))
    state, _ = warpadam_step(fresh((4,)), np.zeros(4), g, warp, HyperParams())
    pg = warp.apply(g)
    m_hat, v_hat = bias_correct(state.m, state.v, 1, 0.9, 0.999)
    # (1-b)*x/(1-b) is one rounding away from x; demand <= 2 ulp agreement
    assert rel_err(m_hat, pg, floor=1e-300) < 4e-16
    assert rel_err(v_hat, pg * pg, floor=1e-300) < 4e-16


def test_warpadam_dimension_mismatch():
    with pytest.raises(ShapeError):
        warpadam_step(fresh((3,)), np.zeros(3), np.ones(3), WarpMatrix.identity(4), HyperParams())


# ---------------------------------------------------------------------------
# baselines

def test_sgd_hand_value():
    _, w2 = sgd_step(fresh(()), np.array(1.0), np.array(2.0), HyperParams(eta=0.1))
    assert w2 == pytest.approx(0.8)


def test_momentum_accumulates_velocity():
    h = HyperParams(eta=0.1, momentum=0.5)
    s, w = fresh(()), np.array(0.0)
    s, w = momentum_step(s, w, np.array(1.0), h)   # u=1,   w=-0.1
    s, w = momentum_step(s, w, np.array(1.0), h)   # u=1.5, w=-0.25
    assert s.m == pytest.approx(1.5)
    assert w == pytest.approx(-0.25)


def test_amsgrad_vmax_monotone():
    rng = np.random.default_rng(12)
    s = fresh((5,), amsgrad=True)
    w = rng.normal(size=5)
    prev = s.v_max.copy()
    for _ in range(40):
        s, w = amsgrad_step(s, w, rng.normal(size=5), HyperParams())
        assert np.all(s.v_max >= prev)
        prev = s.v_max.copy()


def test_zero_gradient_forever_fixed_points():
    rng = np.random.default_rng(13)
    w0 = rng.normal(size=4)
    h = HyperParams(eta=0.05, weight_decay=0.0)
    for kind in ("sgd", "momentum", "amsgrad", "radam"):
        s, w = fresh((4,), amsgrad=True), w0.copy()
        for _ in range(10):
            s, w = STEP_FUNCS[kind](s, w, np.zeros(4), h)
        assert np.array_equal(w, w0), kind
    s, w = fresh((4,)), w0.copy()
    for _ in range(10):
        s, w = adam_step(s, w, np.zeros(4), h)
    assert np.array_equal(w, w0)


def test_adamw_zero_gradient_decays_geometrically():
    h = HyperParams(eta=0.1, weight_decay=0.2)
    w = np.array([2.0, -4.0])
    s = fresh((2,))
    for t in range(1, 6):
        s, w = STEP_FUNCS["adamw"](s, w, np.zeros(2), h)
        assert np.allclose(w, np.array([2.0, -4.0]) * (1 - 0.1 * 0.2) ** t)


def test_radam_t1_is_plain_momentum_step():
    h = HyperParams(eta=0.1, beta2=0.999)
    rho_inf, rho_1 = radam_rho(1, h.beta2)
    assert rho_inf == pytest.approx(1999.0)
    assert rho_1 == pytest.approx(1.0, abs=1e-9)
    assert rho_1 <= 4.0
    g = np.array([0.3, -0.8])
    _, w2 = radam_step(fresh((2,)), np.zeros(2), g, h)
    # un-rectified branch: w - eta * m_hat, and m_hat_1 == g up to rounding
    assert rel_err(w2, -h.eta * g) < 1e-12


def test_radam_rectifier_limits():
    rho_inf, rho_t = radam_rho(100_000, 0.999)
    assert abs(rho_t - rho_inf) < 1e-6
    assert abs(radam_rectifier(rho_t, rho_inf) - 1.0) < 1e-6


def test_radam_rectified_branch_uses_denominator():
    h = HyperParams(eta=0.1, beta2=0.9)   # rho_inf = 19, rectification kicks in fast
    s, w = fresh((1,)), np.array([0.0])
    for _ in range(12):
        s, w = radam_step(s, w, np.array([1.0]), h)
    rho_inf, rho_t = radam_rho(12, h.beta2)
    assert rho_t > 4.0


def test_adam_moments_same_bits_on_arrays_and_tensors():
    rng = np.random.default_rng(14)
    m, g = rng.normal(size=(2, 3, 4))
    v = rng.random(size=(3, 4))
    h = HyperParams(beta1=0.85, beta2=0.99)
    tensors = adam_moments(Tensor(m), Tensor(v), Tensor(g), 3, h)
    m_in, v_in = m.copy(), v.copy()
    arrays = adam_moments(m_in, v_in, g, 3, h)
    assert arrays[0] is m_in and arrays[1] is v_in  # arrays are updated in place
    for a, t in zip(arrays, tensors):
        assert np.array_equal(a, t.data)


# ---------------------------------------------------------------------------
# the pure steps over the in-place cores

def _reference_step(kind, s, w, g, h, warp=None):
    """Each step as the plain expressions of its formula, one new array per
    operation, with 0/0 := 0 in the ratio."""
    def ratio(num, den):
        out = np.zeros_like(num)
        np.divide(num, den, out=out, where=den > 0)
        return out

    if kind == "sgd":
        return AdamState(s.m, s.v, s.t + 1, s.v_max), w - h.eta * g
    if kind == "momentum":
        u = h.momentum * s.m + g
        return AdamState(u, s.v, s.t + 1, s.v_max), w - h.eta * u
    t = s.t + 1
    g_used = warp.apply(g) if kind == "warpadam" else g
    m = h.beta1 * s.m + (1.0 - h.beta1) * g_used
    v = h.beta2 * s.v + (1.0 - h.beta2) * (g_used * g_used)
    m_hat, v_hat = m / (1.0 - h.beta1 ** t), v / (1.0 - h.beta2 ** t)
    v_max = s.v_max
    if kind == "amsgrad":
        v_max = np.maximum(v_max, v_hat)
        update = ratio(m_hat, np.sqrt(v_max + h.epsilon))
    elif kind == "radam":
        rho_inf, rho_t = radam_rho(t, h.beta2)
        update = m_hat
        if rho_t > 4.0:
            update = radam_rectifier(rho_t, rho_inf) * ratio(m_hat, np.sqrt(v_hat + h.epsilon))
    else:
        update = ratio(m_hat, np.sqrt(v_hat + h.epsilon))
    w_new = w - h.eta * update
    if kind == "adamw":
        w_new = w_new - h.eta * h.weight_decay * w
    return AdamState(m, v, t, v_max), w_new


STEP_KINDS = [*STEP_FUNCS, "warpadam"]


def _case_id(kind):
    # the "-False" suffix keeps each case the name it had when warpadam also
    # had a second, update-side placement
    return f"{kind}-False"


def _public_step(kind, warp):
    if kind == "warpadam":
        return lambda s, w, g, h: warpadam_step(s, w, g, warp, h)
    return STEP_FUNCS[kind]


@pytest.mark.parametrize("epsilon", [1e-8, 0.0])
@pytest.mark.parametrize("kind", STEP_KINDS, ids=_case_id)
def test_public_steps_keep_the_bits_of_their_formulas(kind, epsilon):
    rng = np.random.default_rng(15)
    h = HyperParams(eta=0.05, beta2=0.9, epsilon=epsilon, weight_decay=0.1)
    warp = WarpMatrix.dense(rng.normal(size=(6, 6)))
    step = _public_step(kind, warp)
    s = want_s = fresh((6,), amsgrad=True)
    w = want_w = rng.normal(size=6)
    w[1] = 0.0  # the first 1e-200 lands here; with epsilon 0 its denominator is 0, its ratio 0
    for k in range(12):  # radam rectifies from step 6 on with beta2 = 0.9
        g = rng.normal(size=6)
        g[k % 6] = 0.0
        g[(k + 1) % 6] = 1e-200  # its square underflows: m moves, v does not
        s, w = step(s, w, g, h)
        want_s, want_w = _reference_step(kind, want_s, want_w, g, h, warp)
        assert w.tobytes() == want_w.tobytes()
        for got, want in ((s.m, want_s.m), (s.v, want_s.v), (s.v_max, want_s.v_max)):
            assert got.tobytes() == want.tobytes()
        assert s.t == want_s.t == k + 1


@pytest.mark.parametrize("kind", STEP_KINDS, ids=_case_id)
def test_public_steps_leave_their_inputs_unchanged(kind):
    rng = np.random.default_rng(16)
    warp = WarpMatrix.dense(rng.normal(size=(5, 5)))
    step = _public_step(kind, warp)
    s = AdamState(rng.normal(size=5), rng.random(size=5), 3, rng.random(size=5))
    w, g = rng.normal(size=5), rng.normal(size=5)
    inputs = (w, g, s.m, s.v, s.v_max)
    snaps = [a.copy() for a in inputs]
    new_s, new_w = step(s, w, g, HyperParams(eta=0.1))
    for a, snap in zip(inputs, snaps):
        assert a.tobytes() == snap.tobytes()
    assert s.t == 3 and new_s.t == 4
    for out in (new_w, new_s.m, new_s.v, new_s.v_max):
        assert not any(np.shares_memory(out, a) for a in inputs)


# ---------------------------------------------------------------------------
# the ratio and its adjoint keep the bits of their masked formulas

def _masked_ratio(num, denom):
    # the 0/0 := 0 ratio, masked everywhere, as it was written before the
    # unmasked division for positive denominators
    num = num.copy()
    positive = denom > 0
    np.divide(num, denom, out=num, where=positive)
    num[~positive] = 0.0
    return num


def _masked_adam_adjoint(w_bar, m_bar, v_bar, g, m, v, t, h):
    # adam_adjoint as it was written before it masked only zero radicands
    m_hat, v_hat = bias_correct(m, v, t, h.beta1, h.beta2)
    radicand = v_hat + h.epsilon
    zero = radicand == 0
    keep = ~zero
    root = np.sqrt(radicand + zero)
    ratio_bar = -w_bar * h.eta
    root_bar = -((ratio_bar * (m_hat * keep)) / (root * root))
    m_bar = ratio_bar / root * keep / (1.0 - h.beta1 ** t) + m_bar
    v_bar = root_bar / (root * 2.0) / (1.0 - h.beta2 ** t) + v_bar
    square_bar = v_bar * (1.0 - h.beta2) * g
    g_bar = m_bar * (1.0 - h.beta1) + square_bar + square_bar
    return g_bar, h.beta1 * m_bar, h.beta2 * v_bar


def _signed_zeros(rng, a):
    """``a`` with about a fifth of its entries -0.0 and a fifth +0.0."""
    a = a.copy()
    u = rng.random(a.shape)
    a[u < 0.2] = -0.0
    a[u > 0.8] = 0.0
    return a


@pytest.mark.parametrize("zeros", [False, True])
def test_safe_ratio_keeps_the_bits_of_the_masked_ratio(zeros):
    rng = np.random.default_rng(41)
    for n in (1, 7, 1000):
        num = _signed_zeros(rng, rng.normal(size=n))
        denom = rng.random(n) + 0.5
        if zeros:
            denom[rng.random(n) < 0.3] = 0.0
            denom[0] = 0.0
        want = _masked_ratio(num, denom)
        got = _safe_ratio(num.copy(), denom)
        assert got.tobytes() == want.tobytes()
    assert _safe_ratio(np.zeros(0), np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("moment_bars", ["zero", "arrays"])
@pytest.mark.parametrize("epsilon", [0.0, 1e-8, 0.1])
def test_adam_adjoint_keeps_the_bits_of_the_masked_formulas(epsilon, moment_bars):
    rng = np.random.default_rng(42)
    h = HyperParams(eta=0.05, beta2=0.99, epsilon=epsilon)
    n = 500
    for t in (1, 3, 8):
        g = _signed_zeros(rng, rng.normal(size=n))
        m = _signed_zeros(rng, rng.normal(size=n))
        v = rng.random(n)
        v[g == 0] = 0.0  # with epsilon 0 these radicands are 0
        w_bar = _signed_zeros(rng, rng.normal(size=n))
        m_bar, v_bar = 0.0, 0.0
        if moment_bars == "arrays":
            m_bar, v_bar = (_signed_zeros(rng, rng.normal(size=n)) for _ in range(2))
        inputs = [w_bar, m_bar, v_bar, g, m, v]
        copies = [np.copy(a) for a in inputs]
        got = adam_adjoint(*inputs, t, h)
        want = _masked_adam_adjoint(*copies, t, h)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(inputs, copies):  # the inputs are left as they were
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
