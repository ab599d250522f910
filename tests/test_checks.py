import inspect
import math
import sys

import numpy as np

import warpadam.checks as checks
import warpadam.tensor as T
from warpadam.checks import run_all

# the checks whose oracle is exact and which take no perturbation
_UNPERTURBED = {"warp.kron_vs_dense", "warp.identity_reduction_bitwise", "warp.tod_zero_cases"}


def test_worst_counts_a_non_finite_error_as_inf():
    assert checks._worst([]) == 0.0
    assert checks._worst([0.5, np.array([0.25, 1.0])]) == 1.0
    for bad in (np.nan, np.inf, -np.inf):
        assert checks._worst([0.5, np.array([bad, 0.0]), 0.25]) == math.inf
        assert checks._worst([bad, 0.5]) == math.inf  # Python's max keeps 0.5 against a NaN
    assert checks._rel([np.nan], [1.0]) == math.inf
    assert checks._rel([1.0], [np.inf]) == math.inf  # not inf / inf = nan
    assert checks._rel([3.0], [2.0]) == 0.5


def test_the_oracle_checks_reach_every_engine_function():
    # the engine is the oracle, so it keeps only what the oracle runs: the checks
    # that are not primitive cases reach every public function of `tensor`
    public = {name: f for name, f in vars(T).items() if inspect.isfunction(f)
              and f.__module__ == T.__name__ and not name.startswith("_")}
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        checks.check_mlp_gradient()
        checks.check_mlp_hvp()
        checks.check_hypergradient()
        checks.check_hypergradient_adjoint()
    finally:
        sys.setprofile(before)
    assert sorted(name for name, f in public.items() if f.__code__ not in reached) == []


def test_a_nan_perturbation_fails_every_check_that_takes_one():
    results = run_all(perturb=float("nan"))
    assert len(results) == 14
    for result in results:
        assert result.passed == (result.name in _UNPERTURBED), result.name
        if not result.passed:
            assert result.max_err == math.inf


def test_a_nan_warpadam_step_fails_the_identity_reduction(monkeypatch):
    def nan_step(state, w, *args):
        return state, np.full_like(w, np.nan)

    assert checks.check_identity_reduction().passed  # the control
    monkeypatch.setattr(checks, "warpadam_step", nan_step)
    result = checks.check_identity_reduction()
    assert not result.passed and result.max_err == math.inf
