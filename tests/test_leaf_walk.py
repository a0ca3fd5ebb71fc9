import numpy as np
import pytest

from frogline import BudgetExceededError, ParameterError, run_killed_leaf_walk


def test_needs_s_above_degree():
    with pytest.raises(ParameterError):
        run_killed_leaf_walk(2, 3, 2, seed=0)
    with pytest.raises(ParameterError):
        run_killed_leaf_walk(3, 2, 3, seed=0)
    run_killed_leaf_walk(2, 3, 3, seed=0)  # d < s is enough


def test_step_cap_below_one_is_refused():
    # a cap of -1 would never be reached, and one of 0 would stop the walk
    # before its first step
    for cap in (-1, 0):
        with pytest.raises(ParameterError, match="step_cap"):
            run_killed_leaf_walk(2, 3, 3, seed=0, step_cap=cap)


def test_reproducible():
    a = run_killed_leaf_walk(2, 4, 8, seed=42)
    b = run_killed_leaf_walk(2, 4, 8, seed=42)
    assert a.tau_cov == b.tau_cov
    assert a.restarts == b.restarts
    assert np.array_equal(a.visits, b.visits)


def test_visit_accounting():
    rep = run_killed_leaf_walk(2, 4, 8, seed=7)
    # one leaf occupancy per unit of leaf time, plus the start at time 0
    assert rep.visits.sum() == rep.tau_cov + 1
    assert np.all(rep.visits >= 1)  # covered means every leaf seen
    assert len(rep.visits) == 2 ** 4


def test_two_leaf_mean():
    # d=2, n=1: two leaves; each step finds the other leaf w.p. 1/2,
    # so tau_cov is Geometric(1/2) with mean 2 for any s > d
    taus = np.array([run_killed_leaf_walk(2, 1, 3, seed=s).tau_cov
                     for s in range(600)])
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    assert abs(taus.mean() - 2.0) < 3 * se


def test_restart_rate():
    s = 16
    restarts = steps = 0
    for seed in range(60):
        rep = run_killed_leaf_walk(2, 5, s, seed=seed)
        restarts += rep.restarts
        steps += rep.tau_cov
    p = 1 / (2 * s)
    sigma = np.sqrt(p * (1 - p) / steps)
    assert abs(restarts / steps - p) < 3 * sigma


def test_start_override():
    rep = run_killed_leaf_walk(2, 3, 4, seed=1, start=9)
    assert rep.visits[9 - 7] >= 1  # first leaf of tree(2,3) is vertex 7


def test_step_cap():
    full = run_killed_leaf_walk(2, 4, 8, seed=42)
    assert run_killed_leaf_walk(2, 4, 8, seed=42,
                                step_cap=full.tau_cov).tau_cov == full.tau_cov
    with pytest.raises(BudgetExceededError) as info:
        run_killed_leaf_walk(2, 4, 8, seed=42, step_cap=full.tau_cov - 1)
    assert info.value.bracket == (full.tau_cov, None)
    assert 0 < info.value.fraction_covered < 1
