from functools import partial

import numpy as np
import pytest

from frogline import (BudgetExceededError, GraphDescriptor, ParameterError,
                      build_graph, run_killed_leaf_walk)
from frogline.leaf_walk import _climb_tail
from oracles import dense_transition, excursion_leaf_walk


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


@pytest.mark.parametrize("d, n", [(2, 3), (2, 5), (3, 3), (4, 3)])
def test_next_leaf_law_equals_linear_solve(d, n):
    # the chain climbs to height H with the law of _climb_tail, then lands
    # on a uniform leaf of the height-H ancestor's block of d^H leaves
    s = d + 1
    tail = np.append(_climb_tail(d, n, s), 0.0)
    leaves = np.arange(d ** n)
    law = np.zeros((d ** n, d ** n))
    for h in range(1, n + 1):
        same = leaves[:, None] // d ** h == leaves[None, :] // d ** h
        law += (tail[h - 1] - tail[h]) / d ** h * same
    # the tree walk's hitting law of the leaves from each inner vertex,
    # entered at the leaf's parent, or a uniform leaf on restart
    g = build_graph(GraphDescriptor("tree", d=d, n=n))
    P = dense_transition(g)
    inner = np.arange(g.first_leaf)
    hits = np.linalg.solve(np.eye(len(inner)) - P[np.ix_(inner, inner)],
                           P[np.ix_(inner, g.first_leaf + leaves)])
    p = 1.0 / (2 * s)
    solved = p / d ** n + (1 - p) * hits[(g.first_leaf + leaves - 1) // d]
    assert np.abs(law - solved).max() <= 1e-12


def test_cover_time_mean_matches_the_excursion_walk():
    trials = 2000
    chain = np.array([run_killed_leaf_walk(3, 3, 4, seed=i).tau_cov
                      for i in range(trials)])
    rng = np.random.default_rng(2024)
    tree = np.array([excursion_leaf_walk(3, 3, 4, rng)
                     for _ in range(trials)])
    se = np.hypot(chain.std(ddof=1), tree.std(ddof=1)) / np.sqrt(trials)
    assert abs(chain.mean() - tree.mean()) < 4 * se


def test_stopped_walks_fail_the_bands_with_their_reason(monkeypatch):
    from frogline import ExperimentSpec, checks
    monkeypatch.setattr(checks, "ExperimentSpec",
                        partial(ExperimentSpec, step_cap=5))
    result = checks.check_leafwalk_bands(checks.LeafwalkCells(3, seed=0))
    assert not result.passed
    assert "tree:d=2,n=4 trial 0: leaf walk exceeded step cap 5" in (
        result.detail)


def test_validate_simulates_each_leafwalk_cell_once(monkeypatch):
    # the bands read depths 4-6 and the trend 4-7: four cells, not seven
    # (at 20 trials a cell instead of the suite's 200)
    from frogline import checks, experiments
    depths, cell = [], checks.leafwalk_cell

    def counted(d, n, s, trials, seed):
        depths.append(n)
        return cell(d, n, s, 20, seed)

    monkeypatch.setattr(checks, "leafwalk_cell", counted)
    shared = [row for row in checks.CRITERIA if "cells" in
              checks.defaults(row.check)]  # the two that share the cells
    monkeypatch.setattr(checks, "CRITERIA", shared)
    _, (bands, trend) = experiments.validate("full")
    assert (bands.check, trend.check) == ("leafwalk_bands", "leafwalk_cv_trend")
    assert sorted(depths) == [4, 5, 6, 7]
