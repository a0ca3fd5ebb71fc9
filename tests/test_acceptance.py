"""Acceptance suite: ten end-to-end criteria at full scale.

Each criterion is a check of `frogline.checks`, run here at the acceptance
scale (the checks' defaults are `frogline validate`'s scale); the table in
that module's docstring lists both. Each test asserts that every check it
runs passed within its time budget and prints one PASS line with the
checks' details (visible under pytest -s or in the captured output).
Scales and tolerances are fixed, so a failure here means the library
moved, not the test.
"""

import time

from frogline import checks


def _accept(num, label, budget, *runs):
    """Run each check call in `runs`; all must pass, within `budget` seconds
    (None: no budget)."""
    t0 = time.perf_counter()
    results = [run() for run in runs]
    took = time.perf_counter() - t0
    for r in results:
        assert r.passed, (r.check, r.detail)
    assert budget is None or took < budget
    print("[criterion %02d] PASS %s: %s, %.1fs" %
          (num, label, "; ".join("%s: %s" % (r.check, r.detail)
                                 for r in results), took))


def test_01_convolution_law_equals_dp():
    _accept(1, "spectral law vs DP", 10, checks.check_spectral_oracle,
            checks.check_hitting_expectations)


def test_02_closed_forms():
    _accept(2, "closed forms", 10, checks.check_stationary_levels,
            lambda: checks.check_gambler_ruin(ns=range(1, 9)),
            checks.check_hitting_expectations)


def test_03_activation_equals_shortest_paths():
    cases = (["tree:d=2,n=%d" % n for n in (1, 2, 3)] +
             ["cycle:n=%d" % n for n in range(3, 10)] +
             ["complete:n=%d" % n for n in range(2, 9)])
    _accept(3, "activation oracle", 60, lambda: checks.check_activation_oracle(
        cases, taus=range(41), seeds=range(20), lambdas=(0.0, 1.0, 2.0)))


def test_04_complete_graph_ratio():
    _accept(4, "complete graph", 300, lambda: checks.check_complete_ratio(
        n=10_000, trials=50, seed_base=29))


def test_05_tree_scaling_band():
    _accept(5, "tree scaling", 600, lambda: checks.check_tree_band(
        ns=(6, 8, 10), trials=30, seed_base=37))


def test_05b_deep_tree_scaling_band():
    """Criterion 05 at depths 12-16 (up to 131k vertices), same band."""
    _accept(5, "deep tree scaling", 600, lambda: checks.check_tree_band(
        ns=(12, 14, 16), trials=5, seed_base=37))


def test_06_monotone_coupling():
    _accept(6, "coupling", 120, checks.check_coupling_monotone)


def test_07_return_sums_and_mixing_band():
    _accept(7, "kernel bands", 120,
            lambda: checks.check_return_sums(leaves=(0, -1)),
            lambda: checks.check_mixing_crossing(ns=(5, 6)))


def test_08_killed_leaf_walk():
    _accept(8, "leaf walk", 300, lambda: checks.check_leafwalk_bands(
        checks.leafwalk_cells(trials=200, seed=41)))


def test_09_lower_bound_toolkit():
    _accept(9, "lower-bound toolkit", None,
            lambda: checks.check_mu_bounds(cases=[
                ("complete:n=50", 1.0, 10), ("cycle:n=24", 2.0, 10),
                ("complete:n=100", 0.5, 10)]),
            lambda: checks.check_spread_set(cases=[
                ("tree:d=2,n=4", 8, 2), ("tree:d=2,n=5", 12, 3),
                ("complete:n=3", 1, 4), ("cycle:n=12", 6, 2)]),
            checks.check_kappa_threshold)


def test_10_pmf_structure():
    _accept(10, "pmf structure", None, checks.check_logconcavity,
            checks.check_part3_bound)
