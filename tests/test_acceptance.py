"""Acceptance suite: ten end-to-end criteria at full scale.

Each test prints one PASS line with its headline numbers (visible under
pytest -s or in the captured output); scales and tolerances are fixed, so
a failure here means the library moved, not the test.
"""

import time
from math import log, sqrt

import numpy as np
import pytest

from frogline import (WalkStore, bands, build_graph, expected_hit,
                      geometric_convolution_law, green_sums,
                      hitting_eigenvalues, hitting_pmf_dp,
                      leaf_to_root_closed_form, level_chain,
                      mixing_crossing_time, mu_table, parse_descriptor,
                      run_activation, select_spread_set, stationary_levels,
                      susceptibility, threshold_time, total_variation,
                      transition_powers)
from frogline.checks import (activation_oracle, chain_matrix, check_logconcave,
                             complete_graph_ratio, first_visit_table,
                             half_e2_t0, leafwalk_cell, return_sum_envelope,
                             ruin_probability_dp, susceptibility_pair,
                             tree_ratio_medians)
from frogline.randomness import init_config as _init


def _report(num, label, detail):
    print("[criterion %02d] PASS %s: %s" % (num, label, detail))


def test_01_convolution_law_equals_dp():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for n in range(2, 7):
            ch = level_chain(d, n)
            law = geometric_convolution_law(hitting_eigenvalues(ch),
                                            "odd" if n % 2 else "even")
            dp = hitting_pmf_dp(ch, n, law.offset + 2 * len(law.masses) + 64)
            worst = max(worst, total_variation(law, dp))
    assert worst < 1e-9
    assert expected_hit(level_chain(2, 2), "leaf_to_root") == pytest.approx(6.0)
    assert expected_hit(level_chain(2, 4), "leaf_to_root") == pytest.approx(48.0)
    took = time.perf_counter() - t0
    assert took < 10
    _report(1, "spectral law vs DP", "max TV %.2e, %.1fs" % (worst, took))


def test_02_closed_forms():
    t0 = time.perf_counter()
    worst_pi = worst_q = worst_hit = 0.0
    for d in (2, 3, 4):
        for n in range(1, 9):
            ch = level_chain(d, n)
            pi = stationary_levels(ch)
            worst_pi = max(worst_pi, float(np.abs(pi @ chain_matrix(ch) - pi).max()))
            for i in range(n):
                from frogline import gambler_ruin
                worst_q = max(worst_q, abs(gambler_ruin(d, n, i) -
                                           ruin_probability_dp(d, n, i)))
            worst_hit = max(worst_hit,
                            abs(expected_hit(ch, "leaf_to_root") -
                                leaf_to_root_closed_form(d, n)))
    assert worst_pi < 1e-12
    assert worst_q < 1e-12
    assert worst_hit <= 3.0
    took = time.perf_counter() - t0
    assert took < 10
    _report(2, "closed forms", "pi %.1e, q %.1e, hit gap %.3f, %.1fs" %
            (worst_pi, worst_q, worst_hit, took))


def test_03_activation_equals_shortest_paths():
    t0 = time.perf_counter()
    cases = (["tree:d=2,n=%d" % n for n in (1, 2, 3)] +
             ["cycle:n=%d" % n for n in range(3, 10)] +
             ["complete:n=%d" % n for n in range(2, 9)])
    checked = 0
    for text in cases:
        g = build_graph(parse_descriptor(text))
        for lam in (0.0, 1.0, 2.0):
            for seed in range(20):
                init = _init(g, lam, 0, seed)
                walks = WalkStore(g, init)
                ell = first_visit_table(g, init, walks, 40)
                for tau in range(41):
                    got = run_activation(g, init, walks, tau)
                    want = activation_oracle(g, init, ell, tau)
                    assert np.array_equal(got.at, want), \
                        (text, lam, seed, tau)
                    checked += 1
    took = time.perf_counter() - t0
    assert took < 60
    _report(3, "activation oracle", "%d cases agree exactly, %.1fs" %
            (checked, took))


def test_04_complete_graph_ratio():
    t0 = time.perf_counter()
    ratio = complete_graph_ratio(10_000, trials=50, seed=29)
    assert 0.7 <= ratio <= 1.5
    took = time.perf_counter() - t0
    assert took < 300
    _report(4, "complete graph", "median S/ln n = %.3f, %.1fs" % (ratio, took))


def test_05_tree_scaling_band():
    t0 = time.perf_counter()
    meds = tree_ratio_medians((6, 8, 10), trials=30, seed=37)
    assert all(np.isfinite(m) and m > 0 for m in meds)
    spread = max(meds) / min(meds)
    assert spread < 3.0
    took = time.perf_counter() - t0
    assert took < 600
    _report(5, "tree scaling", "medians %s, spread x%.2f, %.1fs" %
            (["%.3f" % m for m in meds], spread, took))


def test_05b_deep_tree_scaling_band():
    """Criterion 05 at depths 12-16 (up to 131k vertices), same band."""
    t0 = time.perf_counter()
    ns, seed = (12, 14, 16), 37
    meds = tree_ratio_medians(ns, trials=5, seed=seed)
    assert all(np.isfinite(m) and m > 0 for m in meds)
    spread = max(meds) / min(meds)
    assert spread < 3.0
    # the first trial at each depth: lifetime S covers, S - 1 does not
    for n in ns:
        g = build_graph(parse_descriptor("tree:d=2,n=%d" % n))
        init = _init(g, 1.0, 0, seed + 1000 * n)  # tree_ratio_medians' trial 0
        walks = WalkStore(g, init)
        s = susceptibility(g, init, walks)
        assert run_activation(g, init, walks, s).covered, n
        assert not run_activation(g, init, walks, s - 1).covered, n
    took = time.perf_counter() - t0
    assert took < 600
    _report(5, "deep tree scaling", "medians %s, spread x%.2f, %.1fs" %
            (["%.3f" % m for m in meds], spread, took))


def test_06_monotone_coupling():
    t0 = time.perf_counter()
    desc = parse_descriptor("tree:d=2,n=6")
    worst = 0
    for seed in range(20):
        lo, hi = susceptibility_pair(desc, seed, 1.0, 2.0)
        assert hi <= lo
        worst = max(worst, hi - lo)
    took = time.perf_counter() - t0
    assert took < 120
    _report(6, "coupling", "S(2) <= S(1) on 20/20 seeds, %.1fs" % took)


def test_07_return_sums_and_mixing_band():
    t0 = time.perf_counter()
    g = build_graph(parse_descriptor("tree:d=2,n=6"))
    lo = bands.RETURN_SUM_CENTER / bands.RETURN_SUM_FACTOR
    hi = bands.RETURN_SUM_CENTER * bands.RETURN_SUM_FACTOR
    ratios = []
    for leaf in (int(g.leaves()[0]), g.vertex_count - 1):
        sums = np.cumsum(transition_powers(g, leaf, 256))
        for t in (4, 16, 64, 256):
            r = float(sums[t]) / return_sum_envelope(2, 6, t)
            ratios.append(r)
            assert lo <= r <= hi
    crossings = []
    for n in (5, 6):
        gg = build_graph(parse_descriptor("tree:d=2,n=%d" % n))
        ratio = mixing_crossing_time(gg) / (2 ** (n - 1) * log(2))
        crossings.append(ratio)
        assert bands.MIXING_BAND_LO <= ratio <= bands.MIXING_BAND_HI
    took = time.perf_counter() - t0
    assert took < 120
    _report(7, "kernel bands", "return %.2f..%.2f, crossing %s, %.1fs" %
            (min(ratios), max(ratios), ["%.1f" % c for c in crossings], took))


def test_08_killed_leaf_walk():
    t0 = time.perf_counter()
    lo = bands.LEAFWALK_CENTER / sqrt(bands.LEAFWALK_FACTOR)
    hi = bands.LEAFWALK_CENTER * sqrt(bands.LEAFWALK_FACTOR)
    means = []
    for n in (4, 5, 6):
        s = 2 ** (n - 1)
        cell = leafwalk_cell(2, n, s, trials=200, seed=41)
        means.append(cell["mean_ratio"])
        assert lo <= cell["mean_ratio"] <= hi
        p = 1.0 / (2 * s)
        total = cell["taus"].sum()
        rate = cell["restarts"].sum() / total
        assert abs(rate - p) <= 3 * sqrt(p * (1 - p) / total)
    took = time.perf_counter() - t0
    assert took < 300
    _report(8, "leaf walk", "mean ratios %s in [%.2f, %.2f], %.1fs" %
            (["%.3f" % m for m in means], lo, hi, took))


def test_09_lower_bound_toolkit():
    t0 = time.perf_counter()
    # mu_a(t) <= lambda t on regular graphs
    for text, lam in [("complete:n=50", 1.0), ("cycle:n=24", 2.0),
                      ("complete:n=100", 0.5)]:
        g = build_graph(parse_descriptor(text))
        ts = np.arange(11)
        for mu in mu_table(g, lam, 10)[1]:
            assert np.all(mu <= lam * ts + 1e-12)
    # spread-set bounds on every tested instance
    for text, t, s in [("tree:d=2,n=4", 8, 2), ("tree:d=2,n=5", 12, 3),
                       ("complete:n=3", 1, 4), ("cycle:n=12", 6, 2)]:
        g = build_graph(parse_descriptor(text))
        A, green = green_sums(g, t)
        A = list(A)
        B = select_spread_set(A, t, s, green[:, :, t])
        assert len(B) * (1 + s * t * t) >= len(A)
        idx = {a: i for i, a in enumerate(A)}
        for x in B:
            for y in B:
                if x != y:
                    assert green[idx[x], idx[y], t] < 1.0 / (s * t)
    g = build_graph(parse_descriptor("complete:n=100"))
    assert threshold_time(g, 1.0, 0.0, 8) == 3
    took = time.perf_counter() - t0
    _report(9, "lower-bound toolkit",
            "mu caps, spread bounds, t_{1,0}(K_100)=3, %.1fs" % took)


def test_10_pmf_structure():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        for n in range(2, 7):
            ch = level_chain(d, n)
            gammas = hitting_eigenvalues(ch)
            law = geometric_convolution_law(gammas, "odd" if n % 2 else "even")
            ok, where = check_logconcave(law)
            assert ok, (d, n, where)
            assert 1.0 / gammas.min() + 1e-9 >= half_e2_t0(ch)
    took = time.perf_counter() - t0
    _report(10, "pmf structure", "log-concave + spectral floor on 15 chains, "
            "%.1fs" % took)
