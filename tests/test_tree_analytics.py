import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogline import (BudgetExceededError, FamilyError, ParameterError,
                      build_graph, expected_hit, gambler_ruin, kappa_sequence,
                      leaf_to_root_closed_form, level_chain,
                      lower_bound_quantities, mixing_crossing_time,
                      mixing_deviation, mixing_profile, parse_descriptor,
                      return_sum_envelope, select_spread_set,
                      stationary_levels, transition_powers)
from frogline.checks import chain_matrix, ruin_probability_dp
from frogline.tree_analytics import apply_transition, apply_transition_T, \
    hitting_within

from oracles import dense_transition, stationary_solve


def test_level_chain_rates():
    ch = level_chain(3, 4)
    assert ch.up[0] == 1.0 and ch.down[4] == 1.0
    assert np.allclose(ch.up[1:4], 3 / 4)
    assert np.allclose(ch.down[1:4], 1 / 4)
    with pytest.raises(ParameterError):
        level_chain(1, 4)


def test_stationary_frozen_values():
    # hand-derived for d=2, n=2: (1/6, 1/2, 1/3)
    pi = stationary_levels(level_chain(2, 2))
    assert np.allclose(pi, [1 / 6, 1 / 2, 1 / 3], atol=1e-15)


def test_stationary_is_left_fixed_point():
    for d in (2, 3, 4):
        for n in (1, 2, 5, 8):
            ch = level_chain(d, n)
            pi = stationary_levels(ch)
            assert abs(pi.sum() - 1) < 1e-12
            assert np.abs(pi @ chain_matrix(ch) - pi).max() < 1e-12
            assert np.abs(pi - stationary_solve(ch)).max() < 1e-10


def test_gambler_ruin_frozen_and_dp():
    assert abs(gambler_ruin(2, 2, 1) - 1 / 3) < 1e-15
    for d in (2, 3, 4):
        for n in (2, 4, 8):
            for i in range(n):
                assert abs(gambler_ruin(d, n, i) -
                           ruin_probability_dp(d, n, i)) < 1e-12
    with pytest.raises(ParameterError):
        gambler_ruin(2, 4, 4)  # start must precede the far boundary


def test_expected_hit_frozen_values():
    assert expected_hit(level_chain(2, 2), "leaf_to_root") == pytest.approx(6.0)
    assert expected_hit(level_chain(2, 4), "leaf_to_root") == pytest.approx(48.0)
    # crossing from 0 at (2,2): pi-weighted tail 5, plus the forced last step
    assert expected_hit(level_chain(2, 2), "crossing", 0) == pytest.approx(5.0)
    assert expected_hit(level_chain(2, 2), "crossing", 1) == pytest.approx(1.0)


def test_closed_form_additive_gap():
    for d in (2, 3, 4):
        for n in range(1, 9):
            gap = abs(expected_hit(level_chain(d, n), "leaf_to_root") -
                      leaf_to_root_closed_form(d, n))
            assert gap <= 3.0
            if d == 2:
                assert gap < 1e-9  # exact at d=2


def test_expected_hit_monte_carlo():
    rng = np.random.default_rng(4242)
    for d, n in [(2, 3), (3, 5)]:
        ch = level_chain(d, n)
        exact = expected_hit(ch, "leaf_to_root")
        hits = np.empty(10_000)
        up = ch.up
        for k in range(hits.size):
            state, t = n, 0
            while state:
                state += 1 if rng.random() < up[state] else -1
                t += 1
            hits[k] = t
        se = hits.std(ddof=1) / np.sqrt(hits.size)
        assert abs(hits.mean() - exact) < 3 * se


def test_transition_powers_match_dense():
    for text in ("tree:d=2,n=3", "cycle:n=6", "complete:n=5"):
        g = build_graph(parse_descriptor(text))
        P = dense_transition(g)
        for v in (0, g.vertex_count - 1):
            got = transition_powers(g, v, 12)
            M = np.eye(g.vertex_count)
            want = []
            for _ in range(13):
                want.append(M[v, v])
                M = M @ P
            assert np.allclose(got, want, atol=1e-12)


def test_apply_transition_adjoint():
    g = build_graph(parse_descriptor("tree:d=3,n=3"))
    rng = np.random.default_rng(7)
    x = rng.random(g.vertex_count)
    y = rng.random(g.vertex_count)
    assert np.dot(apply_transition_T(g, x), y) == \
        pytest.approx(np.dot(x, apply_transition(g, y)))


def test_kappa_frozen_complete_100():
    g = build_graph(parse_descriptor("complete:n=100"))
    kappa = kappa_sequence(g, 3)
    assert kappa[0] == pytest.approx(1.0)
    assert kappa[1] == pytest.approx(1.0)
    assert kappa[2] == pytest.approx(1 + 1 / 99)
    q = lower_bound_quantities(g, 1.0, 0.0, 8)
    assert q.threshold == 3


def test_threshold_monotone_in_delta():
    g = build_graph(parse_descriptor("complete:n=100"))
    t0 = lower_bound_quantities(g, 1.0, 0.0, 8).threshold
    t5 = lower_bound_quantities(g, 1.0, 0.5, 8).threshold
    assert t5 <= t0
    with pytest.raises(ParameterError):
        lower_bound_quantities(g, 1.0, 1.0, 8)
    with pytest.raises(BudgetExceededError) as err:
        lower_bound_quantities(build_graph(parse_descriptor("cycle:n=40")),
                               0.001, 0.0, 3)
    assert err.value.attained is not None


def test_mu_is_lambda_times_hitting_mass():
    g = build_graph(parse_descriptor("cycle:n=9"))
    lam = 1.5
    q = lower_bound_quantities(g, lam, 0.0, 10)
    for a in q.targets:
        h = hitting_within(g, int(a), 10)
        want = lam * (h.sum(axis=1) - 1)  # exclude the target itself
        assert np.allclose(q.mu[int(a)], want, atol=1e-12)
        assert np.all(q.mu[int(a)] <= lam * np.arange(11) + 1e-12)


def test_mu_complete_one_step():
    g = build_graph(parse_descriptor("complete:n=25"))
    q = lower_bound_quantities(g, 2.0, 0.0, 4)
    assert q.mu[0][1] == pytest.approx(2.0)


def test_hitting_within_is_a_cdf():
    g = build_graph(parse_descriptor("tree:d=2,n=3"))
    h = hitting_within(g, 0, 12)
    assert np.all(np.diff(h, axis=0) >= -1e-15)
    assert np.allclose(h[:, 0], 1.0)
    assert np.all((0 <= h) & (h <= 1 + 1e-15))


def test_green_matrix_and_spread_set_bounds():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    q = lower_bound_quantities(g, 1.0, 0.0, 8)
    A = list(q.targets)
    assert A == [int(v) for v in g.leaves()]
    idx = {a: i for i, a in enumerate(A)}
    t, s = 8, 2
    B = select_spread_set(A, t, s, q.green[:, :, t])
    assert set(B) <= set(A)
    assert len(B) * (1 + s * t * t) >= len(A)
    for x in B:
        for y in B:
            if x != y:
                assert q.green[idx[x], idx[y], t] < 1.0 / (s * t)


def test_spread_set_single_survivor():
    g = build_graph(parse_descriptor("complete:n=3"))
    q = lower_bound_quantities(g, 1.0, 0.0, 1)
    assert select_spread_set(list(q.targets), 1, 4, q.green[:, :, 1]) == [0]


def test_m_A_is_min_diagonal_green():
    g = build_graph(parse_descriptor("cycle:n=6"))
    q = lower_bound_quantities(g, 1.0, 0.0, 6)
    diag = q.green[np.arange(len(q.targets)), np.arange(len(q.targets)), :]
    assert np.allclose(q.m_A, diag.min(axis=0))
    assert np.allclose(q.m_A, q.kappa)  # vertex-transitive, all targets


def test_mixing_deviation_t0_formula():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    edges = g.vertex_count - 1
    assert mixing_deviation(g, 0) == pytest.approx(edges / 1 - 1)
    with pytest.raises(FamilyError):
        mixing_deviation(build_graph(parse_descriptor("cycle:n=6")), 0)


def test_mixing_profile_even_nonincreasing():
    g = build_graph(parse_descriptor("tree:d=2,n=5"))
    profile = mixing_profile(g, list(range(0, 41, 2)))
    devs = [dev for _, dev in profile]
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


def test_mixing_crossing_frozen():
    # exact kernel values, locked: first even t with deviation <= 1/e
    assert mixing_crossing_time(
        build_graph(parse_descriptor("tree:d=2,n=4"))) == 64
    assert mixing_crossing_time(
        build_graph(parse_descriptor("tree:d=2,n=5"))) == 148


def test_return_sum_envelope_values():
    assert return_sum_envelope(2, 6, 2) == pytest.approx(2 + 2 / 64)
    assert return_sum_envelope(2, 6, 64) == pytest.approx(8.0, abs=1e-6)


@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_crossing_matches_backward_recursion(d, n, j):
    # E_{j+1}[T_j] from first-step analysis, solved from the top down
    if j >= n:
        return
    ch = level_chain(d, n)
    h = np.zeros(n + 1)  # h[k] = expected time k -> k-1
    h[n] = 1.0
    for k in range(n - 1, 0, -1):
        h[k] = (1 + ch.up[k] * h[k + 1]) / (1 - ch.up[k])
    assert expected_hit(ch, "crossing", j) == pytest.approx(h[j + 1])
