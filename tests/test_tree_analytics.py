import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogline import (BudgetExceededError, FamilyError, Orbits,
                      ParameterError, build_graph, expected_hit, gambler_ruin,
                      green_sums,
                      kappa_sequence, leaf_to_root_closed_form, level_chain,
                      mixing_crossing_time, mixing_deviation, mixing_profile,
                      mu_table, parse_descriptor, return_sum_envelope,
                      select_spread_set, stationary_levels, threshold_time,
                      transition_powers)
from frogline.checks import chain_matrix, ruin_probability_dp
from frogline import tree_analytics as ta
from frogline.tree_analytics import apply_transition, powers

from oracles import bfs_distances, dense_transition, stationary_solve


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
    # every quantity read off the operator loop, against dense matrix powers
    for text in ("tree:d=2,n=3", "cycle:n=6", "complete:n=5",
                 "tree:d=2,n=4", "cycle:n=7", "complete:n=6", "tree:d=3,n=2"):
        g = build_graph(parse_descriptor(text))
        orbits = Orbits(g)
        A = orbits.targets()
        P = dense_transition(g)
        Pt = [np.linalg.matrix_power(P, t) for t in range(13)]
        for v in (0, g.vertex_count - 1):
            got = transition_powers(g, v, 12)
            assert np.allclose(got, [M[v, v] for M in Pt], atol=1e-12)
            if v not in A:
                continue
            # Pr_w[T_v <= t] is the mass at v after t steps with v absorbing
            Q = P.copy()
            Q[v] = 0.0
            Q[v, v] = 1.0
            want = [np.linalg.matrix_power(Q, t)[:, v].sum() - 1
                    for t in range(13)]
            assert np.abs(mu_table(g, 1.0, 12) - want).max() < 1e-12
        # every target pair reads its class's row, for every s
        want = np.cumsum([M[np.ix_(A, A)] for M in Pt], axis=0)
        got = green_sums(g, 12)[orbits.pair_class(A[:, None], A[None, :])]
        assert np.abs(got - np.moveaxis(want, 0, 2)).max() < 1e-12
        if g.family == "tree":
            ts = [0, 3, 8, 12]
            want = [(t, mixing_deviation(g, t, m=Pt[t])) for t in ts]
            got = mixing_profile(g, ts)
            assert [t for t, _ in got] == ts
            assert np.allclose([dev for _, dev in got],
                               [dev for _, dev in want], atol=1e-12)


@pytest.mark.parametrize("text", ["tree:d=2,n=3", "tree:d=3,n=3",
                                  "cycle:n=6", "cycle:n=7", "complete:n=5"])
def test_pair_classes(text):
    # the meet's coheight on trees, the graph distance on cycles, a = b or
    # not on K_n; (A[0], pair_reps[k]) is of class k
    g = build_graph(parse_descriptor(text))
    orbits = Orbits(g)
    A = [int(a) for a in orbits.targets()]
    assert A == ([int(v) for v in g.leaves()] if g.family == "tree"
                 else list(range(g.vertex_count)))
    for a in A:
        dist = bfs_distances(g, a)
        for b in A:
            if g.family == "tree":
                want = g.n - g.level(g.meet(a, b))
            elif g.family == "cycle":
                want = dist[b]
            else:
                want = int(a != b)
            assert orbits.pair_class(a, b) == want, (a, b)
    assert [orbits.pair_class(A[0], b) for b in orbits.pair_reps] == list(
        range(len(orbits.pair_reps)))


def test_powers_steps_the_array_it_yielded():
    g = build_graph(parse_descriptor("tree:d=2,n=3"))
    P = dense_transition(g)
    y = np.zeros(g.vertex_count)
    y[0] = 1.0
    loop = powers(g, y, 3)
    first = next(loop)
    assert first is y
    first[:] = 0.0
    first[5] = 1.0  # moved in place: the next step starts from here
    assert np.allclose(next(loop), P[:, 5], atol=1e-15)
    assert len(list(powers(g, y, 4))) == 5
    # the rows green_sums reads: from a target a, P^t e_a agrees with
    # (P^T)^t e_a on the targets, which share one degree
    for text in ("tree:d=2,n=3", "tree:d=3,n=2", "cycle:n=7", "complete:n=6"):
        g = build_graph(parse_descriptor(text))
        P = dense_transition(g)
        A = g.leaves() if g.family == "tree" else np.arange(g.vertex_count)
        for a in (A[0], A[-1]):
            x = np.zeros(g.vertex_count)
            x[a] = 1.0
            for t, y in enumerate(powers(g, x.copy(), 8)):
                want = np.linalg.matrix_power(P.T, t) @ x
                assert np.allclose(y[A], want[A], atol=1e-15), (text, a, t)


def test_apply_transition_adjoint():
    g = build_graph(parse_descriptor("tree:d=3,n=3"))
    rng = np.random.default_rng(7)
    x = rng.random(g.vertex_count)
    y = rng.random(g.vertex_count)
    assert np.dot(dense_transition(g).T @ x, y) == \
        pytest.approx(np.dot(x, apply_transition(g, y)))


def test_kappa_frozen_complete_100():
    g = build_graph(parse_descriptor("complete:n=100"))
    kappa = kappa_sequence(g, 3)
    assert kappa[0] == pytest.approx(1.0)
    assert kappa[1] == pytest.approx(1.0)
    assert kappa[2] == pytest.approx(1 + 1 / 99)
    assert threshold_time(g, 1.0, 0.0, 8) == 3


def test_threshold_monotone_in_delta():
    g = build_graph(parse_descriptor("complete:n=100"))
    t0 = threshold_time(g, 1.0, 0.0, 8)
    t5 = threshold_time(g, 1.0, 0.5, 8)
    assert t5 <= t0
    with pytest.raises(ParameterError):
        threshold_time(g, 1.0, 1.0, 8)
    with pytest.raises(BudgetExceededError) as err:
        threshold_time(build_graph(parse_descriptor("cycle:n=40")),
                       0.001, 0.0, 3)
    assert err.value.attained is not None


@pytest.mark.parametrize("text", ["cycle:n=5", "tree:d=2,n=40"])
def test_negative_t_max_rejected(text):
    # rejected before any table is sized: the depth-40 tree's tables would
    # otherwise be refused by the byte guard
    g = build_graph(parse_descriptor(text))
    for call in (lambda: kappa_sequence(g, -1),
                 lambda: threshold_time(g, 1.0, 0.0, -1),
                 lambda: mu_table(g, 1.0, -1),
                 lambda: green_sums(g, -1)):
        with pytest.raises(ParameterError, match="t_max"):
            call()


def test_mu_is_lambda_times_hitting_mass():
    # every target's row: lambda times the mass absorbed at it, less its own
    g = build_graph(parse_descriptor("cycle:n=9"))
    lam = 1.5
    mu = mu_table(g, lam, 10)
    assert mu.shape == (11,)
    P = dense_transition(g)
    for a in range(9):
        Q = P.copy()
        Q[a] = 0.0
        Q[a, a] = 1.0
        want = [lam * (np.linalg.matrix_power(Q, t)[:, a].sum() - 1)
                for t in range(11)]
        assert np.allclose(mu, want, atol=1e-12)
    assert np.all(mu <= lam * np.arange(11) + 1e-12)


def test_mu_complete_one_step():
    g = build_graph(parse_descriptor("complete:n=25"))
    assert mu_table(g, 2.0, 4)[1] == pytest.approx(2.0)


def test_green_matrix_and_spread_set_bounds():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    orbits = Orbits(g)
    A = [int(a) for a in orbits.targets()]
    green = orbits.pair_matrix(green_sums(g, 8)[:, 8])
    P = dense_transition(g)
    want = sum(np.linalg.matrix_power(P, i) for i in range(9))
    assert np.abs(green - want[np.ix_(A, A)]).max() < 1e-12
    idx = {a: i for i, a in enumerate(A)}
    t, s = 8, 2
    B = select_spread_set(A, t, s, green)
    assert set(B) <= set(A)
    assert len(B) * (1 + s * t * t) >= len(A)
    for x in B:
        for y in B:
            if x != y:
                assert green[idx[x], idx[y]] < 1.0 / (s * t)


def test_spread_set_single_survivor():
    g = build_graph(parse_descriptor("complete:n=3"))
    green = Orbits(g).pair_matrix(green_sums(g, 1)[:, 1])
    assert select_spread_set([0, 1, 2], 1, 4, green) == [0]


def test_spread_set_on_4096_leaves(peak_bytes):
    # the 4096 x 4096 pair matrix at t = 64, built from 13 Green rows
    g = build_graph(parse_descriptor("tree:d=2,n=12"))
    orbits = Orbits(g)
    t, s = 64, 1
    with peak_bytes() as peak:
        green = orbits.pair_matrix(green_sums(g, t)[:, t])
    assert peak[0] < ta.PAIR_MATRIX_BYTES * 4096 ** 2, peak
    B = select_spread_set(list(orbits.targets()), t, s, green)
    assert len(B) * (1 + s * t * t) >= 4096
    rows = np.asarray(B) - orbits.first
    sub = green[np.ix_(rows, rows)]
    assert np.all(sub[~np.eye(len(B), dtype=bool)] < 1.0 / (s * t))


def test_m_A_is_min_diagonal_green():
    # m_A[s] = min over a of e_{a,a}(s), the row of class 0: kappa when
    # A = V on a vertex-transitive graph
    g = build_graph(parse_descriptor("cycle:n=6"))
    green = green_sums(g, 6)
    diag = Orbits(g).pair_matrix(green[:, 6]).diagonal()
    assert np.allclose(diag, green[0, 6], atol=0)
    assert np.allclose(green[0], kappa_sequence(g, 6))


# recorded from lower_bound_quantities, the one call that computed all of
# these before threshold_time, mu_table and green_sums replaced it: the
# graph, lambda and t_max of mu and Green, thresholds {(lambda, delta): t}
# at t_max 64, mu {(a, t)} and its sum, Green {(ai, bi, s)} and its sum
_PINNED = [
    ("complete:n=100", 1.0, 8,
     {(1.0, 0.0): 3, (1.0, 0.5): 2, (0.25, 0.0): 11, (0.25, 0.5): 5},
     {(0, 1): 1.0000000000000009, (0, 8): 7.72281385718005,
      (99, 8): 7.722813857180052}, 3516.42419963547,
     {(0, 0, 8): 1.0701, (0, -1, 8): 0.0801, (0, 1, 8): 0.0801}, 4500.0),
    ("cycle:n=15", 1.5, 64,
     {(1.5, 0.0): 1, (1.5, 0.5): 1, (1.0, 0.0): 3, (1.0, 0.5): 1,
      (0.25, 0.0): 21, (0.25, 0.5): 6},
     {(0, 1): 1.5, (0, 8): 5.47265625, (0, 64): 16.59775962360403,
      (14, 64): 16.59775962360403}, 10830.747275412597,
     {(0, 0, 64): 6.833932214080718, (0, -1, 64): 5.869260283393705,
      (0, 1, 8): 1.4609375}, 32175.0),
    ("tree:d=2,n=4", 1.0, 64,
     {(1.0, 0.0): 3, (1.0, 0.5): 1, (0.25, 0.0): 13, (0.25, 0.5): 6},
     {(15, 1): 0.33333333333333326, (15, 8): 2.1889955799420835,
      (15, 64): 9.650576314923365, (30, 8): 2.188995579942082,
      (30, 64): 9.650576314923368}, 5850.300317336131,
     {(0, 0, 64): 3.9818181030877113, (0, -1, 64): 0.41420871504884776,
      (0, 1, 8): 0.9778235025148604}, 10013.909333333386),
]


@pytest.mark.parametrize("text,lam,t_max,thresholds,mus,mu_sum,greens,"
                         "green_sum", _PINNED)
def test_lower_bound_values_pinned(text, lam, t_max, thresholds, mus, mu_sum,
                                   greens, green_sum):
    g = build_graph(parse_descriptor(text))
    for (lam_t, delta), want in thresholds.items():
        assert threshold_time(g, lam_t, delta, 64) == want
    # mu and the Green sums as they were recorded, one row per target and
    # one per target pair, read off the rows of mu_table and green_sums
    orbits = Orbits(g)
    A = list(orbits.targets())
    mu = mu_table(g, lam, t_max)
    for (a, t), want in mus.items():
        assert a in A and mu[t] == pytest.approx(want, rel=1e-12)
    assert len(A) * mu.sum() == pytest.approx(mu_sum, rel=1e-12)
    green = green_sums(g, t_max)
    for (ai, bi, s), want in greens.items():
        got = green[orbits.pair_class(A[ai], A[bi]), s]
        assert got == pytest.approx(want, rel=1e-12)
    pairs = np.bincount(orbits.pair_class(np.asarray(A)[:, None],
                                          np.asarray(A)[None, :]).ravel())
    assert pairs @ green.sum(axis=1) == pytest.approx(green_sum, rel=1e-12)


def test_green_sums_byte_bound(peak_bytes):
    # the transition vectors of a depth-26 tree (6.4 GB), refused before
    # any allocation
    g = build_graph(parse_descriptor("tree:d=2,n=26"))
    with peak_bytes() as peak, pytest.raises(BudgetExceededError,
                                             match="needs about 6.44e"):
        green_sums(g, 256)
    assert peak[0] < 2 ** 22, peak


def test_green_sums_deep_tree_peak(peak_bytes):
    # the 4096 leaves of depth 12 to t = 256: one walk and 13 rows, no
    # per-pair array
    g = build_graph(parse_descriptor("tree:d=2,n=12"))
    with peak_bytes() as peak:
        green = green_sums(g, 256)
    assert green.shape == (13, 257)
    assert peak[0] < 16 * 2 ** 20, peak


def test_green_sums_work_bound(peak_bytes):
    # a few bytes a step, but 10^5 steps of a 131071-vector are 1.3e10
    # operator entries: refused before any allocation
    g = build_graph(parse_descriptor("tree:d=2,n=16"))
    with peak_bytes() as peak, pytest.raises(BudgetExceededError,
                                             match="1.31e.10 operator"):
        green_sums(g, 100000)
    assert peak[0] < 2 ** 22, peak


def test_green_sums_one_walk_peak(peak_bytes):
    # the rows and the vectors of one walk are the whole estimate: the
    # running sums are taken in place, not in a second copy of the rows
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    t_max = 10000
    with peak_bytes() as peak:
        green_sums(g, t_max)
    estimate = 8 * (5 * (t_max + 1) + 6 * g.vertex_count)
    assert peak[0] < estimate + 2 ** 15, (peak, estimate)


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


def test_mixing_crossing_names_the_work_limit(monkeypatch):
    # a search cut short by the work limit says so instead of reporting
    # that no crossing exists (tree n=4 crosses at t = 64)
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    monkeypatch.setattr(ta, "ANALYTIC_ENTRY_LIMIT", 32 * g.vertex_count ** 2)
    with pytest.raises(BudgetExceededError,
                       match=r"no 1/e crossing by t=32 \(work limit\)"):
        mixing_crossing_time(g)
    # the 64 |V| cap alone names no limit
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError,
                       match=r"no 1/e crossing by t=1984$"):
        mixing_crossing_time(g, level=0.0)


def test_mixing_refuses_a_cycle_before_its_budget():
    # 10^6 entries a step for 10^5 steps: the family error comes first
    g = build_graph(parse_descriptor("cycle:n=1000"))
    with pytest.raises(FamilyError):
        mixing_profile(g, [100000])
    with pytest.raises(FamilyError):
        mixing_crossing_time(g)


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
