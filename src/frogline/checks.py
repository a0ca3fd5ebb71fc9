"""Named property checks behind `frogline validate` and the test suite.

Each check returns a CheckResult; the fast suite is deterministic oracle
work (closed forms vs DP/linear algebra, exact simulation equivalence on
small instances), the full suite adds seeded Monte Carlo band checks. The
measurement helpers are separated from the pass/fail wrappers so the
acceptance tests can run the same measurements at their own scales.
"""

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import log, sqrt

import numpy as np

from . import bands
from .frog_sim import NEVER, cover_time, run_activation, susceptibility
from .graph import COMPLETE, CYCLE, TREE, GraphDescriptor, build_graph
from .leaf_walk import run_killed_leaf_walk
from .randomness import WalkStore, counters, generate_steps, init_config, \
    walk_keys
from .spectral_bd import check_logconcave, geometric_convolution_law, half_e2_t0, \
    hitting_eigenvalues, hitting_pmf_dp, Pmf, total_variation
from .tree_analytics import (expected_hit, gambler_ruin, green_sums,
                             kappa_sequence, leaf_to_root_closed_form,
                             level_chain, mixing_crossing_time,
                             mixing_deviation, mixing_profile, mu_table,
                             powers, return_sum_envelope, select_spread_set,
                             stationary_levels, threshold_time,
                             transition_powers)


@dataclass
class CheckResult:
    check: str
    passed: bool
    detail: str


# ---------------------------------------------------------------- oracles

def chain_matrix(chain):
    n = chain.n
    Q = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        if i < n:
            Q[i, i + 1] = chain.up[i]
        if i > 0:
            Q[i, i - 1] = chain.down[i]
    return Q


def ruin_probability_dp(d, n, i):
    """Pr_i[T_0 < T_n] by linear solve on the absorbing chain."""
    Q = chain_matrix(level_chain(d, n))
    interior = list(range(1, n))
    if i == 0:
        return 1.0
    A = np.eye(len(interior)) - Q[np.ix_(interior, interior)]
    b = Q[interior, 0]
    sol = np.linalg.solve(A, b)
    return float(sol[i - 1])


def expected_hit_solve(chain):
    """E_n[T_0] by first-step analysis linear solve."""
    Q = chain_matrix(chain)
    n = chain.n
    states = list(range(1, n + 1))
    A = np.eye(n) - Q[np.ix_(states, states)]
    h = np.linalg.solve(A, np.ones(n))
    return float(h[-1])


def first_visit_table(g, init, walks, tau_max):
    """ell[x, y]: first step <= tau_max at which a particle based at x
    stands on y; 0 on the diagonal, NEVER where no such particle arrives."""
    V = g.vertex_count
    ell = np.full((V, V), NEVER, dtype=np.int64)
    steps = np.arange(1, tau_max + 1, dtype=np.int64)
    for x in range(V):
        cols = init.columns([x])
        path = walks.advance(init.home[cols], init.keys[cols], 0, tau_max)
        np.minimum.at(ell[x], path, np.broadcast_to(steps, path.shape))
        ell[x, x] = 0
    return ell


def activation_oracle(g, init, ell, tau):
    """Activation times for lifetime tau as shortest paths from the origin,
    by Dijkstra over the first-visit table: x wakes y after ell[x, y] steps
    when 1 <= ell[x, y] <= tau.

    Uses the same realized walks as the wake clock, so agreement must be
    exact, not just in distribution.
    """
    V = g.vertex_count
    usable = (ell >= 1) & (ell <= tau)
    dist = np.full(V, NEVER, dtype=np.int64)
    dist[init.origin] = 0
    heap = [(0, init.origin)]
    done = np.zeros(V, dtype=bool)
    while heap:
        t, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        for y in np.flatnonzero(usable[x] & ~done):
            cand = t + int(ell[x, y])
            if cand < dist[y]:
                dist[y] = cand
                heapq.heappush(heap, (cand, int(y)))
    return dist


# ------------------------------------------------------------ fast checks

_CHAIN_GRID = [(d, n) for d in (2, 3, 4) for n in range(2, 7)]


def _result(name, passed, detail):
    return CheckResult(check=name, passed=bool(passed), detail=detail)


def check_graph_invariants():
    bad = []
    for desc in [GraphDescriptor(TREE, d=2, n=2), GraphDescriptor(TREE, d=3, n=3),
                 GraphDescriptor(COMPLETE, n=5), GraphDescriptor(CYCLE, n=7)]:
        g = build_graph(desc)
        V = g.vertex_count
        degsum = sum(g.degree(v) for v in range(V))
        if g.family == TREE and degsum != 2 * (V - 1):
            bad.append("%s degree sum" % g.label())
        for v in range(V):
            nbrs = g.neighbors(v)
            if len(nbrs) != g.degree(v) or len(set(nbrs)) != len(nbrs):
                bad.append("%s neighbors(%d)" % (g.label(), v))
            if any(v not in g.neighbors(u) for u in nbrs):
                bad.append("%s symmetry at %d" % (g.label(), v))
    # meet vs brute-force ancestor intersection
    for d in (2, 3):
        for n in (2, 3, 4):
            g = build_graph(GraphDescriptor(TREE, d=d, n=n))

            def ancestors(v):
                out = [v]
                while v:
                    v = (v - 1) // d
                    out.append(v)
                return out

            for x in range(g.vertex_count):
                for y in range(g.vertex_count):
                    expect = max(set(ancestors(x)) & set(ancestors(y)),
                                 key=lambda a: g.level(a))
                    if g.meet(x, y) != expect:
                        bad.append("meet(%d,%d) on %s" % (x, y, g.label()))
    # level boundaries partition the index range
    g = build_graph(GraphDescriptor(TREE, d=3, n=4))
    levels = [g.level(v) for v in range(g.vertex_count)]
    if levels != sorted(levels) or set(levels) != set(range(5)):
        bad.append("level partition")
    return _result("graph_invariants", not bad, ";".join(bad) or "ok")


def check_stationary_levels():
    worst = 0.0
    bad = []
    for d in (2, 3, 4):
        for n in range(1, 9):
            chain = level_chain(d, n)
            pi = stationary_levels(chain)
            Q = chain_matrix(chain)
            worst = max(worst, float(np.abs(pi @ Q - pi).max()),
                        abs(float(pi.sum()) - 1.0))
            # closed form: pi_0, pi_n, interior
            denom = 2 * d * (d ** n - 1)
            closed = np.array([d * (d - 1) / denom] +
                              [(d * d - 1) * d ** j / denom for j in range(1, n)] +
                              [d ** n * (d - 1) / denom])
            if np.abs(pi - closed).max() > 1e-12:
                bad.append("closed form d=%d n=%d" % (d, n))
            if not 0.25 < pi[n] <= 0.5:
                bad.append("pi_n range d=%d n=%d" % (d, n))
    ok = worst <= 1e-12 and not bad
    return _result("pi_stationary", ok,
                   "max residual %.2e%s" % (worst, ";" + ";".join(bad) if bad else ""))


def check_gambler_ruin():
    worst = 0.0
    for d in (2, 3, 4):
        for n in range(2, 9):
            for i in range(n):
                worst = max(worst, abs(gambler_ruin(d, n, i) -
                                       ruin_probability_dp(d, n, i)))
    return _result("gambler_ruin_dp", worst <= 1e-12, "max gap %.2e" % worst)


def check_hitting_expectations():
    bad = []
    if abs(expected_hit(level_chain(2, 2), "leaf_to_root") - 6.0) > 1e-12:
        bad.append("E_2[T_0] != 6 at d=2,n=2")
    if abs(expected_hit(level_chain(2, 2), "crossing", 0) - 5.0) > 1e-12:
        bad.append("crossing(0) != 5 at d=2,n=2")
    if abs(expected_hit(level_chain(2, 4), "leaf_to_root") - 48.0) > 1e-10:
        bad.append("E_4[T_0] != 48 at d=2,n=4")
    worst_gap = 0.0
    for d in (2, 3, 4):
        for n in range(1, 9):
            chain = level_chain(d, n)
            exact = expected_hit(chain, "leaf_to_root")
            solve = expected_hit_solve(chain)
            if abs(exact - solve) > 1e-8 * max(1.0, solve):
                bad.append("crossing sum vs solve d=%d n=%d" % (d, n))
            worst_gap = max(worst_gap, abs(exact - leaf_to_root_closed_form(d, n)))
    if worst_gap > 3.0:
        bad.append("closed-form gap %.3f > 3" % worst_gap)
    return _result("hitting_expectations", not bad,
                   ";".join(bad) or "closed-form gap <= %.3f" % worst_gap)


def check_spectral_oracle():
    bad = []
    for d, n in _CHAIN_GRID:
        chain = level_chain(d, n)
        gammas = hitting_eigenvalues(chain)
        if np.any(gammas <= 0) or np.any(gammas > 1):
            bad.append("gamma range d=%d n=%d" % (d, n))
        law = geometric_convolution_law(gammas, "odd" if n % 2 else "even")
        t_max = _dp_horizon(law)
        dp = hitting_pmf_dp(chain, n, t_max)
        tv = total_variation(law, dp)
        if tv >= 1e-9:
            bad.append("tv %.2e d=%d n=%d" % (tv, d, n))
        mean_expected = 2.0 * float((1.0 / gammas).sum()) + (n % 2)
        if abs(law.mean() - mean_expected) > 1e-6:
            bad.append("law mean d=%d n=%d" % (d, n))
        crossing_sum = expected_hit(chain, "leaf_to_root")
        if abs(mean_expected - crossing_sum) > 1e-6 * crossing_sum:
            bad.append("mean vs crossing d=%d n=%d" % (d, n))
    return _result("spectral_oracle", not bad, ";".join(bad) or "ok")


def _dp_horizon(law):
    """A DP horizon far enough that the residual dies below the TV target."""
    return law.offset + 2 * len(law.masses) + 64


def check_logconcavity():
    bad = []
    for d, n in _CHAIN_GRID:
        law = geometric_convolution_law(hitting_eigenvalues(level_chain(d, n)),
                                        "odd" if n % 2 else "even")
        ok, idx = check_logconcave(law)
        if not ok:
            bad.append("law violates at %r (d=%d n=%d)" % (idx, d, n))
    ok, idx = check_logconcave(Pmf(offset=0, masses=np.array([0.4, 0.1, 0.5])))
    if ok or idx != 1:
        bad.append("bimodal counterexample not caught at index 1")
    return _result("logconcave_unimodal", not bad, ";".join(bad) or "ok")


def check_part3_bound():
    bad = []
    for d, n in _CHAIN_GRID:
        chain = level_chain(d, n)
        lhs = 1.0 / float(hitting_eigenvalues(chain)[0])
        rhs = half_e2_t0(chain)
        if lhs < rhs - 1e-9:
            bad.append("1/gamma1=%.4f < %.4f (d=%d n=%d)" % (lhs, rhs, d, n))
    return _result("part3_bound", not bad, ";".join(bad) or "ok")


def check_kappa_threshold():
    bad = []
    g = build_graph(GraphDescriptor(COMPLETE, n=100))
    threshold = threshold_time(g, 1.0, 0.0, 8)
    if threshold != 3:
        bad.append("t_{1,0}(K_100) = %r, want 3" % (threshold,))
    kappa = kappa_sequence(g, 8)
    if abs(kappa[0] - 1.0) > 1e-12 or np.any(np.diff(kappa) < -1e-15):
        bad.append("kappa not a nondecreasing sequence from 1")
    # vertex-transitive: return sums identical across vertices
    for desc in [GraphDescriptor(COMPLETE, n=8), GraphDescriptor(CYCLE, n=9)]:
        gg = build_graph(desc)
        sums = [np.cumsum(transition_powers(gg, v, 10))
                for v in range(gg.vertex_count)]
        if max(float(np.abs(s - sums[0]).max()) for s in sums) > 1e-12:
            bad.append("kappa varies across %s" % gg.label())
    # m_A consistency: on vertex-transitive graphs with A = V, m_A == kappa
    gg = build_graph(GraphDescriptor(COMPLETE, n=12))
    m_A = green_sums(gg, 6)[1].diagonal().min(axis=1)
    if np.abs(m_A - kappa_sequence(gg, 6)).max() > 1e-12:
        bad.append("m_A != kappa on complete(12)")
    return _result("kappa_threshold", not bad, ";".join(bad) or "ok")


def check_mu_bounds():
    bad = []
    for desc, t_max in [(GraphDescriptor(COMPLETE, n=20), 12),
                        (GraphDescriptor(CYCLE, n=15), 12)]:
        g = build_graph(desc)
        lam = 1.5
        A, mus = mu_table(g, lam, t_max)
        for a, mu in zip(A, mus):
            ts = np.arange(t_max + 1)
            if np.any(mu > lam * ts + 1e-12):
                bad.append("mu_a(t) > lambda t on %s at a=%d" % (g.label(), a))
        if g.family == COMPLETE:
            if abs(mus[0][1] - lam) > 1e-12:
                bad.append("mu_a(1) != lambda on %s" % g.label())
    return _result("mu_bounds", not bad, ";".join(bad) or "ok")


def check_spread_set():
    bad = []
    # complete(3), t=1, s=4: all pairwise Green sums 1/2 >= 1/4, so one survivor
    g = build_graph(GraphDescriptor(COMPLETE, n=3))
    A, green = green_sums(g, 1)
    B = select_spread_set(list(A), 1, 4, green[:, :, 1])
    if len(B) < 1 or len(B) * (1 + 4 * 1 * 1) < 3:
        bad.append("complete(3) size bound")
    if len(B) != 1:
        bad.append("complete(3) expected a single survivor, got %r" % (B,))
    # tree(2,4) leaves, t=8, s=2: both bounds, checked against exact sums
    gt = build_graph(GraphDescriptor(TREE, d=2, n=4))
    A, green = green_sums(gt, 8)
    A = list(A)
    B = select_spread_set(A, 8, 2, green[:, :, 8])
    idx = {a: i for i, a in enumerate(A)}
    cut = 1.0 / (2 * 8)
    for x in B:
        for y in B:
            if x != y and green[idx[x], idx[y], 8] >= cut:
                bad.append("pairwise bound fails at (%d,%d)" % (x, y))
    if len(B) * (1 + 2 * 64) < len(A):
        bad.append("tree(2,4) size bound")
    return _result("spread_set", not bad, ";".join(bad) or "ok")


def check_mixing_profile():
    bad = []
    g = build_graph(GraphDescriptor(TREE, d=2, n=4))
    dev0 = mixing_deviation(g, 0)
    expect = (g.vertex_count - 1) / 1.0 - 1.0  # |E|/min deg - 1 (leaf degree 1)
    if abs(dev0 - expect) > 1e-12 or dev0 <= 0:
        bad.append("t=0 deviation %.3f != %.3f" % (dev0, expect))
    evens = [dev for _, dev in mixing_profile(g, range(0, 25, 2))]
    if any(evens[i + 1] > evens[i] + 1e-12 for i in range(len(evens) - 1)):
        bad.append("even-t deviation not nonincreasing")
    return _result("mixing_profile", not bad, ";".join(bad) or "ok")


def mixing_crossing_ratio(d, n):
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    t_star = mixing_crossing_time(g)
    return t_star / (d ** (n - 1) * log(d))


def check_mixing_crossing():
    bad = []
    for d, n in [(2, 4), (2, 5)]:
        ratio = mixing_crossing_ratio(d, n)
        if not bands.MIXING_BAND_LO <= ratio <= bands.MIXING_BAND_HI:
            bad.append("crossing ratio %.3f outside band (d=%d n=%d)" %
                       (ratio, d, n))
    return _result("mixing_crossing", not bad, ";".join(bad) or "ok")


def return_sum_ratios(d, n, ts):
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    leaf = g.vertex_count - 1
    p = transition_powers(g, leaf, max(ts))
    sums = np.cumsum(p)
    return [float(sums[t] / return_sum_envelope(d, n, t)) for t in ts]


def check_return_sums():
    ratios = return_sum_ratios(2, 6, [4, 16, 64, 256])
    lo = bands.RETURN_SUM_CENTER / bands.RETURN_SUM_FACTOR
    hi = bands.RETURN_SUM_CENTER * bands.RETURN_SUM_FACTOR
    ok = all(lo <= r <= hi for r in ratios)
    return _result("return_sums", ok,
                   "ratios %s in [%.3f, %.3f]" %
                   (["%.3f" % r for r in ratios], lo, hi))


def heat_kernel_extremes(d, n, k_max):
    """min/max of p^t(u,v)/deg(v) over the sandwich envelope, leaf pairs."""
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    leaves = g.leaves()
    # representative pairs: one fixed leaf against leaves at every meet depth
    u = int(leaves[0])
    targets = {}
    for v in leaves:
        kk = g.coheight(g.meet(u, int(v)))
        targets.setdefault(kk, int(v))
    lo_ratio, hi_ratio = np.inf, 0.0
    t_hi = d ** k_max
    y = np.zeros(g.vertex_count)
    y[u] = 1.0
    probs = list(powers(g, y, t_hi))
    for meet_co, v in targets.items():
        for k in range(max(1, meet_co), k_max + 1):
            for t in range(d ** (k - 1), d ** k + 1):
                if t % 2 or t < 2 * meet_co:
                    continue  # p^t = 0 off parity or below graph distance
                env = d ** (-k) + d ** (-(k - 1)) * np.exp(-t * d ** (-(k - 1)))
                ratio = float(probs[t][v]) / env  # deg(v) = 1 for leaves
                lo_ratio = min(lo_ratio, ratio)
                hi_ratio = max(hi_ratio, ratio)
    return lo_ratio, hi_ratio


def check_heat_kernel():
    lo, hi = heat_kernel_extremes(2, 6, 5)
    ok = lo >= bands.HK_LO and hi <= bands.HK_HI
    return _result("heat_kernel_sandwich", ok,
                   "ratios in [%.4f, %.4f], band [%.4f, %.4f]" %
                   (lo, hi, bands.HK_LO, bands.HK_HI))


def check_activation_oracle(cases=None, taus=(0, 1, 3, 9), seeds=range(3),
                            lambdas=(0.0, 1.0)):
    cases = cases or [GraphDescriptor(TREE, d=2, n=2),
                      GraphDescriptor(CYCLE, n=6),
                      GraphDescriptor(COMPLETE, n=5)]
    bad = []
    for desc in cases:
        g = build_graph(desc)
        for lam in lambdas:
            for seed in seeds:
                init = init_config(g, lam, 0, seed)
                walks = WalkStore(g, init)
                s = susceptibility(g, init, walks)
                ell = first_visit_table(g, init, walks, max(taus))
                for tau in taus:
                    report = run_activation(g, init, walks, tau)
                    oracle = activation_oracle(g, init, ell, tau)
                    if not np.array_equal(report.at, oracle):
                        bad.append("%s lam=%s seed=%d tau=%d" %
                                   (g.label(), lam, seed, tau))
                    if report.covered != (s <= tau):
                        bad.append("covered flag %s tau=%d" % (g.label(), tau))
    return _result("activation_oracle", not bad, ";".join(bad[:4]) or "ok")


def check_estimate_stats():
    from .experiments import estimate
    bad = []
    s = estimate([5, 5, 5])
    if s["mean"] != 5 or s["se"] != 0:
        bad.append("constant sample")
    if estimate([1, 2, 3, 4, 5])["median"] != 3:
        bad.append("median of 1..5")
    return _result("estimate_stats", not bad, ";".join(bad) or "ok")


def check_reproducibility():
    g = build_graph(GraphDescriptor(TREE, d=2, n=4))
    a = init_config(g, 1.5, 0, 42)
    b = init_config(g, 1.5, 0, 42)
    bad = []
    if not np.array_equal(a.counts, b.counts):
        bad.append("counts differ across replays")
    wa, wb = WalkStore(g, a), WalkStore(g, b)
    for i in a.columns([0, 3]):
        if not np.array_equal(wa.prefix(i, 50), wb.prefix(i, 50)):
            bad.append("walk %d differs" % i)
    # extending never rewrites: generate in two block patterns
    wc = WalkStore(g, a)
    first = wa.prefix(a.planted, 80).copy()
    for step in (3, 17, 48, 80):
        part = wc.prefix(a.planted, step)
        if not np.array_equal(part, first[:step + 1]):
            bad.append("prefix changed at %d" % step)
    return _result("reproducibility", not bad, ";".join(bad) or "ok")


def check_coupling_counts():
    g = build_graph(GraphDescriptor(COMPLETE, n=200))
    bad = []
    for seed in range(5):
        base = init_config(g, 2.0, 0, seed, lam_max=2.0)
        lo = base.at_lambda(1.0)
        if np.any(lo.counts > base.counts):
            bad.append("counts not nested at seed %d" % seed)
        grid = [base.at_lambda(x).counts for x in (0.0, 0.5, 1.0, 1.5, 2.0)]
        for i in range(len(grid) - 1):
            if np.any(grid[i] > grid[i + 1]):
                bad.append("grid not monotone at seed %d" % seed)
    return _result("coupling_counts", not bad, ";".join(bad) or "ok")


FAST_CHECKS = [
    ("graph_invariants", check_graph_invariants),
    ("pi_stationary", check_stationary_levels),
    ("gambler_ruin_dp", check_gambler_ruin),
    ("hitting_expectations", check_hitting_expectations),
    ("spectral_oracle", check_spectral_oracle),
    ("logconcave_unimodal", check_logconcavity),
    ("part3_bound", check_part3_bound),
    ("kappa_threshold", check_kappa_threshold),
    ("mu_bounds", check_mu_bounds),
    ("spread_set", check_spread_set),
    ("mixing_profile", check_mixing_profile),
    ("mixing_crossing", check_mixing_crossing),
    ("return_sums", check_return_sums),
    ("heat_kernel_sandwich", check_heat_kernel),
    ("activation_oracle", check_activation_oracle),
    ("estimate_stats", check_estimate_stats),
    ("reproducibility", check_reproducibility),
    ("coupling_counts", check_coupling_counts),
]


# ------------------------------------------------------------- full checks

def exclusive_range_sizes(g, start, t, keys):
    """|{X_1, .., X_t}| of each keyed walk from `start` (start excluded)."""
    steps = np.sort(generate_steps(g, np.full(len(keys), start), keys, 0, t),
                    axis=1)
    return 1 + np.count_nonzero(np.diff(steps, axis=1), axis=1)


def submultiplicativity_gap(d, n, t_prime, s, ell, trials, seed):
    """LHS and RHS of the range-tail power bound, with 3-sigma slack.

    Pr_x[|R(s t')| <= ell] <= (max_v Pr_v[|R(t')| <= ell])^s; the range
    excludes the start. Returns (lhs_lower, rhs_upper): check lhs <= rhs.
    """
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    reps = [int(g.level_starts[l]) for l in range(n + 1)]
    p_hat = 0.0
    for i, v in enumerate(reps):
        sizes = exclusive_range_sizes(g, v, t_prime,
                                      walk_keys(seed, trials, 100 + i))
        p = float(np.mean(sizes <= ell))
        p_hat = max(p_hat, p + 3 * sqrt(max(p * (1 - p), 1.0 / trials) / trials))
    x = g.vertex_count - 1  # a leaf: smallest ranges, hardest case
    sizes = exclusive_range_sizes(g, x, s * t_prime, walk_keys(seed, trials, 200))
    q = float(np.mean(sizes <= ell))
    q_low = q - 3 * sqrt(max(q * (1 - q), 1.0 / trials) / trials)
    return q_low, min(p_hat, 1.0) ** s


def check_submultiplicativity():
    q_low, rhs = submultiplicativity_gap(2, 8, 12, 3, 8, trials=4000, seed=7)
    return _result("range_submultiplicativity", q_low <= rhs,
                   "lhs_lower %.4f <= rhs_upper %.4f" % (q_low, rhs))


def range_hit_ratios(d, n, ks, trials, seed):
    """median |R_t cap leaves| / g(t) for t = 2^k, g(t) = t/log_d(dt)."""
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    out = []
    for k in ks:
        t = 2 ** k
        keys = walk_keys(seed, trials, 300 + k * 1000)
        starts = np.zeros(trials, dtype=np.int64)
        # the start (the root) is no leaf, so the steps alone give R_t's leaves
        steps = np.sort(generate_steps(g, starts, keys, 0, t), axis=1)
        first = np.ones(steps.shape, dtype=bool)
        first[:, 1:] = steps[:, 1:] != steps[:, :-1]
        counts = np.count_nonzero(first & (steps >= g.first_leaf), axis=1)
        g_t = t / (log(d * t) / log(d))
        out.append(float(np.median(counts)) / g_t)
    return out


def check_range_band():
    ratios = range_hit_ratios(2, 10, range(5, 10), trials=200, seed=11)
    lo = bands.RANGE_CENTER / bands.RANGE_FACTOR
    hi = bands.RANGE_CENTER * bands.RANGE_FACTOR
    ok = all(lo <= r <= hi for r in ratios)
    return _result("range_hits_band", ok,
                   "ratios %s in [%.3f, %.3f]" %
                   (["%.3f" % r for r in ratios], lo, hi))


def leafwalk_cell(d, n, s, trials, seed):
    """Per-cell leaf-walk statistics used by bands and the trend check."""
    taus = np.empty(trials)
    restarts = np.empty(trials)
    for i in range(trials):
        rep = run_killed_leaf_walk(d, n, s, seed * 100003 + i)
        taus[i] = rep.tau_cov
        restarts[i] = rep.restarts
    scale = d ** n * n * log(s)
    return {
        "mean_ratio": float(taus.mean() / scale),
        "cv": float(taus.std(ddof=1) / taus.mean()),
        "taus": taus,
        "restarts": restarts,
        "restart_floor_frac": float(np.mean(
            restarts >= bands.LEAFWALK_RESTART_C0 * scale / s)),
    }


def leafwalk_cells(trials, seed):
    """Depth n -> the leaf-walk cell of d = 2, s = 2^(n-1), each simulated
    on its first lookup."""
    return lru_cache(maxsize=None)(
        lambda n: leafwalk_cell(2, n, 2 ** (n - 1), trials, seed))


def check_leafwalk_bands(cells):
    bad = []
    lo = bands.LEAFWALK_CENTER / sqrt(bands.LEAFWALK_FACTOR)
    hi = bands.LEAFWALK_CENTER * sqrt(bands.LEAFWALK_FACTOR)
    for n in (4, 5, 6):
        cell = cells(n)
        if not lo <= cell["mean_ratio"] <= hi:
            bad.append("mean ratio %.3f outside [%.3f,%.3f] at n=%d" %
                       (cell["mean_ratio"], lo, hi, n))
        # restart rate: Bernoulli(1/(2s)) per step by construction
        p = 1.0 / (2 * 2 ** (n - 1))
        total_steps = cell["taus"].sum()
        rate = cell["restarts"].sum() / total_steps
        sigma = sqrt(p * (1 - p) / total_steps)
        if abs(rate - p) > 3 * sigma:
            bad.append("restart rate %.5f vs %.5f at n=%d" % (rate, p, n))
        if cell["restart_floor_frac"] <= 0.5:
            bad.append("restart floor fails majority at n=%d" % n)
    return _result("leafwalk_bands", not bad, ";".join(bad) or "ok")


def check_leafwalk_trend(cells):
    cvs = [cells(n)["cv"] for n in (4, 5, 6, 7)]
    ok = all(cvs[i + 1] < cvs[i] for i in range(len(cvs) - 1))
    return _result("leafwalk_cv_trend", ok,
                   "cv by n: %s" % ["%.4f" % c for c in cvs])


def walkstep_chisquare():
    from scipy.stats import chisquare
    cases = [(build_graph(GraphDescriptor(TREE, d=3, n=2)), 0),   # degree 3
             (build_graph(GraphDescriptor(TREE, d=3, n=2)), 1),   # degree 4
             (build_graph(GraphDescriptor(CYCLE, n=5)), 2),       # degree 2
             (build_graph(GraphDescriptor(COMPLETE, n=5)), 0)]    # degree 4
    pvals = []
    steps = np.arange(100_000)
    for g, v in cases:
        # 100k walks that each take one step from v: walk i, keyed by the
        # counter word of one walk after i steps, draws that walk's step i + 1
        keys = counters(walk_keys(909, 1, v), steps)
        draws = generate_steps(g, np.full(len(steps), v), keys, 0, 1)[:, 0]
        counts = [np.count_nonzero(draws == w) for w in g.neighbors(v)]
        pvals.append(float(chisquare(counts).pvalue))
    return pvals


def check_walkstep_uniform():
    pvals = walkstep_chisquare()
    ok = all(p > 0.001 for p in pvals)
    return _result("walkstep_chisquare", ok,
                   "p-values %s" % ["%.4f" % p for p in pvals])


def check_poisson_moments():
    g = build_graph(GraphDescriptor(COMPLETE, n=10_000))
    lam = 2.0
    totals = [init_config(g, lam, 0, seed).particle_count()
              for seed in range(100)]
    expect = 1 + lam * g.vertex_count
    sigma = sqrt(lam * g.vertex_count)
    gap = abs(float(np.mean(totals)) - expect)
    ok = gap <= 3 * sigma / sqrt(len(totals))
    return _result("poisson_moments", ok,
                   "mean gap %.2f vs 3se %.2f" % (gap, 3 * sigma / sqrt(100)))


def susceptibility_pair(desc, seed, lam_lo, lam_hi):
    g = build_graph(desc)
    base = init_config(g, lam_hi, 0, seed, lam_max=lam_hi)
    lo_init = base.at_lambda(lam_lo)
    tau_hi = susceptibility(g, base)
    tau_lo = susceptibility(g, lo_init)
    return tau_lo, tau_hi


def check_coupling_monotone(seeds=range(20), desc=None):
    desc = desc or GraphDescriptor(TREE, d=2, n=6)
    bad = []
    for seed in seeds:
        tau_lo, tau_hi = susceptibility_pair(desc, seed, 1.0, 2.0)
        if tau_hi > tau_lo:
            bad.append("seed %d: S(2)=%d > S(1)=%d" % (seed, tau_hi, tau_lo))
    return _result("coupling_monotone", not bad, ";".join(bad) or "ok")


def check_lambda0_collapse():
    bad = []
    g = build_graph(GraphDescriptor(CYCLE, n=7))
    for seed in range(5):
        init = init_config(g, 0.0, 0, seed)
        walks = WalkStore(g, init)
        tau = susceptibility(g, init, walks)
        # oracle: first t with |{X_0..X_t}| = |V| along the planted walk
        w = walks.prefix(init.planted, tau + 8)
        seen = set()
        first_cover = None
        for t, v in enumerate(w):
            seen.add(int(v))
            if len(seen) == g.vertex_count:
                first_cover = t
                break
        if tau != first_cover:
            bad.append("seed %d: tau*=%d vs walk cover %r" %
                       (seed, tau, first_cover))
    return _result("lambda0_collapse", not bad, ";".join(bad) or "ok")


def complete_graph_ratio(n, trials, seed, lam=1.0):
    g = build_graph(GraphDescriptor(COMPLETE, n=n))
    vals = []
    for trial in range(trials):
        init = init_config(g, lam, 0, seed + trial)
        vals.append(susceptibility(g, init))
    return float(np.median(vals)) / log(n)


def check_complete_ratio():
    ratio = complete_graph_ratio(1000, trials=20, seed=17)
    ok = 0.7 <= ratio <= 1.5
    return _result("complete_ratio", ok, "median S/ln n = %.3f" % ratio)


def tree_ratio_medians(ns, trials, seed, lam=1.0):
    out = []
    for n in ns:
        g = build_graph(GraphDescriptor(TREE, d=2, n=n))
        vals = []
        for trial in range(trials):
            init = init_config(g, lam, 0, seed + 1000 * n + trial)
            vals.append(susceptibility(g, init))
        out.append(lam * float(np.median(vals)) / (n * log(n)))
    return out


def check_tree_band():
    meds = tree_ratio_medians((6, 8), trials=10, seed=23)
    ok = all(np.isfinite(m) and m > 0 for m in meds) and \
        max(meds) / min(meds) < 3.0
    return _result("tree_scaling_band", ok,
                   "medians %s" % ["%.3f" % m for m in meds])


def cover_time_checks(seeds=range(10), lam=4.0, n=8):
    g = build_graph(GraphDescriptor(TREE, d=2, n=n))
    bad = []
    for seed in seeds:
        init = init_config(g, lam, 0, seed)
        ct = cover_time(g, init)
        if ct < n:
            bad.append("CT %d < depth %d at seed %d" % (ct, n, seed))
        if ct > bands.CT_BAND_C * n * log(n) / lam:
            bad.append("CT %d above band at seed %d" % (ct, seed))
    return bad


def check_cover_time():
    bad = cover_time_checks()
    g = build_graph(GraphDescriptor(COMPLETE, n=2))
    init = init_config(g, 0.0, 0, 3)
    if cover_time(g, init) != 1:
        bad.append("complete(2) lam=0 CT != 1")
    return _result("cover_time_band", not bad, ";".join(bad) or "ok")


def check_sweep_reproducibility():
    from .experiments import (ExperimentSpec, run_spec_trials, sweep,
                              sweep_csv_rows, trial_csv_rows)
    spec = ExperimentSpec(graphs=["tree:d=2,n=3", "complete:n=16"],
                          lambdas=[1.0, 2.0], metric="susceptibility",
                          trials=3, seed_base=99)
    rows_a = list(sweep_csv_rows(sweep(spec)))
    rows_b = list(sweep_csv_rows(sweep(spec)))
    ok = rows_a == rows_b
    ta = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec))]
    tb = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec))]
    ok = ok and ta == tb
    return _result("sweep_reproducibility", ok,
                   "identical rows" if ok else "rows differ across reruns")


def full_checks():
    """The checks the full suite adds, made per run: the two leaf-walk
    checks read one set of cells (200 trials, seed 5), so the depths both
    read are simulated once."""
    cells = leafwalk_cells(trials=200, seed=5)
    return [
        ("walkstep_chisquare", check_walkstep_uniform),
        ("poisson_moments", check_poisson_moments),
        ("coupling_monotone", check_coupling_monotone),
        ("lambda0_collapse", check_lambda0_collapse),
        ("complete_ratio", check_complete_ratio),
        ("tree_scaling_band", check_tree_band),
        ("cover_time_band", check_cover_time),
        ("range_hits_band", check_range_band),
        ("range_submultiplicativity", check_submultiplicativity),
        ("leafwalk_bands", lambda: check_leafwalk_bands(cells)),
        ("leafwalk_cv_trend", lambda: check_leafwalk_trend(cells)),
        ("sweep_reproducibility", check_sweep_reproducibility),
    ]
