"""Named property checks behind `frogline validate` and the test suite.

Each check returns a CheckResult, which carries its name; the fast suite is
deterministic oracle work (closed forms vs DP/linear algebra, exact
simulation equivalence on small instances), the full suite adds seeded
Monte Carlo band checks. `CRITERIA`, at the end of this module, lists
every check once, with its suite and its keyword arguments in each
acceptance run of the criteria in `ACCEPTANCE`; a check's defaults are
validate's scale.

The Monte Carlo checks of S, CT and the leaf walk draw their trials
through the sweep's trial loop (`experiments.run_spec_trials`), so their
seeds are `trial_seed(seed_base, ...)`'s, their clocks run on the stacks
that `simulate` and `sweep` run, and the leaf-walk rows carry each walk's
restarts; a trial the budget stops fails its check, with its reason in the
detail.
"""

import heapq
import inspect
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import erfc, exp, lgamma, log, sqrt

import numpy as np

from . import bands
from .experiments import (ExperimentSpec, estimate, run_spec_trials, sweep,
                          sweep_csv_rows, trial_csv_rows, trial_seed)
from .frog_sim import NEVER, activation_times, susceptibility
from .graph import (COMPLETE, CYCLE, TREE, GraphDescriptor, build_graph,
                    parse_descriptor)
from .randomness import (counters, generate_steps, init_config, stack_views,
                         walk_keys)
from .spectral_bd import (Pmf, check_logconcave, crossing_times,
                          geometric_convolution_law, half_e2_t0,
                          hitting_eigenvalues, hitting_law, hitting_pmf_dp,
                          total_variation)
from .tree_analytics import (Orbits, gambler_ruin, green_sums, kappa_sequence,
                             leaf_to_root_closed_form, level_chain,
                             mixing_crossing_time, mixing_deviation,
                             mixing_profile, mu_table, pair_powers,
                             return_sum_envelope, select_spread_set,
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
    return (np.diag(np.asarray(chain.up[:n], dtype=float), 1)
            + np.diag(np.asarray(chain.down[1:], dtype=float), -1))


def ruin_probability_dp(d, n, i):
    """Pr_i[T_0 < T_n] by linear solve on the absorbing chain."""
    if i == 0:
        return 1.0
    Q = chain_matrix(level_chain(d, n))
    return float(np.linalg.solve(np.eye(n - 1) - Q[1:n, 1:n], Q[1:n, 0])[i - 1])


def hitting_mean_solve(chain):
    """E_n[T_0] by first-step analysis linear solve."""
    Q = chain_matrix(chain)
    return float(np.linalg.solve(np.eye(chain.n) - Q[1:, 1:],
                                 np.ones(chain.n))[-1])


def first_visit_table(stack, tau_max):
    """ell[k, x, y]: first step <= tau_max at which a particle based at x in
    copy k of `stack` stands on y; 0 on the diagonal, NEVER where no such
    particle arrives."""
    g = stack.g
    V, K = g.vertex_count, len(stack.origins)
    ell = np.full((K, V, V), NEVER, dtype=np.int64)
    steps = np.arange(1, tau_max + 1, dtype=np.int64)
    for x in range(V):
        cols = stack.columns(np.arange(K) * V + x)
        path = generate_steps(g, stack.home[cols], stack.keys[cols], 0,
                              tau_max)
        copies = (stack.base[cols] // V)[:, None]
        np.minimum.at(ell, (copies, x, path),
                      np.broadcast_to(steps, path.shape))
    ell[:, range(V), range(V)] = 0
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


def chi2_sf(x, k):
    """Pr(X > x) for X chi-square on k >= 1 degrees of freedom, in closed
    form: with h = x/2, Q_k = Q_(k-2) + h^(k/2-1) e^-h / Gamma(k/2), from
    Q_0 = 0 and Q_1 = erfc(sqrt(h))."""
    if x <= 0:
        return 1.0
    h = x / 2
    q = erfc(sqrt(h)) if k % 2 else 0.0
    for s in range(k % 2, k, 2):
        q += exp(s / 2 * log(h) - h - lgamma(s / 2 + 1))
    return q


def chisquare(observed, expected=None):
    """Pearson's chi-square p-value of the counts `observed` against
    `expected` (default: their mean in every cell), on len(observed) - 1
    degrees of freedom."""
    observed = np.asarray(observed, dtype=float)
    if expected is None:
        expected = np.full(len(observed), observed.mean())
    return chi2_sf(float(((observed - expected) ** 2 / expected).sum()),
                   len(observed) - 1)


def poisson_pmf_tail(lam, size):
    """Pr(N = k) and Pr(N >= k) for k < size, N ~ Pois(lam), lam > 0.

    Each tail is a sum of pmf terms, not 1 minus a sum, so a small tail
    keeps its relative accuracy. Past 2 lam each term is at most half the
    one before, so the sums stop 64 terms past both size and 2 lam and
    leave out less than 2^-63 of each tail."""
    top = size + int(2 * lam) + 64
    pmf = np.array([exp(k * log(lam) - lam - lgamma(k + 1))
                    for k in range(top)])
    return pmf[:size], np.cumsum(pmf[::-1])[::-1][:size]


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
    ok = worst < 1e-12 and not bad
    return _result("pi_stationary", ok,
                   "max residual %.2e%s" % (worst, ";" + ";".join(bad) if bad else ""))


def check_gambler_ruin(ns=range(2, 9)):
    worst = max((abs(gambler_ruin(d, n, i) - ruin_probability_dp(d, n, i))
                 for d in (2, 3, 4) for n in ns for i in range(n)), default=0.0)
    return _result("gambler_ruin_dp", worst < 1e-12, "max gap %.2e" % worst)


def check_hitting_expectations():
    """crossing_times and their sum E_n[T_0] against the exact closed forms
    (2d^(n-j) - d - 1)/(d-1) and leaf_to_root_closed_form, to 1e-12
    relative, and the sum against a linear solve."""
    bad = []
    worst = 0.0
    for d in (2, 3, 4):
        for n in range(1, 9):
            chain = level_chain(d, n)
            c = crossing_times(chain)
            total = sum(c.tolist())
            closed = (2.0 * d ** (n - np.arange(n)) - d - 1) / (d - 1)
            worst = max(worst, float(np.abs(c / closed - 1).max()),
                        abs(total / leaf_to_root_closed_form(d, n) - 1))
            solve = hitting_mean_solve(chain)
            if abs(total - solve) > 1e-8 * max(1.0, solve):
                bad.append("crossing sum vs solve d=%d n=%d" % (d, n))
    if worst > 1e-12:
        bad.append("closed-form gap %.3g > 1e-12 relative" % worst)
    return _result("hitting_expectations", not bad,
                   ";".join(bad) or "closed-form gap <= %.3g relative" % worst)


def check_spectral_oracle():
    bad = []
    worst = 0.0
    for d, n in _CHAIN_GRID:
        chain = level_chain(d, n)
        gammas = hitting_eigenvalues(chain)
        if np.any(gammas <= 0) or np.any(gammas > 1):
            bad.append("gamma range d=%d n=%d" % (d, n))
        law = geometric_convolution_law(gammas, "odd" if n % 2 else "even")
        # a DP horizon far enough that the residual dies below the TV target
        dp = hitting_pmf_dp(chain, n, law.offset + 2 * len(law.masses) + 64)
        tv = total_variation(law, dp)
        worst = max(worst, tv)
        if tv >= 1e-9:
            bad.append("tv %.2e d=%d n=%d" % (tv, d, n))
        mean_expected = 2.0 * float((1.0 / gammas).sum()) + (n % 2)
        if abs(law.mean() - mean_expected) > 1e-6:
            bad.append("law mean d=%d n=%d" % (d, n))
        crossing_sum = sum(crossing_times(chain).tolist())
        if abs(mean_expected - crossing_sum) > 1e-6 * crossing_sum:
            bad.append("mean vs crossing d=%d n=%d" % (d, n))
    return _result("spectral_oracle", not bad,
                   ";".join(bad) or "max TV %.2e" % worst)


def check_logconcavity():
    bad = []
    for d, n in _CHAIN_GRID:
        ok, idx = check_logconcave(hitting_law(level_chain(d, n)))
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
    for gg in map(build_graph, [GraphDescriptor(COMPLETE, n=8),
                                GraphDescriptor(CYCLE, n=9)]):
        sums = [np.cumsum(transition_powers(gg, v, 10))
                for v in range(gg.vertex_count)]
        if max(float(np.abs(s - sums[0]).max()) for s in sums) > 1e-12:
            bad.append("kappa varies across %s" % gg.label())
    # m_A consistency: on vertex-transitive graphs with A = V, m_A == kappa
    gg = build_graph(GraphDescriptor(COMPLETE, n=12))
    m_A = green_sums(gg, 6)[0]  # class 0: the pairs (a, a)
    if np.abs(m_A - kappa_sequence(gg, 6)).max() > 1e-12:
        bad.append("m_A != kappa on complete(12)")
    return _result("kappa_threshold", not bad, ";".join(bad) or "ok")


def check_mu_bounds(cases=(("complete:n=20", 1.5, 12),
                           ("cycle:n=15", 1.5, 12))):
    """mu_a(t) <= lambda t for t <= t_max on each (graph, lambda, t_max)."""
    bad = []
    for text, lam, t_max in cases:
        g = build_graph(parse_descriptor(text))
        mu = mu_table(g, lam, t_max)
        if np.any(mu > lam * np.arange(t_max + 1) + 1e-12):
            bad.append("mu_a(t) > lambda t on %s" % g.label())
        if g.family == COMPLETE and abs(mu[1] - lam) > 1e-12:
            bad.append("mu_a(1) != lambda on %s" % g.label())
    return _result("mu_bounds", not bad, ";".join(bad) or "ok")


def check_spread_set(cases=(("complete:n=3", 1, 4), ("tree:d=2,n=4", 8, 2))):
    """Both bounds of the spread set B of each (graph, t, s), against exact
    Green sums: |B| (1 + s t^2) >= |A|, and G_t(x, y) < 1/(s t) on B."""
    bad = []
    for text, t, s in cases:
        g = build_graph(parse_descriptor(text))
        orbits = Orbits(g)
        green = green_sums(g, t)[:, t]
        B = np.asarray(select_spread_set(orbits, t, s, green))
        if not len(B) or len(B) * (1 + s * t * t) < orbits.size:
            bad.append("%s size bound" % text)
        close = green[orbits.pair_class(B[:, None], B[None, :])] >= 1 / (s * t)
        if np.any(close & (B[:, None] != B[None, :])):
            bad.append("%s pairwise bound fails" % text)
        # K_n, where every pair is close (on K_3 at t=1, s=4: 1/2 >= 1/4),
        # keeps one survivor
        if g.family == COMPLETE and green[1] >= 1 / (s * t) and len(B) != 1:
            bad.append("%s expected a single survivor, got %r" % (text, B))
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
    return mixing_crossing_time(g) / (d ** (n - 1) * log(d))


def check_mixing_crossing(ns=(4, 5)):
    """The crossing ratio of the binary tree of each depth in the band."""
    ratios = [mixing_crossing_ratio(2, n) for n in ns]
    ok = all(bands.MIXING_BAND_LO <= r <= bands.MIXING_BAND_HI for r in ratios)
    return _result("mixing_crossing", ok,
                   "ratios %s at n=%s in [%.1f, %.1f]" %
                   (["%.2f" % r for r in ratios], list(ns),
                    bands.MIXING_BAND_LO, bands.MIXING_BAND_HI))


def return_sum_ratios(d, n, ts, leaf=-1):
    """Return sums of the leaf g.leaves()[leaf] over their envelope."""
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    sums = np.cumsum(transition_powers(g, int(g.leaves()[leaf]), max(ts)))
    return [float(sums[t] / return_sum_envelope(d, n, t)) for t in ts]


def check_return_sums(leaves=(-1,)):
    """Return-sum ratios of tree(2,6) at t = 4..256 from each leaf index."""
    ratios = [r for leaf in leaves
              for r in return_sum_ratios(2, 6, [4, 16, 64, 256], leaf)]
    lo = bands.RETURN_SUM_CENTER / bands.RETURN_SUM_FACTOR
    hi = bands.RETURN_SUM_CENTER * bands.RETURN_SUM_FACTOR
    ok = all(lo <= r <= hi for r in ratios)
    return _result("return_sums", ok,
                   "ratios %s in [%.3f, %.3f]" %
                   (["%.3f" % r for r in ratios], lo, hi))


def heat_kernel_extremes(d, n, k_max):
    """min/max of p^t(u,v)/deg(v) over the sandwich envelope, leaf pairs."""
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    ratios = []
    # one row per class of leaf pairs, the coheight of their meet
    for meet_co, probs in enumerate(pair_powers(g, d ** k_max)):
        for k in range(max(1, meet_co), k_max + 1):
            for t in range(d ** (k - 1), d ** k + 1):
                if t % 2 or t < 2 * meet_co:
                    continue  # p^t = 0 off parity or below graph distance
                env = d ** (-k) + d ** (-(k - 1)) * np.exp(-t * d ** (-(k - 1)))
                ratios.append(float(probs[t]) / env)  # deg(v) = 1 for leaves
    return min(ratios), max(ratios)


def check_heat_kernel():
    lo, hi = heat_kernel_extremes(2, 6, 5)
    ok = lo >= bands.HK_LO and hi <= bands.HK_HI
    return _result("heat_kernel_sandwich", ok,
                   "ratios in [%.4f, %.4f], band [%.4f, %.4f]" %
                   (lo, hi, bands.HK_LO, bands.HK_HI))


def check_activation_oracle(cases=("tree:d=2,n=2", "cycle:n=6",
                                   "complete:n=5"),
                            taus=(0, 1, 3, 9), seeds=range(3),
                            lambdas=(0.0, 1.0)):
    """Activation times equal the shortest paths over the first-visit
    table, exactly, on every (graph, lambda, seed, tau). A graph's (lambda,
    seed) configurations run as one stack: one wake clock per tau, and one
    susceptibility clock for the covered flags."""
    bad = []
    configs = [(lam, seed) for lam in lambdas for seed in seeds]
    for text in cases:
        g = build_graph(parse_descriptor(text))
        inits = [init_config(g, lam, 0, seed) for lam, seed in configs]
        stack = stack_views(inits)
        # S read up to the largest tau (None: no tau checked covers)
        s = susceptibility(stack, step_cap=max(taus))
        ells = first_visit_table(stack, max(taus))
        for tau in taus:
            at, outcomes = activation_times(stack, tau)
            for k, (lam, seed) in enumerate(configs):
                if not np.array_equal(at[k], activation_oracle(
                        g, inits[k], ells[k], tau)):
                    bad.append("%s lam=%s seed=%d tau=%d" %
                               (g.label(), lam, seed, tau))
                if (outcomes[k].value is not None) != (
                        s[k].value is not None and s[k].value <= tau):
                    bad.append("covered flag %s tau=%d" % (g.label(), tau))
    checked = len(cases) * len(configs) * len(taus)
    return _result("activation_oracle", not bad, ";".join(bad[:4]) or
                   "%d cases agree exactly" % checked)


def check_estimate_stats():
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
    def walk(x, i, nsteps):
        return generate_steps(g, x.home[[i]], x.keys[[i]], 0, nsteps)[0]

    for i in a.columns([0, 3]):
        if not np.array_equal(walk(a, i, 50), walk(b, i, 50)):
            bad.append("walk %d differs" % i)
    # extending never rewrites: the planted walk cut at 3, 17, 48, 80 steps
    first = walk(a, a.planted, 80)
    for step in (3, 17, 48, 80):
        if not np.array_equal(walk(a, a.planted, step), first[:step]):
            bad.append("prefix changed at %d" % step)
    return _result("reproducibility", not bad, ";".join(bad) or "ok")


def check_coupling_counts():
    g = build_graph(GraphDescriptor(COMPLETE, n=200))
    bad = []
    for seed in range(5):
        base = init_config(g, 2.0, 0, seed)
        grid = [base.at_lambda(x).counts for x in (0.0, 0.5, 1.0, 1.5, 2.0)]
        if any(np.any(lo > hi) for lo, hi in zip(grid, grid[1:])):
            bad.append("grid not monotone at seed %d" % seed)
    return _result("coupling_counts", not bad, ";".join(bad) or "ok")


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
    p_hat = 0.0
    for i, v in enumerate(g.level_starts[:n + 1].tolist()):
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
        first = np.diff(steps, axis=1, prepend=-1) != 0
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
    """Per-cell leaf-walk statistics used by bands and the trend check, from
    the sweep's trial rows at seed base `seed`; `failures` has one line for
    each trial that the budget stopped (nan in taus and restarts), with its
    reason."""
    rows = run_spec_trials(ExperimentSpec(
        graphs=["tree:d=%d,n=%d" % (d, n)], lambdas=[], metric="leafwalk",
        trials=trials, seed_base=seed, s=s))
    taus = np.array([r.value for r in rows], dtype=float)
    restarts = np.array([r.restarts for r in rows], dtype=float)
    scale = d ** n * n * log(s)
    return {
        "mean_ratio": float(taus.mean() / scale),
        "cv": float(taus.std(ddof=1) / taus.mean()),
        "taus": taus,
        "restarts": restarts,
        "restart_floor_frac": float(np.mean(
            restarts >= bands.LEAFWALK_RESTART_C0 * scale / s)),
        "failures": ["%s trial %d: %s" % (r.graph, r.trial, r.budget_reason)
                     for r in rows if r.value is None],
    }


class LeafwalkCells(namedtuple("LeafwalkCells", "trials seed")):
    """Depth n -> the leaf-walk cell of d = 2, s = 2^(n-1), simulated on
    each call; `run_checks` passes the checks that take equal cells one
    memo of them."""

    def __call__(self, n):
        return leafwalk_cell(2, n, 2 ** (n - 1), self.trials, self.seed)


def check_leafwalk_bands(cells=LeafwalkCells(trials=200, seed=5)):
    bad = []
    lo = bands.LEAFWALK_CENTER / sqrt(bands.LEAFWALK_FACTOR)
    hi = bands.LEAFWALK_CENTER * sqrt(bands.LEAFWALK_FACTOR)
    means = []
    for n in (4, 5, 6):
        cell = cells(n)
        bad += cell["failures"]
        means.append(cell["mean_ratio"])
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
    return _result("leafwalk_bands", not bad, ";".join(bad) or
                   "mean ratios %s in [%.2f, %.2f]" %
                   (["%.3f" % m for m in means], lo, hi))


def check_leafwalk_trend(cells=LeafwalkCells(trials=200, seed=5)):
    cvs = [cells(n)["cv"] for n in (4, 5, 6, 7)]
    ok = all(cvs[i + 1] < cvs[i] for i in range(len(cvs) - 1))
    return _result("leafwalk_cv_trend", ok,
                   "cv by n: %s" % ["%.4f" % c for c in cvs])


def check_walkstep_uniform():
    """A chi-square test of the neighbors taken by 100k one-step walks
    from one vertex, for each degree; every p-value must exceed 0.001."""
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
        pvals.append(chisquare(counts))
    return _result("walkstep_chisquare", all(p > 0.001 for p in pvals),
                   "p-values %s" % ["%.4f" % p for p in pvals])


def check_poisson_moments():
    """The mean particle count of 100 configurations of K_10^4 at lambda 2,
    within 3 se; and, on tree d=2 n=17, the mark counts of the vertices
    other than the origin at lambda 0.5, 1 and 4 against the Pois(lambda)
    pmf by chi-square, with p > 0.001: counts 0, 1, ... binned alone while
    a bin and the tail past it each expect >= 5 vertices, the tail
    pooled."""
    g = build_graph(GraphDescriptor(COMPLETE, n=10_000))
    totals = [init_config(g, 2.0, 0, s).particle_count() for s in range(100)]
    gap = abs(float(np.mean(totals)) - (1 + 2.0 * g.vertex_count))
    se3 = 3 * sqrt(2.0 * g.vertex_count / len(totals))
    g = build_graph(GraphDescriptor(TREE, d=2, n=17))
    V, pvals = g.vertex_count - 1, []
    for lam in (0.5, 1.0, 4.0):
        counts = init_config(g, lam, 0, 11).counts[1:]
        # pmf[k] = V Pr(N = k), tail[k] = V Pr(N >= k)
        pmf, tail = (V * p for p in poisson_pmf_tail(lam, 64))
        k = int(np.argmax(np.minimum(pmf[:-1], tail[1:]) < 5))
        observed = np.bincount(np.minimum(counts, k), minlength=k + 1)
        expected = np.append(pmf[:k], tail[k])
        pvals.append(chisquare(observed, expected))
    return _result("poisson_moments",
                   gap <= se3 and all(p > 0.001 for p in pvals),
                   "mean gap %.2f vs 3se %.2f; pmf chi-square p-values %s"
                   % (gap, se3, ["%.4f" % p for p in pvals]))


def draw_trials(graphs, lambdas, trials, seed_base, metric="susceptibility"):
    """The values of `trials` trials of each (graph, lambda) cell, as an
    array of shape (graphs, lambdas, trials), drawn by the sweep's trial
    loop; and one line for each trial that the budget stopped (nan in the
    array), with its reason."""
    rows = run_spec_trials(ExperimentSpec(
        graphs=list(graphs), lambdas=list(lambdas), metric=metric,
        trials=trials, seed_base=seed_base))
    values = np.array([np.nan if r.value is None else r.value for r in rows])
    failures = ["%s lam=%s trial %d: %s" % (r.graph, r.lam, r.trial,
                                            r.budget_reason)
                for r in rows if r.value is None]
    return values.reshape(len(graphs), len(lambdas), trials), failures


def check_coupling_monotone(graph="tree:d=2,n=6", trials=20, seed_base=0):
    """S(2) <= S(1) on every trial: both views of one configuration."""
    (values,), bad = draw_trials([graph], [1.0, 2.0], trials, seed_base)
    for trial in np.flatnonzero(values[1] > values[0]):
        bad.append("trial %d: S(2)=%d > S(1)=%d" %
                   (trial, values[1, trial], values[0, trial]))
    return _result("coupling_monotone", not bad, ";".join(bad) or
                   "S(2) <= S(1) on %d/%d trials" % (trials, trials))


def check_lambda0_collapse():
    bad = []
    g = build_graph(GraphDescriptor(CYCLE, n=7))
    # at lambda 0 copy k's one particle is its plant, particle k of the stack
    stack = stack_views([init_config(g, 0.0, 0, seed) for seed in range(5)])
    taus = [o.value for o in susceptibility(stack)]
    walks = np.column_stack((stack.home, generate_steps(
        g, stack.home, stack.keys, 0, max(taus) + 8)))
    for seed, (tau, w) in enumerate(zip(taus, walks)):
        # oracle: first t with |{X_0..X_t}| = |V| along the planted walk,
        # the last of the vertices' first visits
        firsts = np.unique(w, return_index=True)[1]
        first_cover = (int(firsts.max()) if len(firsts) == g.vertex_count
                       else None)
        if tau != first_cover:
            bad.append("seed %d: tau*=%d vs walk cover %r" %
                       (seed, tau, first_cover))
    return _result("lambda0_collapse", not bad, ";".join(bad) or "ok")


def complete_graph_ratio(n, trials, seed_base, lam=1.0):
    """Median S / ln n on K_n, and the failed trials."""
    values, failures = draw_trials(["complete:n=%d" % n], [lam], trials,
                                   seed_base)
    return float(np.median(values)) / log(n), failures


def check_complete_ratio(n=1000, trials=20, seed_base=17):
    ratio, bad = complete_graph_ratio(n, trials, seed_base)
    ok = not bad and 0.7 <= ratio <= 1.5
    return _result("complete_ratio", ok, ";".join(bad) or
                   "median S/ln n = %.3f" % ratio)


def _tree(n):
    return "tree:d=2,n=%d" % n


def tree_ratio_medians(ns, trials, seed_base, lam=1.0):
    """lambda median(S) / (n ln n) on the binary tree of each depth in ns;
    the S of each depth's trials, a row each; and the failed trials."""
    values, failures = draw_trials([_tree(n) for n in ns], [lam], trials,
                                   seed_base)
    values = values[:, 0]
    meds = [lam * float(np.median(v)) / (n * log(n))
            for n, v in zip(ns, values)]
    return meds, values, failures


def check_tree_band(ns=(6, 8), trials=10, seed_base=23):
    """The medians of lambda S / (n ln n) within a factor 3 of each other,
    and each depth's first trial: lifetime S covers, S - 1 does not."""
    meds, values, bad = tree_ratio_medians(ns, trials, seed_base)
    for n, s in zip(ns, values[:, 0]):
        g = build_graph(parse_descriptor(_tree(n)))
        init = init_config(g, 1.0, 0, trial_seed(
            seed_base, _tree(n), None, "susceptibility", 0))
        covered = [s >= 1 and activation_times(init, int(tau))[1][0].value
                   is not None for tau in (s, s - 1)]
        if covered != [True, False]:
            bad.append("S=%s is not the first covering lifetime at n=%d"
                       % (s, n))
    spread = max(meds) / min(meds)
    ok = not bad and all(m > 0 for m in meds) and spread < 3.0
    return _result("tree_scaling_band", ok, ";".join(bad) or
                   "medians %s, spread x%.2f" %
                   (["%.3f" % m for m in meds], spread))


def cover_time_checks(trials=10, seed_base=0, lam=4.0, n=8):
    """Band exits of CT on tree(2,n) from the root (failed trials too), and
    the trials' CT."""
    values, bad = draw_trials([_tree(n)], [lam], trials, seed_base, "cover")
    cts = values[0, 0]
    for trial, ct in enumerate(cts):
        if ct < n:
            bad.append("CT %d < depth %d at trial %d" % (ct, n, trial))
        if ct > bands.CT_BAND_C * n * log(n) / lam:
            bad.append("CT %d above band at trial %d" % (ct, trial))
    return bad, cts


def check_cover_time():
    bad, cts = cover_time_checks()
    values, failures = draw_trials(["complete:n=2"], [0.0], 1, 3, "cover")
    bad += failures
    if values[0, 0, 0] != 1:
        bad.append("complete(2) lam=0 CT != 1")
    return _result("cover_time_band", not bad,
                   ";".join(bad) or "max CT %d" % cts.max())


def check_sweep_reproducibility():
    spec = ExperimentSpec(graphs=["tree:d=2,n=3", "complete:n=16"],
                          lambdas=[1.0, 2.0], metric="susceptibility",
                          trials=3, seed_base=99)

    def rows():
        return (list(sweep_csv_rows(sweep(spec))), [
            dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec))])

    ok = rows() == rows()
    return _result("sweep_reproducibility", ok,
                   "identical rows" if ok else "rows differ across reruns")


# ------------------------------------------------------------ the table

# criterion number -> its label and {acceptance run: budget in seconds, or
# None}; a run is named as its test in tests/test_acceptance.py
ACCEPTANCE = {
    1: ("spectral law = DP", {"01_convolution_law_equals_dp": 10}),
    2: ("closed forms", {"02_closed_forms": 10}),
    3: ("activation = shortest paths",
        {"03_activation_equals_shortest_paths": 60}),
    4: ("S/ln n on K_n", {"04_complete_graph_ratio": 300}),
    5: ("tree band", {"05_tree_scaling_band": 600,
                      "05b_deep_tree_scaling_band": 600}),
    6: ("monotone coupling", {"06_monotone_coupling": 120}),
    7: ("return sums, mixing", {"07_return_sums_and_mixing_band": 120}),
    8: ("killed leaf walk", {"08_killed_leaf_walk": 300}),
    9: ("lower-bound toolkit", {"09_lower_bound_toolkit": None}),
    10: ("pmf structure", {"10_pmf_structure": None}),
}

# a check, the suite that runs it at its defaults, and {acceptance run:
# kwargs} of the runs it takes part in, whose criteria are the row's
Row = namedtuple("Row", "check suite runs", defaults=({},))

# every check once, in validate's order; `validate --suite S` runs the
# rows of S and of the suites before it
CRITERIA = [
    Row(check_graph_invariants, "fast"),
    Row(check_stationary_levels, "fast", {"02_closed_forms": {}}),
    Row(check_gambler_ruin, "fast", {"02_closed_forms": dict(ns=range(1, 9))}),
    Row(check_hitting_expectations, "fast",
        {"01_convolution_law_equals_dp": {}, "02_closed_forms": {}}),
    Row(check_spectral_oracle, "fast", {"01_convolution_law_equals_dp": {}}),
    Row(check_logconcavity, "fast", {"10_pmf_structure": {}}),
    Row(check_part3_bound, "fast", {"10_pmf_structure": {}}),
    Row(check_kappa_threshold, "fast", {"09_lower_bound_toolkit": {}}),
    Row(check_mu_bounds, "fast", {"09_lower_bound_toolkit": dict(cases=[
        ("complete:n=50", 1.0, 10), ("cycle:n=24", 2.0, 10),
        ("complete:n=100", 0.5, 10)])}),
    Row(check_spread_set, "fast", {"09_lower_bound_toolkit": dict(cases=[
        ("tree:d=2,n=4", 8, 2), ("tree:d=2,n=5", 12, 3),
        ("complete:n=3", 1, 4), ("cycle:n=12", 6, 2)])}),
    Row(check_mixing_profile, "fast"),
    Row(check_mixing_crossing, "fast",
        {"07_return_sums_and_mixing_band": dict(ns=(5, 6))}),
    Row(check_return_sums, "fast",
        {"07_return_sums_and_mixing_band": dict(leaves=(0, -1))}),
    Row(check_heat_kernel, "fast"),
    Row(check_activation_oracle, "fast", {
        "03_activation_equals_shortest_paths": dict(
            cases=(["tree:d=2,n=%d" % n for n in (1, 2, 3)] +
                   ["cycle:n=%d" % n for n in range(3, 10)] +
                   ["complete:n=%d" % n for n in range(2, 9)]),
            taus=range(41), seeds=range(20), lambdas=(0.0, 1.0, 2.0))}),
    Row(check_estimate_stats, "fast"),
    Row(check_reproducibility, "fast"),
    Row(check_coupling_counts, "fast"),
    Row(check_walkstep_uniform, "full"),
    Row(check_poisson_moments, "full"),
    Row(check_coupling_monotone, "full", {"06_monotone_coupling": {}}),
    Row(check_lambda0_collapse, "full"),
    Row(check_complete_ratio, "full", {"04_complete_graph_ratio": dict(
        n=10_000, trials=50, seed_base=29)}),
    Row(check_tree_band, "full", {
        "05_tree_scaling_band": dict(ns=(6, 8, 10), trials=30, seed_base=37),
        "05b_deep_tree_scaling_band": dict(ns=(12, 14, 16), trials=5,
                                           seed_base=37)}),
    Row(check_cover_time, "full"),
    Row(check_range_band, "full"),
    Row(check_submultiplicativity, "full"),
    Row(check_leafwalk_bands, "full", {"08_killed_leaf_walk": dict(
        cells=LeafwalkCells(trials=200, seed=41))}),
    Row(check_leafwalk_trend, "full"),
    Row(check_sweep_reproducibility, "full"),
]


def defaults(check):
    """The keyword arguments of `check` at its defaults: validate's scale."""
    return {name: p.default
            for name, p in inspect.signature(check).parameters.items()}


def run_checks(calls):
    """The CheckResult of each (check, kwargs) call, in order, the omitted
    arguments at their defaults. The calls that take equal LeafwalkCells
    share one memo of them, so each cell is simulated once per call of
    run_checks, and no memo outlives it."""
    memos, results = {}, []
    for check, kwargs in calls:
        kwargs = dict(defaults(check), **kwargs)
        if "cells" in kwargs:
            cells = kwargs["cells"]
            kwargs["cells"] = memos.setdefault(cells, lru_cache()(cells))
        results.append(check(**kwargs))
    return results
