"""Closed-form and exact-numeric random-walk quantities.

Level chain: the depth process |X_s| of SRW on the d-ary tree of depth n is
a birth-death chain on {0..n} with Q(0,1) = 1 = Q(n,n-1), and interior
rates Q(i,i-1) = 1/(d+1), Q(i,i+1) = d/(d+1). Stationary law, gambler's
ruin, and the leaf-to-root mean all have closed forms, each backed by an
independent linear-algebra or DP oracle in the test suite; the crossing
times behind that mean are spectral_bd.crossing_times.

The lower-bound toolkit (kappa_t, the threshold time, expected target
visits mu_a, partial Green sums, spread sets) works on complete graphs,
cycles, and tree leaf sets; everything is exact arithmetic on the implicit
transition operator, no Monte Carlo. The operator is iterated in one loop,
`powers`, which yields P^t y for t = 0, 1, ...; return sums, mu, Green
sums and the mixing profile are all read off it. Each entry point checks
its bytes and its operator entries before it allocates. `Orbits` holds the
symmetry the toolkit reads: every target set (tree leaves; every vertex of
a complete graph or cycle) is one orbit of the graph's automorphisms, so
mu is one row for all targets, a Green sum of a target pair is one row
per class of pairs, read off one walk from the first target, and a spread
set reads the classes of one target's pairs at a time.
"""

from math import log

import numpy as np

from .errors import (ANALYTIC_ENTRY_LIMIT, BudgetExceededError,
                     ParameterError, check_budget, check_lambda, check_t_max)
from .graph import COMPLETE, CYCLE, TREE, require_tree
from .spectral_bd import BirthDeathChain

# float64 arrays live at the peak of each computation, rounded up from
# tracemalloc peaks on trees of depth 6-12: a transition power holds about 5
# length-V vectors, a mixing profile 3.0-4.1 V x V matrices
TRANSITION_VECTORS = 6
MIXING_MATRICES = 4


def level_chain(d, n):
    """Birth-death projection of tree SRW onto depth levels {0..n}."""
    if d < 2 or n < 1:
        raise ParameterError("level chain needs d >= 2, n >= 1")
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    up[0] = 1.0
    down[n] = 1.0
    up[1:n] = d / (d + 1)
    down[1:n] = 1 / (d + 1)
    return BirthDeathChain(n=n, up=up, down=down)


def stationary_levels(chain):
    """Stationary distribution of the level chain: the detailed-balance
    weights w_0 = 1, w_{i+1} = w_i up_i / down_{i+1}, normalized."""
    w = np.ones(chain.n + 1)
    for i in range(chain.n):
        w[i + 1] = w[i] * chain.up[i] / chain.down[i + 1]
    return w / w.sum()


def gambler_ruin(d, n, i):
    """q_i = Pr_i[hit 0 before n] = (d^-i - d^-n) / (1 - d^-n)."""
    if not 0 <= i <= n - 1:
        raise ParameterError("gambler_ruin needs 0 <= i <= n-1, got i=%r" % (i,))
    di = float(d) ** -i
    dn = float(d) ** -n
    return (di - dn) / (1.0 - dn)


def leaf_to_root_closed_form(d, n):
    """E_n[T_0] on the level chain, 2d(d^n - 1)/(d-1)^2 - n(d+1)/(d-1):
    exact, the sum over j of the crossing times (2d^(n-j) - d - 1)/(d-1)."""
    return 2 * d * (d ** n - 1) / (d - 1) ** 2 - n * (d + 1) / (d - 1)


def _neighbor_sum(g, y):
    """Sum of y over neighbors, vectorized per family; works on 1D or 2D y."""
    if g.family == COMPLETE:
        return y.sum(axis=0, keepdims=y.ndim > 1) - y
    if g.family == CYCLE:
        # y[v-1] + y[v+1] around the cycle, in place of two rolled copies
        s = np.empty_like(y)
        s[1:] = y[:-1]
        s[0] = y[-1]
        s[:-1] += y[1:]
        s[-1] += y[0]
        return s
    V = g.vertex_count
    parents = (np.arange(1, V, dtype=np.int64) - 1) // g.d
    s = np.zeros_like(y)
    s[1:] = y[parents]                 # each vertex sees its parent
    np.add.at(s, parents, y[1:])       # each parent sees its children
    return s


def apply_transition(g, y):
    """(P y)(w) = mean of y over the neighbors of w."""
    deg = g.degrees_array(np.arange(g.vertex_count, dtype=np.int64))
    s = _neighbor_sum(g, y)
    if y.ndim > 1:
        return s / deg[:, None]
    return s / deg


def powers(g, y, t_max):
    """Yield P^t y for t = 0..t_max. Each step applies to the array just
    yielded, so a caller may change that array in place first."""
    for _ in range(t_max):
        yield y
        y = apply_transition(g, y)
    yield y


def _walk(g, v, t_max, what, rows=1):
    """powers of the unit vector at v, once t_max, v, and the bytes of
    `rows` rows of t_max + 1 floats and the vectors of a transition, and
    the operator entries of t_max steps, are checked."""
    check_t_max(t_max)
    check_budget("%s on %s" % (what, g.label()), 8 * (
        rows * (t_max + 1) + TRANSITION_VECTORS * g.vertex_count),
        t_max, g.vertex_count)
    g.check_vertex(v)
    y = np.zeros(g.vertex_count)
    y[v] = 1.0
    return powers(g, y, t_max)


def transition_powers(g, v, t_max):
    """Exact return probabilities p^i(v,v), i = 0..t_max."""
    walk = _walk(g, v, t_max, "transition powers")
    out = np.empty(t_max + 1)
    for i, y in enumerate(walk):
        out[i] = y[v]
    return out


def return_sum_envelope(d, n, t):
    """The scale log_d(dt) + t d^-n that partial return sums follow on leaves."""
    return log(d * t, d) + t * float(d) ** -n


class Orbits:
    """The orbits of g's automorphisms that the lower-bound toolkit reads.

    The targets A = first .. first + size - 1 are one orbit: a tree's
    leaves, every vertex of a complete graph or cycle. A pair of targets
    falls in one of len(pair_reps) classes, which the automorphisms permute
    among themselves: the coheight 0..n of the pair's meet on a tree, the
    distance 0..V//2 on a cycle, a = b or not on K_n; class 0 is a = b.
    (A[0], pair_reps[k]) is the representative pair of class k. The
    vertices fall in the orbits of vertex_reps: one per level of a tree,
    one for the vertex-transitive families.
    """

    def __init__(self, g):
        self.g = g
        if g.family == TREE:
            self.first, self.size = g.first_leaf, g.d ** g.n
            # the leaves A[0] and A[0] + d^k meet at coheight k + 1
            self.pair_reps = [g.first_leaf] + [g.first_leaf + g.d ** k
                                               for k in range(g.n)]
            self.vertex_reps = [int(v) for v in g.level_starts[:-1]]
        else:
            self.first, self.size = 0, g.vertex_count
            self.pair_reps = (list(range(g.vertex_count // 2 + 1))
                              if g.family == CYCLE else [0, 1])
            self.vertex_reps = [0]

    def targets(self):
        """A, ascending."""
        return np.arange(self.first, self.first + self.size, dtype=np.int64)

    def pair_class(self, a, b):
        """The class of each target pair (a, b), elementwise."""
        g = self.g
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if g.family == TREE:
            # the meet's coheight: the number of heights h < n at which the
            # ancestors of a and b differ
            x, y = a - self.first, b - self.first
            cls = np.zeros(np.broadcast(x, y).shape, dtype=np.int8)
            for h in range(g.n):
                cls += x // g.d ** h != y // g.d ** h
            return cls
        # the distance, around a cycle; 1 between any two vertices of K_n
        dist = np.abs(a - b)
        return np.minimum(dist, g.vertex_count - dist if g.family == CYCLE
                          else 1)


def kappa_sequence(g, t_max):
    """kappa[t] = min_v sum_{i<=t} p^i(v,v), minimized over orbit reps."""
    check_t_max(t_max)
    reps = Orbits(g).vertex_reps
    # rows of t_max + 1 floats at the peak: the returns and their table,
    # then the table and its cumulative sums, and their minimum (tracemalloc:
    # 3.0 rows at one representative, 15.1 at seven; threshold_time's ratios
    # take 0.3 more); and the vectors of a transition
    rows = 2 * len(reps) + 2
    check_budget("return sums on %s" % g.label(), 8 * (
        rows * (t_max + 1) + TRANSITION_VECTORS * g.vertex_count),
        len(reps) * t_max, g.vertex_count)
    returns = np.array([transition_powers(g, v, t_max) for v in reps])
    return np.cumsum(returns, axis=1).min(axis=0)


def threshold_time(g, lam, delta, t_max):
    """t_{lambda,delta}: the first t <= t_max with
    2 t lambda / kappa_t >= (1 - delta) log |V|."""
    check_lambda("lambda", lam)
    if not 0 <= delta < 1:
        raise ParameterError("delta must be in [0, 1)")
    kappa = kappa_sequence(g, t_max)
    need = (1.0 - delta) * log(g.vertex_count)
    ratios = 2.0 * np.arange(t_max + 1) * lam / kappa
    hits = np.nonzero(ratios >= need)[0]
    if len(hits) == 0:
        raise BudgetExceededError(
            "threshold not reached by t_max=%d" % t_max,
            attained=float(ratios.max() / need) if need > 0 else float("inf"))
    return int(hits[0])


def mu_table(g, lam, t_max):
    """mu[t] = lambda * sum_{v != a} Pr_v[T_a <= t], one row that holds for
    every target a of Orbits(g), read off one absorbing walk at A[0]."""
    check_lambda("lambda", lam)
    a = Orbits(g).first
    walk = _walk(g, a, t_max, "mu")
    mass = np.empty(t_max + 1)
    for t, h in enumerate(walk):
        h[a] = 1.0  # absorbed at a, before the next step
        mass[t] = h.sum()
    # the sum over v counts v = a once
    return lam * (mass - 1.0)


def pair_powers(g, t_max):
    """w[k, s] = p^s(a, b) for every target pair (a, b) of class k of
    Orbits(g), read off one walk from A[0]."""
    orbits = Orbits(g)
    reps = orbits.pair_reps
    walk = _walk(g, orbits.first, t_max, "pair transition powers", len(reps))
    w = np.empty((len(reps), t_max + 1))
    # the walk is reversible, pi(a) p^s(a, b) = pi(b) p^s(b, a), and the
    # targets have equal degrees (tree leaves; complete graphs and cycles
    # are regular), so p^s(a, b) = p^s(b, a) = (P^s e_a)(b)
    for s, y in enumerate(walk):
        w[:, s] = y[reps]
    return w


def green_sums(g, t_max):
    """G[k, s] = e_{a,b}(s), the sum of p^i(a, b) over i <= s, for every
    target pair (a, b) of class k of Orbits(g)."""
    w = pair_powers(g, t_max)
    return np.cumsum(w, axis=1, out=w)


def select_spread_set(orbits, t, s, green):
    """Greedy deletion over the targets A of `orbits`, in order: keep a
    target, drop every later target Green-close to it.

    green[k] is e_{a,b}(t) for the target pairs of class k: the column
    green_sums(g, t)[:, t]. Row i of the greedy is green at the classes of
    (A[i], A), so it takes O(|A|) memory.
    Guarantees |B| >= |A| / (1 + s t^2) and pairwise e_{a,b}(t) < 1/(st).
    """
    if not (t >= 1 and s > 0):
        raise ParameterError("spread sets need t >= 1 and s > 0, got t=%r, "
                             "s=%r" % (t, s))
    green = np.asarray(green)
    if green.shape != (len(orbits.pair_reps),):
        raise ParameterError("green is %r, not one value per pair class (%d)"
                             % (green.shape, len(orbits.pair_reps)))
    close = green >= 1.0 / (s * t)
    A = orbits.targets()
    alive = np.ones(len(A), dtype=bool)
    for i in range(len(A)):
        if alive[i]:
            alive[i + 1:] &= ~close[orbits.pair_class(A[i], A[i + 1:])]
    B = A[alive]
    # the construction makes both bounds structural; verify anyway, a row
    # of B at a time
    assert len(B) * (1 + s * t * t) >= len(A)
    assert not any(close[orbits.pair_class(b, B[j + 1:])].any()
                   for j, b in enumerate(B))
    return B.tolist()


def _mixing_powers(g, t_max):
    """The matrices p^t(u, v), t = 0..t_max, once the graph's family, their
    bytes and their entries are checked."""
    require_tree(g, "a mixing profile")
    V = g.vertex_count
    check_budget("a mixing profile on %s" % g.label(),
                 8 * MIXING_MATRICES * V ** 2, t_max, V ** 2)
    return powers(g, np.eye(V), t_max)


def _parity_mask(g, t):
    lev = g.levels_array(np.arange(g.vertex_count, dtype=np.int64))
    return (t + lev[:, None] + lev[None, :]) % 2 == 0


def mixing_deviation(g, t, m=None):
    """L-infinity deviation over parity-compatible pairs at time t.

    Tree SRW has period 2, so p^t(u,v) is compared against deg(v)/|E| (the
    stationary mass doubled onto the reachable parity class), restricted to
    pairs with t - (coheight(u) - coheight(v)) even.
    """
    require_tree(g, "a mixing profile")
    check_t_max(t)
    if m is None:
        for m in _mixing_powers(g, t):
            pass  # m ends at p^t
    edges = g.vertex_count - 1
    deg = g.degrees_array(np.arange(g.vertex_count, dtype=np.int64))
    dev = np.abs(m * (edges / deg)[None, :] - 1.0)
    return float(dev[_parity_mask(g, t)].max())


def mixing_profile(g, ts):
    """Deviation at each requested time; incremental powers, one pass."""
    ts = set(int(t) for t in ts)
    check_t_max(min(ts, default=0))
    return [(t, mixing_deviation(g, t, m=m))
            for t, m in enumerate(_mixing_powers(g, max(ts, default=0)))
            if t in ts]


def mixing_crossing_time(g, level=None):
    """First even t where the deviation drops to 1/e."""
    target = 1 / np.e if level is None else level
    # 64 |V| steps, or fewer where the work limit is reached first
    cap = min(64 * g.vertex_count, ANALYTIC_ENTRY_LIMIT // g.vertex_count ** 2)
    # even times only: odd-time deviation mixes parity classes differently
    for t, m in enumerate(_mixing_powers(g, cap)):
        if t % 2 == 0 and mixing_deviation(g, t, m=m) <= target:
            return t
    raise BudgetExceededError("no 1/e crossing by t=%d%s" % (
        cap, " (work limit)" if cap < 64 * g.vertex_count else ""))
