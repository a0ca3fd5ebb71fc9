"""Closed-form and exact-numeric random-walk quantities.

Level chain: the depth process |X_s| of SRW on the d-ary tree of depth n is
a birth-death chain on {0..n} with Q(0,1) = 1 = Q(n,n-1), and interior
rates Q(i,i-1) = 1/(d+1), Q(i,i+1) = d/(d+1). Stationary law, gambler's
ruin, and edge-crossing expectations all have closed forms, each backed
here by an independent linear-algebra or DP oracle in the test suite.

The lower-bound toolkit (kappa_t, the threshold time, expected target
visits mu_a, partial Green sums, spread sets) works on complete graphs,
cycles, and tree leaf sets; everything is exact arithmetic on the implicit
transition operator, no Monte Carlo.
"""

from math import log

import numpy as np

from .errors import BudgetExceededError, FamilyError, ParameterError
from .graph import COMPLETE, CYCLE, TREE
from .randomness import check_bytes, check_lambda
from .spectral_bd import BirthDeathChain, reversible_weights

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
    """Stationary distribution of the level chain (detailed-balance weights)."""
    w = reversible_weights(chain)
    return w / w.sum()


def gambler_ruin(d, n, i):
    """q_i = Pr_i[hit 0 before n] = (d^-i - d^-n) / (1 - d^-n)."""
    if not 0 <= i <= n - 1:
        raise ParameterError("gambler_ruin needs 0 <= i <= n-1, got i=%r" % (i,))
    di = float(d) ** -i
    dn = float(d) ** -n
    return (di - dn) / (1.0 - dn)


def expected_hit(chain, mode, j=None):
    """Exact hitting expectations on a birth-death chain.

    mode "crossing": E_{j+1}[T_j], the expected time to cross edge (j+1, j)
    downward, equal to pi{j+1..n} / (pi(j) Q(j,j+1)).
    mode "leaf_to_root": E_n[T_0], the sum of all crossing times.
    """
    pi = stationary_levels(chain)
    n = chain.n

    def crossing(jj):
        if not 0 <= jj <= n - 1:
            raise ParameterError("crossing index must be in [0, n-1], got %r" % (jj,))
        return pi[jj + 1:].sum() / (pi[jj] * chain.up[jj])

    if mode == "crossing":
        if j is None:
            raise ParameterError("mode 'crossing' needs j")
        return float(crossing(j))
    if mode == "leaf_to_root":
        return float(sum(crossing(jj) for jj in range(n)))
    raise ParameterError("unknown expected_hit mode %r" % (mode,))


def leaf_to_root_closed_form(d, n):
    """Headline closed form 2d(d^n - 1)/(d-1)^2 - n(d+1)/(d-1), up to O(1)."""
    return 2 * d * (d ** n - 1) / (d - 1) ** 2 - n * (d + 1) / (d - 1)


def _neighbor_sum(g, y):
    """Sum of y over neighbors, vectorized per family; works on 1D or 2D y."""
    if g.family == COMPLETE:
        return y.sum(axis=0, keepdims=y.ndim > 1) - y
    if g.family == CYCLE:
        return np.roll(y, 1, axis=0) + np.roll(y, -1, axis=0)
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


def apply_transition_T(g, y):
    """(P^T y)(w) = sum over neighbors u of y(u)/deg(u)."""
    deg = g.degrees_array(np.arange(g.vertex_count, dtype=np.int64))
    z = y / deg[:, None] if y.ndim > 1 else y / deg
    return _neighbor_sum(g, z)


def transition_powers(g, v, t_max):
    """Exact return probabilities p^i(v,v), i = 0..t_max."""
    # the returns and the vectors of a transition
    check_bytes("transition powers on %s" % g.label(),
                8 * (t_max + 1 + TRANSITION_VECTORS * g.vertex_count))
    g.check_vertex(v)
    y = np.zeros(g.vertex_count)
    y[v] = 1.0
    out = np.empty(t_max + 1)
    out[0] = 1.0
    for i in range(1, t_max + 1):
        y = apply_transition(g, y)
        out[i] = y[v]
    return out


def return_sum_envelope(d, n, t):
    """The scale log_d(dt) + t d^-n that partial return sums follow on leaves."""
    return log(d * t, d) + t * float(d) ** -n


def _kappa_representatives(g):
    # orbit representatives: vertex-transitive families need one vertex,
    # trees one per level
    if g.family == TREE:
        return [int(g.level_starts[l]) for l in range(g.n + 1)]
    return [0]


def _check_t_max(t_max):
    if t_max < 0:
        raise ParameterError("t_max must be >= 0, got %r" % (t_max,))


def kappa_sequence(g, t_max):
    """kappa[t] = min_v sum_{i<=t} p^i(v,v), minimized over orbit reps."""
    _check_t_max(t_max)
    reps = _kappa_representatives(g)
    # rows of t_max + 1 floats at the peak: the returns and their table,
    # then the table and its cumulative sums, and their minimum (tracemalloc:
    # 3.0 rows at one representative, 15.1 at seven; threshold_time's ratios
    # take 0.3 more); and the vectors of a transition
    rows = 2 * len(reps) + 2
    check_bytes("return sums on %s" % g.label(), 8 * (
        rows * (t_max + 1) + TRANSITION_VECTORS * g.vertex_count))
    returns = np.array([transition_powers(g, v, t_max) for v in reps])
    return np.cumsum(returns, axis=1).min(axis=0)


def hitting_within(g, a, t_max):
    """h[t, v] = Pr_v[T_a <= t] by time-stepped absorbing DP at a."""
    V = g.vertex_count
    h = np.zeros(V)
    h[a] = 1.0
    out = np.empty((t_max + 1, V))
    out[0] = h
    for t in range(1, t_max + 1):
        h = apply_transition(g, h)
        h[a] = 1.0
        out[t] = h
    return out


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


def _targets(g, targets, what, bytes_for):
    """The target set A in ascending order, by default the d^n leaves of a
    tree and every vertex of the other graphs. bytes_for(|A|) is checked
    first, so a refused default set is never built."""
    m = len(targets) if targets is not None else (
        g.d ** g.n if g.family == TREE else g.vertex_count)
    check_bytes("%s on %s" % (what, g.label()), bytes_for(m))
    if targets is None:
        targets = g.leaves() if g.family == TREE else np.arange(g.vertex_count)
    targets = np.asarray(sorted(int(a) for a in targets), dtype=np.int64)
    if g.family == TREE and not all(g.is_leaf(int(a)) for a in targets):
        raise ParameterError("tree targets must be leaves")
    return targets


def mu_table(g, lam, t_max, targets=None):
    """The targets A and mu[ai, t] = lambda * sum_{v != a} Pr_v[T_a <= t]
    for a = A[ai]."""
    check_lambda("lambda", lam)
    _check_t_max(t_max)
    # the rows, one hitting table at a time, and the vectors of a transition
    targets = _targets(g, targets, "the mu tables", lambda m: 8 * (
        (t_max + 1) * (m + g.vertex_count)
        + TRANSITION_VECTORS * g.vertex_count))
    mu = np.empty((len(targets), t_max + 1))
    for ai, a in enumerate(targets):
        # the sum over v counts v = a once
        mu[ai] = lam * (hitting_within(g, int(a), t_max).sum(axis=1) - 1.0)
    return targets, mu


def green_sums(g, t_max, targets=None):
    """The targets A and green[ai, bi, s] = e_{A[ai], A[bi]}(s), the sum of
    p^i(A[ai], A[bi]) over i <= s."""
    _check_t_max(t_max)
    targets = _targets(g, targets, "the Green sums", lambda m: 8 * (
        (t_max + 1) * m * m + TRANSITION_VECTORS * g.vertex_count))
    m = len(targets)
    green = np.empty((m, m, t_max + 1))
    for ai, a in enumerate(targets):
        y = np.zeros(g.vertex_count)
        y[a] = 1.0
        acc = y[targets].copy()
        green[ai, :, 0] = acc
        for s in range(1, t_max + 1):
            y = apply_transition_T(g, y)  # row iteration: y[w] = p^s(a, w)
            acc += y[targets]
            green[ai, :, s] = acc
    return targets, green


def select_spread_set(A, t, s, green):
    """Greedy deletion: keep a target, drop everything Green-close to it.

    green is the matrix e_{a,b}(t) for the pairs of A, aligned with A's
    order (the slice green[:, :, t] of green_sums).
    Guarantees |B| >= |A| / (1 + s t^2) and pairwise e_{a,b}(t) < 1/(st).
    """
    A = list(A)
    green = np.asarray(green)
    if green.shape != (len(A), len(A)):
        raise ParameterError("green matrix shape %r does not match |A|=%d" %
                             (green.shape, len(A)))
    cut = 1.0 / (s * t)
    alive = np.ones(len(A), dtype=bool)
    kept = []
    for i in range(len(A)):
        if not alive[i]:
            continue
        kept.append(i)
        close = (green[i] >= cut) & alive
        close[i] = False
        alive[close] = False
    B = [A[i] for i in kept]
    # the construction makes both bounds structural; verify anyway
    assert len(B) * (1 + s * t * t) >= len(A)
    for x in range(len(kept)):
        for y in range(x + 1, len(kept)):
            assert green[kept[x], kept[y]] < cut
    return B


def mixing_matrix(g, t):
    """Full p^t(u, v) matrix by t applications of the transition operator."""
    check_bytes("a mixing profile on %s" % g.label(),
                8 * MIXING_MATRICES * g.vertex_count ** 2)
    m = np.eye(g.vertex_count)
    for _ in range(t):
        m = apply_transition(g, m)
    return m


def _parity_mask(g, t):
    lev = g.levels_array(np.arange(g.vertex_count, dtype=np.int64))
    return (t + lev[:, None] + lev[None, :]) % 2 == 0


def mixing_deviation(g, t, m=None):
    """L-infinity deviation over parity-compatible pairs at time t.

    Tree SRW has period 2, so p^t(u,v) is compared against deg(v)/|E| (the
    stationary mass doubled onto the reachable parity class), restricted to
    pairs with t - (coheight(u) - coheight(v)) even.
    """
    if g.family != TREE:
        raise FamilyError("mixing profile is defined for trees")
    if m is None:
        m = mixing_matrix(g, t)
    edges = g.vertex_count - 1
    deg = g.degrees_array(np.arange(g.vertex_count, dtype=np.int64))
    dev = np.abs(m * (edges / deg)[None, :] - 1.0)
    return float(dev[_parity_mask(g, t)].max())


def mixing_profile(g, ts):
    """Deviation at each requested time; incremental powers, one pass."""
    ts = sorted(set(int(t) for t in ts))
    if any(t < 0 for t in ts):
        raise ParameterError("mixing times must be >= 0")
    check_bytes("a mixing profile on %s" % g.label(),
                8 * MIXING_MATRICES * g.vertex_count ** 2)
    m = np.eye(g.vertex_count)
    cur = 0
    out = []
    for t in ts:
        for _ in range(t - cur):
            m = apply_transition(g, m)
        cur = t
        out.append((t, mixing_deviation(g, t, m=m)))
    return out


def mixing_crossing_time(g, level=None):
    """First even t where the deviation drops to 1/e."""
    target = 1 / np.e if level is None else level
    check_bytes("a mixing profile on %s" % g.label(),
                8 * MIXING_MATRICES * g.vertex_count ** 2)
    m = np.eye(g.vertex_count)
    t = 0
    # even times only: odd-time deviation mixes parity classes differently
    while True:
        if t % 2 == 0 and mixing_deviation(g, t, m=m) <= target:
            return t
        m = apply_transition(g, m)
        t += 1
        if t > 64 * g.vertex_count:
            raise BudgetExceededError("no 1/e crossing by t=%d" % t)
