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

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import BudgetExceededError, FamilyError, ParameterError
from .graph import COMPLETE, CYCLE, TREE
from .randomness import CONFIG_BYTE_LIMIT

# float64 arrays live at the peak of each computation, rounded up from
# tracemalloc peaks on trees of depth 6-12: a transition power holds about 5
# length-V vectors, a mixing profile 3.0-4.1 V x V matrices
TRANSITION_VECTORS = 6
MIXING_MATRICES = 4


@dataclass
class LevelChain:
    """Birth-death projection of tree SRW onto depth levels {0..n}.

    up[i] = Q(i, i+1) for 0 <= i < n; down[i] = Q(i, i-1) for 0 < i <= n;
    the unused slots (up[n], down[0]) are zero. No holding anywhere.
    """

    d: int
    n: int
    up: np.ndarray
    down: np.ndarray


def level_chain(d, n):
    if d < 2 or n < 1:
        raise ParameterError("level chain needs d >= 2, n >= 1")
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    up[0] = 1.0
    down[n] = 1.0
    up[1:n] = d / (d + 1)
    down[1:n] = 1 / (d + 1)
    return LevelChain(d=d, n=n, up=up, down=down)


def reversible_weights(chain):
    """Unnormalized reversible measure: w_0 = 1, w_{i+1} = w_i up_i / down_{i+1}."""
    n = chain.n
    w = np.ones(n + 1)
    for i in range(n):
        w[i + 1] = w[i] * chain.up[i] / chain.down[i + 1]
    return w


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


def _check_bytes(what, g, floats):
    """Refuse, before allocating, work estimated at more than
    CONFIG_BYTE_LIMIT bytes (`floats` float64 values)."""
    need = 8 * floats
    if need > CONFIG_BYTE_LIMIT:
        raise BudgetExceededError(
            "%s on %s needs about %.3g bytes, over the limit of %d"
            % (what, g.label(), need, CONFIG_BYTE_LIMIT))


def _check_mixing(g):
    _check_bytes("a mixing profile", g,
                 MIXING_MATRICES * g.vertex_count ** 2)


def transition_powers(g, v, t_max):
    """Exact return probabilities p^i(v,v), i = 0..t_max."""
    _check_bytes("transition powers", g, TRANSITION_VECTORS * g.vertex_count)
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


@dataclass
class LowerBoundQuantities:
    kappa: np.ndarray                 # kappa[t] = min_v sum_{i<=t} p^i(v,v)
    threshold: int                    # t_{lambda,delta}
    targets: np.ndarray               # the target set A (ordered)
    mu: dict                          # a -> array over t of lambda * sum_{v!=a} Pr_v[T_a <= t]
    green: np.ndarray                 # green[ai, bi, s] = e_{A[ai], A[bi]}(s)
    m_A: np.ndarray                   # m_A[s] = min_a green[ai, ai, s]


def _kappa_representatives(g):
    # orbit representatives: vertex-transitive families need one vertex,
    # trees one per level
    if g.family == TREE:
        return [int(g.level_starts[l]) for l in range(g.n + 1)]
    return [0]


def kappa_sequence(g, t_max):
    """kappa[t] = min_v sum_{i<=t} p^i(v,v), minimized over orbit reps."""
    returns = np.array([transition_powers(g, v, t_max)
                        for v in _kappa_representatives(g)])
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


def lower_bound_quantities(g, lam, delta, t_max, targets=None):
    """kappa_t, the threshold time, mu_a(t), Green sums, and m_A."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ParameterError("lambda must be finite and >= 0, got %r" % (lam,))
    if not 0 <= delta < 1:
        raise ParameterError("delta must be in [0, 1)")
    # the Green array and one hitting table; by default the targets are the
    # d^n leaves of a tree and every vertex of the other graphs
    m = len(targets) if targets is not None else (
        g.d ** g.n if g.family == TREE else g.vertex_count)
    _check_bytes("the lower-bound quantities", g,
                 (t_max + 1) * (m * m + g.vertex_count))
    if targets is None:
        targets = g.leaves() if g.family == TREE else np.arange(g.vertex_count)
    targets = np.asarray(sorted(int(a) for a in targets), dtype=np.int64)
    if g.family == TREE and not all(g.is_leaf(int(a)) for a in targets):
        raise ParameterError("tree targets must be leaves")

    kappa = kappa_sequence(g, t_max)

    V = g.vertex_count
    need = (1.0 - delta) * log(V)
    ts = np.arange(t_max + 1)
    ratios = 2.0 * ts * lam / kappa
    hits = np.nonzero(ratios >= need)[0]
    if len(hits) == 0:
        raise BudgetExceededError(
            "threshold not reached by t_max=%d" % t_max,
            attained=float(ratios.max() / need) if need > 0 else float("inf"))
    threshold = int(hits[0])

    mu = {}
    for a in targets:
        h = hitting_within(g, int(a), t_max)
        mu[int(a)] = lam * (h.sum(axis=1) - 1.0)  # exclude v = a

    m = len(targets)
    green = np.empty((m, m, t_max + 1))
    for ai, a in enumerate(targets):
        y = np.zeros(V)
        y[a] = 1.0
        acc = y[targets].copy()
        green[ai, :, 0] = acc
        for s in range(1, t_max + 1):
            y = apply_transition_T(g, y)  # row iteration: y[w] = p^s(a, w)
            acc += y[targets]
            green[ai, :, s] = acc
    m_A = np.array([green[ai, ai, :] for ai in range(m)]).min(axis=0)
    return LowerBoundQuantities(kappa=kappa, threshold=threshold,
                                targets=targets, mu=mu, green=green, m_A=m_A)


def select_spread_set(A, t, s, green):
    """Greedy deletion: keep a target, drop everything Green-close to it.

    green is e_{a,b}(t) for the pairs of A, either a 2D matrix aligned with
    A's order or the 3D cumulative array from lower_bound_quantities.
    Guarantees |B| >= |A| / (1 + s t^2) and pairwise e_{a,b}(t) < 1/(st).
    """
    A = list(A)
    green = np.asarray(green)
    if green.ndim == 3:
        green = green[:, :, t]
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
    _check_mixing(g)
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
    _check_mixing(g)
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
    _check_mixing(g)
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
