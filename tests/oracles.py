"""Independent reference implementations the tests check the package against.

Everything here takes a deliberately different route from the library code:
BFS instead of arithmetic on indices, matrix powers instead of incremental
DPs, and a bisection over coverage flags instead of the wake clock. The
activation-time oracle (Dijkstra over the first-visit table) lives in
`frogline.checks`, since `frogline validate` runs it too.
"""

import numpy as np

from frogline.checks import chain_matrix


def bfs_distances(g, src):
    dist = np.full(g.vertex_count, -1, dtype=np.int64)
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def dense_transition(g):
    V = g.vertex_count
    P = np.zeros((V, V))
    for v in range(V):
        nbrs = g.neighbors(v)
        for u in nbrs:
            P[v, u] += 1.0 / len(nbrs)
    return P


def covered_under(g, init, walks, tau):
    """Whether lifetime tau wakes every vertex, by reachability over
    first-tau walk ranges: whether a vertex ever wakes does not depend on
    when its wakers arrive, so round r walks all tau steps of the particles
    at the vertices round r - 1 woke."""
    visited = np.zeros(g.vertex_count, dtype=bool)
    visited[init.origin] = True
    frontier = [init.origin]
    while tau > 0 and len(frontier):
        cols = init.columns(frontier)
        if not len(cols):
            break  # nobody lives on the last vertices woken
        path = walks.advance(init.home[cols], init.keys[cols], 0, tau)
        frontier = np.unique(path[~visited[path]])
        visited[frontier] = True
    return bool(visited.all())


def bisected_susceptibility(g, init, walks):
    """Smallest tau with covered_under(tau): doubling, then bisection.
    Coverage is monotone in tau because walk prefixes are nested."""
    if g.vertex_count == 1:
        return 0
    hi = 1
    while not covered_under(g, init, walks, hi):
        hi *= 2
    lo = hi // 2 + 1  # hi // 2 was not covered (or is 0)
    while lo < hi:
        mid = (lo + hi) // 2
        if covered_under(g, init, walks, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def lexsort_marks(vertex, positions):
    """The mark positions ordered by (vertex, position), by an index sort."""
    return positions[np.lexsort((positions, vertex))]


def stationary_solve(chain):
    """Left eigenvector of the level chain's matrix for eigenvalue 1, by a
    least-squares solve with the normalization as an extra row."""
    Q = chain_matrix(chain)
    n = Q.shape[0]
    A = np.vstack([Q.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol


def absorbing_t0_pmf(chain, t_max):
    """Law of T_0 from state n by explicit matrix powers with 0 absorbing."""
    n = chain.n
    Q = np.zeros((n + 1, n + 1))
    Q[0, 0] = 1.0
    for i in range(1, n + 1):
        Q[i, i - 1] = chain.down[i]
        if i < n:
            Q[i, i + 1] = chain.up[i]
    masses = np.zeros(t_max + 1)
    row = np.zeros(n + 1)
    row[n] = 1.0
    prev = 0.0
    for t in range(1, t_max + 1):
        row = row @ Q
        masses[t] = row[0] - prev
        prev = row[0]
    return masses


def nearest_rank(values, p):
    xs = sorted(values)
    k = max(int(np.ceil(p * len(xs))), 1)
    return xs[k - 1]
