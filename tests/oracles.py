"""Independent reference implementations the tests check the package against.

Everything here takes a deliberately different route from the library code:
BFS instead of arithmetic on indices, matrix powers instead of incremental
DPs, a bisection over coverage flags instead of the wake clock, and float
uniforms times per-vertex degrees instead of the step rules' scaled 53-bit
draws, and a tree excursion per leaf-walk step instead of the exact leaf
chain. The activation-time oracle (Dijkstra over the first-visit table) lives in
`frogline.checks`, since `frogline validate` runs it too.
"""

import numpy as np

from frogline import GraphDescriptor, build_graph
from frogline.checks import chain_matrix
from frogline.randomness import GAMMA, _mix


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


def step_uniforms(keys, offsets, nsteps):
    """Uniforms in [0, 1) behind steps offsets+1 .. offsets+nsteps of each
    keyed walk, as rows of a (len(keys), nsteps) array."""
    k = (np.asarray(offsets, dtype=np.uint64).reshape(1, -1)
         + np.arange(1, nsteps + 1, dtype=np.uint64).reshape(-1, 1))
    z = _mix(k * GAMMA + np.asarray(keys, dtype=np.uint64))
    z >>= np.uint64(11)
    # computed step-major, so a lockstep loop reads contiguous rows of .T
    return (z.astype(np.float64) * 2.0 ** -53).T


def step_array(g, vs, u):
    """One uniform-neighbor step for every vertex in `vs` (vectorized).

    `u` holds uniforms in [0, 1), broadcast against `vs`; neighbor
    floor(u * degree) is taken, in a fixed per-vertex order.
    """
    if g.family == "tree":
        vs = np.asarray(vs)
        is_root = vs == 0
        deg = np.where(vs >= g.first_leaf, 1, g.d + 1 - is_root)
        # r == 0 means "go to parent" for non-root vertices, child r
        # otherwise; the root has no parent slot, so its draw is shifted up
        # by one
        r = (u * deg).astype(vs.dtype) + is_root
        return np.where(r == 0, (vs - 1) // g.d, g.d * vs + r)
    vs = np.asarray(vs, dtype=np.int64)
    if g.family == "complete":
        # shift by 1 + Uniform{0..n-2} mod n: uniform over the other n-1
        # vertices
        r = 1 + (u * (g.vertex_count - 1)).astype(np.int64)
        return (vs + r) % g.vertex_count
    r = (u * 2).astype(np.int64)
    return (vs + 2 * r - 1) % g.vertex_count


def dense_transition(g):
    V = g.vertex_count
    P = np.zeros((V, V))
    for v in range(V):
        nbrs = g.neighbors(v)
        for u in nbrs:
            P[v, u] += 1.0 / len(nbrs)
    return P


def _uniforms(rng):
    while True:
        yield from rng.random(4096).tolist()


def excursion_leaf_walk(d, n, s, rng):
    """tau_cov of the killed leaf walk from the first leaf, simulated on the
    tree with the uniforms of the numpy Generator `rng`: each step restarts
    w.p. 1/(2s) at a uniform leaf, or else walks from the leaf's parent, a
    tree step at a time, until it stands on a leaf."""
    g = build_graph(GraphDescriptor("tree", d=d, n=n))
    first_leaf, nleaves = g.first_leaf, g.vertex_count - g.first_leaf
    uniforms = _uniforms(rng)
    visited = {first_leaf}
    v = first_leaf
    t = 0
    while len(visited) < nleaves:
        t += 1
        if next(uniforms) < 1.0 / (2.0 * s):
            v = first_leaf + int(next(uniforms) * nleaves)
        else:
            v = (v - 1) // d
            while v < first_leaf:
                if v == 0:
                    v = 1 + int(next(uniforms) * d)
                else:
                    r = int(next(uniforms) * (d + 1))
                    v = (v - 1) // d if r == 0 else d * v + r
        visited.add(v)
    return t


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
