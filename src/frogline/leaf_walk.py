"""Restarted walk on the leaf set of a d-ary tree, as an exact leaf chain.

Each leaf-walk step first decides a Bernoulli(1/(2s)) restart. On restart
the walk teleports to a uniform leaf; otherwise it runs the embedded tree
excursion (up to the parent, simple random walk until the next leaf
visit). The chain draws that next leaf exactly, without walking the tree.
The excursion climbs to some height H: from an ancestor at height h below
the root it reaches the next ancestor up before any leaf with probability
gambler_ruin(d, h + 1, 1), since an inner vertex's height goes up w.p.
1/(d+1) and down w.p. d/(d+1). It then lands on a uniform leaf of the
subtree of the highest ancestor it reached, by that subtree's symmetry. A
restart climbs to the root, H = n. With the leaves numbered 0..d^n - 1 in
heap order, an ancestor at height H has a block of d^H of them, so a step
is leaf += low - leaf % d^H for a uniform low in [0, d^H).

The draws come from the keyed hash of the frog walks (randomness._draws):
one key per seed, two draws per step, the first giving the restart flag
and H, the second low. The starting leaf counts as visited at time 0 and
consumes no step. A walk that has not covered the leaves after `step_cap`
steps raises BudgetExceededError with the fraction of leaves it visited.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_STEP_CAP, BudgetExceededError, ParameterError,
                     check_budget, check_step_cap)
from .graph import GraphDescriptor, TREE, build_graph
from .randomness import _NS_LEAF_WALK, StepScratch, _draws, _walk_keys
from .tree_analytics import gambler_ruin

# steps drawn per block: blocks double from FIRST_BLOCK, so that a short
# walk hashes few draws past its end, up to LAST_BLOCK, which spreads each
# block's numpy calls over 2^16 steps of the plain Python loop
FIRST_BLOCK = 32
LAST_BLOCK = 2 ** 16


@dataclass
class LeafWalkReport:
    tau_cov: int          # leaf-walk steps until every leaf was visited
    restarts: int         # how many of those steps were teleports
    visits: np.ndarray    # per-leaf visit counts, >= 1 everywhere at the end


def _climb_tail(d, n, s):
    """P(H >= h) for h = 1..n, nonincreasing: a step climbs to height
    H = #{h : u < P(H >= h)} for the uniform u of its first draw, and
    restarts when u < 1/(2s), which every P(H >= h) exceeds."""
    p = 1.0 / (2.0 * s)
    climbs = [gambler_ruin(d, h + 1, 1) for h in range(1, n)]
    return p + (1.0 - p) * np.cumprod([1.0] + climbs)


def run_killed_leaf_walk(d, n, s, seed, start=None, step_cap=DEFAULT_STEP_CAP):
    """Cover the leaf set; restart probability 1/(2s) per step."""
    if s <= d:
        raise ParameterError("restart parameter must satisfy s > d")
    check_step_cap(step_cap)
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    nleaves = g.vertex_count - g.first_leaf
    if start is None:
        start = g.first_leaf
    if not g.is_leaf(start):
        raise ParameterError("start %r is not a leaf" % (start,))
    # an int64 visit count per leaf
    check_budget("a leaf walk on %s" % g.label(), 8 * nleaves)

    key = _walk_keys(seed, _NS_LEAF_WALK)
    ascending = _climb_tail(d, n, s)[::-1]
    visits = np.zeros(nleaves, dtype=np.int64)
    leaf = start - g.first_leaf
    visits[leaf] = 1
    count = 1
    t = restarts = 0
    rows = FIRST_BLOCK // 2
    while count < nleaves:
        if t == step_cap:
            raise BudgetExceededError(
                "leaf walk exceeded step cap %d" % step_cap,
                fraction_covered=count / nleaves, bracket=(step_cap + 1, None))
        rows = min(2 * rows, LAST_BLOCK, step_cap - t)
        m = _draws(key, 2 * t, 2 * rows, StepScratch(1, np.int64, 2 * rows))
        u = m[0::2, 0] * 2.0 ** -53
        size = d ** (n - np.searchsorted(ascending, u, side="right"))
        # floor(u' * size) for the second draw's uniform u', as the step
        # rules take it
        low = (m[1::2, 0] * (size * 2.0 ** -53)).astype(np.int64)
        path = np.array([leaf := leaf + lo - leaf % k
                         for lo, k in zip(low.tolist(), size.tolist())])
        # the steps onto leaves unvisited before the block: the last of
        # their first visits covers, when they reach every leaf left
        fresh = np.flatnonzero(visits[path] == 0)
        vals, first = np.unique(path[fresh], return_index=True)
        count += len(vals)
        if count == nleaves:
            path = path[:fresh[first].max() + 1]
        np.add.at(visits, path, 1)
        restarts += int(np.count_nonzero(u[:len(path)] < 1.0 / (2.0 * s)))
        t += len(path)
    return LeafWalkReport(tau_cov=t, restarts=restarts, visits=visits)
