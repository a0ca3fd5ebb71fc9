"""Restarted walk on the leaf set of a d-ary tree.

Each leaf-walk step first draws one Bernoulli(1/(2s)) restart decision.
On restart the walk teleports to a uniform leaf; otherwise it runs the
embedded tree excursion (up to the parent, SRW until the next leaf visit),
which realizes the next-leaf-visited kernel without storing a d^n x d^n
matrix. The starting leaf counts as visited at time 0 and consumes no step.
A walk that has not covered the leaves after `step_cap` steps raises
BudgetExceededError with the fraction of leaves it visited.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_STEP_CAP, BudgetExceededError, ParameterError,
                     check_budget, check_step_cap)
from .graph import GraphDescriptor, TREE, build_graph
from .randomness import substream


@dataclass
class LeafWalkReport:
    tau_cov: int          # leaf-walk steps until every leaf was visited
    restarts: int         # how many of those steps were teleports
    visits: np.ndarray    # per-leaf visit counts, >= 1 everywhere at the end


def run_killed_leaf_walk(d, n, s, seed, start=None, step_cap=DEFAULT_STEP_CAP):
    """Cover the leaf set; restart probability 1/(2s) per step."""
    if s <= d:
        raise ParameterError("restart parameter must satisfy s > d")
    check_step_cap(step_cap)
    g = build_graph(GraphDescriptor(TREE, d=d, n=n))
    first_leaf = g.first_leaf
    nleaves = g.vertex_count - first_leaf
    if start is None:
        start = first_leaf
    if not g.is_leaf(start):
        raise ParameterError("start %r is not a leaf" % (start,))
    # a visited flag and an int64 visit count per leaf
    check_budget("a leaf walk on %s" % g.label(), 9 * nleaves)

    rng = substream(seed)
    p_restart = 1.0 / (2.0 * s)
    visited = np.zeros(nleaves, dtype=bool)
    visits = np.zeros(nleaves, dtype=np.int64)
    cur = start
    visited[cur - first_leaf] = True
    visits[cur - first_leaf] += 1
    count = 1
    t = 0
    restarts = 0
    while count < nleaves:
        if t == step_cap:
            raise BudgetExceededError(
                "leaf walk exceeded step cap %d" % step_cap,
                fraction_covered=count / nleaves, bracket=(step_cap + 1, None))
        t += 1
        if rng.random() < p_restart:
            restarts += 1
            cur = first_leaf + int(rng.integers(0, nleaves))
        else:
            v = (cur - 1) // d
            while v < first_leaf:
                if v == 0:
                    v = 1 + int(rng.integers(0, d))
                else:
                    r = int(rng.integers(0, d + 1))
                    v = (v - 1) // d if r == 0 else d * v + r
            cur = v
        idx = cur - first_leaf
        visits[idx] += 1
        if not visited[idx]:
            visited[idx] = True
            count += 1
    return LeafWalkReport(tau_cov=t, restarts=restarts, visits=visits)
