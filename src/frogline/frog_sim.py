"""Frog dynamics: activation propagation, susceptibility, cover time, ranges.

A particle woken at time s at its home vertex visits walk positions 1..tau
at times s+1..s+tau. A sleeping vertex wakes the first time any active
particle steps on it. Susceptibility is the smallest lifetime tau for which
the whole graph wakes; cover time is the analogous quantity for immortal
particles (tau = infinity).
"""

import heapq
from dataclasses import dataclass
from math import ceil, log
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, NumericalConsistencyError, ParameterError
from .graph import COMPLETE, TREE
from .randomness import generate_steps, walk_keys

# activation-time sentinel for "never woken"
NEVER = np.iinfo(np.int64).max

DEFAULT_STEP_CAP = 10 ** 9
DEFAULT_TAU_CEILING = 2 ** 31

# positions generated per block of covered_under: a round holds one block
# plus O(1) words per walk, whatever tau is
SCAN_BLOCK_CELLS = 2 ** 18


@dataclass
class ActivationReport:
    at: np.ndarray  # per-vertex activation time, NEVER where unreached
    covered: bool
    max_at: Optional[int]  # defined when covered
    steps: int  # particle-steps processed


@dataclass
class RangeSample:
    start: int
    t: int
    visited: np.ndarray  # sorted vertex ids of R_t (start included)
    hits_in_target: int
    terminal: int


def run_activation(g, init, walks, tau):
    """Event-driven activation for lifetime tau; exact activation times."""
    if tau < 0:
        raise ParameterError("tau must be >= 0, got %r" % (tau,))
    V = g.vertex_count
    at = np.full(V, NEVER, dtype=np.int64)
    at[init.origin] = 0
    count = 1
    steps = 0
    heap = []

    def wake(v, t):
        if tau >= 1:
            for pid in init.pids_at(v):
                heapq.heappush(heap, (t + 1, pid, 1))

    wake(init.origin, 0)
    while heap and count < V:
        t, pid, k = heapq.heappop(heap)
        v = walks.position(pid, k)
        steps += 1
        if at[v] == NEVER:
            at[v] = t
            count += 1
            wake(v, t)
        if k < tau:
            heapq.heappush(heap, (t + 1, pid, k + 1))
    covered = count == V
    max_at = int(at.max()) if covered else None
    return ActivationReport(at=at, covered=covered, max_at=max_at, steps=steps)


def covered_under(g, init, walks, tau):
    """Coverage flag only, by reachability over first-tau walk ranges.

    Order-free and equivalent to run_activation(...).covered: whether a
    vertex ever wakes does not depend on when its wakers arrive. The pass
    goes by rounds: round r walks, in lockstep, every particle at the
    vertices round r - 1 woke, in blocks of about SCAN_BLOCK_CELLS
    positions. Returns (covered, particle-steps generated).
    """
    V = g.vertex_count
    visited = np.zeros(V, dtype=bool)
    visited[init.origin] = True
    count = 1
    steps = 0
    if tau <= 0 or count == V:
        return count == V, steps
    frontier = [init.origin]
    while len(frontier):
        pos, keys = init.walks_at(frontier)
        if not len(pos):
            break  # nobody lives on the last vertices woken
        woken = []
        block = max(1, SCAN_BLOCK_CELLS // len(pos))
        for done in range(0, tau, block):
            path = walks.advance(pos, keys, done, min(block, tau - done))
            steps += path.size
            fresh = np.unique(path[~visited[path]])
            if fresh.size:
                visited[fresh] = True
                count += fresh.size
                if count == V:
                    return True, steps
                woken.append(fresh)
            pos = path[:, -1]
        frontier = np.concatenate(woken) if woken else []
    return False, steps


def initial_tau_bracket(g, lam):
    """Starting upper bracket for the susceptibility search (then doubled)."""
    V = g.vertex_count
    denom = max(lam, 1.0)
    if g.family == TREE:
        return ceil(8 * g.n * log(g.n * V) / denom)
    if g.family == COMPLETE:
        return ceil(8 * log(V) / denom)
    return ceil(8 * V * log(V + 1) / denom)


def susceptibility(g, init, walks, tau_ceiling=DEFAULT_TAU_CEILING):
    """Minimal lifetime covering the graph, by binary search on shared walks."""
    V = g.vertex_count
    if V == 1:
        return 0
    evals = {}

    def covered(tau):
        if tau not in evals:
            evals[tau] = covered_under(g, init, walks, tau)[0]
        return evals[tau]

    hi = max(initial_tau_bracket(g, init.lam), g.eccentricity(init.origin), 1)
    while not covered(hi):
        if 2 * hi > tau_ceiling:
            raise BudgetExceededError(
                "susceptibility bracket exceeded tau ceiling %d" % tau_ceiling,
                bracket=(hi, 2 * hi))
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if covered(mid):
            hi = mid
        else:
            lo = mid + 1
    # audit: coverage must be nondecreasing in tau over everything evaluated
    seen_covered = False
    for tau in sorted(evals):
        if evals[tau]:
            seen_covered = True
        elif seen_covered:
            raise NumericalConsistencyError(
                "coverage not monotone in tau; walk prefixes are not nested")
    return lo


def cover_time(g, init, walks, step_cap=DEFAULT_STEP_CAP):
    """Synchronous tau-infinity simulation; returns max activation time.

    Each time step advances every awake particle by one batched step;
    particles woken at new vertices join the batch with step count 0.
    """
    if step_cap <= 0:
        raise ParameterError("step_cap must be > 0, got %r" % (step_cap,))
    V = g.vertex_count
    visited = np.zeros(V, dtype=bool)
    visited[init.origin] = True
    count = 1
    if count == V:
        return 0
    pos, keys = init.walks_at([init.origin])
    age = np.zeros(len(pos), dtype=np.int64)  # steps taken by each particle
    t = 0
    while True:
        t += 1
        if t > step_cap:
            raise BudgetExceededError(
                "cover time exceeded step cap %d" % step_cap,
                fraction_covered=count / V)
        pos = walks.advance(pos, keys, age, 1)[:, 0]
        age += 1
        fresh = np.unique(pos[~visited[pos]])
        if fresh.size:
            visited[fresh] = True
            count += fresh.size
            if count == V:
                return t
            new_pos, new_keys = init.walks_at(fresh)
            pos = np.concatenate((pos, new_pos.astype(pos.dtype)))
            keys = np.concatenate((keys, new_keys))
            age = np.concatenate((age, np.zeros(len(new_pos), dtype=np.int64)))


def range_stats(g, start, t, target, trials, seed):
    """i.i.d. samples of |R_t ∩ target| and the terminal vertex."""
    g.check_vertex(start)
    if t < 0:
        raise ParameterError("t must be >= 0, got %r" % (t,))
    in_target = np.zeros(g.vertex_count, dtype=bool)
    target = np.asarray(list(target), dtype=np.int64)
    in_target[target] = True
    paths = generate_steps(g, np.full(trials, start), walk_keys(seed, trials),
                           0, t)
    out = []
    for steps in paths:
        traj = np.concatenate(([start], steps))
        visited = np.unique(traj)
        out.append(RangeSample(
            start=start, t=t, visited=visited,
            hits_in_target=int(in_target[visited].sum()),
            terminal=int(traj[-1])))
    return out
