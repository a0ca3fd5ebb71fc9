"""Frog dynamics: activation propagation, susceptibility, cover time, ranges.

A particle woken at time s at its home vertex visits walk positions 1..tau
at times s+1..s+tau. A sleeping vertex wakes the first time any active
particle steps on it. Susceptibility is the smallest lifetime tau for which
the whole graph wakes; cover time is the analogous quantity for immortal
particles (tau = infinity).
"""

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .randomness import generate_steps, walk_keys

# activation-time sentinel for "never woken"
NEVER = np.iinfo(np.int64).max

# cap on the clock of susceptibility and cover time
DEFAULT_STEP_CAP = 10 ** 9

# positions generated per replay block: catching woken particles up to the
# clock holds one block plus O(1) words per walk, whatever the clock is
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


def _wake_clock(g, init, walks, step_cap, replay):
    """First clock t at which every vertex is awake.

    One synchronous clock over the awake particles' (pos, keys, age)
    vectors: at each tick every awake particle takes one step, and the
    vertices it lands on for the first time wake. `replay` says where a
    woken vertex's particles start. Without it (cover time) they take step
    1 on the next tick. With it (susceptibility) every awake particle has
    walked steps 1..t at clock t, so the woken particles first replay steps
    1..t, in blocks of about SCAN_BLOCK_CELLS positions, and what they reach
    wakes at the same t. The awake set at clock t is then the set that
    lifetime t covers (reachability over first-visit steps <= t), so the
    first t that covers everything is the susceptibility.
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
                "clock exceeded step cap %d" % step_cap,
                fraction_covered=count / V, bracket=(step_cap + 1, None))
        pos = walks.advance(pos, keys, age, 1)[:, 0]
        age += 1
        fresh = np.unique(pos[~visited[pos]])
        while fresh.size:
            visited[fresh] = True
            count += fresh.size
            if count == V:
                return t
            new_pos, new_keys = init.walks_at(fresh)
            woken = [fresh[:0]]  # what the replay wakes; never an empty list
            if replay and len(new_pos):
                block = max(1, SCAN_BLOCK_CELLS // len(new_pos))
                for done in range(0, t, block):
                    path = walks.advance(new_pos, new_keys, done,
                                         min(block, t - done))
                    hit = np.unique(path[~visited[path]])
                    visited[hit] = True
                    woken.append(hit)
                    new_pos = path[:, -1]
            fresh = np.concatenate(woken)
            pos = np.concatenate((pos, new_pos.astype(pos.dtype)))
            keys = np.concatenate((keys, new_keys))
            age = np.concatenate(
                (age, np.full(len(new_pos), t if replay else 0,
                              dtype=np.int64)))


def susceptibility(g, init, walks, step_cap=DEFAULT_STEP_CAP):
    """Minimal lifetime tau under which every vertex wakes.

    Raises BudgetExceededError, with bracket (step_cap + 1, None), when the
    graph is not covered by lifetime step_cap.
    """
    return _wake_clock(g, init, walks, step_cap, replay=True)


def cover_time(g, init, walks, step_cap=DEFAULT_STEP_CAP):
    """Time of the last wake-up with immortal particles (tau = infinity).

    Raises BudgetExceededError, with bracket (step_cap + 1, None), when the
    graph is not covered by time step_cap.
    """
    return _wake_clock(g, init, walks, step_cap, replay=False)


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
