"""Frog dynamics: activation times, susceptibility, cover time.

A particle woken at time s at its home vertex visits walk positions 1..tau
at times s+1..s+tau. A sleeping vertex wakes the first time any active
particle steps on it. Susceptibility is the smallest lifetime tau for which
the whole graph wakes; cover time is the analogous quantity for immortal
particles (tau = infinity). All three come from one wake clock.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ParameterError

# activation-time sentinel for "never woken"
NEVER = np.iinfo(np.int64).max

# cap on the clock of activation, susceptibility and cover time
DEFAULT_STEP_CAP = 10 ** 9

# positions generated per replay block: catching woken particles up to the
# clock holds one block plus O(1) words per walk, whatever the clock is
SCAN_BLOCK_CELLS = 2 ** 18


@dataclass
class ActivationReport:
    at: np.ndarray  # per-vertex activation time, NEVER where unreached
    covered: bool
    max_at: Optional[int]  # defined when covered


def _wake_clock(g, init, walks, step_cap, tau=None, replay=False):
    """Per-vertex wake tick, NEVER where a vertex never wakes.

    One synchronous clock over the awake particles' (pos, keys, age)
    vectors: at each tick every awake particle takes one step, and the
    vertices it lands on for the first time wake. A particle whose age
    reaches the lifetime `tau` (None: immortal) leaves the vectors, and the
    clock stops once everything is awake or nobody is left. `replay` says
    where a woken vertex's particles start. Without it they take step 1 on
    the next tick, so the wake ticks are the activation times under
    lifetime tau. With it (immortal particles only) every awake particle
    has walked steps 1..t at clock t, so the woken particles first replay
    steps 1..t, in blocks of about SCAN_BLOCK_CELLS positions, and what they
    reach wakes at the same t. The awake set at clock t is then the set
    that lifetime t covers (reachability over first-visit steps <= t), so
    the last wake tick is the susceptibility.
    """
    if step_cap <= 0:
        raise ParameterError("step_cap must be > 0, got %r" % (step_cap,))
    V = g.vertex_count
    at = np.full(V, NEVER, dtype=np.int64)
    at[init.origin] = 0
    count = 1
    pos, keys = init.walks_at([init.origin])
    age = np.zeros(len(pos), dtype=np.int64)  # steps taken by each particle
    t = 0
    while count < V:
        if tau is not None:
            alive = age < tau
            pos, keys, age = pos[alive], keys[alive], age[alive]
        if not len(pos):
            break
        t += 1
        if t > step_cap:
            raise BudgetExceededError(
                "clock exceeded step cap %d" % step_cap,
                fraction_covered=count / V, bracket=(step_cap + 1, None))
        pos = walks.advance(pos, keys, age, 1)[:, 0]
        age += 1
        fresh = np.unique(pos[at[pos] == NEVER])
        while fresh.size:
            at[fresh] = t
            count += fresh.size
            if count == V:
                break
            new_pos, new_keys = init.walks_at(fresh)
            fresh = fresh[:0]  # what the replay wakes
            if replay and len(new_pos):
                block = max(1, SCAN_BLOCK_CELLS // len(new_pos))
                woken = []
                for done in range(0, t, block):
                    path = walks.advance(new_pos, new_keys, done,
                                         min(block, t - done))
                    hit = np.unique(path[at[path] == NEVER])
                    at[hit] = t
                    woken.append(hit)
                    new_pos = path[:, -1]
                fresh = np.concatenate(woken)
            pos = np.concatenate((pos, new_pos.astype(pos.dtype)))
            keys = np.concatenate((keys, new_keys))
            age = np.concatenate(
                (age, np.full(len(new_pos), t if replay else 0,
                              dtype=np.int64)))
    return at


def run_activation(g, init, walks, tau):
    """Exact activation times for lifetime tau.

    Raises BudgetExceededError when the clock passes DEFAULT_STEP_CAP.
    """
    if tau < 0:
        raise ParameterError("tau must be >= 0, got %r" % (tau,))
    at = _wake_clock(g, init, walks, DEFAULT_STEP_CAP, tau=tau)
    covered = bool(np.all(at != NEVER))
    max_at = int(at.max()) if covered else None
    return ActivationReport(at=at, covered=covered, max_at=max_at)


def susceptibility(g, init, walks, step_cap=DEFAULT_STEP_CAP):
    """Minimal lifetime tau under which every vertex wakes.

    Raises BudgetExceededError, with bracket (step_cap + 1, None), when the
    graph is not covered by lifetime step_cap.
    """
    return int(_wake_clock(g, init, walks, step_cap, replay=True).max())


def cover_time(g, init, walks, step_cap=DEFAULT_STEP_CAP):
    """Time of the last wake-up with immortal particles (tau = infinity).

    Raises BudgetExceededError, with bracket (step_cap + 1, None), when the
    graph is not covered by time step_cap.
    """
    return int(_wake_clock(g, init, walks, step_cap).max())
