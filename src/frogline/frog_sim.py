"""Frog dynamics: activation times, susceptibility, cover time.

A particle woken at time s at its home vertex visits walk positions 1..tau
at times s+1..s+tau. A sleeping vertex wakes the first time any active
particle steps on it. Susceptibility is the smallest lifetime tau for which
the whole graph wakes; cover time is the analogous quantity for immortal
particles (tau = infinity). Activation times and cover time come from one
wake clock, susceptibility from a replay clock that reads the first steps
of every particle from a block walked ahead in lockstep.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .graph import TREE
from .randomness import generate_steps

# activation-time sentinel for "never woken"
NEVER = np.iinfo(np.int64).max

# cap on the clock of activation, susceptibility and cover time
DEFAULT_STEP_CAP = 10 ** 9

# positions generated per replay block: catching woken particles up to the
# clock holds one block plus O(1) words per walk, whatever the clock is
SCAN_BLOCK_CELLS = 2 ** 18

# cells of the susceptibility clock's pre-walked prefix (_Prefix): its width
# is at most PREFIX_CELLS // (particle count), so the block holds at most
# 16 MiB of int32 positions
PREFIX_CELLS = 2 ** 22

# first width of the prefix; it doubles each time the clock passes it
PREFIX_START = 16


@dataclass
class ActivationReport:
    at: np.ndarray  # per-vertex activation time, NEVER where unreached
    covered: bool
    max_at: Optional[int]  # defined when covered


def _check_step_cap(step_cap):
    if step_cap <= 0:
        raise ParameterError("step_cap must be > 0, got %r" % (step_cap,))


def _cap_error(step_cap, count, V):
    return BudgetExceededError(
        "clock exceeded step cap %d" % step_cap,
        fraction_covered=count / V, bracket=(step_cap + 1, None))


def _wake_on(path, at, t):
    """Wake, at tick t, the still sleeping vertices that `path` visits;
    returns them."""
    hit = np.unique(path[at[path] == NEVER])
    at[hit] = t
    return hit


def _wake_clock(g, init, walks, step_cap, tau=None):
    """Per-vertex wake tick, NEVER where a vertex never wakes.

    One synchronous clock over the awake particles' (pos, keys, age)
    vectors: at each tick every awake particle takes one step, and the
    vertices it lands on for the first time wake; their particles take step
    1 on the next tick. A particle whose age reaches the lifetime `tau`
    (None: immortal) leaves the vectors, and the clock stops once
    everything is awake or nobody is left. The wake ticks are the
    activation times under lifetime tau.
    """
    _check_step_cap(step_cap)
    V = g.vertex_count
    at = np.full(V, NEVER, dtype=np.int64)
    at[init.origin] = 0
    count = 1
    cols = init.columns([init.origin])
    pos, keys = init.home[cols], init.keys[cols]
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
            raise _cap_error(step_cap, count, V)
        pos = walks.advance(pos, keys, age, 1)[:, 0]
        age += 1
        fresh = _wake_on(pos, at, t)
        if fresh.size:
            count += fresh.size
            cols = init.columns(fresh)
            pos = np.concatenate((pos, init.home[cols]))
            keys = np.concatenate((keys, init.keys[cols]))
            age = np.concatenate((age, np.zeros(len(cols), dtype=np.int64)))
    return at


class _Prefix:
    """Steps 1..h of every particle of a configuration, walked in lockstep
    into a step-major block: row j - 1 holds every particle's position
    after step j, column i is particle i of the table `init`.

    h starts at PREFIX_START and doubles each time the clock passes it, up
    to hmax = PREFIX_CELLS // (particle count) (and the step cap). The
    block is generated in row chunks of about SCAN_BLOCK_CELLS cells, and
    the walks are counter-based, so its positions are the ones the clock
    would generate.
    """

    def __init__(self, g, init, walks, step_cap):
        self.g, self.init, self.walks = g, init, walks
        n = init.particle_count()
        # complete graphs and cycles get no prefix: generate_steps already
        # replays their batches with one cumulative sum per block, and a
        # prefix there measured slower
        self.hmax = min(PREFIX_CELLS // n, step_cap) if g.family == TREE else 0
        self.block = np.empty((0, n), dtype=g.index_dtype)

    @property
    def h(self):
        return len(self.block)

    def row(self, t, cols):
        """Positions after step t <= hmax of particles `cols`, counted as
        steps taken; the block grows when t passes h."""
        if t > self.h:
            self._grow()
        self.walks.steps_generated += len(cols)
        return self.block[t - 1, cols]

    def after(self, t, cols):
        """Positions after step t <= h of particles `cols`, not counted."""
        return self.block[t - 1, cols] if t else self.init.home[cols]

    def _grow(self):
        h, n = self.h, self.block.shape[1]
        new_h = min(max(2 * h, PREFIX_START), self.hmax)
        block = np.empty((new_h, n), dtype=self.block.dtype)
        block[:h] = self.block
        rows = max(1, SCAN_BLOCK_CELLS // n)
        for lo in range(h, new_h, rows):
            hi = min(lo + rows, new_h)
            start = block[lo - 1] if lo else self.init.home
            block[lo:hi] = generate_steps(self.g, start, self.init.keys, lo,
                                          hi - lo).T
        self.block = block

    def replay(self, cols, t, at):
        """Walk particles `cols` through steps 1..t and wake, at tick t, what
        they reach: steps 1..min(t, h) are read from the block, the rest
        generated. Returns the woken vertices and the particles' positions
        after step t."""
        woken = []
        h = min(t, self.h)
        span = max(1, SCAN_BLOCK_CELLS // len(cols))
        for lo in range(0, h, span):
            woken.append(_wake_on(self.block[lo:min(lo + span, h), cols],
                                  at, t))
        self.walks.steps_generated += h * len(cols)
        pos = self.after(h, cols)
        keys = self.init.keys[cols]
        for done in range(h, t, span):
            path = self.walks.advance(pos, keys, done, min(span, t - done))
            woken.append(_wake_on(path, at, t))
            pos = path[:, -1]
        return np.concatenate(woken), pos


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

    The replay clock: at clock t every awake particle has walked steps
    1..t, so the particles of a vertex woken at t first replay steps 1..t,
    and what they reach wakes at the same t. The awake set at clock t is
    then the set that lifetime t covers (reachability over first-visit
    steps <= t), so the last wake tick is the susceptibility. A tick
    t <= hmax reads the awake particles' positions from row t of the
    pre-walked block (_Prefix); a later tick steps them itself.
    `walks.steps_generated` counts the steps the particles take, not the
    block's look-ahead.

    Raises BudgetExceededError, with bracket (step_cap + 1, None), when the
    graph is not covered by lifetime step_cap.
    """
    _check_step_cap(step_cap)
    V = g.vertex_count
    at = np.full(V, NEVER, dtype=np.int64)
    at[init.origin] = 0
    count = 1
    prefix = _Prefix(g, init, walks, step_cap)
    # the awake particles, the origin's to begin with: their columns while
    # the ticks read the prefix, then their positions and keys
    cols = init.columns([init.origin])
    t = 0
    while count < V:
        t += 1
        if t > step_cap:
            raise _cap_error(step_cap, count, V)
        if t <= prefix.hmax:
            pos = prefix.row(t, cols)
        else:
            if cols is not None:  # the first tick past the prefix
                pos, keys = prefix.after(t - 1, cols), init.keys[cols]
                cols = None
            pos = walks.advance(pos, keys, t - 1, 1)[:, 0]
        # wake what the tick reaches, then what the woken particles' replays
        # reach; the woken batches join the awake set once, after the tick
        fresh = _wake_on(pos, at, t)
        woken = []
        while fresh.size:
            count += fresh.size
            new = init.columns(fresh)
            if count == V or not len(new):
                break
            fresh, new_pos = prefix.replay(new, t, at)
            woken.append((new, new_pos))
        if not woken:
            continue
        woken_cols, woken_pos = zip(*woken)
        if cols is not None:
            cols = np.concatenate((cols,) + woken_cols)
        else:
            pos = np.concatenate((pos,) + woken_pos)
            keys = np.concatenate((keys,
                                   init.keys[np.concatenate(woken_cols)]))
    return int(at.max())


def cover_time(g, init, walks, step_cap=DEFAULT_STEP_CAP):
    """Time of the last wake-up with immortal particles (tau = infinity).

    Raises BudgetExceededError, with bracket (step_cap + 1, None), when the
    graph is not covered by time step_cap.
    """
    return int(_wake_clock(g, init, walks, step_cap).max())
