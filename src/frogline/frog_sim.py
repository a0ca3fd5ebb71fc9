"""Frog dynamics: activation times, susceptibility, cover time.

A particle woken at time s at its home vertex visits walk positions 1..tau
at times s+1..s+tau. A sleeping vertex wakes the first time any active
particle steps on it. Susceptibility is the smallest lifetime tau for which
the whole graph wakes; cover time is the analogous quantity for immortal
particles (tau = infinity). Activation times and cover time come from one
wake clock, susceptibility from a replay clock that reads the first steps
of every particle from a prefix walked ahead in lockstep.

Both clocks run on a stack of configurations of one graph
(randomness.FrogStack): K copies of the graph with disjoint vertex ids, so
each tick's numpy calls serve K trials, while each copy's numbers stay
those of its configuration alone. One configuration is the stack of one.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .graph import TREE
from .randomness import (GAMMA, FrogStack, StepScratch, counters,
                         generate_steps, stack_views)

# activation-time sentinel for "never woken"
NEVER = np.iinfo(np.int64).max

# cap on the clock of activation, susceptibility and cover time
DEFAULT_STEP_CAP = 10 ** 9

# positions generated per replay block: catching woken particles up to the
# clock holds one block plus O(1) words per walk, whatever the clock is
SCAN_BLOCK_CELLS = 2 ** 16

# cells of the susceptibility clock's pre-walked prefix (_Prefix): its depth
# is at most PREFIX_CELLS // (particles in the stack), so it holds at most
# 16 MiB of positions (int16 or int32)
PREFIX_CELLS = 2 ** 22

# rows the prefix grows by, at least, each time the clock passes it
PREFIX_ROWS = 16


@dataclass
class ActivationReport:
    at: np.ndarray  # per-vertex activation time, NEVER where unreached
    covered: bool
    max_at: Optional[int]  # defined when covered


@dataclass
class Outcome:
    """One copy's result of a clock run on a stack."""
    value: Optional[int]  # S or CT; None when the copy is not covered
    steps: int  # steps the copy's particles took
    error: Optional[BudgetExceededError] = None  # set when the cap stopped it


def _check_step_cap(step_cap):
    if step_cap <= 0:
        raise ParameterError("step_cap must be > 0, got %r" % (step_cap,))


class _Wake:
    """Wake state of a stack's K copies: the tick each union vertex woke at
    (NEVER while it sleeps), the sleeping mask the wake test reads, a stamp
    per union vertex that dedupes a tick's hits, each copy's count of awake
    vertices, the tick each copy was covered at, and the budget error of
    each copy the step cap stopped."""

    def __init__(self, stack):
        self.V, self.K = V, K = stack.g.vertex_count, len(stack.origins)
        self.at = np.full(K * V, NEVER, dtype=np.int64)
        self.at[stack.origins] = 0
        self.sleeping = np.ones(K * V, dtype=bool)
        self.sleeping[stack.origins] = False
        self.stamp = np.zeros(K * V, dtype=np.int32)
        self.count = np.ones(K, dtype=np.int64)
        self.covered = np.zeros(K, dtype=bool)
        self.n_covered = 0
        self.last = np.zeros(K, dtype=np.int64)
        self.errors = [None] * K

    def __call__(self, pos, base, t):
        """Wake, at tick t, the sleeping vertices that positions `pos` reach
        in the copies at `base` (union id pos + base, broadcast); returns
        their union ids, distinct. A stack of one skips the copy
        arithmetic."""
        gids = pos if self.K == 1 else pos + base
        hit = gids[self.sleeping.take(gids)]
        if not hit.size:
            return hit
        # one hit per vertex: the one whose index the scatter kept
        idx = np.arange(hit.size, dtype=np.int32)
        self.stamp[hit] = idx
        fresh = hit[self.stamp[hit] == idx]
        self.sleeping[fresh] = False
        self.at[fresh] = t
        if self.K == 1:
            self.count += fresh.size
        else:
            self.count += np.bincount(fresh // self.V, minlength=self.K)
        return fresh

    def cover(self, t):
        """Mark covered at tick t the copies the wakes so far covered;
        returns how many."""
        full = self.count == self.V
        new = np.count_nonzero(full) - self.n_covered
        if new:
            ids = np.flatnonzero(full & ~self.covered)
            self.covered[ids] = True
            self.last[ids] = t
            self.n_covered += new
        return new

    def running(self, ids):
        """Whether each union id (vertex or base) lies in an uncovered copy."""
        return ~self.covered[ids // self.V]

    def stop(self, step_cap, copies):
        """Stop `copies` at the step cap, each with its own budget error."""
        for k in copies:
            self.errors[k] = BudgetExceededError(
                "clock exceeded step cap %d" % step_cap,
                fraction_covered=int(self.count[k]) / self.V,
                bracket=(step_cap + 1, None))

    def outcomes(self, steps):
        """Each copy's Outcome, given the steps its particles took."""
        return [Outcome(int(self.last[k]) if self.covered[k] else None,
                        int(steps[k]), self.errors[k]) for k in range(self.K)]


def _wake_clock(g, stack, step_cap, tau=None):
    """Per-vertex wake ticks of every copy of `stack`, as a (K, V) array,
    NEVER where a vertex never wakes, and each copy's Outcome (its value is
    its cover time).

    One synchronous clock over the awake particles: at each tick every awake
    particle takes one step, and the vertices it lands on for the first time
    wake; their particles take step 1 on the next tick. The awake particles
    live in slots lo..hi of arrays that hold every particle of the stack:
    position, counter word, copy base and, under a finite lifetime `tau`,
    the tick the particle woke at. Woken particles are appended, so wake
    ticks never decrease along the slots, and a particle whose age reaches
    tau (None: immortal) leaves by moving lo past it. A covered copy's
    particles leave by compaction. The clock stops once nobody is left. The
    wake ticks are the activation times under lifetime tau. Past step_cap
    every copy that still has particles gets its own BudgetExceededError.
    """
    _check_step_cap(step_cap)
    V, K = g.vertex_count, len(stack.origins)
    wake = _Wake(stack)
    capacity = stack.particle_count()
    scratch = StepScratch(capacity, g.index_dtype)
    pos = np.empty(capacity, dtype=g.index_dtype)
    ctr = np.empty(capacity, dtype=np.uint64)
    base = np.empty(capacity, dtype=stack.base.dtype)
    born = np.empty(capacity, dtype=np.int64) if tau is not None else None
    lo = hi = 0

    def join(cols, t):
        nonlocal hi
        end = hi + len(cols)
        pos[hi:end] = stack.home[cols]
        ctr[hi:end] = stack.keys[cols]
        base[hi:end] = stack.base[cols]
        if born is not None:
            born[hi:end] = t
        hi = end

    join(stack.columns(stack.origins), 0)
    t = 0
    awake = None  # views of slots lo..hi, taken again when lo or hi moves
    while True:
        if tau is not None:
            # a particle woken at tick b has taken t - b steps
            dead = int(np.searchsorted(born[lo:hi], t - tau, side="right"))
            if dead:
                lo, awake = lo + dead, None
        if lo == hi:
            break
        t += 1
        if t > step_cap:
            wake.stop(step_cap, np.unique(base[lo:hi] // V))
            break
        if awake is None:
            awake = pos[lo:hi], ctr[lo:hi], base[lo:hi]
        p, c, b = awake
        p[:] = generate_steps(g, p, c, 0, 1, scratch)[:, 0]
        c += GAMMA
        fresh = wake(p, b, t)
        if not fresh.size:
            continue
        if wake.cover(t):
            keep = wake.running(b)
            n = np.count_nonzero(keep)
            for a in (pos, ctr, base, born):
                if a is not None:
                    a[:n] = a[lo:hi][keep]
            lo, hi = 0, n
            fresh = fresh[wake.running(fresh)]
        join(stack.columns(fresh), t)
        awake = None
    # by tick T a particle woken at tick a has taken min(T - a, tau) steps;
    # an uncovered copy's last tick is the cap or the tick its particles ran
    # out by
    T = np.where(wake.covered, wake.last, min(t, step_cap))
    at = wake.at.reshape(K, V)
    steps = (stack.counts.reshape(K, V)
             * np.clip(T[:, None] - at, 0, tau)).sum(axis=1)
    return at, wake.outcomes(steps)


class _Prefix:
    """Steps 1..h of every particle of a stack, walked in lockstep into
    step-major row chunks: row j - 1 holds every particle's position after
    step j, column i is particle i of the stack.

    Each time the clock passes h, one more chunk of `rows` rows (about
    SCAN_BLOCK_CELLS cells, at least PREFIX_ROWS rows) is walked, up to
    hmax = PREFIX_CELLS // (particles in the stack) (and the step cap), so
    the prefix holds at most one chunk more than the clock reads, and no
    row is copied. The walks are counter-based, so its positions are the
    ones the clock would generate.
    """

    def __init__(self, g, stack, step_cap):
        self.g, self.stack = g, stack
        n = stack.particle_count()
        # complete graphs and cycles get no prefix: generate_steps already
        # replays their batches with one cumulative sum per block, and a
        # prefix there measured slower
        self.hmax = min(PREFIX_CELLS // n, step_cap) if g.family == TREE else 0
        self.rows = max(PREFIX_ROWS, SCAN_BLOCK_CELLS // n)
        # half the bytes of int32 wherever every vertex id fits
        self.dtype = np.int16 if g.vertex_count <= 2 ** 15 else g.index_dtype
        self.chunks = []
        self.h = 0

    def _at(self, t, cols):
        c, r = divmod(t - 1, self.rows)
        return self.chunks[c][r, cols]

    def row(self, t, cols):
        """Positions after step t <= hmax of particles `cols`; the prefix
        grows when t passes h."""
        if t > self.h:
            self._grow()
        return self._at(t, cols)

    def after(self, t, cols):
        """Positions after step t <= h of particles `cols`."""
        return self._at(t, cols) if t else self.stack.home[cols]

    def _grow(self):
        g, keys, h = self.g, self.stack.keys, self.h
        chunk = np.empty((min(self.rows, self.hmax - h), len(keys)),
                         dtype=self.dtype)
        step = max(1, SCAN_BLOCK_CELLS // len(keys))
        for lo in range(0, len(chunk), step):
            hi = min(lo + step, len(chunk))
            start = chunk[lo - 1] if lo else self.after(h, slice(None))
            chunk[lo:hi] = generate_steps(g, start, keys, h + lo, hi - lo).T
        self.chunks.append(chunk)
        self.h += len(chunk)

    def replay(self, cols, t, wake):
        """Walk particles `cols` through steps 1..t and wake, at tick t, what
        they reach: steps 1..min(t, h) are read from the prefix, the rest
        generated. Returns the woken vertices and the particles' positions
        after step t."""
        woken = []
        base = self.stack.base[cols]
        h = min(t, self.h)
        span = max(1, SCAN_BLOCK_CELLS // len(cols))
        for c, chunk in enumerate(self.chunks):
            top = min(len(chunk), h - c * self.rows)
            for lo in range(0, top, span):
                woken.append(wake(chunk[lo:min(lo + span, top), cols], base,
                                  t))
        pos = self.after(h, cols)
        keys = self.stack.keys[cols]
        for done in range(h, t, span):
            path = generate_steps(self.g, pos, keys, done, min(span, t - done))
            woken.append(wake(path, base[:, None], t))
            pos = path[:, -1]
        return np.concatenate(woken), pos


def _replay_clock(g, stack, step_cap):
    """Each copy's susceptibility, as Outcomes; see `susceptibility`."""
    _check_step_cap(step_cap)
    V, K = g.vertex_count, len(stack.origins)
    wake = _Wake(stack)
    prefix = _Prefix(g, stack, step_cap)
    # particles of each copy that its last wake round reached: the copy is
    # covered before they take a step
    idle = np.zeros(K, dtype=np.int64)
    # the awake particles, the origins' to begin with: their columns while
    # the ticks read the prefix, then their positions and counter words
    cols = stack.columns(stack.origins)
    base = stack.base[cols]
    t = 0
    while wake.n_covered < K:
        t += 1
        if t > step_cap:
            wake.stop(step_cap, np.flatnonzero(~wake.covered))
            break
        if t <= prefix.hmax:
            pos = prefix.row(t, cols)
        else:
            if cols is not None:  # the first tick past the prefix
                pos = prefix.after(t - 1, cols)
                ctr = counters(stack.keys[cols], t - 1)
                cols = None
                scratch = StepScratch(stack.particle_count(), g.index_dtype)
            pos = generate_steps(g, pos, ctr, 0, 1, scratch)[:, 0]
            ctr += GAMMA
        # wake what the tick reaches, then what the woken particles' replays
        # reach; the woken batches join the awake set once, after the tick
        fresh = wake(pos, base, t)
        woken = []
        covered = False
        while fresh.size:
            if wake.cover(t):
                covered = True
                last = ~wake.running(fresh)
                np.add.at(idle, fresh[last] // V, stack.counts[fresh[last]])
                fresh = fresh[~last]
            new = stack.columns(fresh)
            if not len(new):
                break
            fresh, new_pos = prefix.replay(new, t, wake)
            woken.append((new, new_pos))
        if wake.n_covered == K:
            break
        if woken:
            new = np.concatenate([c for c, _ in woken])
            base = np.concatenate((base, stack.base[new]))
            if cols is not None:
                cols = np.concatenate((cols, new))
            else:
                pos = np.concatenate([pos] + [p for _, p in woken])
                ctr = np.concatenate((ctr, counters(stack.keys[new], t)))
        if covered:
            keep = wake.running(base)
            base = base[keep]
            if cols is not None:
                cols = cols[keep]
            else:
                pos, ctr = pos[keep], ctr[keep]
    # at the end of tick T every awake particle has walked exactly T steps,
    # but a covered copy's last-woken particles took none
    T = np.where(wake.covered, wake.last, step_cap)
    awake = (stack.counts * ~wake.sleeping).reshape(K, V).sum(axis=1)
    return wake.outcomes(T * (awake - idle))


def _settle(outcomes, walks):
    """The Outcome of a stack of one configuration, with its steps added to
    walks.steps_generated (when walks is given) and its budget error
    raised."""
    (outcome,) = outcomes
    if walks is not None:
        walks.steps_generated += outcome.steps
    if outcome.error is not None:
        raise outcome.error
    return outcome


def run_activation(g, init, walks, tau):
    """Exact activation times for lifetime tau.

    Raises BudgetExceededError when the clock passes DEFAULT_STEP_CAP.
    """
    if tau < 0:
        raise ParameterError("tau must be >= 0, got %r" % (tau,))
    at, outcomes = _wake_clock(g, stack_views([init]), DEFAULT_STEP_CAP,
                               tau=tau)
    max_at = _settle(outcomes, walks).value
    return ActivationReport(at=at[0], covered=max_at is not None,
                            max_at=max_at)


def susceptibility(g, init, walks=None, step_cap=DEFAULT_STEP_CAP):
    """Minimal lifetime tau under which every vertex wakes.

    The replay clock: at clock t every awake particle has walked steps
    1..t, so the particles of a vertex woken at t first replay steps 1..t,
    and what they reach wakes at the same t. The awake set at clock t is
    then the set that lifetime t covers (reachability over first-visit
    steps <= t), so the last wake tick is the susceptibility. A tick
    t <= hmax reads the awake particles' positions from row t of the
    pre-walked prefix (_Prefix); a later tick steps them itself. A covered
    copy's particles leave the clock. The steps counted are the steps the
    particles take, not the prefix's look-ahead.

    `init` is one configuration or a stack of them. For a stack this
    returns each copy's Outcome. For one configuration it returns S, adds
    the steps to `walks.steps_generated`, and raises BudgetExceededError,
    with bracket (step_cap + 1, None), when the graph is not covered by
    lifetime step_cap.
    """
    if isinstance(init, FrogStack):
        return _replay_clock(g, init, step_cap)
    return _settle(_replay_clock(g, stack_views([init]), step_cap),
                   walks).value


def cover_time(g, init, walks=None, step_cap=DEFAULT_STEP_CAP):
    """Time of the last wake-up with immortal particles (tau = infinity).

    `init` and the results are as in `susceptibility`; for one
    configuration this raises BudgetExceededError, with bracket
    (step_cap + 1, None), when the graph is not covered by time step_cap.
    """
    if isinstance(init, FrogStack):
        return _wake_clock(g, init, step_cap)[1]
    return _settle(_wake_clock(g, stack_views([init]), step_cap)[1],
                   walks).value
