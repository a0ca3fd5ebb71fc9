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
Both keep their state in one _Clock: the copies' wake state and the awake
particles' slots, which a tick moves (from the prefix or by one kernel
step), woken particles join and a covered copy's particles leave by
compaction.
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


def check_step_cap(step_cap):
    """Refuse a cap on the clock (or the steps of a leaf walk) below 1."""
    if step_cap <= 0:
        raise ParameterError("step_cap must be > 0, got %r" % (step_cap,))


class _Clock:
    """The state of a clock on a stack's K copies.

    Wake state: the sleeping mask the wake test reads, a stamp per union
    vertex that dedupes a tick's hits, each copy's count of awake vertices,
    the tick each copy was covered at, the budget error of each copy the
    step cap stopped and, when `times` is set, the tick each union vertex
    woke at (NEVER while it sleeps).

    Awake particles: slots lo..hi of arrays that can hold every particle of
    the stack. A slot holds its particle's copy base and, while the ticks
    read the `prefix` (t <= hmax), its column; past the prefix, or with
    none, its position and counter word instead. Under a finite lifetime
    `tau` it also holds the tick the particle woke at. Woken particles join
    at hi, so wake ticks never decrease along the slots, and a particle
    whose age reaches tau leaves by moving lo past it. Once a round covers
    a copy, its particles leave by compaction.
    """

    def __init__(self, stack, times=False, tau=None, prefix=None):
        self.g, self.stack, self.tau, self.prefix = stack.g, stack, tau, prefix
        self.V, self.K = V, K = stack.g.vertex_count, len(stack.origins)
        self.at = None
        if times:
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
        n = stack.particle_count()
        self.hmax = prefix.hmax if prefix is not None else 0
        self.base = np.empty(n, dtype=stack.base.dtype)
        self.cols = self.pos = self.ctr = self.scratch = None
        if self.hmax:
            self.cols = np.empty(n, dtype=np.int64)
        else:
            self._step_slots()
        self.born = np.empty(n, dtype=np.int64) if tau is not None else None
        self.lo = self.hi = 0

    def _step_slots(self):
        """Allocate the slots' positions and counter words, and the step
        kernel's buffers."""
        n = self.stack.particle_count()
        self.pos = np.empty(n, dtype=self.g.index_dtype)
        self.ctr = np.empty(n, dtype=np.uint64)
        self.scratch = StepScratch(n, self.g.index_dtype)

    def wake(self, pos, base, t):
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
        if self.at is not None:
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

    def join(self, cols, t, pos=None):
        """Append particles `cols`, woken at tick t, to the awake slots: at
        their homes, before their first step, or at positions `pos` after
        step t."""
        lo, hi = self.hi, self.hi + len(cols)
        self.base[lo:hi] = self.stack.base[cols]
        if self.cols is not None:
            self.cols[lo:hi] = cols
        elif pos is None:
            self.pos[lo:hi] = self.stack.home[cols]
            self.ctr[lo:hi] = self.stack.keys[cols]
        else:
            self.pos[lo:hi] = pos
            self.ctr[lo:hi] = counters(self.stack.keys[cols], t)
        if self.born is not None:
            self.born[lo:hi] = t
        self.hi = hi

    def retire(self, t):
        """Retire, after tick t, the particles that have taken tau steps: a
        particle woken at tick b has taken t - b."""
        if self.born is not None:
            self.lo += int(np.searchsorted(self.born[self.lo:self.hi],
                                           t - self.tau, side="right"))

    def tick(self, t):
        """Move the awake particles to their positions after step t, read
        from row t of the prefix while t <= hmax and stepped by the kernel
        after it, and wake what they reach; returns the woken vertices."""
        lo, hi = self.lo, self.hi
        if t <= self.hmax:
            p = self.prefix.row(t, self.cols[lo:hi])
        else:
            if self.cols is not None:  # the first tick past the prefix
                cols, self.cols = self.cols[lo:hi], None
                self._step_slots()
                self.pos[lo:hi] = self.prefix.after(t - 1, cols)
                self.ctr[lo:hi] = counters(self.stack.keys[cols], t - 1)
            p, c = self.pos[lo:hi], self.ctr[lo:hi]
            p[:] = generate_steps(self.g, p, c, 0, 1, self.scratch)[:, 0]
            c += GAMMA
        return self.wake(p, self.base[lo:hi], t)

    def compact(self):
        """Drop the particles of covered copies from the awake slots."""
        lo, hi = self.lo, self.hi
        keep = self.running(self.base[lo:hi])
        n = np.count_nonzero(keep)
        for a in (self.base, self.cols, self.pos, self.ctr, self.born):
            if a is not None:
                a[:n] = a[lo:hi][keep]
        self.lo, self.hi = 0, n

    def stop(self, step_cap):
        """Stop at the step cap every copy that still has awake particles,
        each with its own budget error."""
        for k in np.unique(self.base[self.lo:self.hi] // self.V):
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

    One synchronous clock over the awake particles (_Clock): at each tick
    every awake particle takes one step, and the vertices it lands on for
    the first time wake; their particles join at home and take step 1 on
    the next tick. A particle retires once its age reaches tau (None:
    immortal), and a covered copy's particles leave; the clock stops once
    nobody is left. The wake ticks are the activation times under lifetime
    tau. Past step_cap every copy that still has particles gets its own
    BudgetExceededError.
    """
    check_step_cap(step_cap)
    clock = _Clock(stack, times=True, tau=tau)
    clock.join(stack.columns(stack.origins), 0)
    t = 0
    while True:
        clock.retire(t)
        if clock.lo == clock.hi:
            break
        t += 1
        if t > step_cap:
            clock.stop(step_cap)
            break
        fresh = clock.tick(t)
        if fresh.size:
            clock.join(stack.columns(fresh), t)
            if clock.cover(t):
                clock.compact()
    # by tick T a particle woken at tick a has taken min(T - a, tau) steps;
    # an uncovered copy's last tick is the cap or the tick its particles ran
    # out by
    T = np.where(clock.covered, clock.last, min(t, step_cap))
    at = clock.at.reshape(clock.K, clock.V)
    steps = (stack.counts.reshape(clock.K, clock.V)
             * np.clip(T[:, None] - at, 0, tau)).sum(axis=1)
    return at, clock.outcomes(steps)


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
    check_step_cap(step_cap)
    prefix = _Prefix(g, stack, step_cap)
    clock = _Clock(stack, prefix=prefix)
    V, K = clock.V, clock.K
    # particles of each copy that its last wake round reached: the copy is
    # covered before they take a step
    idle = np.zeros(K, dtype=np.int64)
    clock.join(stack.columns(stack.origins), 0)
    t = 0
    while clock.n_covered < K:
        t += 1
        if t > step_cap:
            clock.stop(step_cap)
            break
        # wake what the tick reaches, then what the woken particles' replays
        # reach; each woken batch joins the awake particles
        fresh = clock.tick(t)
        while fresh.size:
            if clock.cover(t):
                last = ~clock.running(fresh)
                np.add.at(idle, fresh[last] // V, stack.counts[fresh[last]])
                fresh = fresh[~last]
                clock.compact()
            new = stack.columns(fresh)
            if not len(new):
                break
            fresh, pos = prefix.replay(new, t, clock.wake)
            clock.join(new, t, pos)
    # at the end of tick T every awake particle has walked exactly T steps,
    # but a covered copy's last-woken particles took none
    T = np.where(clock.covered, clock.last, step_cap)
    awake = (stack.counts * ~clock.sleeping).reshape(K, V).sum(axis=1)
    return clock.outcomes(T * (awake - idle))


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
