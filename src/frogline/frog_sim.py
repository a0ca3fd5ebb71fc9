"""Frog dynamics: activation times, susceptibility, cover time.

A particle woken at time s at its home vertex visits walk positions 1..tau
at times s+1..s+tau. A sleeping vertex wakes the first time any active
particle steps on it. Susceptibility is the smallest lifetime tau for which
the whole graph wakes; cover time is the analogous quantity for immortal
particles (tau = infinity). Activation times and cover time come from one
wake clock, susceptibility from a replay clock that reads the first steps
of every particle from a prefix walked ahead in lockstep.

The three entry points, `activation_times`, `susceptibility` and
`cover_time`, take a stack of configurations of one graph
(randomness.FrogStack, made by stack_views): K copies of the graph with
disjoint vertex ids, so each tick's numpy calls serve K trials, while each
copy's numbers stay those of its configuration alone. A configuration
(randomness.FrogInit) is itself the stack of one. Each returns one Outcome
per copy: its value, the steps its particles took and, when the step cap
stopped it, its budget error.
Both clocks keep their state in one _Clock: the copies' wake state and the
awake particles' slots, which a tick moves (from the prefix or by one
kernel step), woken particles join and a covered copy's particles leave by
compaction.
"""

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DEFAULT_STEP_CAP, BudgetExceededError, ParameterError,
                     check_step_cap)
from .graph import TREE
from .randomness import (GAMMA, StepScratch, config_bytes, counters,
                         generate_steps)

# activation-time sentinel for "never woken"
NEVER = np.iinfo(np.int64).max

# positions generated per replay block: catching woken particles up to the
# clock holds one block plus O(1) words per walk, whatever the clock is
SCAN_BLOCK_CELLS = 2 ** 16

# cells of the susceptibility clock's pre-walked prefix (_Prefix): its depth
# is at most PREFIX_CELLS // (particles in the stack), so it holds at most
# 16 MiB of positions (int16 or int32)
PREFIX_CELLS = 2 ** 22

# rows the prefix walks first
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
            p = self.prefix.at(t, self.cols[lo:hi])
        else:
            if self.cols is not None:  # the first tick past the prefix
                cols, self.cols = self.cols[lo:hi], None
                self._step_slots()
                self.pos[lo:hi] = self.prefix.at(t - 1, cols)
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


def activation_times(stack, tau=None, step_cap=DEFAULT_STEP_CAP):
    """Per-vertex wake ticks of every copy of `stack` under lifetime tau
    (None: immortal, else an integer >= 0), as a (K, V) array, NEVER where
    a vertex never wakes, and each copy's Outcome, whose value is its last
    wake tick when it is covered (under tau = None, its cover time).

    One synchronous clock over the awake particles (_Clock): at each tick
    every awake particle takes one step, and the vertices it lands on for
    the first time wake; their particles join at home and take step 1 on
    the next tick. A particle retires once its age reaches tau, and a
    covered copy's particles leave; the clock stops once nobody is left.
    The wake ticks are the activation times under lifetime tau. Past
    step_cap every copy that still has particles gets its own
    BudgetExceededError, with bracket (step_cap + 1, None).
    """
    check_step_cap(step_cap)
    if tau is not None:
        # a fractional lifetime would retire particles at its ceiling but
        # count their steps up to tau itself
        if not hasattr(tau, "__index__") or tau < 0:
            raise ParameterError("tau must be None or an integer >= 0, got %r"
                                 % (tau,))
        tau = operator.index(tau)
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


def cover_time(stack, step_cap=DEFAULT_STEP_CAP):
    """Each copy's cover time, the tick of its last wake-up with immortal
    particles (tau = infinity), as Outcomes; see `activation_times`."""
    return activation_times(stack, step_cap=step_cap)[1]


def _prefix_dtype(g):
    """The dtype of a prefix block on g: half the bytes of int32 wherever
    every vertex id fits."""
    return np.dtype(np.int16 if g.vertex_count <= 2 ** 15 else g.index_dtype)


def run_bytes(g, lam_max, copies):
    """Estimated peak bytes of a clock run on the stack of `copies`
    configurations of g at lam_max, the configurations included, with
    particles counted at their expected number, as config_bytes counts
    them. Beside the configurations it counts the stack's copy of their
    particle table, the clock's per-particle slots and per-vertex wake
    state, and, on trees, the prefix block. Tracemalloc peaks of
    run_spec_trials read at most 0.74 of it on trees of depth 6-16 at
    lambda 1/16 to 4, K_20000, K_300000, cycles, and stacks of 258-4000
    copies of small graphs."""
    V = g.vertex_count
    n = copies * (lam_max * V + 1)
    idx = np.dtype(g.index_dtype).itemsize
    # the stack's home, key and copy base; the slots' copy base, column,
    # position and counter word; the step kernel's hashed and shifted
    # words, draws, parents, masks and output
    per_particle = 2 * idx + 8 + 2 * idx + 16 + 16 + 3 * idx + 2
    # the stack's counts and first particles, the clock's wake ticks,
    # sleeping mask and stamps, and the per-copy step counts at the end
    per_vertex = 16 + 13 + 24
    # the Python objects of a copy: its configuration's arrays, its Outcome
    # and its trial rows (2.6 KB a copy measured at lambda 0)
    per_copy = 4096
    # a block holds at most PREFIX_CELLS cells and one row of n <=
    # PREFIX_CELLS particles (with more, it is the homes alone), twice
    # while a full block is copied into its double
    prefix = 0
    if g.family == TREE:
        prefix = 2 * (PREFIX_CELLS + min(n, PREFIX_CELLS)) \
            * _prefix_dtype(g).itemsize
    return (copies * (config_bytes(V, lam_max) + V * per_vertex + per_copy)
            + n * per_particle + prefix)


class _Prefix:
    """Positions 0..h of every particle of a stack, walked in lockstep into
    one step-major block: row j holds every particle's position after step
    j (row 0 its home), column i is particle i of the stack.

    Each time the clock passes h, more rows are walked, up to hmax =
    PREFIX_CELLS // (particles in the stack) (and the step cap): PREFIX_ROWS
    rows first, then as many rows as the prefix holds, up to `rows` (about
    SCAN_BLOCK_CELLS cells, at least PREFIX_ROWS rows). So a run that reads
    t rows walks at most 2 max(t, PREFIX_ROWS) of them. A full block is
    replaced by one of twice its rows, up to hmax + 1, into which the rows
    walked so far are copied: the block holds at most 2h + 1 rows, and the
    rows a run copies are fewer than its last block holds. The walks are
    counter-based, so its positions are the ones the clock would generate.
    """

    def __init__(self, stack, step_cap):
        g, n = stack.g, stack.particle_count()
        self.g, self.stack = g, stack
        # complete graphs and cycles get no prefix: generate_steps already
        # replays their batches with one cumulative sum per block, and a
        # prefix there measured slower
        self.hmax = min(PREFIX_CELLS // n, step_cap) if g.family == TREE else 0
        self.rows = max(PREFIX_ROWS, SCAN_BLOCK_CELLS // n)
        self.dtype = _prefix_dtype(g)
        self.block = stack.home[None]
        self.h = 0

    def at(self, t, cols):
        """Positions after step t <= hmax of particles `cols` (t = 0: their
        homes); the prefix grows when t passes h."""
        if t > self.h:
            self._grow()
        return self.block[t, cols]

    def _grow(self):
        keys, h = self.stack.keys, self.h
        top = h + min(self.rows, max(PREFIX_ROWS, h), self.hmax - h)
        if top >= len(self.block):
            block = np.empty((min(max(2 * len(self.block), top + 1),
                                  self.hmax + 1), len(keys)), dtype=self.dtype)
            block[:h + 1] = self.block[:h + 1]
            self.block = block
        step = max(1, SCAN_BLOCK_CELLS // len(keys))
        for lo in range(h, top, step):
            hi = min(lo + step, top)
            self.block[lo + 1:hi + 1] = generate_steps(
                self.g, self.block[lo], keys, lo, hi - lo).T
        self.h = top

    def replay(self, cols, t, wake):
        """Walk particles `cols` through steps 1..t and wake, at tick t, what
        they reach: steps 1..min(t, h) are read from the prefix, the rest
        generated. Returns the woken vertices and the particles' positions
        after step t."""
        woken = []
        base = self.stack.base[cols]
        h = min(t, self.h)
        span = max(1, SCAN_BLOCK_CELLS // len(cols))
        for lo in range(1, h + 1, span):
            woken.append(wake(self.block[lo:min(lo + span, h + 1), cols], base,
                              t))
        pos = self.at(h, cols)
        keys = self.stack.keys[cols]
        for done in range(h, t, span):
            path = generate_steps(self.g, pos, keys, done, min(span, t - done))
            woken.append(wake(path, base[:, None], t))
            pos = path[:, -1]
        return np.concatenate(woken), pos


def susceptibility(stack, step_cap=DEFAULT_STEP_CAP):
    """Each copy's susceptibility, the minimal lifetime tau under which
    every vertex wakes, as Outcomes.

    The replay clock: at clock t every awake particle has walked steps
    1..t, so the particles of a vertex woken at t first replay steps 1..t,
    and what they reach wakes at the same t. The awake set at clock t is
    then the set that lifetime t covers (reachability over first-visit
    steps <= t), so the last wake tick is the susceptibility. A tick
    t <= hmax reads the awake particles' positions from row t of the
    pre-walked prefix (_Prefix); a later tick steps them itself. A covered
    copy's particles leave the clock. The steps counted are the steps the
    particles take, not the prefix's look-ahead. A copy that lifetime
    step_cap does not cover gets a BudgetExceededError, with bracket
    (step_cap + 1, None).
    """
    check_step_cap(step_cap)
    prefix = _Prefix(stack, step_cap)
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


def run_activation(g, init, walks, tau):
    """Activation times of one configuration for lifetime tau, as an
    ActivationReport: `activation_times` on the configuration, kept for
    callers of the one-configuration form; `g` and `walks` are not read.

    Raises BudgetExceededError when the clock passes DEFAULT_STEP_CAP.
    """
    at, (outcome,) = activation_times(init, tau)
    if outcome.error is not None:
        raise outcome.error
    return ActivationReport(at[0], outcome.value is not None, outcome.value)

