"""Seeded randomness: Poisson configurations with a superposition coupling,
and keyed, counter-based random walks, all from one stream family.

A stream is one 64-bit key, hashed from (seed, namespace, ...), and its
draw k is a SplitMix64-style hash of (key, k): a counter-based generator in
the sense of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11). Every random number comes from that one hash (`_draws`): the
Poisson configuration, the frog particles' walks, the range samples and
the killed leaf walk. A walk's next position is a pure function of its
key, its step count and its current vertex, so `generate_steps` can
advance any batch of walks in lockstep as numpy vectors, or a few walks
one at a time, and a walk's path does not depend on which walks share its
batch or on how its steps are split into blocks.

The coupling works like this: every vertex v carries the arrival marks of
a unit-rate Poisson process, whose gap j is -log1p(-u) for the uniform u of
draw j of the stream (seed, config, v). The particles present at density
lambda are exactly the marks with position <= lambda, plus the planted
particle at the origin. An arrival <= lambda depends only on the gaps
before it, so the configuration at lambda is a function of (seed, origin,
lambda) alone, whatever horizon lambda_max the processes were drawn to.
For lambda <= lambda' the lambda-particles are a sub-multiset of the
lambda'-particles, and each particle keeps the same walk key (hashed from
(seed, vertex, mark rank), or (seed, origin) for the planted particle,
never from lambda), so susceptibility and cover time are pointwise
monotone in lambda on shared seeds. The marks up to lambda_max are drawn
once per configuration into the lambda_max particle table, and every
lambda view (`FrogInit`) is that table filtered.

A view asks for lambda <= lambda_max: the table holds no marks past its
horizon.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import check_budget, check_horizon, check_seed
from .graph import COMPLETE, TREE

# namespaces: distinct first key components keep stream families disjoint
_NS_CONFIG = 0
_NS_MARK_WALK = 1
_NS_PLANT_WALK = 2
_NS_LEAF_WALK = 3
_NS_PURPOSE_WALK = 4

# tree batches of at most this many walks are stepped one walk at a time in
# plain Python (_tree_rows), larger ones by the in-place kernel.
# Measured against that kernel on a shared 2-core VM (python 3.11, numpy
# 2.4, minimum of 7 repeats, three runs): one step of a batch costs 50-64 us
# in the kernel at any size up to 128 walks, and 35-38 us plus 0.5-0.6 us a
# walk in plain Python, so the two cross at 48-64 walks one step at a time
# and at 56-96 walks in 16-step calls; 48 sits at the low end of both
SCALAR_STEP_WALKS = 48

# cells a lockstep tree call hashes at once before it moves its walks row by
# row: enough rows to spread the hash's numpy calls over a small batch, and
# few enough cells (16 bytes each) to stay in cache. 64 steps on tree d=2
# n=14 (shared 2-core VM, python 3.11, numpy 2.4, minimum of 5 repeats), ns
# per cell at 2^10 / 2^14 / 2^18 cells: 1024 walks 60 / 39 / 51, 4096 walks
# 23 / 17.5 / 35, 16384 walks 12.6 / 13.2 / 21
HASH_BLOCK_CELLS = 2 ** 14

# peak bytes init_config takes per vertex and per expected mark, an upper
# bound: the tracemalloc peak on tree d=2 n=16 reads 0.33 of the estimate
# at lambda 0, 0.36 at lambda 1 and 0.55 at lambda 8; a configuration
# estimated above CONFIG_BYTE_LIMIT is refused before anything is allocated
CONFIG_BYTES_PER_VERTEX = 48
CONFIG_BYTES_PER_MARK = 72

# vertices whose marks init_config draws at once: a block's temporaries
# take about 100 B a vertex, so the peak stays inside the estimate (one
# block of all 131,071 vertices of tree d=2 n=16 reads 1.46 of it at lambda
# 0, blocks of 2^16 read 0.73). Best of 3 on tree d=2 n=20 (shared 2-core
# VM, python 3.11, numpy 2.4), init_config at lambda 1 / 4: blocks of 2^12
# 0.34 / 0.80 s, 2^14 0.22 / 0.65 s, 2^16 0.30 / 0.87 s
CONFIG_BLOCK_VERTICES = 2 ** 14


GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z, tmp=None):
    """SplitMix64 finalizer, in place on a uint64 array (a bijection); the
    shifted words go to `tmp`, an array of z's shape, when it is given."""
    if tmp is None:
        tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _walk_keys(seed, *words):
    """uint64 keys hashed from (seed, *words), seed a u64; the words
    broadcast."""
    check_seed(seed)
    h = np.zeros(1, dtype=np.uint64)
    for w in (int(seed),) + words:
        h = _mix((h ^ np.asarray(w, dtype=np.uint64)) + GAMMA)
    return h


def walk_keys(seed, count, *key):
    """Keys of `count` independent walks for an auxiliary purpose `key`."""
    return _walk_keys(seed, _NS_PURPOSE_WALK, *(int(k) for k in key),
                      np.arange(count, dtype=np.uint64))


class _ParticleTable:
    """Particles numbered vertex by vertex: those at vertex v are first[v]
    .. first[v] + counts[v] - 1, and particle i has walk key keys[i]."""

    def particle_count(self):
        return len(self.keys)

    def columns(self, vs):
        """Particles living at the distinct vertices `vs`, vertex by vertex."""
        counts = self.counts[vs]
        # vertex j contributes first[v_j] .. first[v_j] + counts[j] - 1
        first = self.first[vs] - counts.cumsum() + counts
        return first.repeat(counts) + np.arange(counts.sum())


@dataclass
class FrogInit(_ParticleTable):
    """One realized configuration at density `lam`, as a particle table:
    particle i starts at home[i], and the planted particle is the last
    particle at the origin. Every lambda view of one configuration filters
    the same lam_max table, kept in `coupling`.
    """

    g: object
    lam: float
    lam_max: float
    origin: int
    counts: np.ndarray
    first: np.ndarray = field(repr=False)
    home: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    # (home, keys, mark position) of every particle of the lam_max view; the
    # planted particle's position is 0, so every view keeps it
    coupling: tuple = field(repr=False)

    @property
    def planted(self):
        return int(self.first[self.origin] + self.counts[self.origin] - 1)

    def at_lambda(self, lam):
        """Re-view the same realization at a different density <= lam_max."""
        check_horizon(lam, self.lam_max)
        return _view(self.g, lam, self.lam_max, self.origin, self.coupling)


@dataclass
class FrogStack(_ParticleTable):
    """K views of one graph as one particle table on K disjoint copies of it.

    Copy k's vertex v is vertex k*V + v of the union: `counts`, `first` and
    `origins` (copy k's origin) are indexed by union vertex. Particles are
    numbered copy by copy, each copy's as in its view; `home` holds the
    positions in the graph itself, so the graph's own step arithmetic moves
    them, and base[i] = k*V maps particle i's positions into copy k. Trials
    share nothing but the graph, and a walk is a pure function of its key
    and step count, so one clock on the stack gives each copy the numbers
    its view gives alone.
    """

    g: object
    counts: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)
    home: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    base: np.ndarray = field(repr=False)
    origins: np.ndarray = field(repr=False)


def stack_views(views):
    """The FrogStack of `views`, configurations of one graph. A stack of one
    shares its view's arrays."""
    g = views[0].g
    V, K = g.vertex_count, len(views)
    dtype = np.int32 if K * V < 2 ** 31 else np.int64
    bases = np.arange(K, dtype=dtype) * V
    sizes = [view.particle_count() for view in views]
    base = bases.repeat(sizes)
    origins = bases + [view.origin for view in views]
    if K == 1:
        (view,) = views
        return FrogStack(g, view.counts, view.first, view.home, view.keys,
                         base, origins)
    counts = np.concatenate([view.counts for view in views])
    return FrogStack(g, counts, counts.cumsum() - counts,
                     np.concatenate([view.home for view in views]),
                     np.concatenate([view.keys for view in views]), base,
                     origins)


def _view(g, lam, lam_max, origin, coupling):
    """The table of the particles of `coupling` whose marks are <= lam."""
    home, keys, marks = coupling
    keep = marks <= lam
    if not keep.all():  # a view keeping everything shares the arrays
        home, keys = home[keep], keys[keep]
    counts = np.bincount(home, minlength=g.vertex_count)
    return FrogInit(g, lam, lam_max, origin, counts, counts.cumsum() - counts,
                    home, keys, coupling)


def config_bytes(vertex_count, lam_max):
    """Estimated peak bytes of a configuration with lam_max * vertex_count
    expected marks."""
    return vertex_count * (CONFIG_BYTES_PER_VERTEX
                           + CONFIG_BYTES_PER_MARK * lam_max)


def init_config(g, lam, origin, seed, lam_max=None):
    """Sample the Poisson configuration: Pois(lam) per vertex plus the plant.

    Raises BudgetExceededError, before any allocation, when the
    configuration would take more than CONFIG_BYTE_LIMIT bytes.
    """
    lam_max = lam if lam_max is None else lam_max
    check_horizon(lam, lam_max)
    g.check_vertex(origin)
    check_budget("a configuration on %s at lambda_max %r"
                 % (g.label(), lam_max), config_bytes(g.vertex_count, lam_max))
    return _view(g, lam, lam_max, origin, _coupling(g, origin, seed, lam_max))


def _coupling(g, origin, seed, lam_max):
    """The lam_max particle table as (home, keys, mark positions), sampled
    CONFIG_BLOCK_VERTICES vertices at a time; its sampling temporaries are
    freed on return, before any view is taken."""
    # the planted particle comes last at the origin, at mark position 0
    plant = (origin, _walk_keys(seed, _NS_PLANT_WALK, origin), 0.0)
    if lam_max == 0:
        # no arrival at or below 0: a Poisson gap is positive, so no vertex
        # draws one (a drawn gap is 0 only for m = 0, probability 2^-53)
        return tuple(np.array(x, dtype=dtype, ndmin=1) for x, dtype
                     in zip(plant, (g.index_dtype, np.uint64, np.float64)))
    V, B = g.vertex_count, CONFIG_BLOCK_VERTICES
    blocks = [_block_marks(g, seed, lo, min(lo + B, V), lam_max)
              for lo in range(0, V, B)]
    at = np.searchsorted(blocks[origin // B][0], origin, side="right")
    blocks[origin // B] = [np.insert(column, at, x)
                           for column, x in zip(blocks[origin // B], plant)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _block_marks(g, seed, lo, hi, lam_max):
    """(home, keys, mark positions) of the marks of vertices lo .. hi - 1,
    vertex by vertex and in increasing position within a vertex: vertex v's
    arrivals up to lam_max, whose gap j is -log1p(-u) for the uniform u of
    draw j of the stream (seed, _NS_CONFIG, v). The gaps are drawn in
    rounds, one for each vertex whose last arrival is still <= lam_max, so
    the vertices of a round share their counter."""
    ctr = _walk_keys(seed, _NS_CONFIG, np.arange(lo, hi, dtype=np.uint64))
    scratch = StepScratch(hi - lo, g.index_dtype)
    # round j: the vertices with a mark of rank j, and its position
    live, t, rounds = np.arange(hi - lo), np.zeros(hi - lo), []
    while len(live):
        u = _draws(ctr, len(rounds), 1, scratch)[0] * 2.0 ** -53
        t = t - np.log1p(-u)  # a new array: the last round holds the old one
        keep = np.flatnonzero(t <= lam_max)  # faster than a mask
        live, ctr, t = live[keep], ctr[keep], t[keep]
        rounds.append((live, t))
    counts = np.bincount(np.concatenate([vs for vs, _ in rounds]),
                         minlength=hi - lo)
    first = counts.cumsum() - counts
    marks = np.empty(int(counts.sum()))
    for j, (vs, ts) in enumerate(rounds):
        marks[first[vs] + j] = ts
    home = np.arange(lo, hi, dtype=g.index_dtype).repeat(counts)
    rank = np.arange(len(home)) - first.repeat(counts)
    return home, _walk_keys(seed, _NS_MARK_WALK, home, rank), marks


def counters(keys, steps):
    """Counter words of keyed walks that have taken `steps` steps (one number
    for all, or one per walk): key + steps * GAMMA, mod 2^64. A walk's step
    k hashes key + k * GAMMA, so the walk keyed by its counter word, at step
    0, goes on where the walk left off."""
    keys = np.asarray(keys, dtype=np.uint64)
    if np.ndim(steps):
        return np.asarray(steps, dtype=np.uint64) * GAMMA + keys
    # a uint64 scalar product would warn on the wrap-around
    return keys + np.uint64(int(steps) * int(GAMMA) % 2 ** 64)


class StepScratch:
    """Buffers of the step rules for batches of up to `capacity` walks,
    positions of `dtype`, that hash `rows` steps at a time: the hashed words
    of rows x capacity cells and their shifted copies (which then hold the
    shifts on complete graphs and cycles), then, for one row of a tree at a
    time, the draws, the parents and two masks, and the positions a
    one-step generate_steps call returns. A clock allocates one per run and
    passes it to every step it takes."""

    def __init__(self, capacity, dtype, rows=1):
        self.m = np.empty(rows * capacity, dtype=np.uint64)
        self.tmp = np.empty(rows * capacity, dtype=np.uint64)
        self.r = np.empty(capacity, dtype=dtype)
        self.parent = np.empty(capacity, dtype=dtype)
        self.inner = np.empty(capacity, dtype=bool)
        self.moves = np.empty(capacity, dtype=bool)
        self.out = np.empty(capacity, dtype=dtype)


def _draws(ctr, done, rows, scratch):
    """The 53-bit integers m behind steps done+1 .. done+rows of the walks
    with counter words `ctr`, as a step-major (rows, len(ctr)) view of
    scratch.m, hashed in place: the uniform of a step is m * 2^-53. This is
    the one step hash; every keyed walk draws from it."""
    n = len(ctr)
    m = scratch.m[:rows * n].reshape(rows, n)
    # array products wrap silently, where a uint64 scalar product would warn
    steps = np.arange(done + 1, done + rows + 1, dtype=np.uint64) * GAMMA
    np.add(ctr, steps.reshape(-1, 1), out=m)
    _mix(m, scratch.tmp[:rows * n].reshape(rows, n))
    m >>= np.uint64(11)
    return m


def _fit(scratch, g, n, rows):
    """`scratch` when it has room for rows x n cells and n walks, else a new
    StepScratch that has."""
    if scratch is None or len(scratch.out) < n or len(scratch.m) < rows * n:
        return StepScratch(n, g.index_dtype, rows)
    return scratch


# Each step rule takes the walk to its neighbor floor(u * degree), for the
# uniform u = m * 2^-53 of its draw m, in a fixed order of the neighbors:
# on trees the parent first, then the children; on complete graphs and
# cycles, shifts by 1 .. V - 1 and by -1, +1. The product u * degree is
# taken as m * (degree * 2^-53): both are the exact product m * degree *
# 2^-53 rounded once, so they are the same double, and every rule picks the
# same neighbor for the same draw.


def _tree_rows(g, starts, draws):
    """Tree walks in plain Python, one walk at a time: walk i starts at
    starts[i] and takes one step per draw in draws[i]; the positions come
    back as one flat list, row after row."""
    d, first_leaf = g.d, g.first_leaf
    root, inner = d * 2.0 ** -53, (d + 1) * 2.0 ** -53
    path = []
    for v, row in zip(starts, draws):
        for m in row:
            if v == 0:
                v = int(m * root) + 1
            elif v >= first_leaf:
                v = (v - 1) // d
            else:
                r = int(m * inner)
                v = (v - 1) // d if r == 0 else d * v + r
            path.append(v)
    return path


def _move(g, starts, m, out, scratch):
    """One step of each tree walk, on the buffers of `scratch`: walk i, at
    starts[i], moves to out[i] (`out` may be `starts`) by its draw m[i]."""
    # an inner vertex has degree d + 1 and draw r = 0 is its parent, r > 0
    # child r; a leaf only has its parent; the root has degree d and no
    # parent slot, so its draw is shifted up by one. The degree is d + 1
    # throughout and the leaves and the root are fixed up, which costs no
    # per-vertex table; every array below has the positions' dtype, so no
    # operation casts
    n, d = len(starts), g.d
    r, parent = scratch.r[:n], scratch.parent[:n]
    inner, moves = scratch.inner[:n], scratch.moves[:n]
    np.multiply(m, (d + 1) * 2.0 ** -53, out=r, casting="unsafe")
    if not starts.all():
        roots = np.flatnonzero(starts == 0)
        r[roots] = (m[roots] * (d * 2.0 ** -53)).astype(r.dtype) + 1
    np.less(starts, g.first_leaf, out=inner)
    np.subtract(starts, 1, out=parent)
    parent //= d
    np.multiply(starts, d, out=out)
    out += r
    # a select without branches, which a random mask would mispredict:
    # out = parent + [inner and r > 0] * (child - parent)
    np.not_equal(r, 0, out=moves)
    moves &= inner
    out -= parent
    out *= moves
    out += parent
    return out


def _shift(g, starts, m, out, scratch):
    """Rows of steps of walks on a complete graph or cycle, from the rows of
    draws `m` into the rows of `out`; returns the last row. Both graphs are
    circulant: a step moves by a shift drawn from m, whatever the position,
    so after j rows a walk stands at its start plus the sum of its first j
    shifts, mod V."""
    k, n = m.shape
    V = g.vertex_count
    # int64, so that the sums cannot wrap
    r = scratch.tmp[:k * n].view(np.int64).reshape(k, n)
    if g.family == COMPLETE:
        np.multiply(m, (V - 1) * 2.0 ** -53, out=r, casting="unsafe")
        r += 1
    else:
        np.multiply(m, 2 * 2.0 ** -53, out=r, casting="unsafe")
        r *= 2
        r -= 1
    if k > 1:
        np.cumsum(r, axis=0, out=r)
    r += starts
    np.remainder(r, V, out=out, casting="unsafe")
    return out[-1]


def generate_steps(g, starts, keys, offsets, nsteps, scratch=None):
    """Positions after steps offsets+1 .. offsets+nsteps of a batch of keyed
    walks, as rows of a (len(starts), nsteps) array of `g.index_dtype`.

    Walk i stands at starts[i] after offsets[i] steps (`offsets` may be one
    number for all). Every keyed walk is generated here, so a walk's path is
    the same whichever walks share its batch and however its steps are split
    into calls. All paths draw from one hash (`_draws`) and take the same
    products. Tree batches of at most SCALAR_STEP_WALKS walks are stepped
    walk by walk in plain Python (`_tree_rows`). Larger tree batches hash up
    to HASH_BLOCK_CELLS cells of steps at once, then move a row at a time
    (`_move`). On complete graphs and cycles the call's steps are hashed at
    once and summed as shifts (`_shift`).

    A clock passes counter words (`counters`) as `keys` at offset 0 and its
    `scratch` (a StepScratch), so that a step hashes in place; off trees, or
    past SCALAR_STEP_WALKS walks, the (walks, 1) block it returns then is a
    view of scratch.out, which the next call rewrites. A scratch too small
    for the call is not used.
    """
    starts = np.asarray(starts, dtype=g.index_dtype)
    n = len(starts)
    # a clock's call, at offset 0, skips np.ndim: about 1.5 us on an int
    ctr = (np.asarray(keys, dtype=np.uint64)
           if type(offsets) is int and offsets == 0
           else counters(keys, offsets))
    if g.family == TREE and n <= SCALAR_STEP_WALKS:
        # too few walks to pay for a numpy call per step
        scratch = _fit(scratch, g, n, nsteps)
        m = _draws(ctr, 0, nsteps, scratch)
        # the draws as exact doubles (m < 2^53), which Python multiplies by
        # a float faster than it does an int
        x = scratch.tmp[:m.size].view(np.float64).reshape(m.shape)
        x[...] = m
        path = _tree_rows(g, starts.tolist(), x.T.tolist())
        return np.array(path, dtype=g.index_dtype).reshape(n, nsteps)
    # on trees the degree depends on the position, so the walks move a row
    # at a time; off trees a call is one cumulative sum of shifts
    rows = min(nsteps, HASH_BLOCK_CELLS // n) if g.family == TREE else nsteps
    rows = max(1, rows)
    scratch = _fit(scratch, g, n, rows)
    out = (scratch.out[None, :n] if nsteps == 1
           else np.empty((nsteps, n), dtype=g.index_dtype))
    v = starts
    for done in range(0, nsteps, rows):
        m = _draws(ctr, done, min(rows, nsteps - done), scratch)
        if g.family == TREE:
            for j in range(len(m)):
                v = _move(g, v, m[j], out[done + j], scratch)
        else:
            v = _shift(g, v, m, out[done:done + len(m)], scratch)
    return out.T


class WalkStore:
    """The particles' keyed walks of one configuration, read one walk at a
    time: prefix(i, t) regenerates positions 0..t of particle i's walk
    (index 0 is its home). A walk is a pure function of its key and step
    count, so nothing is cached."""

    def __init__(self, g, init):
        self.g = g
        self.init = init

    def prefix(self, i, nsteps):
        home = self.init.home[i:i + 1]
        steps = generate_steps(self.g, home, self.init.keys[i:i + 1], 0,
                               nsteps)[0]
        return np.concatenate((home, steps))
