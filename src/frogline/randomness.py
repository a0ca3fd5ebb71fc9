"""Seeded randomness: Poisson configurations with a superposition coupling,
and keyed, counter-based random walks.

Two kinds of stream come from one 64-bit seed:

- Philox substreams (a `SeedSequence` spawn key per purpose) drive the
  Poisson configuration, the auxiliary `substream` Generators and the
  killed leaf walk.
- Keyed walks drive the frog particles and the range samples. A walk is
  one 64-bit key, and the uniform behind its step k is a SplitMix64-style
  hash of (key, k): a counter-based generator in the sense of Salmon et
  al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11). A walk's
  next position is a pure function of its key, its step count and its
  current vertex, so `generate_steps` can advance any batch of walks in
  lockstep as numpy vectors, or a few walks one at a time, and a walk's
  path does not depend on which walks share its batch or on how its steps
  are split into blocks.

The coupling works like this: every vertex carries the arrival marks of a
unit-rate Poisson process on [0, lambda_max], sampled once per (seed,
lambda_max). The particles present at density lambda are exactly the marks
with position <= lambda, plus the planted particle at the origin. For
lambda <= lambda' the lambda-particles are a sub-multiset of the
lambda'-particles, and each particle keeps the same walk key (hashed from
(seed, vertex, mark rank), or (seed, origin) for the planted particle,
never from lambda), so susceptibility and cover time are pointwise
monotone in lambda on shared seeds. The keys are hashed once per
configuration, for every mark up to lambda_max, into the lambda_max
particle table, and every lambda view (`FrogInit`) is that table filtered.

Asking for lambda > lambda_max raises instead of resampling; a silent
resample would break the coupling.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .graph import COMPLETE, TREE

# namespaces: distinct first key components keep stream families disjoint
_NS_CONFIG = 0
_NS_MARK_WALK = 1
_NS_PLANT_WALK = 2
_NS_AUX = 3
_NS_AUX_WALK = 4

# tree batches of at most this many walks are stepped one walk at a time in
# plain Python (TreeGraph.step_rows), larger ones by the in-place kernel.
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

# peak bytes init_config takes per vertex and per expected mark, rounded up
# from trees of depth 16 and 18 (36-50 B per vertex at lambda 0, 70 B per
# mark at lambda 8); a configuration estimated above CONFIG_BYTE_LIMIT is
# refused before anything is allocated
CONFIG_BYTES_PER_VERTEX = 48
CONFIG_BYTES_PER_MARK = 72
CONFIG_BYTE_LIMIT = 2 ** 32


def check_bytes(what, need):
    """Refuse, before anything is allocated, `what` when it is estimated at
    `need` bytes, more than CONFIG_BYTE_LIMIT. Every size guard calls this."""
    if need > CONFIG_BYTE_LIMIT:
        raise BudgetExceededError(
            "%s needs about %.3g bytes, over the limit of %d"
            % (what, need, CONFIG_BYTE_LIMIT))


GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _generator(seed, spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=spawn_key)))


def substream(seed, *key):
    """Independent Generator for an auxiliary purpose."""
    return _generator(seed, (_NS_AUX,) + tuple(int(k) for k in key))


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
    """uint64 keys hashed from (seed, *words); the words broadcast."""
    seed = int(seed)
    if seed < 0:
        raise ParameterError("seed must be >= 0, got %r" % (seed,))
    limbs = [seed & 0xFFFFFFFFFFFFFFFF]
    while seed >> 64:
        seed >>= 64
        limbs.append(seed & 0xFFFFFFFFFFFFFFFF)
    h = np.zeros(1, dtype=np.uint64)
    for w in limbs + list(words):
        h = _mix((h ^ np.asarray(w, dtype=np.uint64)) + GAMMA)
    return h


def walk_keys(seed, count, *key):
    """Keys of `count` independent walks for an auxiliary purpose `key`."""
    return _walk_keys(seed, _NS_AUX_WALK, *(int(k) for k in key),
                      np.arange(count, dtype=np.uint64))


def step_uniforms(keys, offsets, nsteps):
    """Uniforms in [0, 1) behind steps offsets+1 .. offsets+nsteps of each
    keyed walk, as rows of a (len(keys), nsteps) array."""
    k = (np.asarray(offsets, dtype=np.uint64).reshape(1, -1)
         + np.arange(1, nsteps + 1, dtype=np.uint64).reshape(-1, 1))
    z = _mix(k * GAMMA + np.asarray(keys, dtype=np.uint64))
    z >>= np.uint64(11)
    # computed step-major, so a lockstep loop reads contiguous rows of .T
    return (z.astype(np.float64) * 2.0 ** -53).T


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
        check_lambda("lambda", lam)
        if lam > self.lam_max:
            raise ParameterError(
                "lambda %r exceeds lambda_max %r; resampling would break the "
                "coupling" % (lam, self.lam_max))
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


def check_lambda(name, lam):
    if not (np.isfinite(lam) and lam >= 0):
        raise ParameterError("%s must be finite and >= 0, got %r" % (name, lam))


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
    if lam_max is None:
        lam_max = lam
    else:
        check_lambda("lambda_max", lam_max)
    check_lambda("lambda", lam)
    if lam > lam_max:
        raise ParameterError("lambda %r exceeds lambda_max %r" % (lam, lam_max))
    g.check_vertex(origin)
    check_bytes("a configuration on %s at lambda_max %r" % (g.label(), lam_max),
                config_bytes(g.vertex_count, lam_max))
    return _view(g, lam, lam_max, origin, _coupling(g, origin, seed, lam_max))


def _sort_marks(vertex, positions):
    """The mark positions, with `vertex` their vertices in nondecreasing
    order, sorted by position within each vertex: one in-place sort of the
    complex keys vertex + i * position, which numpy orders by real part,
    then by imaginary part. A vertex id below 2^53 is an exact double, and
    tied positions are equal values, so this is the order of
    lexsort((positions, vertex)), at a fraction of its cost."""
    z = np.empty(len(vertex), dtype=np.complex128)
    z.real = vertex
    z.imag = positions
    z.sort()
    return z.imag


def _coupling(g, origin, seed, lam_max):
    """The lam_max particle table as (home, keys, mark positions); its
    sampling temporaries are freed on return, before any view is taken."""
    rng = _generator(seed, (_NS_CONFIG,))
    per_vertex = rng.poisson(lam_max, size=g.vertex_count).astype(np.int64)
    total = int(per_vertex.sum())
    positions = rng.random(total) * lam_max
    vertex = np.repeat(np.arange(g.vertex_count, dtype=np.int64), per_vertex)
    marks = _sort_marks(vertex, positions)
    del positions
    first = np.cumsum(per_vertex) - per_vertex
    # a mark's key is hashed from (vertex, rank among the vertex's marks)
    keys = _walk_keys(seed, _NS_MARK_WALK, vertex,
                      np.arange(total, dtype=np.int64) - first[vertex])
    plant = int(first[origin] + per_vertex[origin])
    return (np.insert(vertex.astype(g.index_dtype), plant, origin),
            np.insert(keys, plant, _walk_keys(seed, _NS_PLANT_WALK, origin)),
            np.insert(marks, plant, 0.0))


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
    """Buffers of the step kernel for batches of up to `capacity` walks,
    positions of `dtype`, that hash `rows` steps at a time: the hashed words
    of rows x capacity cells and their shifted copies, then, for one row at
    a time, the draws, the parents, two masks and the positions a one-step
    generate_steps call returns. A clock allocates one per run and passes it
    to every step it takes."""

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
    scratch.m, hashed in place: the uniform of a step is m * 2^-53, the
    value step_uniforms(ctr, done, rows) gives."""
    n = len(ctr)
    m = scratch.m[:rows * n].reshape(rows, n)
    # array products wrap silently, where a uint64 scalar product would warn
    steps = np.arange(done + 1, done + rows + 1, dtype=np.uint64) * GAMMA
    np.add(ctr, steps.reshape(-1, 1), out=m)
    _mix(m, scratch.tmp[:rows * n].reshape(rows, n))
    m >>= np.uint64(11)
    return m


def _move(g, starts, m, out, scratch):
    """One step of each walk, on the buffers of `scratch`: walk i, at
    starts[i], moves to out[i] (`out` may be `starts`), to the neighbor
    floor(u * degree) of `step_array` for the uniform u = m[i] * 2^-53. The
    product u * degree is taken as m[i] * (degree * 2^-53): both are the
    exact product m[i] * degree * 2^-53 rounded once, so they are the same
    double, and the positions are those of step_array."""
    n = len(starts)
    if g.family != TREE:
        # complete graphs and cycles are circulant: the move is a shift by
        # the draw r, whatever the position; int64, so that it cannot wrap
        r, V = scratch.tmp[:n].view(np.int64), g.vertex_count
        if g.family == COMPLETE:
            np.multiply(m, (V - 1) * 2.0 ** -53, out=r, casting="unsafe")
            r += 1
        else:
            np.multiply(m, 2 * 2.0 ** -53, out=r, casting="unsafe")
            r *= 2
            r -= 1
        r += starts
        np.remainder(r, V, out=out, casting="unsafe")
        return out
    # an inner vertex has degree d + 1 and draw r = 0 is its parent, r > 0
    # child r; a leaf only has its parent; the root has degree d and no
    # parent slot, so its draw is shifted up by one. The degree is d + 1
    # throughout and the leaves and the root are fixed up, which costs no
    # per-vertex table; every array below has the positions' dtype, so no
    # operation casts
    d = g.d
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


def generate_steps(g, starts, keys, offsets, nsteps, scratch=None):
    """Positions after steps offsets+1 .. offsets+nsteps of a batch of keyed
    walks, as rows of a (len(starts), nsteps) array of `g.index_dtype`.

    Walk i stands at starts[i] after offsets[i] steps (`offsets` may be one
    number for all). Every keyed walk is generated here, so a walk's path is
    the same whichever walks share its batch and however its steps are split
    into calls. Tree batches of at most SCALAR_STEP_WALKS walks are stepped
    walk by walk in plain Python. Larger tree batches, and one step on any
    graph, go through the in-place kernel: up to HASH_BLOCK_CELLS cells of
    steps are hashed at once (`_draws`), then the walks move a row at a time
    (`_move`). Both take the same uniforms and the same products, so the
    path does not depend on which.

    A clock passes counter words (`counters`) as `keys` at offset 0 and its
    `scratch` (a StepScratch), so that a step allocates nothing; the
    (walks, 1) block it returns then is a view of scratch.out, which the
    next call rewrites.
    """
    starts = np.asarray(starts, dtype=g.index_dtype)
    n = len(starts)
    if g.family == TREE and n <= SCALAR_STEP_WALKS:
        # too few walks to pay for a numpy call per step
        u = step_uniforms(keys, offsets, nsteps)
        path = g.step_rows(starts.tolist(), u.tolist())
        return np.array(path, dtype=g.index_dtype).reshape(n, nsteps)
    if g.family != TREE and nsteps != 1:
        # complete graphs and cycles are circulant: a step from v lands on
        # v + s (mod V) with a shift s = step_array(0, u) independent of v,
        # so a path is a cumulative sum of shifts
        u = step_uniforms(keys, offsets, nsteps)
        path = np.cumsum(g.step_array(0, u), axis=1)
        path += starts.reshape(-1, 1)
        path %= g.vertex_count
        return path.astype(g.index_dtype)
    ctr = (counters(keys, offsets) if np.ndim(offsets) or offsets
           else np.asarray(keys, dtype=np.uint64))
    if nsteps == 1:
        if scratch is None:
            scratch = StepScratch(n, g.index_dtype)
        m = _draws(ctr, 0, 1, scratch)[0]
        return _move(g, starts, m, scratch.out[:n], scratch).reshape(n, 1)
    # on trees the degree depends on the position: the walks move a row at
    # a time
    rows = max(1, min(nsteps, HASH_BLOCK_CELLS // n))
    scratch = StepScratch(n, g.index_dtype, rows)
    out = np.empty((nsteps, n), dtype=g.index_dtype)
    v = starts
    for done in range(0, nsteps, rows):
        m = _draws(ctr, done, min(rows, nsteps - done), scratch)
        for j, mj in enumerate(m, done):
            v = _move(g, v, mj, out[j], scratch)
    return out.T


class WalkStore:
    """The particles' keyed walks of one configuration.

    A walk is a pure function of its key and step count, so nothing is
    cached: `advance` steps a batch of walks, and prefix(i, t) regenerates
    positions 0..t of particle i's walk (index 0 is its home).
    `steps_generated` counts the steps generated through `advance`, plus
    the steps the particles take in each frog_sim clock run on this
    configuration (not the look-ahead of the susceptibility clock's
    prefix).
    """

    def __init__(self, g, init):
        self.g = g
        self.init = init
        self.steps_generated = 0

    def advance(self, starts, keys, offsets, nsteps):
        """generate_steps on this store's graph, counted in steps_generated."""
        block = generate_steps(self.g, starts, keys, offsets, nsteps)
        self.steps_generated += block.size
        return block

    def prefix(self, i, nsteps):
        home = self.init.home[i:i + 1]
        steps = self.advance(home, self.init.keys[i:i + 1], 0, nsteps)[0]
        return np.concatenate((home, steps))
