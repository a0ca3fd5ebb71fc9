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
from .graph import TREE

# namespaces: distinct first key components keep stream families disjoint
_NS_CONFIG = 0
_NS_MARK_WALK = 1
_NS_PLANT_WALK = 2
_NS_AUX = 3
_NS_AUX_WALK = 4

# tree batches of at most this many walks are stepped one walk at a time in
# plain Python (TreeGraph.step_rows), larger ones by one numpy call per step.
# On a 2-core VM (python 3.11, numpy 2.4) a numpy step costs 15-22 us
# whatever the batch size and a scalar step 0.3-0.45 us, and the two paths
# cost the same at 40-60 walks
SCALAR_STEP_WALKS = 48

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


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _generator(seed, spawn_key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=spawn_key)))


def substream(seed, *key):
    """Independent Generator for an auxiliary purpose."""
    return _generator(seed, (_NS_AUX,) + tuple(int(k) for k in key))


def _mix(z):
    """SplitMix64 finalizer, in place on a uint64 array (a bijection)."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
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
        h = _mix((h ^ np.asarray(w, dtype=np.uint64)) + _GAMMA)
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
    z = _mix(k * _GAMMA + np.asarray(keys, dtype=np.uint64))
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


def _coupling(g, origin, seed, lam_max):
    """The lam_max particle table as (home, keys, mark positions); its
    sampling temporaries are freed on return, before any view is taken."""
    rng = _generator(seed, (_NS_CONFIG,))
    per_vertex = rng.poisson(lam_max, size=g.vertex_count).astype(np.int64)
    total = int(per_vertex.sum())
    positions = rng.random(total) * lam_max
    vertex = np.repeat(np.arange(g.vertex_count, dtype=np.int64), per_vertex)
    # vertex is already sorted; lexsort only orders the marks within a vertex
    marks = positions[np.lexsort((positions, vertex))]
    first = np.cumsum(per_vertex) - per_vertex
    # a mark's key is hashed from (vertex, rank among the vertex's marks)
    keys = _walk_keys(seed, _NS_MARK_WALK, vertex,
                      np.arange(total, dtype=np.int64) - first[vertex])
    plant = int(first[origin] + per_vertex[origin])
    return (np.insert(vertex.astype(g.index_dtype), plant, origin),
            np.insert(keys, plant, _walk_keys(seed, _NS_PLANT_WALK, origin)),
            np.insert(marks, plant, 0.0))


def generate_steps(g, starts, keys, offsets, nsteps):
    """Positions after steps offsets+1 .. offsets+nsteps of a batch of keyed
    walks, as rows of a (len(starts), nsteps) array of `g.index_dtype`.

    Walk i stands at starts[i] after offsets[i] steps (`offsets` may be one
    number for all). Every keyed walk is generated here, so a walk's path is
    the same whichever walks share its batch and however its steps are split
    into calls. Tree batches of at most SCALAR_STEP_WALKS walks are stepped
    walk by walk in plain Python, larger ones in lockstep; both take the same
    uniforms and the same products, so the path does not depend on which.
    """
    starts = np.asarray(starts, dtype=g.index_dtype)
    u = step_uniforms(keys, offsets, nsteps)
    if g.family == TREE and len(starts) <= SCALAR_STEP_WALKS:
        # too few walks to pay for a numpy call per step
        path = g.step_rows(starts.tolist(), u.tolist())
        return np.array(path, dtype=g.index_dtype).reshape(len(starts), nsteps)
    if g.family == TREE:
        # the degree depends on the position: one lockstep step per row of u.T
        out = np.empty((nsteps, len(starts)), dtype=g.index_dtype)
        v = starts
        for j, uj in enumerate(u.T):
            v = out[j] = g.step_array(v, uj)
        return out.T
    # complete graphs and cycles are circulant: a step from v lands on v + s
    # (mod V) with a shift s = step_array(0, u) independent of v, so a path
    # is a cumulative sum of shifts
    path = np.cumsum(g.step_array(0, u), axis=1)
    path += starts.reshape(-1, 1)
    path %= g.vertex_count
    return path.astype(g.index_dtype)


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
