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
configuration, for every mark up to lambda_max, and every lambda view
shares them.

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


@dataclass
class FrogInit:
    """One realized initial configuration at density `lam`.

    counts[v] includes the planted particle at the origin. The mark arrays
    describe the full coupling measure up to lam_max and are shared by any
    re-view at a smaller lambda.
    """

    g: object
    lam: float
    lam_max: float
    origin: int
    seed: int
    counts: np.ndarray
    mark_counts: np.ndarray
    marks_flat: np.ndarray = field(repr=False)
    marks_vertex: np.ndarray = field(repr=False)
    marks_indptr: np.ndarray = field(repr=False)
    # walk key of every particle id: the marks', then the planted particle's
    pid_keys: np.ndarray = field(repr=False)

    @property
    def planted_pid(self):
        return len(self.marks_flat)

    def particle_count(self):
        return int(self.counts.sum())

    def pids_at(self, v):
        """Particle ids living at vertex v under the current lambda."""
        base = int(self.marks_indptr[v])
        out = list(range(base, base + int(self.mark_counts[v])))
        if v == self.origin:
            out.append(self.planted_pid)
        return out

    def start_vertex(self, pid):
        if pid == self.planted_pid:
            return self.origin
        return int(self.marks_vertex[pid])

    def particle_keys(self, pids):
        """Walk keys of particles `pids`, hashed from (vertex, rank within
        the vertex's sorted marks): a particle keeps its walk across
        different lambda views of the same seed."""
        return self.pid_keys[np.asarray(pids, dtype=np.int64)]

    def walks_at(self, vs):
        """(start vertices, walk keys) of every particle living at the
        distinct vertices `vs` under the current lambda."""
        vs = np.asarray(vs, dtype=np.int64)
        counts = self.mark_counts[vs]
        # vertex j contributes pids indptr[v_j] .. indptr[v_j] + counts[j] - 1
        first = self.marks_indptr[vs] - counts.cumsum() + counts
        pids = first.repeat(counts) + np.arange(counts.sum())
        starts = vs.repeat(counts)
        if (vs == self.origin).any():
            pids = np.append(pids, self.planted_pid)
            starts = np.append(starts, self.origin)
        return starts, self.particle_keys(pids)

    def at_lambda(self, lam):
        """Re-view the same realization at a different density <= lam_max."""
        _check_lambda("lambda", lam)
        if lam > self.lam_max:
            raise ParameterError(
                "lambda %r exceeds lambda_max %r; resampling would break the "
                "coupling" % (lam, self.lam_max))
        mark_counts = np.bincount(
            self.marks_vertex[self.marks_flat <= lam],
            minlength=self.g.vertex_count).astype(np.int64)
        counts = mark_counts.copy()
        counts[self.origin] += 1
        return FrogInit(self.g, lam, self.lam_max, self.origin, self.seed,
                        counts, mark_counts, self.marks_flat,
                        self.marks_vertex, self.marks_indptr, self.pid_keys)


def _check_lambda(name, lam):
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
    _check_lambda("lambda", lam)
    if lam_max is None:
        lam_max = lam
    _check_lambda("lambda_max", lam_max)
    if lam > lam_max:
        raise ParameterError("lambda %r exceeds lambda_max %r" % (lam, lam_max))
    g.check_vertex(origin)
    V = g.vertex_count
    need = config_bytes(V, lam_max)
    if need > CONFIG_BYTE_LIMIT:
        raise BudgetExceededError(
            "a configuration on %s at lambda_max %r needs about %.3g bytes, "
            "over the limit of %d" % (g.label(), lam_max, need,
                                      CONFIG_BYTE_LIMIT))
    rng = _generator(seed, (_NS_CONFIG,))
    per_vertex = rng.poisson(lam_max, size=V).astype(np.int64)
    total = int(per_vertex.sum())
    positions = rng.random(total) * lam_max
    vertex = np.repeat(np.arange(V, dtype=np.int64), per_vertex)
    order = np.lexsort((positions, vertex))
    marks_flat = positions[order]
    marks_vertex = vertex  # already vertex-sorted; lexsort only reorders within
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(per_vertex, out=indptr[1:])
    rank = np.arange(total, dtype=np.int64) - indptr[marks_vertex]
    init = FrogInit(g, lam_max, lam_max, origin, seed,
                    counts=np.zeros(V, dtype=np.int64),
                    mark_counts=per_vertex,
                    marks_flat=marks_flat, marks_vertex=marks_vertex,
                    marks_indptr=indptr,
                    pid_keys=np.append(
                        _walk_keys(seed, _NS_MARK_WALK, marks_vertex, rank),
                        _walk_keys(seed, _NS_PLANT_WALK, origin)))
    return init.at_lambda(lam)


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
    cached: the engines call `advance` for whole batches, and prefix(pid, t)
    regenerates positions 0..t of particle pid's walk (index 0 is its start
    vertex). `steps_generated` counts the steps the particles take: every
    step generated through `advance`, and every step the susceptibility
    clock reads from its pre-walked prefix (frog_sim._Prefix), whose
    look-ahead is not counted.
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

    def prefix(self, pid, nsteps):
        start = self.init.start_vertex(pid)
        steps = self.advance([start], self.init.particle_keys([pid]), 0,
                             nsteps)[0]
        return np.concatenate(([start], steps)).astype(self.g.index_dtype)
