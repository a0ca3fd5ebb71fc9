import tracemalloc
import warnings

import numpy as np
import pytest

from frogline import (BudgetExceededError, ParameterError, WalkStore,
                      build_graph, checks, errors, generate_steps,
                      init_config, parse_descriptor, randomness, walk_keys)

from oracles import step_array, step_uniforms


def _tree(d=2, n=4):
    return build_graph(parse_descriptor("tree:d=%d,n=%d" % (d, n)))


def test_replay_bit_identical():
    g = _tree()
    a = init_config(g, 1.5, 0, 1234)
    b = init_config(g, 1.5, 0, 1234)
    assert np.array_equal(a.counts, b.counts)
    for x, y in zip(a.coupling, b.coupling):
        assert np.array_equal(x, y)
    wa, wb = WalkStore(g, a), WalkStore(g, b)
    for i in range(a.particle_count()):
        assert np.array_equal(wa.prefix(i, 64), wb.prefix(i, 64))


def test_seed_changes_everything():
    g = _tree()
    a = init_config(g, 1.5, 0, 1)
    b = init_config(g, 1.5, 0, 2)
    assert not np.array_equal(a.counts, b.counts) or \
        not np.array_equal(a.coupling[2], b.coupling[2])
    assert not np.intersect1d(a.keys, b.keys).size


def test_prefix_extension_never_rewrites():
    # tree:d=3,n=4 at lambda 2 has about 240 particles, so its batch of all
    # particles is stepped in lockstep and each walk alone one at a time
    for text, lam in (("tree:d=2,n=4", 1.0), ("tree:d=3,n=4", 2.0),
                      ("cycle:n=7", 1.0), ("complete:n=6", 1.0)):
        g = build_graph(parse_descriptor(text))
        init = init_config(g, lam, 0, 9)
        w1 = WalkStore(g, init)
        full = w1.prefix(init.planted, 257).copy()
        w2 = WalkStore(g, init)
        # request in awkward chunks; values must agree step for step
        for cut in (1, 2, 3, 5, 64, 65, 200, 257):
            assert np.array_equal(w2.prefix(init.planted, cut),
                                  full[:cut + 1])
        # every particle's walk, generated alone, equals its row in one batch
        # of all particles, and its rows in that batch cut into awkward chunks
        starts, keys = init.home, init.keys
        batch = generate_steps(g, starts, keys, 0, 257)
        chunks, pos, done = [], starts, 0
        for cut in (1, 2, 5, 57, 192):
            chunks.append(generate_steps(g, pos, keys, done, cut))
            pos, done = chunks[-1][:, -1], done + cut
        assert done == 257
        assert np.array_equal(np.concatenate(chunks, axis=1), batch)
        for i in range(init.particle_count()):
            alone = WalkStore(g, init).prefix(i, 257)
            assert starts[i] == alone[0]
            assert np.array_equal(batch[i], alone[1:])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_scalar_and_lockstep_tree_steps_agree(monkeypatch, d):
    g = _tree(d, 4)
    rng = np.random.default_rng(d)
    leaf = g.vertex_count - 1
    for walks in (1, 7, 60):
        starts = rng.integers(0, g.vertex_count, walks)
        starts[0], starts[-1] = 0, leaf
        # walks keyed by their counter words after different step counts,
        # stepped on from one offset
        keys = randomness.counters(walk_keys(d, walks, 21),
                                   rng.integers(0, 10 ** 9, walks))
        for nsteps in (0, 1, 257):
            blocks = []
            for threshold in (0, 10 ** 9):
                monkeypatch.setattr(randomness, "SCALAR_STEP_WALKS",
                                    threshold)
                blocks.append(generate_steps(g, starts, keys, 123456789,
                                             nsteps))
            lockstep, scalar = blocks
            assert scalar.shape == (walks, nsteps)
            assert scalar.dtype == lockstep.dtype == g.index_dtype
            assert np.array_equal(scalar, lockstep)


def _wrapped_counters(keys, offsets):
    """key + offset * GAMMA mod 2^64, in Python ints."""
    gamma = int(randomness.GAMMA)
    offsets = np.broadcast_to(np.asarray(offsets, dtype=object), len(keys))
    return np.array([(int(k) + int(o) * gamma) % 2 ** 64
                     for k, o in zip(keys, offsets)], dtype=np.uint64)


@pytest.mark.parametrize("text", ["tree:d=2,n=6", "tree:d=3,n=5",
                                  "tree:d=5,n=4", "complete:n=50",
                                  "cycle:n=9"])
def test_counter_words_continue_the_walk(text):
    # the walk keyed by key + o * GAMMA, from step 0, is the walk keyed by
    # key from step o: on every step path (scalar, lockstep, one step,
    # cumulative sums), for offsets one per walk and shared, near the wrap.
    # The walks of each offset o are stepped by one call at offset o
    g = build_graph(parse_descriptor(text))
    rng = np.random.default_rng(len(text))
    for walks in (1, 48, 49, 5000):
        starts = rng.integers(0, g.vertex_count, walks)
        starts[0], starts[-1] = 0, g.vertex_count - 1
        keys = walk_keys(5, walks, walks)
        shared = [0, 1, 10 ** 9, 2 ** 64 - 1, 2 ** 64 - 130]
        per_walk = [np.array(shared, dtype=np.uint64)[
            rng.integers(0, len(shared), walks)]]
        for offsets in shared + per_walk:
            ctr = _wrapped_counters(keys, offsets)
            assert np.array_equal(randomness.counters(keys, offsets), ctr)
            for nsteps in (1, 257):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = generate_steps(g, starts, ctr, 0, nsteps)
                    for o in np.unique(offsets):
                        at = np.broadcast_to(offsets == o, walks)
                        want = generate_steps(g, starts[at], keys[at], int(o),
                                              nsteps)
                        assert np.array_equal(got[at], want), (walks, o)


def test_scaled_products_are_the_uniform_products():
    # the kernel multiplies the 53-bit integer m by degree * 2^-53 where
    # step_array multiplies the uniform m * 2^-53 by the degree: the same
    # exact product, rounded once, so the same double
    m = np.concatenate((np.random.default_rng(3).integers(
        0, 2 ** 53, 200_000, dtype=np.uint64),
        np.array([0, 1, 2, 3, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1],
                 dtype=np.uint64)))
    for deg in (1, 2, 3, 4, 6, 9, 99, 10 ** 4 - 1, 2 ** 31 - 2, 10 ** 12):
        assert np.array_equal((m * 2.0 ** -53) * deg, m * (deg * 2.0 ** -53))


def _oracle_paths(g, starts, keys, offsets, nsteps):
    """Every walk's positions after steps offsets+1 .. offsets+nsteps, from
    the float uniforms and the per-vertex degrees of the oracle."""
    u = step_uniforms(keys, offsets, nsteps)
    v, path = np.asarray(starts, dtype=np.int64), []
    for j in range(nsteps):
        v = step_array(g, v, u[:, j])
        path.append(v)
    return np.stack(path, axis=1)


def test_generate_steps_matches_the_oracle():
    # every branch of generate_steps against the oracle, walk by walk: tree
    # batches of at most SCALAR_STEP_WALKS walks and larger ones, one step,
    # five and more rows than one hash block holds, complete graphs and
    # cycles (vertex ids past int32 too), offsets 0 and 77 of plain keys and
    # offset 77 of counter words after different step counts, and no
    # scratch, a clock's scratch and one smaller than the batch
    rng = np.random.default_rng(5)
    for text, walks in (("tree:d=2,n=6", 48), ("tree:d=2,n=6", 3000),
                        ("tree:d=3,n=4", 7), ("tree:d=3,n=4", 500),
                        ("tree:d=2,n=33", 40), ("tree:d=2,n=33", 3000),
                        ("complete:n=7", 40), ("complete:n=7", 3000),
                        ("cycle:n=3", 3000), ("cycle:n=5000000000", 40),
                        ("cycle:n=5000000000", 3000)):
        g = build_graph(parse_descriptor(text))
        V = g.vertex_count
        starts = rng.integers(0, V, walks)
        starts[:4] = 0, 1, V - 1, V // 2
        keys = walk_keys(17, walks, 3)
        done = rng.integers(0, 10 ** 9, walks)
        for nsteps in (1, 5, randomness.HASH_BLOCK_CELLS // walks + 2):
            for ctr, offset, steps in ((keys, 0, 0), (keys, 77, 77), (
                    randomness.counters(keys, done), 77, done + 77)):
                want = _oracle_paths(g, starts, keys, steps, nsteps)
                clock = randomness.StepScratch(walks, g.index_dtype)
                for scratch in (None, clock, randomness.StepScratch(
                        walks // 2, g.index_dtype)):
                    got = generate_steps(g, starts, ctr, offset, nsteps,
                                         scratch)
                    assert got.dtype == g.index_dtype
                    assert np.array_equal(got, want), (text, walks, nsteps)
                # a one-step call off the scalar path returns the clock's
                # buffer
                got = generate_steps(g, starts, ctr, offset, 1, clock)
                scalar = g.family == "tree" and walks <= 48
                assert np.shares_memory(got, clock.out) != scalar


def test_init_config_size_guard():
    # refused before anything is allocated: 2^41 vertices would be 100 TB
    huge = build_graph(parse_descriptor("tree:d=2,n=40"))
    for lam in (0.0, 1.0):
        with pytest.raises(BudgetExceededError):
            init_config(huge, lam, 0, 1)
    with pytest.raises(BudgetExceededError):
        init_config(_tree(2, 22), 1.0, 0, 1, lam_max=8.0)
    # depth 20 at lambda 8 (about 1.3 GB) stays allowed
    deep = build_graph(parse_descriptor("tree:d=2,n=20"))
    assert (randomness.config_bytes(deep.vertex_count, 8.0)
            <= errors.CONFIG_BYTE_LIMIT)


def test_walks_are_valid_paths():
    for text in ("tree:d=2,n=3", "cycle:n=7", "complete:n=6"):
        g = build_graph(parse_descriptor(text))
        init = init_config(g, 2.0, 0, 5)
        walks = WalkStore(g, init)
        for i in range(init.particle_count()):
            w = walks.prefix(i, 40)
            assert w[0] == init.home[i]
            for t in range(40):
                assert int(w[t + 1]) in g.neighbors(int(w[t]))


def test_lambda_zero_just_the_plant():
    g = _tree()
    init = init_config(g, 0.0, 3, 77)
    assert init.particle_count() == 1
    assert init.counts.sum() == 1
    assert init.home[init.planted] == 3
    assert list(init.columns([3])) == [init.planted]


def test_lambda_max_zero_draws_nothing(monkeypatch):
    # no arrival lies at or below 0, so at lambda_max 0 the sampler draws no
    # gap: the table is the planted particle alone
    calls = []
    draws = randomness._draws

    def counted(*args):
        calls.append(args)
        return draws(*args)

    monkeypatch.setattr(randomness, "_draws", counted)
    for text in ("tree:d=2,n=4", "complete:n=10000"):
        init = init_config(build_graph(parse_descriptor(text)), 0.0, 3, 77)
        assert list(init.home) == [3]
    assert not calls


def test_lambda_max_changes_no_configuration():
    # an arrival <= lambda depends only on the gaps before it: every view at
    # lambda is the same table whatever horizon the marks were drawn to. On
    # tree n=15 the vertices take four sampling blocks, and the origins sit
    # in the first and the last
    cases = [("tree:d=2,n=8", range(15)), ("tree:d=2,n=15", range(2))]
    for text, seeds in cases:
        g = build_graph(parse_descriptor(text))
        for origin in (0, g.vertex_count - 1):
            for seed in seeds:
                for lam in (0.0, 0.5, 1.0, 2.0):
                    views = [init_config(g, lam, origin, seed, lam_max=top)
                             for top in (lam, 2.0, 3.5, 8.0)]
                    for view in views[1:]:
                        assert np.array_equal(view.home, views[0].home)
                        assert np.array_equal(view.keys, views[0].keys), (
                            text, origin, seed, lam)


def test_sampling_peak_stays_inside_config_bytes():
    # the byte guard's estimate holds for the sampler's peak, its blocks
    # and the view included
    g = _tree(2, 16)
    init_config(g, 1.0, 0, 1)  # imports and first-call caches, untraced
    for lam_max in (0.0, 0.25, 1.0, 8.0):
        tracemalloc.start()
        try:
            init_config(g, lam_max, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= randomness.config_bytes(g.vertex_count, lam_max), (
            lam_max, peak)


def test_poisson_moments_check_passes():
    result = checks.check_poisson_moments()
    assert result.passed, result.detail


def test_coupling_prefix_property():
    g = _tree(2, 5)
    base = init_config(g, 3.0, 0, 31, lam_max=3.0)
    lo = base.at_lambda(1.0)
    hi = base.at_lambda(2.5)
    assert np.all(lo.counts <= hi.counts)
    assert np.all(hi.counts <= base.counts)
    # a particle kept at lower lambda keeps its walk, not just its count: at
    # every vertex the lower view's marks are the first of the higher view's
    for small, big in ((lo, hi), (hi, base)):
        for v in range(g.vertex_count):
            a, b = small.keys[small.columns([v])], big.keys[big.columns([v])]
            if v == base.origin:
                assert a[-1] == b[-1]  # the planted particle
                a, b = a[:-1], b[:-1]
            assert np.array_equal(a, b[:len(a)])


# tree n=15 is sampled in four blocks, with the origin V - 1 in the last
@pytest.mark.parametrize("text", ["tree:d=2,n=5", "cycle:n=9",
                                  "complete:n=100", "tree:d=2,n=15"])
def test_particle_table_invariants(text):
    g = build_graph(parse_descriptor(text))
    V = g.vertex_count
    for origin in (0, V - 1):
        for seed in (0, 1):
            base = init_config(g, 2.0, origin, seed)
            for lam in (0.0, 0.5, 1.0, 2.0):
                init = base.at_lambda(lam)
                n = init.particle_count()
                assert init.counts.sum() == n == len(init.home)
                assert np.array_equal(init.first,
                                      np.cumsum(init.counts) - init.counts)
                assert np.array_equal(init.home,
                                      np.repeat(np.arange(V), init.counts))
                # the planted particle is last at the origin, with the
                # plant key; every mark's key is hashed from (vertex, rank)
                assert init.planted == init.columns([origin])[-1]
                assert init.keys[init.planted] == randomness._walk_keys(
                    seed, randomness._NS_PLANT_WALK, origin)[0]
                mark = np.arange(n) != init.planted
                rank = np.arange(n) - init.first[init.home]
                assert np.array_equal(init.keys[mark], randomness._walk_keys(
                    seed, randomness._NS_MARK_WALK, init.home[mark],
                    rank[mark]))


def test_lambda_above_max_rejected():
    g = _tree()
    base = init_config(g, 1.0, 0, 4, lam_max=2.0)
    with pytest.raises(ParameterError):
        base.at_lambda(2.5)
    with pytest.raises(ParameterError):
        init_config(g, 3.0, 0, 4, lam_max=2.0)


def test_poisson_counts_match_moments():
    g = build_graph(parse_descriptor("complete:n=5000"))
    lam = 3.0
    totals = np.array([init_config(g, lam, 0, s).counts.sum() - 1
                       for s in range(40)])
    expect = lam * g.vertex_count
    se = np.sqrt(lam * g.vertex_count / len(totals))
    assert abs(totals.mean() - expect) < 3 * se
    var = totals.var(ddof=1)
    assert 0.8 * expect < var < 1.2 * expect  # Poisson: var == mean


def test_walk_step_matches_neighbor_set():
    g = _tree(3, 2)
    for v in (0, 1, 5):
        u = step_uniforms(walk_keys(11, 1, v), 0, 200)[0]
        seen = set(step_array(g, np.full(u.shape, v), u).tolist())
        assert seen == set(g.neighbors(v))


def test_generate_steps_uniform_marginals():
    g = build_graph(parse_descriptor("cycle:n=9"))
    steps = generate_steps(g, [0], walk_keys(13, 1), 0, 2000)[0]
    # one step from 0 goes to 1 or 8; over the path, increments are +-1
    diffs = (np.diff(np.concatenate(([0], steps))) + 9) % 9
    assert set(np.unique(diffs)) == {1, 8}
