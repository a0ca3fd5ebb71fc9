import warnings

import numpy as np
import pytest

from frogline import (BudgetExceededError, ParameterError, WalkStore,
                      build_graph, generate_steps, init_config,
                      parse_descriptor, randomness, step_uniforms, substream,
                      walk_keys)

from oracles import lexsort_marks


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
        keys = walk_keys(d, walks, 21)
        offsets = rng.integers(0, 10 ** 9, walks)
        for nsteps in (0, 1, 257):
            blocks = []
            for threshold in (0, 10 ** 9):
                monkeypatch.setattr(randomness, "SCALAR_STEP_WALKS",
                                    threshold)
                blocks.append(generate_steps(g, starts, keys, offsets,
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
    # cumulative sums), for offsets one per walk and shared, near the wrap
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
                    want = generate_steps(g, starts, keys, offsets, nsteps)
                    got = generate_steps(g, starts, ctr, 0, nsteps)
                assert np.array_equal(got, want), (walks, offsets, nsteps)


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


def test_one_step_kernel_matches_step_array():
    # the kernel against the graph's own step arithmetic, on every vertex
    # kind and on vertex ids past int32
    for text in ("tree:d=2,n=6", "tree:d=3,n=4", "tree:d=2,n=33",
                 "complete:n=7", "cycle:n=3", "cycle:n=5000000000"):
        g = build_graph(parse_descriptor(text))
        V = g.vertex_count
        starts = np.concatenate(([0, 1, V - 1, V // 2],
                                 np.random.default_rng(V % 97).integers(
                                     0, V, 3000)))
        keys = walk_keys(17, len(starts), 3)
        scratch = randomness.StepScratch(len(starts), g.index_dtype)
        for offset in (0, 1, 77):
            u = step_uniforms(keys, offset, 1)[:, 0]
            got = generate_steps(g, starts, keys, offset, 1, scratch)[:, 0]
            assert np.array_equal(got, g.step_array(starts, u)), text


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
            <= randomness.CONFIG_BYTE_LIMIT)


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


@pytest.mark.parametrize("text", ["tree:d=2,n=6", "tree:d=3,n=4",
                                  "complete:n=300", "cycle:n=257"])
def test_coupling_matches_the_lexsort_oracle(monkeypatch, text):
    # the complex-key sort orders each vertex's marks as lexsort does, so
    # the table, keys included, is the one lexsort's order gives
    g = build_graph(parse_descriptor(text))
    for lam_max in (0.0, 0.5, 1.0, 8.0):
        for seed in (0, 3, 2 ** 64 - 1):
            origin = seed % g.vertex_count
            got = randomness._coupling(g, origin, seed, lam_max)
            with monkeypatch.context() as m:
                m.setattr(randomness, "_sort_marks", lexsort_marks)
                want = randomness._coupling(g, origin, seed, lam_max)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (
                    text, lam_max, seed)


def test_sort_marks_with_tied_positions():
    vertex = np.array([0, 0, 0, 2, 2, 2, 2, 5, 7, 7], dtype=np.int64)
    positions = np.array([0.5, 0.25, 0.5, 0.75, 0.0, 0.75, 0.75, 0.1, 0.9,
                          0.0])
    got = randomness._sort_marks(vertex, positions)
    assert np.array_equal(got, lexsort_marks(vertex, positions))
    assert got.tolist() == [0.25, 0.5, 0.5, 0.0, 0.75, 0.75, 0.75, 0.1, 0.0,
                            0.9]
    # vertex ids past 2^31, where an int32 would wrap, are still exact
    big = vertex + 2 ** 40
    assert np.array_equal(randomness._sort_marks(big, positions), got)


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


@pytest.mark.parametrize("text", ["tree:d=2,n=5", "cycle:n=9",
                                  "complete:n=100"])
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
        seen = set(g.step_array(np.full(u.shape, v), u).tolist())
        assert seen == set(g.neighbors(v))


def test_generate_steps_uniform_marginals():
    g = build_graph(parse_descriptor("cycle:n=9"))
    steps = generate_steps(g, [0], walk_keys(13, 1), 0, 2000)[0]
    # one step from 0 goes to 1 or 8; over the path, increments are +-1
    diffs = (np.diff(np.concatenate(([0], steps))) + 9) % 9
    assert set(np.unique(diffs)) == {1, 8}


def test_substream_independence():
    a = substream(99, 1, 2, 3).random(8)
    b = substream(99, 1, 2, 4).random(8)
    c = substream(99, 1, 2, 3).random(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
