import numpy as np
import pytest

from frogline import (BudgetExceededError, ParameterError, WalkStore,
                      build_graph, generate_steps, init_config,
                      parse_descriptor, randomness, step_uniforms, substream,
                      walk_keys)


def _tree(d=2, n=4):
    return build_graph(parse_descriptor("tree:d=%d,n=%d" % (d, n)))


def test_replay_bit_identical():
    g = _tree()
    a = init_config(g, 1.5, 0, 1234)
    b = init_config(g, 1.5, 0, 1234)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.marks_flat, b.marks_flat)
    wa, wb = WalkStore(g, a), WalkStore(g, b)
    for pid in range(a.particle_count()):
        assert np.array_equal(wa.prefix(pid, 64), wb.prefix(pid, 64))


def test_seed_changes_everything():
    g = _tree()
    a = init_config(g, 1.5, 0, 1)
    b = init_config(g, 1.5, 0, 2)
    assert not np.array_equal(a.counts, b.counts) or \
        not np.array_equal(a.marks_flat, b.marks_flat)


def test_prefix_extension_never_rewrites():
    # tree:d=3,n=4 at lambda 2 has about 240 particles, so its batch of all
    # particles is stepped in lockstep and each walk alone one at a time
    for text, lam in (("tree:d=2,n=4", 1.0), ("tree:d=3,n=4", 2.0),
                      ("cycle:n=7", 1.0), ("complete:n=6", 1.0)):
        g = build_graph(parse_descriptor(text))
        init = init_config(g, lam, 0, 9)
        w1 = WalkStore(g, init)
        full = w1.prefix(init.planted_pid, 257).copy()
        w2 = WalkStore(g, init)
        # request in awkward chunks; values must agree step for step
        for cut in (1, 2, 3, 5, 64, 65, 200, 257):
            assert np.array_equal(w2.prefix(init.planted_pid, cut),
                                  full[:cut + 1])
        # every particle's walk, generated alone, equals its row in one batch
        # of all particles, and its rows in that batch cut into awkward chunks
        starts, keys = init.walks_at(np.arange(g.vertex_count))
        batch = generate_steps(g, starts, keys, 0, 257)
        chunks, pos, done = [], starts, 0
        for cut in (1, 2, 5, 57, 192):
            chunks.append(generate_steps(g, pos, keys, done, cut))
            pos, done = chunks[-1][:, -1], done + cut
        assert done == 257
        assert np.array_equal(np.concatenate(chunks, axis=1), batch)
        row = {int(k): i for i, k in enumerate(keys)}
        for pid in range(init.particle_count()):
            alone = WalkStore(g, init).prefix(pid, 257)
            i = row[int(init.particle_keys([pid])[0])]
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
        for pid in range(init.particle_count()):
            w = walks.prefix(pid, 40)
            assert w[0] == init.start_vertex(pid)
            for t in range(40):
                assert int(w[t + 1]) in g.neighbors(int(w[t]))


def test_lambda_zero_just_the_plant():
    g = _tree()
    init = init_config(g, 0.0, 3, 77)
    assert init.particle_count() == 1
    assert init.counts.sum() == 1
    assert init.start_vertex(init.planted_pid) == 3
    assert list(init.pids_at(3)) == [init.planted_pid]


def test_coupling_prefix_property():
    g = _tree(2, 5)
    base = init_config(g, 3.0, 0, 31, lam_max=3.0)
    lo = base.at_lambda(1.0)
    hi = base.at_lambda(2.5)
    assert np.all(lo.counts <= hi.counts)
    assert np.all(hi.counts <= base.counts)
    # a particle kept at lower lambda keeps its walk, not just its count
    wa, wb = WalkStore(g, lo), WalkStore(g, base)
    for v in range(g.vertex_count):
        for pid in lo.pids_at(v):
            if pid == lo.planted_pid:
                continue
            assert np.array_equal(wa.prefix(pid, 32), wb.prefix(pid, 32))


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
