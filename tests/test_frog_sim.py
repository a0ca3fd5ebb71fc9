import numpy as np
import pytest

from frogline import (NEVER, BudgetExceededError, WalkStore, build_graph,
                      cover_time, init_config, parse_descriptor,
                      run_activation, susceptibility)
from frogline import frog_sim
from frogline.checks import activation_oracle, first_visit_table

from oracles import bfs_distances, bisected_susceptibility, covered_under

SMALL = ["tree:d=2,n=2", "tree:d=2,n=3", "cycle:n=5", "cycle:n=9",
         "complete:n=4", "complete:n=8"]


@pytest.mark.parametrize("text", SMALL)
@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_activation_matches_shortest_paths(text, lam):
    g = build_graph(parse_descriptor(text))
    for seed in range(5):
        init = init_config(g, lam, 0, seed)
        walks = WalkStore(g, init)
        ell = first_visit_table(g, init, walks, 24)
        for tau in (0, 1, 2, 5, 11, 24):
            got = run_activation(g, init, walks, tau)
            want = activation_oracle(g, init, ell, tau)
            assert np.array_equal(got.at, want), \
                "%s lam=%s seed=%d tau=%d" % (text, lam, seed, tau)


def test_activation_origin_and_distance_floor():
    g = build_graph(parse_descriptor("tree:d=2,n=3"))
    dist = bfs_distances(g, 0)
    for seed in range(5):
        init = init_config(g, 1.0, 0, seed)
        rep = run_activation(g, init, WalkStore(g, init), 12)
        assert rep.at[0] == 0
        live = rep.at < NEVER
        # nothing activates sooner than graph distance from the origin
        assert np.all(rep.at[live] >= dist[live])


def test_covered_flag_matches_at_vector():
    g = build_graph(parse_descriptor("cycle:n=7"))
    for seed in range(8):
        init = init_config(g, 0.5, 0, seed)
        walks = WalkStore(g, init)
        for tau in (1, 4, 16):
            rep = run_activation(g, init, walks, tau)
            assert rep.covered == bool(np.all(rep.at < NEVER))
            cov = covered_under(g, init, walks, tau)
            assert cov == rep.covered


def test_susceptibility_is_minimal():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    for seed in range(6):
        init = init_config(g, 1.0, 0, seed)
        tau = susceptibility(g, init, WalkStore(g, init))
        walks = WalkStore(g, init)
        assert covered_under(g, init, walks, tau)
        assert tau >= 1
        if tau > 1:
            assert not covered_under(g, init, walks, tau - 1)


def test_susceptibility_lambda_zero_is_walk_cover_time():
    g = build_graph(parse_descriptor("cycle:n=8"))
    for seed in range(5):
        init = init_config(g, 0.0, 0, seed)
        walks = WalkStore(g, init)
        tau = susceptibility(g, init, walks)
        w = walks.prefix(init.planted_pid, tau)
        assert len(np.unique(w)) == g.vertex_count
        assert len(np.unique(w[:-1])) == g.vertex_count - 1


@pytest.mark.parametrize("text", ["tree:d=2,n=2", "tree:d=2,n=3",
                                  "tree:d=2,n=4", "tree:d=2,n=5",
                                  "tree:d=2,n=6", "tree:d=3,n=3", "cycle:n=7",
                                  "cycle:n=20", "complete:n=5",
                                  "complete:n=40"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_susceptibility_matches_bisection_oracle(text, lam):
    g = build_graph(parse_descriptor(text))
    for seed in range(5):
        init = init_config(g, lam, 0, seed)
        walks = WalkStore(g, init)
        assert susceptibility(g, init, walks) == \
            bisected_susceptibility(g, init, walks), (text, lam, seed)


def test_susceptibility_ceiling_budget():
    g = build_graph(parse_descriptor("tree:d=2,n=5"))
    init = init_config(g, 0.01, 0, 3)
    with pytest.raises(BudgetExceededError) as err:
        susceptibility(g, init, WalkStore(g, init), step_cap=4)
    assert err.value.bracket == (5, None)


@pytest.mark.parametrize("text", ["tree:d=2,n=4", "cycle:n=9",
                                  "complete:n=8"])
def test_susceptibility_step_cap_is_the_clock(text):
    g = build_graph(parse_descriptor(text))
    for lam in (0.5, 1.0):
        for seed in range(3):
            init = init_config(g, lam, 0, seed)
            s = susceptibility(g, init, WalkStore(g, init))
            assert susceptibility(g, init, WalkStore(g, init),
                                  step_cap=s) == s
            if s == 1:
                continue  # step_cap must be > 0
            with pytest.raises(BudgetExceededError) as err:
                susceptibility(g, init, WalkStore(g, init), step_cap=s - 1)
            assert 0 < err.value.fraction_covered < 1
            assert err.value.bracket == (s, None)


def test_cover_time_floor_and_budget():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    for seed in range(5):
        init = init_config(g, 2.0, 0, seed)
        ct = cover_time(g, init, WalkStore(g, init))
        assert ct >= g.n  # the deepest leaf is n steps away
    # CT is exactly the last activation time under lifetime CT
    for text in ("tree:d=2,n=3", "tree:d=3,n=2", "cycle:n=9",
                 "complete:n=8"):
        g = build_graph(parse_descriptor(text))
        for lam in (0.0, 1.0, 2.0):
            for seed in range(5):
                init = init_config(g, lam, 0, seed)
                walks = WalkStore(g, init)
                ct = cover_time(g, init, walks)
                rep = run_activation(g, init, walks, ct)
                assert rep.covered and rep.max_at == ct, (text, lam, seed)
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    init = init_config(g, 0.5, 0, 1)
    with pytest.raises(BudgetExceededError) as err:
        cover_time(g, init, WalkStore(g, init), step_cap=2)
    assert 0 < err.value.fraction_covered < 1


def test_cover_time_single_edge():
    g = build_graph(parse_descriptor("complete:n=2"))
    init = init_config(g, 0.0, 0, 11)
    assert cover_time(g, init, WalkStore(g, init)) == 1


def _susceptibility_run(g, init, step_cap):
    walks = WalkStore(g, init)
    try:
        return ("S", susceptibility(g, init, walks, step_cap=step_cap),
                walks.steps_generated)
    except BudgetExceededError as err:
        return ("budget", err.fraction_covered, err.bracket,
                walks.steps_generated)


@pytest.mark.parametrize("text", ["tree:d=2,n=3", "tree:d=2,n=5",
                                  "tree:d=3,n=3"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_susceptibility_across_the_prefix_boundary(text, lam, monkeypatch):
    # at the default PREFIX_CELLS these graphs finish inside the prefix;
    # smaller settings make the clock step the awake set and generate the
    # replay tails past h = 1 and past h a few steps below S
    g = build_graph(parse_descriptor(text))
    for seed in range(3):
        init = init_config(g, lam, 0, seed, lam_max=2.0)
        s = bisected_susceptibility(g, init, WalkStore(g, init))
        n = init.particle_count()
        caps = (s, s - 1) if s > 1 else (s,)
        runs = []
        for cells in (n, n * max(1, s - 3), frog_sim.PREFIX_CELLS):
            monkeypatch.setattr(frog_sim, "PREFIX_CELLS", cells)
            runs.append([_susceptibility_run(g, init, cap) for cap in caps])
            monkeypatch.undo()
        first, *rest = runs
        assert first[0][:2] == ("S", s), (text, lam, seed)
        # at most S steps per particle: the look-ahead is not counted
        assert first[0][2] <= s * n
        if s > 1:
            assert first[1][0] == "budget" and first[1][2] == (s, None)
            assert 0 < first[1][1] < 1
        for other in rest:
            assert other == first, (text, lam, seed, runs)
