import warnings

import numpy as np
import pytest

from frogline import (NEVER, BudgetExceededError, WalkStore, build_graph,
                      cover_time, init_config, parse_descriptor,
                      run_activation, susceptibility)
from frogline import frog_sim
from frogline.checks import activation_oracle, first_visit_table
from frogline.randomness import stack_views

from oracles import bfs_distances, bisected_susceptibility, covered_under

SMALL = ["tree:d=2,n=2", "tree:d=2,n=3", "cycle:n=5", "cycle:n=9",
         "complete:n=4", "complete:n=8"]


@pytest.mark.parametrize("text", SMALL)
@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_activation_matches_shortest_paths(text, lam):
    # run_activation, the wake clock on a stack of one, against the oracle
    # that check_activation_oracle (acceptance test 03) runs on stacks
    g = build_graph(parse_descriptor(text))
    for seed in range(5):
        init = init_config(g, lam, 0, seed)
        walks = WalkStore(g, init)
        ell = first_visit_table(g, init, walks, 24)
        for tau in (0, 1, 2, 5, 11, 24):
            report = run_activation(g, init, walks, tau)
            assert np.array_equal(report.at,
                                  activation_oracle(g, init, ell, tau))
            assert report.covered == bool(np.all(report.at < NEVER))


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
        w = walks.prefix(init.planted, tau)
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


def _run(engine, g, init, step_cap):
    """One configuration's value and steps, or its budget failure."""
    walks = WalkStore(g, init)
    try:
        return ("S", engine(g, init, walks, step_cap=step_cap),
                walks.steps_generated)
    except BudgetExceededError as err:
        return ("budget", err.fraction_covered, err.bracket,
                walks.steps_generated)


def _stack_runs(engine, g, inits, step_cap):
    """_run of every copy of the stack of `inits`, from one clock."""
    out = []
    for o in engine(g, stack_views(inits), step_cap=step_cap):
        err = o.error
        out.append(("S", o.value, o.steps) if err is None else
                   ("budget", err.fraction_covered, err.bracket, o.steps))
    return out


def _prefix_settings(n, s):
    """frog_sim settings for n particles and susceptibility s: hmax = 1;
    hmax a few steps below s; prefix chunks of three rows, walked a row at
    a time and replayed in short spans; the defaults."""
    return [{"PREFIX_CELLS": n}, {"PREFIX_CELLS": n * max(1, s - 3)},
            {"SCAN_BLOCK_CELLS": n, "PREFIX_ROWS": 3}, {}]


def _patch(monkeypatch, setting):
    for name, value in setting.items():
        monkeypatch.setattr(frog_sim, name, value)


@pytest.mark.parametrize("text", ["tree:d=2,n=3", "tree:d=2,n=5",
                                  "tree:d=3,n=3", "cycle:n=9",
                                  "complete:n=12"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_susceptibility_across_the_prefix_boundary(text, lam, monkeypatch):
    # at the default PREFIX_CELLS the trees finish inside the prefix, and
    # complete graphs and cycles have none; smaller settings make the clock
    # step the awake set and generate the replay tails past h = 1 and past
    # h a few steps below S, and make the prefix many chunks. A stack's hmax
    # is PREFIX_CELLS // (particles of all its copies), so a stack crosses
    # the boundary earlier than its copies would alone
    g = build_graph(parse_descriptor(text))
    inits = [init_config(g, lam, 0, seed, lam_max=2.0) for seed in range(3)]
    alone = []
    for seed, init in enumerate(inits):
        s = bisected_susceptibility(g, init, WalkStore(g, init))
        n = init.particle_count()
        caps = (s, s - 1) if s > 1 else (s,)
        runs = []
        for setting in _prefix_settings(n, s):
            _patch(monkeypatch, setting)
            runs.append([_run(susceptibility, g, init, cap) for cap in caps])
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
        alone.append(s)
    # the stack, with caps above every S, between them and below them
    n = sum(init.particle_count() for init in inits)
    for cap in sorted({max(alone), sorted(alone)[1], max(1, min(alone) - 1)}):
        want = [_run(susceptibility, g, init, cap) for init in inits]
        for setting in _prefix_settings(n, min(alone)):
            _patch(monkeypatch, setting)
            got = _stack_runs(susceptibility, g, inits, cap)
            monkeypatch.undo()
            assert got == want, (text, lam, cap, setting)


def test_lone_prefix_depth_follows_the_clock(monkeypatch):
    # the prefix's chunks start at PREFIX_ROWS rows and double, so a lone
    # run walks at most twice the rows its clock reads, not a 2^16-row chunk
    made = []

    class Recorded(frog_sim._Prefix):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(frog_sim, "_Prefix", Recorded)
    for text in ("tree:d=2,n=2", "tree:d=2,n=5"):
        g = build_graph(parse_descriptor(text))
        for lam in (0.0, 1.0, 2.0):
            for seed in range(3):
                s = susceptibility(g, init_config(g, lam, 0, seed))
                assert made[-1].h <= 2 * max(s, frog_sim.PREFIX_ROWS), (
                    text, lam, seed, s)


@pytest.mark.parametrize("text", ["tree:d=2,n=3", "tree:d=3,n=2",
                                  "cycle:n=9", "complete:n=8"])
def test_stack_copies_equal_their_configurations(text):
    # one stack mixes lambdas, origins and seeds: its copies share only the
    # graph
    g = build_graph(parse_descriptor(text))
    inits = [init_config(g, lam, origin, seed, lam_max=2.0)
             for lam, origin, seed in [(0.0, 0, 1), (0.5, 1, 2), (1.0, 0, 3),
                                       (2.0, g.vertex_count - 1, 4)]]
    for engine in (susceptibility, cover_time):
        want = [_run(engine, g, init, frog_sim.DEFAULT_STEP_CAP)
                for init in inits]
        assert _stack_runs(engine, g, inits, frog_sim.DEFAULT_STEP_CAP) \
            == want
        cap = sorted(w[1] for w in want)[1]
        capped = [_run(engine, g, init, cap) for init in inits]
        assert {c[0] for c in capped} == {"S", "budget"}, (text, want)
        assert _stack_runs(engine, g, inits, cap) == capped
    # a copy's activation times: the stack's rows, a stack of one
    # (run_activation) and the shortest-path oracle agree
    tables = [first_visit_table(g, init, WalkStore(g, init), 12)
              for init in inits]
    for tau in (0, 1, 3, 12):
        at, _ = frog_sim._wake_clock(g, stack_views(inits),
                                     frog_sim.DEFAULT_STEP_CAP, tau=tau)
        for row, init, ell in zip(at, inits, tables):
            alone = run_activation(g, init, WalkStore(g, init), tau).at
            assert np.array_equal(row, alone), (text, tau)
            assert np.array_equal(alone, activation_oracle(g, init, ell, tau))


@pytest.mark.parametrize("text", ["tree:d=2,n=4", "cycle:n=9"])
def test_stack_clock_stops_at_the_last_cover(text):
    # a covered copy's particles leave the wake clock, so a stack's clock
    # stops at its last cover and a cap one tick later stops no copy.
    # Particles left behind would step on to the cap, and each copy they
    # belong to would get a budget error; every run here is capped, so that
    # they could not step on towards the default cap instead
    g = build_graph(parse_descriptor(text))
    inits = [init_config(g, lam, 0, seed, lam_max=2.0)
             for lam, seed in [(0.5, 1), (1.0, 2), (2.0, 3), (1.0, 4)]]
    stack = stack_views(inits)
    cts = [o.value for o in cover_time(g, stack, step_cap=10 ** 4)]
    cap = max(cts) + 1
    want = [(ct, None) for ct in cts]
    assert [(o.value, o.error) for o in cover_time(g, stack, step_cap=cap)] \
        == want
    # under lifetime max CT the wakes are those of immortal particles, but
    # the last-woken particles would live past the cap
    at, outcomes = frog_sim._wake_clock(g, stack, cap, tau=max(cts))
    assert [(o.value, o.error) for o in outcomes] == want
    assert [int(row.max()) for row in at] == cts


# (graph, lambda, origin, seed, S, its steps_simulated, CT, its
# steps_simulated) at lambda_max 2. The oracles above read the same particle
# table as the engines, so a table that gave a particle the wrong home or
# key would pass them; these values were recorded before the table was one
# structure, and pin the realized numbers themselves.
PINNED = [
    ('tree:d=2,n=5', 0.5, 0, 0, 38, 1330, 65, 1320),
    ('tree:d=2,n=5', 0.5, 0, 1, 78, 2340, 101, 2117),
    ('tree:d=2,n=5', 0.5, 62, 0, 38, 1330, 74, 1849),
    ('tree:d=2,n=5', 0.5, 62, 1, 78, 2340, 82, 1922),
    ('tree:d=2,n=5', 1.0, 0, 0, 13, 988, 25, 1033),
    ('tree:d=2,n=5', 1.0, 0, 1, 22, 1298, 43, 1701),
    ('tree:d=2,n=5', 1.0, 62, 0, 13, 988, 26, 878),
    ('tree:d=2,n=5', 1.0, 62, 1, 22, 1298, 38, 1374),
    ('tree:d=2,n=5', 2.0, 0, 0, 8, 1080, 13, 757),
    ('tree:d=2,n=5', 2.0, 0, 1, 9, 1080, 21, 1852),
    ('tree:d=2,n=5', 2.0, 62, 0, 8, 1080, 22, 1172),
    ('tree:d=2,n=5', 2.0, 62, 1, 9, 1080, 20, 1219),
    ('tree:d=2,n=8', 0.5, 0, 0, 116, 30972, 182, 28390),
    ('tree:d=2,n=8', 0.5, 0, 1, 85, 22440, 120, 20569),
    ('tree:d=2,n=8', 0.5, 510, 0, 116, 30972, 274, 38232),
    ('tree:d=2,n=8', 0.5, 510, 1, 80, 21120, 148, 22207),
    ('tree:d=2,n=8', 1.0, 0, 0, 33, 17358, 56, 16818),
    ('tree:d=2,n=8', 1.0, 0, 1, 34, 17578, 64, 21077),
    ('tree:d=2,n=8', 1.0, 510, 0, 33, 17358, 86, 23410),
    ('tree:d=2,n=8', 1.0, 510, 1, 34, 17578, 88, 22339),
    ('tree:d=2,n=8', 2.0, 0, 0, 12, 12468, 32, 19321),
    ('tree:d=2,n=8', 2.0, 0, 1, 23, 24311, 44, 32300),
    ('tree:d=2,n=8', 2.0, 510, 0, 12, 12468, 44, 23183),
    ('tree:d=2,n=8', 2.0, 510, 1, 23, 24311, 48, 28922),
    ('cycle:n=9', 0.5, 0, 0, 5, 35, 6, 25),
    ('cycle:n=9', 0.5, 0, 1, 5, 25, 12, 29),
    ('cycle:n=9', 0.5, 8, 0, 5, 35, 7, 38),
    ('cycle:n=9', 0.5, 8, 1, 3, 15, 8, 26),
    ('cycle:n=9', 1.0, 0, 0, 5, 40, 6, 26),
    ('cycle:n=9', 1.0, 0, 1, 5, 40, 11, 46),
    ('cycle:n=9', 1.0, 8, 0, 5, 40, 7, 39),
    ('cycle:n=9', 1.0, 8, 1, 3, 21, 5, 19),
    ('cycle:n=9', 2.0, 0, 0, 2, 28, 5, 37),
    ('cycle:n=9', 2.0, 0, 1, 2, 30, 4, 37),
    ('cycle:n=9', 2.0, 8, 0, 2, 30, 4, 34),
    ('cycle:n=9', 2.0, 8, 1, 2, 40, 4, 32),
    ('complete:n=100', 0.5, 0, 0, 8, 416, 22, 448),
    ('complete:n=100', 0.5, 0, 1, 13, 624, 19, 509),
    ('complete:n=100', 0.5, 99, 0, 8, 416, 19, 414),
    ('complete:n=100', 0.5, 99, 1, 13, 624, 19, 424),
    ('complete:n=100', 1.0, 0, 0, 6, 612, 12, 390),
    ('complete:n=100', 1.0, 0, 1, 5, 510, 11, 545),
    ('complete:n=100', 1.0, 99, 0, 6, 612, 15, 766),
    ('complete:n=100', 1.0, 99, 1, 5, 510, 12, 526),
    ('complete:n=100', 2.0, 0, 0, 3, 633, 7, 583),
    ('complete:n=100', 2.0, 0, 1, 3, 582, 7, 594),
    ('complete:n=100', 2.0, 99, 0, 3, 633, 7, 657),
    ('complete:n=100', 2.0, 99, 1, 3, 582, 6, 528),
]


@pytest.mark.parametrize("row", PINNED, ids=lambda r: "%s-%s-%d-%d" % r[:4])
def test_pinned_values(row):
    text, lam, origin, seed = row[:4]
    g = build_graph(parse_descriptor(text))
    init = init_config(g, lam, origin, seed, lam_max=2.0)
    got = []
    for engine in (susceptibility, cover_time):
        walks = WalkStore(g, init)
        got += [engine(g, init, walks), walks.steps_generated]
    assert tuple(got) == row[4:]


# (graph, lambda, seed, engine, cap, vertices awake, steps taken) of a run
# from the root at lambda_max 2 whose cap is one below its value, recorded
# before the clocks ran on stacks: a budget failure's partial progress
PINNED_CAPPED = [
    ('tree:d=2,n=5', 0.5, 0, 'S', 37, 61, 1258),
    ('tree:d=2,n=5', 0.5, 0, 'CT', 64, 62, 1285),
    ('tree:d=2,n=5', 0.5, 1, 'S', 77, 62, 2310),
    ('tree:d=2,n=5', 0.5, 1, 'CT', 100, 62, 2087),
    ('tree:d=2,n=5', 2.0, 0, 'S', 7, 62, 945),
    ('tree:d=2,n=5', 2.0, 0, 'CT', 12, 60, 628),
    ('tree:d=2,n=5', 2.0, 1, 'S', 8, 62, 960),
    ('tree:d=2,n=5', 2.0, 1, 'CT', 20, 61, 1732),
    ('tree:d=2,n=8', 0.5, 0, 'S', 115, 510, 30705),
    ('tree:d=2,n=8', 0.5, 0, 'CT', 181, 510, 28125),
    ('tree:d=2,n=8', 0.5, 1, 'S', 84, 510, 22176),
    ('tree:d=2,n=8', 0.5, 1, 'CT', 119, 509, 20305),
    ('tree:d=2,n=8', 2.0, 0, 'S', 11, 510, 11429),
    ('tree:d=2,n=8', 2.0, 0, 'CT', 31, 510, 18282),
    ('tree:d=2,n=8', 2.0, 1, 'S', 22, 510, 23254),
    ('tree:d=2,n=8', 2.0, 1, 'CT', 43, 510, 31245),
    ('cycle:n=9', 0.5, 0, 'S', 4, 6, 24),
    ('cycle:n=9', 0.5, 0, 'CT', 5, 7, 19),
    ('cycle:n=9', 0.5, 1, 'S', 4, 3, 4),
    ('cycle:n=9', 0.5, 1, 'CT', 11, 8, 23),
    ('cycle:n=9', 2.0, 0, 'S', 1, 2, 4),
    ('cycle:n=9', 2.0, 0, 'CT', 4, 7, 22),
    ('cycle:n=9', 2.0, 1, 'S', 1, 4, 10),
    ('cycle:n=9', 2.0, 1, 'CT', 3, 7, 21),
    ('complete:n=100', 0.5, 0, 'S', 7, 99, 364),
    ('complete:n=100', 0.5, 0, 'CT', 21, 99, 397),
    ('complete:n=100', 0.5, 1, 'S', 12, 99, 576),
    ('complete:n=100', 0.5, 1, 'CT', 18, 99, 461),
    ('complete:n=100', 2.0, 0, 'S', 2, 99, 422),
    ('complete:n=100', 2.0, 0, 'CT', 6, 99, 372),
    ('complete:n=100', 2.0, 1, 'S', 2, 97, 388),
    ('complete:n=100', 2.0, 1, 'CT', 6, 99, 397),
]


@pytest.mark.parametrize("row", PINNED_CAPPED,
                         ids=lambda r: "%s-%s-%d-%s" % r[:4])
def test_pinned_budget_failures(row):
    text, lam, seed, name, cap, awake, steps = row
    g = build_graph(parse_descriptor(text))
    init = init_config(g, lam, 0, seed, lam_max=2.0)
    engine = susceptibility if name == "S" else cover_time
    assert _run(engine, g, init, cap) == (
        "budget", awake / g.vertex_count, (cap + 1, None), steps)


# (graph, lambda, origin, seed, S, its steps_simulated, CT, its
# steps_simulated) at lambda_max 2, recorded before the clocks stepped
# through the in-place kernel: graphs large enough that most ticks step
# thousands of walks in lockstep, and, on K_2000 and cycle 500, where every
# susceptibility tick steps the awake set itself
PINNED_AT_SCALE = [
    ('tree:d=2,n=11', 1.0, 0, 0, 55, 222145, 151, 308808),
    ('tree:d=2,n=11', 1.0, 0, 1, 48, 198000, 117, 319358),
    ('tree:d=2,n=11', 1.0, 0, 2, 42, 175560, 105, 273156),
    ('tree:d=2,n=11', 2.0, 0, 0, 34, 274924, 53, 264671),
    ('tree:d=2,n=11', 2.0, 0, 1, 22, 181940, 57, 302101),
    ('tree:d=2,n=11', 2.0, 0, 2, 21, 172200, 61, 354821),
    ('tree:d=3,n=7', 1.0, 0, 0, 38, 123956, 117, 222219),
    ('tree:d=3,n=7', 1.0, 0, 1, 34, 113458, 137, 296887),
    ('tree:d=3,n=7', 1.0, 0, 2, 38, 127528, 117, 282717),
    ('tree:d=3,n=7', 2.0, 0, 0, 22, 143154, 55, 211621),
    ('tree:d=3,n=7', 2.0, 0, 1, 18, 119898, 43, 170114),
    ('tree:d=3,n=7', 2.0, 0, 2, 28, 184660, 51, 215988),
    ('complete:n=2000', 1.0, 0, 0, 8, 16128, 16, 14588),
    ('complete:n=2000', 1.0, 0, 1, 10, 20130, 18, 14550),
    ('complete:n=2000', 1.0, 0, 2, 8, 16320, 17, 17001),
    ('cycle:n=500', 0.5, 0, 0, 200, 52000, 1046, 125999),
    ('cycle:n=500', 0.5, 0, 1, 213, 54741, 951, 136918),
    ('cycle:n=500', 0.5, 0, 2, 100, 24700, 1052, 148758),
]


@pytest.mark.parametrize("text,lam", sorted({r[:2] for r in PINNED_AT_SCALE}))
def test_pinned_values_at_scale(text, lam, monkeypatch):
    # each configuration alone, then the three as one stack, then S with no
    # prefix, so that every tick steps counter words; a uint64 scalar that
    # wraps would warn, and a warning fails the test
    rows = [r for r in PINNED_AT_SCALE if r[:2] == (text, lam)]
    g = build_graph(parse_descriptor(text))
    inits = [init_config(g, lam, r[2], r[3], lam_max=2.0) for r in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row, init in zip(rows, inits):
            got = []
            for engine in (susceptibility, cover_time):
                walks = WalkStore(g, init)
                got += [engine(g, init, walks), walks.steps_generated]
            assert tuple(got) == row[4:], row
        for engine, i in ((susceptibility, 4), (cover_time, 6)):
            assert _stack_runs(engine, g, inits,
                               frog_sim.DEFAULT_STEP_CAP) == \
                [("S", r[i], r[i + 1]) for r in rows]
        monkeypatch.setattr(frog_sim, "PREFIX_CELLS", 1)
        assert [_run(susceptibility, g, init, frog_sim.DEFAULT_STEP_CAP)
                for init in inits] == [("S",) + r[4:6] for r in rows]


# (graph, lambda, seed, tau, vertices woken, sum of their activation times,
# steps_simulated) of run_activation from the root at lambda_max 2, recorded
# before the wake clock kept its particles' wake ticks in place
PINNED_ACTIVATION = [
    ('tree:d=2,n=11', 1.0, 0, 10, 307, 7384, 3200),
    ('tree:d=2,n=11', 1.0, 0, 40, 4090, 305777, 161440),
    ('tree:d=2,n=11', 1.0, 1, 10, 1132, 25891, 11340),
    ('tree:d=2,n=11', 1.0, 1, 40, 4092, 161619, 164960),
    ('tree:d=3,n=7', 2.0, 0, 3, 517, 6073, 2928),
    ('tree:d=3,n=7', 2.0, 0, 10, 2811, 57971, 55530),
    ('tree:d=3,n=7', 2.0, 1, 40, 3280, 57022, 170072),
    ('cycle:n=500', 0.5, 1, 40, 64, 4044, 1480),
]


@pytest.mark.parametrize("row", PINNED_ACTIVATION,
                         ids=lambda r: "%s-%s-%d-%d" % r[:4])
def test_pinned_activation_at_scale(row):
    text, lam, seed, tau = row[:4]
    g = build_graph(parse_descriptor(text))
    init = init_config(g, lam, 0, seed, lam_max=2.0)
    walks = WalkStore(g, init)
    at = run_activation(g, init, walks, tau).at
    woken = at[at < NEVER]
    assert (len(woken), int(woken.sum()), walks.steps_generated) == row[4:]
