import warnings

import numpy as np
import pytest

from frogline import (NEVER, WalkStore, activation_times, build_graph,
                      cover_time, init_config, parse_descriptor,
                      run_activation, stack_views, susceptibility)
from frogline import frog_sim
from frogline.checks import activation_oracle, first_visit_table

from oracles import bfs_distances, bisected_susceptibility, covered_under


def _runs(engine, inits, step_cap=frog_sim.DEFAULT_STEP_CAP):
    """Each configuration's value and steps, or its budget failure, from one
    clock on the stack of `inits`; a lone run is a stack of one."""
    out = []
    for o in engine(stack_views(inits), step_cap=step_cap):
        err = o.error
        out.append(("S", o.value, o.steps) if err is None else
                   ("budget", err.fraction_covered, err.bracket, o.steps))
    return out


def test_activation_origin_and_distance_floor():
    g = build_graph(parse_descriptor("tree:d=2,n=3"))
    dist = bfs_distances(g, 0)
    at, _ = activation_times(stack_views(
        [init_config(g, 1.0, 0, seed) for seed in range(5)]), 12)
    for row in at:
        assert row[0] == 0
        live = row < NEVER
        # nothing activates sooner than graph distance from the origin
        assert np.all(row[live] >= dist[live])


def test_covered_flag_matches_at_vector():
    g = build_graph(parse_descriptor("cycle:n=7"))
    inits = [init_config(g, 0.5, 0, seed) for seed in range(8)]
    stack = stack_views(inits)
    for tau in (1, 4, 16):
        at, outcomes = activation_times(stack, tau)
        covered = [o.value is not None for o in outcomes]
        assert covered == list((at < NEVER).all(axis=1))
        assert covered == list(covered_under(stack, tau))
        # run_activation: the same clock on a stack of one
        for init, row, o in zip(inits, at, outcomes):
            report = run_activation(g, init, None, tau)
            assert np.array_equal(report.at, row)
            assert (report.covered, report.max_at) == (o.value is not None,
                                                       o.value)


def test_susceptibility_is_minimal():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    stack = stack_views([init_config(g, 1.0, 0, seed) for seed in range(6)])
    taus = np.array([o.value for o in susceptibility(stack)])
    assert np.all(taus >= 1)
    assert covered_under(stack, taus).all()
    assert not covered_under(stack, taus - 1).any()


def test_susceptibility_lambda_zero_is_walk_cover_time():
    g = build_graph(parse_descriptor("cycle:n=8"))
    inits = [init_config(g, 0.0, 0, seed) for seed in range(5)]
    for init, o in zip(inits, susceptibility(stack_views(inits))):
        w = WalkStore(g, init).prefix(init.planted, o.value)
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
    stack = stack_views([init_config(g, lam, 0, seed) for seed in range(5)])
    assert [o.value for o in susceptibility(stack)] == \
        bisected_susceptibility(stack), (text, lam)


def test_susceptibility_ceiling_budget():
    g = build_graph(parse_descriptor("tree:d=2,n=5"))
    init = init_config(g, 0.01, 0, 3)
    (o,) = susceptibility(stack_views([init]), step_cap=4)
    assert o.value is None and o.error.bracket == (5, None)


@pytest.mark.parametrize("text", ["tree:d=2,n=4", "cycle:n=9",
                                  "complete:n=8"])
def test_susceptibility_step_cap_is_the_clock(text):
    g = build_graph(parse_descriptor(text))
    for lam in (0.5, 1.0):
        for seed in range(3):
            init = init_config(g, lam, 0, seed)
            (run,) = _runs(susceptibility, [init])
            s = run[1]
            assert _runs(susceptibility, [init], step_cap=s) == [run]
            if s == 1:
                continue  # step_cap must be > 0
            ((kind, fraction, bracket, _),) = _runs(susceptibility, [init],
                                                    step_cap=s - 1)
            assert kind == "budget" and 0 < fraction < 1
            assert bracket == (s, None)


def test_cover_time_floor_and_budget():
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    stack = stack_views([init_config(g, 2.0, 0, seed) for seed in range(5)])
    # the deepest leaf is n steps away
    assert all(o.value >= g.n for o in cover_time(stack))
    # CT is exactly the last activation time under lifetime CT
    for text in ("tree:d=2,n=3", "tree:d=3,n=2", "cycle:n=9",
                 "complete:n=8"):
        g = build_graph(parse_descriptor(text))
        inits = [init_config(g, lam, 0, seed)
                 for lam in (0.0, 1.0, 2.0) for seed in range(5)]
        for init, o in zip(inits, cover_time(stack_views(inits))):
            (last,) = activation_times(stack_views([init]), o.value)[1]
            assert last.value == o.value, (text, init.lam)
    g = build_graph(parse_descriptor("tree:d=2,n=4"))
    init = init_config(g, 0.5, 0, 1)
    (o,) = cover_time(stack_views([init]), step_cap=2)
    assert o.value is None and 0 < o.error.fraction_covered < 1


def test_cover_time_single_edge():
    g = build_graph(parse_descriptor("complete:n=2"))
    init = init_config(g, 0.0, 0, 11)
    assert [o.value for o in cover_time(stack_views([init]))] == [1]


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
    alone = bisected_susceptibility(stack_views(inits))
    for seed, (init, s) in enumerate(zip(inits, alone)):
        n = init.particle_count()
        caps = (s, s - 1) if s > 1 else (s,)
        runs = []
        for setting in _prefix_settings(n, s):
            _patch(monkeypatch, setting)
            runs.append([_runs(susceptibility, [init], cap)[0]
                         for cap in caps])
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
    # the stack, with caps above every S, between them and below them
    n = sum(init.particle_count() for init in inits)
    for cap in sorted({max(alone), sorted(alone)[1], max(1, min(alone) - 1)}):
        want = [_runs(susceptibility, [init], cap)[0] for init in inits]
        for setting in _prefix_settings(n, min(alone)):
            _patch(monkeypatch, setting)
            got = _runs(susceptibility, inits, cap)
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
                (o,) = susceptibility(stack_views(
                    [init_config(g, lam, 0, seed)]))
                assert made[-1].h <= 2 * max(o.value, frog_sim.PREFIX_ROWS), (
                    text, lam, seed, o.value)


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
        want = [_runs(engine, [init])[0] for init in inits]
        assert _runs(engine, inits) == want
        cap = sorted(w[1] for w in want)[1]
        capped = [_runs(engine, [init], cap)[0] for init in inits]
        assert {c[0] for c in capped} == {"S", "budget"}, (text, want)
        assert _runs(engine, inits, cap) == capped
    # a copy's activation times: the stack's rows, the stack of one and the
    # shortest-path oracle agree, over the stack's first-visit tables
    stack = stack_views(inits)
    tables = first_visit_table(stack, 12)
    for init, ell in zip(inits, tables):
        assert np.array_equal(first_visit_table(stack_views([init]), 12)[0],
                              ell)
    for tau in (0, 1, 3, 12):
        at, outcomes = activation_times(stack, tau)
        for row, o, init, ell in zip(at, outcomes, inits, tables):
            alone, (lone,) = activation_times(stack_views([init]), tau)
            assert np.array_equal(row, alone[0]), (text, tau)
            assert (o.value, o.steps) == (lone.value, lone.steps)
            assert np.array_equal(row, activation_oracle(g, init, ell, tau))


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
    cts = [o.value for o in cover_time(stack, step_cap=10 ** 4)]
    cap = max(cts) + 1
    want = [(ct, None) for ct in cts]
    assert [(o.value, o.error) for o in cover_time(stack, step_cap=cap)] \
        == want
    # under lifetime max CT the wakes are those of immortal particles, but
    # the last-woken particles would live past the cap
    at, outcomes = activation_times(stack, max(cts), step_cap=cap)
    assert [(o.value, o.error) for o in outcomes] == want
    assert [int(row.max()) for row in at] == cts


# (graph, lambda, origin, seed, S, its steps_simulated, CT, its
# steps_simulated) at lambda_max 2. The oracles above read the same particle
# table as the engines, so a table that gave a particle the wrong home or
# key would pass them; these values pin the realized numbers themselves.
# Every row of the four tables below was checked, when it was recorded,
# against the oracles on its own configuration: S against
# bisected_susceptibility, and at lifetime CT a cover whose last wake is CT,
# with the activation times of activation_oracle.
PINNED = [
    ('tree:d=2,n=5', 0.5, 0, 0, 33, 1056, 65, 1434),
    ('tree:d=2,n=5', 0.5, 0, 1, 25, 950, 45, 848),
    ('tree:d=2,n=5', 0.5, 62, 0, 33, 1056, 76, 1619),
    ('tree:d=2,n=5', 0.5, 62, 1, 25, 950, 56, 897),
    ('tree:d=2,n=5', 1.0, 0, 0, 23, 1242, 45, 1799),
    ('tree:d=2,n=5', 1.0, 0, 1, 10, 660, 39, 1097),
    ('tree:d=2,n=5', 1.0, 62, 0, 23, 1242, 52, 1854),
    ('tree:d=2,n=5', 1.0, 62, 1, 10, 660, 30, 1016),
    ('tree:d=2,n=5', 2.0, 0, 0, 13, 1547, 25, 2109),
    ('tree:d=2,n=5', 2.0, 0, 1, 8, 976, 17, 1171),
    ('tree:d=2,n=5', 2.0, 62, 0, 13, 1547, 34, 2310),
    ('tree:d=2,n=5', 2.0, 62, 1, 7, 868, 16, 870),
    ('tree:d=2,n=8', 0.5, 0, 0, 100, 26300, 168, 30738),
    ('tree:d=2,n=8', 0.5, 0, 1, 86, 24338, 150, 26001),
    ('tree:d=2,n=8', 0.5, 510, 0, 100, 26300, 156, 26070),
    ('tree:d=2,n=8', 0.5, 510, 1, 86, 24338, 222, 33835),
    ('tree:d=2,n=8', 1.0, 0, 0, 27, 14607, 86, 31160),
    ('tree:d=2,n=8', 1.0, 0, 1, 26, 13910, 88, 28103),
    ('tree:d=2,n=8', 1.0, 510, 0, 27, 14607, 100, 33778),
    ('tree:d=2,n=8', 1.0, 510, 1, 26, 13910, 80, 23517),
    ('tree:d=2,n=8', 2.0, 0, 0, 10, 10180, 42, 28120),
    ('tree:d=2,n=8', 2.0, 0, 1, 15, 15165, 40, 26545),
    ('tree:d=2,n=8', 2.0, 510, 0, 10, 10180, 56, 32442),
    ('tree:d=2,n=8', 2.0, 510, 1, 15, 15165, 42, 19303),
    ('cycle:n=9', 0.5, 0, 0, 5, 35, 5, 24),
    ('cycle:n=9', 0.5, 0, 1, 5, 35, 9, 35),
    ('cycle:n=9', 0.5, 8, 0, 5, 35, 6, 27),
    ('cycle:n=9', 0.5, 8, 1, 5, 35, 6, 30),
    ('cycle:n=9', 1.0, 0, 0, 5, 50, 5, 29),
    ('cycle:n=9', 1.0, 0, 1, 4, 20, 8, 37),
    ('cycle:n=9', 1.0, 8, 0, 5, 50, 6, 34),
    ('cycle:n=9', 1.0, 8, 1, 4, 36, 5, 28),
    ('cycle:n=9', 2.0, 0, 0, 2, 34, 5, 52),
    ('cycle:n=9', 2.0, 0, 1, 4, 48, 7, 59),
    ('cycle:n=9', 2.0, 8, 0, 2, 34, 5, 60),
    ('cycle:n=9', 2.0, 8, 1, 2, 34, 4, 40),
    ('complete:n=100', 0.5, 0, 0, 13, 780, 19, 696),
    ('complete:n=100', 0.5, 0, 1, 10, 550, 22, 589),
    ('complete:n=100', 0.5, 99, 0, 13, 780, 19, 655),
    ('complete:n=100', 0.5, 99, 1, 10, 550, 15, 503),
    ('complete:n=100', 1.0, 0, 0, 4, 424, 10, 519),
    ('complete:n=100', 1.0, 0, 1, 5, 490, 12, 419),
    ('complete:n=100', 1.0, 99, 0, 4, 424, 10, 476),
    ('complete:n=100', 1.0, 99, 1, 5, 490, 10, 487),
    ('complete:n=100', 2.0, 0, 0, 3, 579, 7, 707),
    ('complete:n=100', 2.0, 0, 1, 4, 784, 10, 766),
    ('complete:n=100', 2.0, 99, 0, 3, 579, 7, 522),
    ('complete:n=100', 2.0, 99, 1, 4, 784, 7, 556),
]


@pytest.mark.parametrize("row", PINNED, ids=lambda r: "%s-%s-%d-%d" % r[:4])
def test_pinned_values(row):
    text, lam, origin, seed = row[:4]
    g = build_graph(parse_descriptor(text))
    init = init_config(g, lam, origin, seed, lam_max=2.0)
    got = []
    for engine in (susceptibility, cover_time):
        got += _runs(engine, [init])[0][1:]
    assert tuple(got) == row[4:]


# (graph, lambda, seed, engine, cap, vertices awake, steps taken) of a run
# from the root at lambda_max 2 whose cap is one below its value: a budget
# failure's partial progress
PINNED_CAPPED = [
    ('tree:d=2,n=5', 0.5, 0, 'S', 32, 57, 928),
    ('tree:d=2,n=5', 0.5, 0, 'CT', 64, 62, 1401),
    ('tree:d=2,n=5', 0.5, 1, 'S', 24, 57, 840),
    ('tree:d=2,n=5', 0.5, 1, 'CT', 44, 62, 808),
    ('tree:d=2,n=5', 2.0, 0, 'S', 12, 60, 1404),
    ('tree:d=2,n=5', 2.0, 0, 'CT', 24, 62, 1990),
    ('tree:d=2,n=5', 2.0, 1, 'S', 7, 62, 854),
    ('tree:d=2,n=5', 2.0, 1, 'CT', 16, 61, 1050),
    ('tree:d=2,n=8', 0.5, 0, 'S', 99, 510, 26037),
    ('tree:d=2,n=8', 0.5, 0, 'CT', 167, 510, 30475),
    ('tree:d=2,n=8', 0.5, 1, 'S', 85, 510, 24055),
    ('tree:d=2,n=8', 0.5, 1, 'CT', 149, 510, 25718),
    ('tree:d=2,n=8', 2.0, 0, 'S', 9, 504, 9090),
    ('tree:d=2,n=8', 2.0, 0, 'CT', 41, 509, 27102),
    ('tree:d=2,n=8', 2.0, 1, 'S', 14, 505, 14126),
    ('tree:d=2,n=8', 2.0, 1, 'CT', 39, 509, 25529),
    ('cycle:n=9', 0.5, 0, 'S', 4, 8, 28),
    ('cycle:n=9', 0.5, 0, 'CT', 4, 7, 17),
    ('cycle:n=9', 0.5, 1, 'S', 4, 8, 28),
    ('cycle:n=9', 0.5, 1, 'CT', 8, 8, 28),
    ('cycle:n=9', 2.0, 0, 'S', 1, 4, 10),
    ('cycle:n=9', 2.0, 0, 'CT', 4, 7, 36),
    ('cycle:n=9', 2.0, 1, 'S', 3, 5, 27),
    ('cycle:n=9', 2.0, 1, 'CT', 6, 8, 41),
    ('complete:n=100', 0.5, 0, 'S', 12, 99, 720),
    ('complete:n=100', 0.5, 0, 'CT', 18, 99, 636),
    ('complete:n=100', 0.5, 1, 'S', 9, 99, 495),
    ('complete:n=100', 0.5, 1, 'CT', 21, 98, 535),
    ('complete:n=100', 2.0, 0, 'S', 2, 97, 386),
    ('complete:n=100', 2.0, 0, 'CT', 6, 99, 514),
    ('complete:n=100', 2.0, 1, 'S', 3, 99, 588),
    ('complete:n=100', 2.0, 1, 'CT', 9, 99, 571),
]


@pytest.mark.parametrize("row", PINNED_CAPPED,
                         ids=lambda r: "%s-%s-%d-%s" % r[:4])
def test_pinned_budget_failures(row):
    text, lam, seed, name, cap, awake, steps = row
    g = build_graph(parse_descriptor(text))
    init = init_config(g, lam, 0, seed, lam_max=2.0)
    engine = susceptibility if name == "S" else cover_time
    assert _runs(engine, [init], cap) == [
        ("budget", awake / g.vertex_count, (cap + 1, None), steps)]


# (graph, lambda, origin, seed, S, its steps_simulated, CT, its
# steps_simulated) at lambda_max 2: graphs large enough that most ticks step
# thousands of walks in lockstep, and, on K_2000 and cycle 500, where every
# susceptibility tick steps the awake set itself
PINNED_AT_SCALE = [
    ('tree:d=2,n=11', 1.0, 0, 0, 40, 164520, 121, 314916),
    ('tree:d=2,n=11', 1.0, 0, 1, 39, 160641, 111, 248498),
    ('tree:d=2,n=11', 1.0, 0, 2, 66, 269478, 111, 297121),
    ('tree:d=2,n=11', 2.0, 0, 0, 29, 234755, 63, 336686),
    ('tree:d=2,n=11', 2.0, 0, 1, 24, 195960, 55, 277800),
    ('tree:d=2,n=11', 2.0, 0, 2, 23, 187657, 53, 260047),
    ('tree:d=3,n=7', 1.0, 0, 0, 71, 233732, 129, 233063),
    ('tree:d=3,n=7', 1.0, 0, 1, 42, 139356, 113, 234559),
    ('tree:d=3,n=7', 1.0, 0, 2, 44, 143484, 109, 222049),
    ('tree:d=3,n=7', 2.0, 0, 0, 17, 109106, 55, 213792),
    ('tree:d=3,n=7', 2.0, 0, 1, 23, 151294, 63, 286960),
    ('tree:d=3,n=7', 2.0, 0, 2, 16, 103552, 53, 220960),
    ('complete:n=2000', 1.0, 0, 0, 7, 13874, 17, 15964),
    ('complete:n=2000', 1.0, 0, 1, 7, 14119, 20, 14584),
    ('complete:n=2000', 1.0, 0, 2, 8, 16464, 19, 18569),
    ('cycle:n=500', 0.5, 0, 0, 133, 33915, 835, 119595),
    ('cycle:n=500', 0.5, 0, 1, 116, 31668, 1028, 148434),
    ('cycle:n=500', 0.5, 0, 2, 96, 24288, 826, 111812),
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
                got += _runs(engine, [init])[0][1:]
            assert tuple(got) == row[4:], row
        for engine, i in ((susceptibility, 4), (cover_time, 6)):
            assert _runs(engine, inits) == \
                [("S", r[i], r[i + 1]) for r in rows]
        monkeypatch.setattr(frog_sim, "PREFIX_CELLS", 1)
        assert [_runs(susceptibility, [init])[0] for init in inits] == \
            [("S",) + r[4:6] for r in rows]


# (graph, lambda, seed, tau, vertices woken, sum of their activation times,
# steps_simulated) of activation_times from the root at lambda_max 2, whose
# activation times equal activation_oracle's
PINNED_ACTIVATION = [
    ('tree:d=2,n=11', 1.0, 0, 10, 1028, 22874, 10280),
    ('tree:d=2,n=11', 1.0, 0, 40, 4095, 182856, 163255),
    ('tree:d=2,n=11', 1.0, 1, 10, 2009, 105323, 20340),
    ('tree:d=2,n=11', 1.0, 1, 40, 4095, 210408, 163879),
    ('tree:d=3,n=7', 2.0, 0, 3, 419, 3997, 2523),
    ('tree:d=3,n=7', 2.0, 0, 10, 3189, 75263, 62380),
    ('tree:d=3,n=7', 2.0, 1, 40, 3280, 64548, 249515),
    ('cycle:n=500', 0.5, 1, 40, 45, 2466, 800),
]


@pytest.mark.parametrize("row", PINNED_ACTIVATION,
                         ids=lambda r: "%s-%s-%d-%d" % r[:4])
def test_pinned_activation_at_scale(row):
    text, lam, seed, tau = row[:4]
    g = build_graph(parse_descriptor(text))
    init = init_config(g, lam, 0, seed, lam_max=2.0)
    (at,), (o,) = activation_times(stack_views([init]), tau)
    woken = at[at < NEVER]
    assert (len(woken), int(woken.sum()), o.steps) == row[4:]
