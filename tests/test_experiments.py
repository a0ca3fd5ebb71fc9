from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogline import (ExperimentSpec, ParameterError, build_graph,
                      cover_time, estimate, init_config, parse_descriptor,
                      resolve_origin, run_killed_leaf_walk, susceptibility,
                      sweep, trial_seed)
from frogline import checks, experiments
from frogline.experiments import (SIMULATE_COLUMNS, SWEEP_COLUMNS,
                                  run_spec_trials, sweep_csv_rows,
                                  trial_csv_rows, validate_spec, write_table)

from oracles import nearest_rank


def _spec(**kw):
    base = dict(graphs=["tree:d=2,n=3"], lambdas=[1.0], metric="susceptibility",
                trials=3, seed_base=11)
    base.update(kw)
    return ExperimentSpec(**base)


def test_trial_seed_deterministic_and_distinct():
    s = trial_seed(7, "tree:d=2,n=3", "root", "susceptibility", 0)
    assert s == trial_seed(7, "tree:d=2,n=3", "root", "susceptibility", 0)
    assert s != trial_seed(7, "tree:d=2,n=3", "root", "susceptibility", 1)
    assert s != trial_seed(7, "tree:d=2,n=4", "root", "susceptibility", 0)
    assert s != trial_seed(7, "tree:d=2,n=3", "leaf", "susceptibility", 0)
    assert s != trial_seed(7, "tree:d=2,n=3", "root", "cover", 0)
    assert s != trial_seed(8, "tree:d=2,n=3", "root", "susceptibility", 0)
    assert 0 <= s < 2 ** 64


def test_lambda_cells_share_seeds():
    results = run_spec_trials(_spec(lambdas=[0.5, 1.0, 2.0]))
    by_trial = {}
    for r in results:
        by_trial.setdefault(r.trial, set()).add(r.seed)
    # one seed per trial index, shared by every lambda cell
    assert all(len(seeds) == 1 for seeds in by_trial.values())


def test_one_configuration_per_trial(monkeypatch):
    calls = []

    def counting(g, lam, origin, seed, lam_max=None):
        calls.append((g.label(), seed))
        return init_config(g, lam, origin, seed, lam_max=lam_max)

    monkeypatch.setattr(experiments, "init_config", counting)
    spec = _spec(graphs=["tree:d=2,n=4", "complete:n=20"],
                 lambdas=[0.5, 1.0, 2.0], trials=3)
    results = run_spec_trials(spec)
    assert len(results) == 2 * 3 * 3
    # one sample per (graph, trial), not one per lambda cell
    assert sorted(calls) == sorted({(r.graph, r.seed) for r in results})


def _per_cell_reference(spec, lam_max):
    """(graph, lambda, trial, seed, value, steps) of every cell, each cell
    sampling its own configuration, cell by cell, drawn to the horizon
    lam_max (None: the cell's own lambda). The trial loop draws to the
    largest lambda of the grid, and the horizon changes no configuration."""
    engine = cover_time if spec.metric == "cover" else susceptibility
    out = []
    for graph in spec.graphs:
        g = build_graph(parse_descriptor(graph))
        origin = resolve_origin(g, spec.origin or "root")
        for lam in spec.lambdas:
            for trial in range(spec.trials):
                seed = trial_seed(spec.seed_base, graph, spec.origin,
                                  spec.metric, trial)
                init = init_config(g, lam, origin, seed, lam_max=lam_max)
                (o,) = engine(init, step_cap=spec.step_cap)
                out.append((graph, lam, trial, seed, o.value, o.steps))
    return out


@pytest.mark.parametrize("metric,jobs,lam_max,step_cap", [
    ("susceptibility", 1, None, 10 ** 9),
    ("cover", 2, 3.0, 10 ** 9),
    ("susceptibility", 2, 2.5, 6),
    ("cover", 1, None, 12),
])
def test_trial_cells_equal_per_cell_sampling(metric, jobs, lam_max, step_cap):
    spec = _spec(graphs=["tree:d=2,n=5", "complete:n=40", "cycle:n=12"],
                 lambdas=[0.5, 2.0, 1.0], metric=metric, trials=3, jobs=jobs,
                 step_cap=step_cap, seed_base=5)
    results = run_spec_trials(spec)
    got = [(r.graph, r.lam, r.trial, r.seed, r.value, r.steps)
           for r in results]
    assert got == _per_cell_reference(spec, lam_max)
    failed = [r for r in results if r.value is None]
    assert all("step cap %d" % step_cap in r.budget_reason for r in failed)
    if step_cap < 100:  # the cap fails some cells and not others
        assert 0 < len(failed) < len(results)


@pytest.mark.parametrize("metric", ["susceptibility", "cover"])
@pytest.mark.parametrize("lam_max,step_cap", [(None, 10 ** 9), (2.5, 7),
                                              (None, 60)])
def test_batches_equal_one_trial_per_batch(metric, lam_max, step_cap,
                                           monkeypatch):
    spec = _spec(graphs=["tree:d=2,n=5", "complete:n=40", "cycle:n=12"],
                 lambdas=[0.0, 0.5, 2.0], metric=metric, trials=5,
                 step_cap=step_cap, seed_base=8)

    def rows(spec, batch_size):
        assert all(len(experiments._batches(spec, graph)[0]) == batch_size
                   for graph in spec.graphs)
        return [(r.graph, r.lam, r.trial, r.seed, r.value, r.steps,
                 r.budget_reason) for r in run_spec_trials(spec)]

    batched = rows(spec, 5)
    assert [r[:6] for r in batched] == _per_cell_reference(spec, lam_max)
    assert rows(replace(spec, jobs=2), 3) == batched
    monkeypatch.setattr(experiments, "BATCH_TABLE_SIZE", 1)
    assert rows(spec, 1) == batched
    if step_cap < 100:  # the cap fails some trials of a batch, not all
        cells = {}
        for graph, lam, _, _, value, _, _ in batched:
            cells.setdefault((graph, lam), set()).add(value is None)
        assert {True, False} in cells.values()


def test_batch_size_rule():
    spec = _spec(graphs=["tree:d=2,n=10"], lambdas=[1.0, 2.0], trials=11)
    # 2047 * (1 + 2) = 6141 cells a trial: ten fit 2 ** 16
    assert experiments._batches(spec, "tree:d=2,n=10") == [
        list(range(10)), [10]]
    assert experiments._batches(replace(spec, jobs=4), "tree:d=2,n=10") == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10]]
    # 10^4 * (1 + 2) cells a trial: two fit, and three at lambda_max 1
    assert experiments._batches(spec, "complete:n=10000") == [
        [0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10]]
    assert experiments._batches(replace(spec, lambdas=[1.0]),
                                "complete:n=10000") == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10]]
    assert experiments._batches(spec, "complete:n=20000") == [
        [i] for i in range(11)]
    leaf = replace(spec, metric="leafwalk", lambdas=[], s=2)
    assert experiments._batches(leaf, "tree:d=2,n=3") == [
        [i] for i in range(11)]


def test_jobs_below_one_rejected():
    for jobs in (0, -5):
        with pytest.raises(ParameterError, match="jobs must be >= 1"):
            run_spec_trials(_spec(jobs=jobs))


def test_pool_has_at_most_one_worker_per_task(monkeypatch):
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    spec = _spec(trials=3, jobs=8)  # one trial a batch: three tasks
    rows = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec))]
    assert sizes == [3]
    serial = replace(spec, jobs=1)  # one task: no pool
    assert rows == [dict(r, wall_ms="")
                    for r in trial_csv_rows(run_spec_trials(serial))]
    assert sizes == [3]


def test_refused_configuration_fails_every_cell():
    spec = _spec(graphs=["tree:d=2,n=40", "tree:d=2,n=3"],
                 lambdas=[0.5, 1.0], trials=2)
    results = run_spec_trials(spec)
    big = [r for r in results if r.graph == "tree:d=2,n=40"]
    assert [(r.lam, r.trial) for r in big] == [(0.5, 0), (0.5, 1),
                                               (1.0, 0), (1.0, 1)]
    assert all(r.value is None and "needs about" in r.budget_reason
               for r in big)
    assert all(r.value is not None for r in results if r not in big)


def test_lambda_grid_checked_before_sampling():
    with pytest.raises(ParameterError, match="got -1.0"):
        run_spec_trials(_spec(graphs=["tree:d=2,n=40"], lambdas=[1.0, -1.0]))


def test_coupled_sweep_is_pointwise_monotone():
    results = run_spec_trials(_spec(graphs=["tree:d=2,n=5"],
                                    lambdas=[1.0, 2.0], trials=10))
    vals = {(r.lam, r.trial): r.value for r in results}
    for trial in range(10):
        assert vals[(2.0, trial)] <= vals[(1.0, trial)]


def test_validate_spec_rejects():
    for kw in (dict(trials=0), dict(graphs=[]), dict(lambdas=[]),
               dict(metric="entropy"), dict(metric="leafwalk", s=None),
               dict(graphs=["cycle:n=5"] * 2), dict(lambdas=[1.0, 2.0, 1.0])):
        with pytest.raises(ParameterError):
            validate_spec(_spec(**kw))


def test_estimate_frozen_examples():
    s = estimate([5, 5, 5])
    assert s == {"mean": 5.0, "median": 5.0, "q10": 5.0, "q90": 5.0, "se": 0.0}
    s = estimate([1, 2, 3, 4, 5])
    assert s["median"] == 3.0
    assert s["q10"] == 1.0
    assert s["q90"] == 5.0
    assert estimate([4.0])["se"] == 0.0
    with pytest.raises(ParameterError):
        estimate([])


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_estimate_matches_nearest_rank_oracle(xs):
    s = estimate(xs)
    assert s["median"] == nearest_rank(xs, 0.5)
    assert s["q10"] == nearest_rank(xs, 0.1)
    assert s["q90"] == nearest_rank(xs, 0.9)
    assert s["q10"] <= s["median"] <= s["q90"]
    assert s["mean"] == pytest.approx(np.mean(xs))


def test_parallel_equals_serial():
    spec_a = _spec(trials=4, lambdas=[0.5, 1.5])
    spec_b = _spec(trials=4, lambdas=[0.5, 1.5], jobs=2)
    rows_a = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec_a))]
    rows_b = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec_b))]
    assert rows_a == rows_b


def test_rerun_byte_identical_modulo_wall():
    spec = _spec(graphs=["tree:d=2,n=3", "complete:n=32"], trials=5)
    a = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec))]
    b = [dict(r, wall_ms="") for r in trial_csv_rows(run_spec_trials(spec))]
    assert a == b
    sa = list(sweep_csv_rows(sweep(spec)))
    sb = list(sweep_csv_rows(sweep(spec)))
    assert sa == sb  # sweep rows carry no wall clock at all


def test_sweep_counts_budget_failures_separately():
    spec = _spec(metric="cover", lambdas=[0.25], step_cap=2,
                 graphs=["tree:d=2,n=4"], trials=4)
    rows = sweep(spec)
    assert len(rows) == 1
    assert rows[0].failures == 4
    assert rows[0].trials == 4
    assert np.isnan(rows[0].mean)
    ok = sweep(_spec(metric="cover", lambdas=[2.0], graphs=["tree:d=2,n=4"],
                     trials=4))
    assert ok[0].failures == 0
    assert np.isfinite(ok[0].mean)


def test_leafwalk_rows_have_no_lambda():
    spec = _spec(metric="leafwalk", graphs=["tree:d=2,n=4"], lambdas=[],
                 s=8, trials=3)
    rows = list(trial_csv_rows(run_spec_trials(spec)))
    assert all(r["lambda"] == "" for r in rows)
    assert all(int(r["value"]) >= 1 for r in rows)
    srows = list(sweep_csv_rows(sweep(spec)))
    assert srows[0]["lambda"] == ""


def test_leafwalk_rows_are_the_walks_at_their_trial_seeds():
    spec = _spec(metric="leafwalk", graphs=["tree:d=2,n=4"], lambdas=[],
                 s=8, trials=3)
    leaf = resolve_origin(build_graph(parse_descriptor("tree:d=2,n=4")),
                          "leaf")
    for r in run_spec_trials(spec):
        seed = trial_seed(11, "tree:d=2,n=4", None, "leafwalk", r.trial)
        walk = run_killed_leaf_walk(2, 4, 8, seed, start=leaf)
        assert r.seed == seed
        assert (r.value, r.steps, r.restarts) == (walk.tau_cov, walk.tau_cov,
                                                  walk.restarts)
    # the clocks' rows and a walk that the budget stopped carry none; the
    # stopped walk reports the steps it took, the cap
    stopped = run_spec_trials(replace(spec, step_cap=3))
    clocks = run_spec_trials(_spec())
    assert all(r.restarts is None for r in stopped + clocks)
    assert all(r.value is None and r.budget_reason and r.steps == 3
               for r in stopped)


def test_sweep_rows_sorted_by_cell():
    spec = _spec(graphs=["tree:d=2,n=3", "complete:n=16"], lambdas=[2.0, 1.0],
                 trials=2)
    rows = sweep(spec)
    keys = [(r.graph, r.lam) for r in rows]
    assert keys == sorted(keys)


def test_write_table_csv_and_json(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y,z"}]
    path = tmp_path / "t.csv"
    write_table(rows, ["a", "b"], str(path), "csv")
    assert path.read_text() == 'a,b\n1,x\n2,"y,z"\n'
    jpath = tmp_path / "t.json"
    write_table(rows, ["a", "b"], str(jpath), "json")
    import json
    assert json.loads(jpath.read_text()) == rows


def test_column_sets_match_contract():
    assert SIMULATE_COLUMNS == ["trial", "seed", "graph", "lambda", "origin",
                                "metric", "value", "steps_simulated",
                                "wall_ms"]
    assert SWEEP_COLUMNS == ["graph", "lambda", "origin", "metric", "trials",
                             "failures", "mean", "median", "q10", "q90", "se"]


def test_fault_injection_names_failing_check(monkeypatch):
    def corrupt(chain):
        pi = np.asarray(checks_orig(chain)).copy()
        pi[0] += 1e-6
        return pi

    checks_orig = checks.stationary_levels
    monkeypatch.setattr(checks, "stationary_levels", corrupt)
    result = checks.check_stationary_levels()
    assert result.check == "pi_stationary"
    assert not result.passed


def test_budget_stopped_trial_fails_its_check(monkeypatch):
    # the Monte Carlo checks draw through run_spec_trials; a trial that the
    # budget stops fails its check, with its reason in the detail
    from functools import partial
    monkeypatch.setattr(checks, "ExperimentSpec",
                        partial(checks.ExperimentSpec, step_cap=2))
    for check in (checks.check_coupling_monotone, checks.check_complete_ratio,
                  checks.check_tree_band, checks.check_cover_time):
        result = check()
        assert not result.passed, result.check
        assert "trial 0: clock exceeded step cap 2" in result.detail


@pytest.mark.parametrize("check", [
    checks.check_walkstep_uniform, checks.check_lambda0_collapse,
    checks.check_range_band, checks.check_submultiplicativity,
    checks.check_sweep_reproducibility], ids=lambda check: check.__name__)
def test_full_suite_check_passes(check):
    # the checks of `validate --suite full` that no other test runs
    result = check()
    assert result.passed, (result.check, result.detail)
