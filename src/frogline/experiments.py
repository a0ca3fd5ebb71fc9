"""Sweep orchestration: grids, per-trial seeds, estimates, validation suites.

A batch of trials of one graph is the unit of work. Each trial samples one
configuration at the largest lambda of the grid, and each lambda cell runs
one clock on the stack of the batch's views of those configurations, so a
trial's cells are coupled as `randomness` describes, and its numbers do not
depend on its batch or on the rest of the grid. Per-trial seeds are
seed_base XOR blake2b(graph, origin, metric, trial index), checked for
collisions when a spec is validated.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from math import ceil, sqrt
from typing import Optional

import numpy as np

from .errors import (DEFAULT_STEP_CAP, BudgetExceededError, ParameterError,
                     check_budget, check_lambda, check_seed, check_step_cap)
from .frog_sim import Outcome, cover_time, susceptibility
from .graph import build_graph, parse_descriptor, require_tree, resolve_origin
from .leaf_walk import run_killed_leaf_walk
from .randomness import init_config, stack_views

METRICS = ("susceptibility", "cover", "leafwalk")

SIMULATE_COLUMNS = ["trial", "seed", "graph", "lambda", "origin", "metric",
                    "value", "steps_simulated", "wall_ms"]
SWEEP_COLUMNS = ["graph", "lambda", "origin", "metric", "trials", "failures",
                 "mean", "median", "q10", "q90", "se"]

# a batch takes trials of one graph while the sum of V * (1 + lambda_max)
# over them, lambda_max the largest lambda of the grid, stays at most
# BATCH_TABLE_SIZE. Clock time per trial of 16 trials at lambda 1, one at a
# time and in stacks of as many copies as a table of 32k, 64k or 128k
# cells holds (shared 2-core VM, python 3.11, numpy 2.4, minimum of 3
# rounds, two runs), in ms: S on K_4000 3.6-6.0
# alone, 2.4-3.8, 2.1-3.1, 2.1-3.0; S on K_10^4 (one copy fits 32k)
# 6.1-9.4 alone, 5.4-8.1 at 64k, 5.3-7.1 at 128k; S on K_16000 7.5-11.6
# alone, 7.2-10.7 at 64k, 7.0-10.1 at 128k. CT on trees d=2: n=10
# 10.7-15.2 alone, 3.3-5.0, 3.4-4.3, 2.9-4.1; n=12 28.6-30.8 alone,
# 23.9-25.4, 15.0-21.6, 14.8-19.1. S on trees d=2: n=10 9.5-13.5 alone,
# 4.7-7.2, 4.2-6.1, 4.5-6.2; n=12 19.8-32.3 alone, 15.7-24.5 at 64k,
# 13.8-20.2 at 128k. 64k beats 32k in both runs on all but CT at n=10,
# where the runs disagree; 128k gains little more, nothing on S at n=10 (a
# stack's prefix walks every copy down to the deepest S of the stack), for
# twice the memory
BATCH_TABLE_SIZE = 2 ** 16

# peak bytes a run takes per trial cell (its seed entry, its batch index,
# its result and its output row), rounded up from tracemalloc peaks of
# 5,000 and 20,000 trials on tree d=2 n=2: 790 B per simulate row, 200 B
# per sweep cell, 170 B per trial when validate_spec refuses the spec
TRIAL_CELL_BYTES = 1024


@dataclass
class ExperimentSpec:
    graphs: list
    lambdas: list
    metric: str
    trials: int
    seed_base: int
    origin: Optional[str] = None     # None -> per-metric default
    s: Optional[int] = None          # leafwalk restart parameter
    step_cap: int = DEFAULT_STEP_CAP  # clock cap of both simulation metrics
    jobs: int = 1


@dataclass
class EstimateRow:
    graph: str
    lam: Optional[float]
    origin: str
    metric: str
    trials: int
    failures: int
    mean: float
    median: float
    q10: float
    q90: float
    se: float


@dataclass
class TrialResult:
    trial: int
    seed: int
    graph: str
    lam: Optional[float]
    origin: str
    metric: str
    value: Optional[int] = None   # None when the budget ran out
    steps: int = 0
    wall_ms: float = 0.0
    budget_reason: Optional[str] = None  # why the budget ran out
    restarts: Optional[int] = None  # a covering leaf walk's teleports


def trial_seed(seed_base, graph, origin, metric, trial):
    """64-bit seed of one trial, shared by all of its lambda cells; the
    seed base is a u64 (validate_spec checks it)."""
    key = "graph=%s|origin=%s|metric=%s|trial=%d" % (graph, origin, metric, trial)
    h = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return seed_base ^ int.from_bytes(h, "little")


def validate_spec(spec):
    if spec.trials < 1:
        raise ParameterError("trials must be >= 1")
    if spec.jobs < 1:
        raise ParameterError("jobs must be >= 1, got %r" % (spec.jobs,))
    if not spec.graphs or (not spec.lambdas and spec.metric != "leafwalk"):
        raise ParameterError("grids must be non-empty")
    if spec.metric not in METRICS:
        raise ParameterError("unknown metric %r" % (spec.metric,))
    if spec.metric == "leafwalk" and spec.s is None:
        raise ParameterError("leafwalk needs --s")
    check_step_cap(spec.step_cap)
    # checked before any sampling: a refused configuration checks no cell
    lambdas = [] if spec.metric == "leafwalk" else spec.lambdas
    for lam in lambdas:
        check_lambda("lambda", lam)
    check_seed(spec.seed_base)
    for name, grid in (("graph", spec.graphs), ("lambda", lambdas)):
        if len(set(grid)) < len(grid):
            raise ParameterError("repeated %s in %r" % (name, grid))
    cells = len(spec.graphs) * spec.trials * (
        1 if spec.metric == "leafwalk" else len(spec.lambdas))
    check_budget("a run of %d trial cells" % cells, cells * TRIAL_CELL_BYTES)
    seen = {}
    for graph in spec.graphs:
        for trial in range(spec.trials):
            key = (graph, spec.origin, spec.metric, trial)
            seed = trial_seed(spec.seed_base, *key)
            if seed in seen and seen[seed] != key:
                raise ParameterError(
                    "seed collision between %r and %r" % (seen[seed], key))
            seen[seed] = key


def run_trial(cell, outcome, wall_ms):
    """One cell of a trial: `cell`, a TrialResult with no outcome yet,
    filled in from `outcome`, its copy's Outcome of a batch clock or its
    leaf walk's. Budget overruns come back as value=None, with the steps
    taken until then, and the error's message (and the fraction covered,
    when known) in budget_reason."""
    cell = replace(cell, steps=outcome.steps, wall_ms=wall_ms)
    exc = outcome.error
    if exc is None:
        return replace(cell, value=outcome.value)
    reason = str(exc)
    if exc.fraction_covered is not None:
        reason += " (fraction covered %.4g)" % exc.fraction_covered
    return replace(cell, budget_reason=reason)


def _ms_since(start):
    return (time.perf_counter() - start) * 1000.0


def _batch_task(task):
    """The cells of a (spec, graph, trial indices) task: one list per trial,
    in the order of the lambda grid. The graph and the origin are built
    once, each trial samples its configuration at the largest lambda once,
    and each lambda cell runs one clock on the stack of the trials' views.
    A trial's wall_ms counts its sampling (in its first cell) and an even
    share of each clock it took part in. A configuration that the byte
    guard refuses fails every cell of the batch, with the reason."""
    spec, graph, trials = task
    g = build_graph(parse_descriptor(graph))
    if spec.metric == "leafwalk":
        require_tree(g, "leafwalk")
    origin_spec = spec.origin if spec.origin is not None else (
        "leaf" if spec.metric == "leafwalk" else "root")
    origin = resolve_origin(g, origin_spec)
    cells = [TrialResult(trial=trial, seed=trial_seed(
        spec.seed_base, graph, spec.origin, spec.metric, trial), graph=graph,
        lam=None, origin=origin_spec, metric=spec.metric) for trial in trials]
    if spec.metric == "leafwalk":
        rows = []
        for cell in cells:
            start = time.perf_counter()
            try:
                walk = run_killed_leaf_walk(g.d, g.n, spec.s, cell.seed,
                                            origin, spec.step_cap)
                outcome = Outcome(walk.tau_cov, walk.tau_cov)
                cell = replace(cell, restarts=walk.restarts)
            except BudgetExceededError as exc:
                # the step cap stops a walk at the cap, with a bracket; the
                # byte guard refuses one before its first step
                steps = spec.step_cap if exc.bracket else 0
                outcome = Outcome(None, steps, exc)
            rows.append([run_trial(cell, outcome, _ms_since(start))])
        return rows
    configs, wall_ms = [], []
    for cell in cells:
        start = time.perf_counter()
        try:
            configs.append(init_config(g, max(spec.lambdas), origin,
                                       cell.seed))
        except BudgetExceededError as exc:
            # the byte guard reads only V and lambda_max: it refuses the
            # first trial of a batch exactly when it refuses them all
            return [[replace(c, lam=lam, budget_reason=str(exc))
                     for lam in spec.lambdas] for c in cells]
        wall_ms.append(_ms_since(start))
    engine = cover_time if spec.metric == "cover" else susceptibility
    rows = [[] for _ in cells]
    for j, lam in enumerate(spec.lambdas):
        start = time.perf_counter()
        stack = stack_views([config.at_lambda(lam) for config in configs])
        if j == len(spec.lambdas) - 1:
            configs = None  # the last stack holds all that its clock reads
        outcomes = engine(stack, step_cap=spec.step_cap)
        share = _ms_since(start) / len(cells)
        for i, outcome in enumerate(outcomes):
            rows[i].append(run_trial(replace(cells[i], lam=lam), outcome,
                                     wall_ms[i] + share))
            wall_ms[i] = 0.0
    return rows


def _batches(spec, graph):
    """The trial indices of `graph`, cut into batches in order: as many
    trials as fit BATCH_TABLE_SIZE, at least one and at most
    ceil(trials / jobs)."""
    size = 1
    if spec.metric != "leafwalk":
        table = parse_descriptor(graph).vertex_count * (1 + max(spec.lambdas))
        size = min(max(1, int(BATCH_TABLE_SIZE // table)),
                   ceil(spec.trials / spec.jobs))
    return [list(range(lo, min(lo + size, spec.trials)))
            for lo in range(0, spec.trials, size)]


def run_spec_trials(spec):
    """All trial results, cell by cell (graph, then lambda, then trial)."""
    validate_spec(spec)
    tasks = [(spec, graph, batch) for graph in spec.graphs
             for batch in _batches(spec, graph)]
    workers = min(spec.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_batch_task, tasks))
    else:
        batches = [_batch_task(task) for task in tasks]
    trials = [rows for batch in batches for rows in batch]
    # a graph's trials are consecutive; zip regroups them cell by cell
    return [r for lo in range(0, len(trials), spec.trials)
            for cell in zip(*trials[lo:lo + spec.trials]) for r in cell]


def estimate(samples):
    """Mean, nearest-rank quantiles, and standard error of a sample list."""
    if len(samples) == 0:
        raise ParameterError("estimate needs a non-empty sample")
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)

    def nearest_rank(p):
        return float(xs[max(ceil(p * n), 1) - 1])

    mean = float(xs.mean())
    se = float(xs.std(ddof=1) / sqrt(n)) if n > 1 else 0.0
    return {"mean": mean, "median": nearest_rank(0.5),
            "q10": nearest_rank(0.1), "q90": nearest_rank(0.9), "se": se}


def sweep(spec):
    """One EstimateRow per grid cell; budget failures counted, not fatal."""
    results = run_spec_trials(spec)
    by_cell = {}
    for r in results:
        by_cell.setdefault((r.graph, r.lam), []).append(r)
    rows = []
    for (graph, lam) in sorted(by_cell,
                               key=lambda c: (c[0], -1.0 if c[1] is None
                                              else c[1])):
        cell = by_cell[(graph, lam)]
        values = [r.value for r in cell if r.value is not None]
        failures = sum(1 for r in cell if r.value is None)
        if values:
            stats = estimate(values)
        else:
            stats = {k: float("nan") for k in ("mean", "median", "q10", "q90",
                                               "se")}
        rows.append(EstimateRow(graph=graph, lam=lam, origin=cell[0].origin,
                                metric=spec.metric, trials=len(cell),
                                failures=failures, **stats))
    return rows


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def trial_csv_rows(results):
    for r in results:
        yield {"trial": r.trial, "seed": r.seed, "graph": r.graph,
               "lambda": _fmt(r.lam), "origin": r.origin, "metric": r.metric,
               "value": "" if r.value is None else r.value,
               "steps_simulated": r.steps, "wall_ms": "%.3f" % r.wall_ms}


def sweep_csv_rows(rows):
    for r in rows:
        yield {"graph": r.graph, "lambda": _fmt(r.lam), "origin": r.origin,
               "metric": r.metric, "trials": r.trials, "failures": r.failures,
               "mean": _fmt(r.mean), "median": _fmt(r.median),
               "q10": _fmt(r.q10), "q90": _fmt(r.q90), "se": _fmt(r.se)}


def write_table(rows, columns, out, fmt):
    """Serialize dict rows as CSV (canonical) or JSON (mirror)."""
    rows = list(rows)
    if fmt == "json":
        text = json.dumps([{c: r[c] for c in columns} for r in rows],
                          indent=2, sort_keys=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    with _output(out) as write:
        write(text)
    return text


# rows per write of a law table: the text of one chunk is a few MB at most
LAW_CHUNK_ROWS = 2 ** 16


def write_law(pmf, out, fmt):
    """Write the positive masses of `pmf` as the table that write_table
    would make of the rows {"t": t, "mass": repr(mass)}, byte for byte, a
    chunk of rows at a time instead of one dict per row."""
    masses = np.asarray(pmf.masses, dtype=np.float64)
    idx = np.flatnonzero(masses > 0)
    if fmt == "json":
        row = '  {\n    "t": %d,\n    "mass": "%r"\n  }'
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        row = "%d,%r\n"
        head, sep, tail = "t,mass\n", "", ""
    with _output(out) as write:
        if fmt == "json" and not len(idx):
            write("[]\n")
            return
        write(head)
        for lo in range(0, len(idx), LAW_CHUNK_ROWS):
            chunk = idx[lo:lo + LAW_CHUNK_ROWS]
            write((sep if lo else "") + sep.join(
                row % pair for pair in zip((chunk + pmf.offset).tolist(),
                                           masses[chunk].tolist())))
        write(tail)


@contextlib.contextmanager
def _output(out):
    """The write function of `out`: stdout for None or '-', else the file."""
    if out in (None, "-"):
        yield sys.stdout.write
        return
    try:
        with open(out, "w") as fh:
            yield fh.write
    except OSError as exc:
        raise ParameterError("cannot write --out %r: %s"
                             % (out, exc.strerror)) from None


def validate(suite=None):
    """Run a named check suite of `checks.CRITERIA`, by default its first;
    returns (all_passed, list of CheckResult)."""
    from . import checks
    suites = list(dict.fromkeys(row.suite for row in checks.CRITERIA))
    if suite not in suites + [None]:
        raise ParameterError("unknown suite %r (want %s)"
                             % (suite, " or ".join(suites)))
    upto = suites[:suites.index(suite or suites[0]) + 1]
    results = checks.run_checks([(row.check, {}) for row in checks.CRITERIA
                                 if row.suite in upto])
    return all(r.passed for r in results), results
