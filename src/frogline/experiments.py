"""Sweep orchestration: grids, per-trial seeds, estimates, validation suites.

Per-trial seeds are seed_base XOR blake2b(cell key, trial index). The key
deliberately excludes lambda: trials with the same index share one
realization across the lambda grid, which is what makes the superposition
coupling (and the pointwise monotonicity checks) work. All other cell
coordinates feed the hash, and the mapping is checked for collisions when
a spec is validated.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import ceil, sqrt
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ParameterError
from .frog_sim import DEFAULT_STEP_CAP, cover_time, susceptibility
from .graph import TREE, build_graph, parse_descriptor, resolve_origin
from .leaf_walk import run_killed_leaf_walk
from .randomness import WalkStore, init_config

METRICS = ("susceptibility", "cover", "leafwalk")

SIMULATE_COLUMNS = ["trial", "seed", "graph", "lambda", "origin", "metric",
                    "value", "steps_simulated", "wall_ms"]
SWEEP_COLUMNS = ["graph", "lambda", "origin", "metric", "trials", "failures",
                 "mean", "median", "q10", "q90", "se"]


@dataclass
class ExperimentSpec:
    graphs: list
    lambdas: list
    metric: str
    trials: int
    seed_base: int
    origin: Optional[str] = None     # None -> per-metric default
    s: Optional[int] = None          # leafwalk restart parameter
    lam_max: Optional[float] = None  # None -> max of the lambda grid
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
    value: Optional[int]   # None when the budget ran out
    steps: int
    wall_ms: float
    budget_reason: Optional[str] = None  # why the budget ran out


def trial_seed(seed_base, graph, origin, metric, trial):
    """64-bit per-trial seed; lambda excluded so the coupling can share it."""
    key = "graph=%s|origin=%s|metric=%s|trial=%d" % (graph, origin, metric, trial)
    h = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return (seed_base ^ int.from_bytes(h, "little")) & (2 ** 64 - 1)


def validate_spec(spec):
    if spec.trials < 1:
        raise ParameterError("trials must be >= 1")
    if not spec.graphs or (not spec.lambdas and spec.metric != "leafwalk"):
        raise ParameterError("grids must be non-empty")
    if spec.metric not in METRICS:
        raise ParameterError("unknown metric %r" % (spec.metric,))
    if spec.metric == "leafwalk" and spec.s is None:
        raise ParameterError("leafwalk needs --s")
    seen = {}
    for graph in spec.graphs:
        for trial in range(spec.trials):
            key = (graph, spec.origin, spec.metric, trial)
            seed = trial_seed(spec.seed_base, graph, spec.origin, spec.metric,
                              trial)
            if seed in seen and seen[seed] != key:
                raise ParameterError(
                    "seed collision between %r and %r" % (seen[seed], key))
            seen[seed] = key


def _default_origin(g, metric):
    if metric == "leafwalk":
        return "leaf"
    return "root"


def run_trial(graph, metric, lam, lam_max, origin_spec, seed, trial,
              step_cap=DEFAULT_STEP_CAP, s=None):
    """One simulation trial; budget overruns come back as value=None, with
    the error's message (and the fraction covered, for a clock overrun) in
    budget_reason."""
    g = build_graph(parse_descriptor(graph))
    if origin_spec is None:
        origin_spec = _default_origin(g, metric)
    origin = resolve_origin(g, origin_spec)
    start = time.perf_counter()
    value = reason = None
    steps = 0
    try:
        if metric == "leafwalk":
            if g.family != TREE:
                raise ParameterError("leafwalk needs a tree graph")
            report = run_killed_leaf_walk(g.d, g.n, s, seed, start=origin)
            value, steps = report.tau_cov, report.tau_cov
        else:
            init = init_config(g, lam, origin, seed, lam_max=lam_max)
            walks = WalkStore(g, init)
            if metric == "susceptibility":
                value = susceptibility(g, init, walks, step_cap=step_cap)
            else:
                value = cover_time(g, init, walks, step_cap=step_cap)
            steps = walks.steps_generated
    except BudgetExceededError as exc:
        reason = str(exc)
        if exc.fraction_covered is not None:
            reason += " (fraction covered %.4g)" % exc.fraction_covered
    wall_ms = (time.perf_counter() - start) * 1000.0
    return TrialResult(trial=trial, seed=seed, graph=graph, lam=lam,
                       origin=origin_spec, metric=metric, value=value,
                       steps=steps, wall_ms=wall_ms, budget_reason=reason)


def _trial_task(args):
    return run_trial(*args)


def _cell_tasks(spec, graph, lam):
    lam_max = spec.lam_max if spec.lam_max is not None else (
        max(spec.lambdas) if spec.lambdas else None)
    tasks = []
    for trial in range(spec.trials):
        seed = trial_seed(spec.seed_base, graph, spec.origin, spec.metric,
                          trial)
        tasks.append((graph, spec.metric, lam, lam_max, spec.origin, seed,
                      trial, spec.step_cap, spec.s))
    return tasks


def run_spec_trials(spec):
    """All trial results, cell by cell, deterministic order."""
    validate_spec(spec)
    lambdas = spec.lambdas if spec.metric != "leafwalk" else [None]
    cells = [(graph, lam) for graph in spec.graphs for lam in lambdas]
    tasks = []
    for graph, lam in cells:
        tasks.extend(_cell_tasks(spec, graph, lam))
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_trial_task, tasks))
    else:
        results = [_trial_task(t) for t in tasks]
    return results


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


def validate(suite, include=None):
    """Run a named check suite; returns (all_passed, list of CheckResult)."""
    from . import checks
    if suite == "fast":
        selected = checks.FAST_CHECKS
    elif suite == "full":
        selected = checks.FAST_CHECKS + checks.FULL_CHECKS
    else:
        raise ParameterError("unknown suite %r (want fast or full)" % (suite,))
    results = []
    for name, fn in selected:
        if include and name not in include:
            continue
        results.append(fn())
    return all(r.passed for r in results), results
