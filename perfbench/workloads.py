"""The benchmark's workloads: the CLI calls of one pass, a warm-up call, and
the output checks.

A pass is a fixed list of `frogline` command lines. Its inputs come from the
workload seed only through `--seed`; the program sees nothing else. Every
workload runs with `--jobs 1`, so a pass is one process doing all the work.

Output checks run outside the timed region. They count operations (one CLI
call, or one trial inside it) and which of them failed: a nonzero exit, a
budget failure (empty `value`, or `failures` > 0 in a sweep row), or an
output that disagrees with an independent check.
"""

import csv
import io
import json
import math
import os
import statistics
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_analytics.json")

# Graph sizes and trial counts. "full" is what the benchmark measures; "tiny"
# is for the self-test. The work of one trial varies from seed to seed (the
# coefficient of variation of its steps is 14% for tree cover time), so a
# pass holds several trials, while a run of 18 s still fits two or three
# passes. The ten-seed spread of wall_s measured on a 2-core VM was 0.15-0.24,
# mostly machine noise: tree-analytics, which uses no randomness, spread as
# widely.
PROFILES = {
    "full": {
        "tree": "tree:d=2,n=10",
        "complete": "complete:n=10000",
        "sus_trials": 5,
        "complete_trials": 6,
        "cover_trials": 10,
        "mixing": ("tree:d=2,n=8", range(0, 257, 8)),
        "threshold": ("tree:d=2,n=7", 256),
        "kappa": ("tree:d=2,n=11", (64, 256, 512)),
        "bd_law": "dary:d=2,n=12",
    },
    "tiny": {
        "tree": "tree:d=2,n=5",
        "complete": "complete:n=300",
        "sus_trials": 2,
        "complete_trials": 2,
        "cover_trials": 2,
        "mixing": ("tree:d=2,n=4", range(0, 33, 8)),
        "threshold": ("tree:d=2,n=4", 128),
        "kappa": ("tree:d=2,n=5", (8, 16)),
        "bd_law": "dary:d=2,n=6",
    },
}

# the coupled lambda grid of tree-susceptibility; lambda_max is its maximum
TREE_LAMBDAS = (1.0, 2.0)


@dataclass
class CallResult:
    argv: list
    code: int
    text: str


def _fmt_list(xs):
    return ",".join("%g" % x for x in xs)


def _common(seed_base):
    return ["--seed", str(seed_base), "--jobs", "1"]


def sweep_argv(graph, lambdas, trials, seed_base):
    return (["sweep", "--graph", graph, "--lambda", _fmt_list(lambdas),
             "--metric", "susceptibility", "--trials", str(trials)]
            + _common(seed_base))


def simulate_argv(graph, lam, trials, seed_base, mode, lam_max=None):
    argv = ["simulate", "--graph", graph, "--lambda", "%g" % lam,
            "--mode", mode, "--trials", str(trials)]
    if lam_max is not None:
        argv += ["--lambda-max", "%g" % lam_max]
    return argv + _common(seed_base)


def analytic_calls(p):
    mix_graph, mix_ts = p["mixing"]
    thr_graph, thr_t = p["threshold"]
    kap_graph, kap_ts = p["kappa"]
    tail = ["--jobs", "1"]
    return [
        ["analytic", "--quantity", "mixing", "--graph", mix_graph,
         "--t", _fmt_list(mix_ts)] + tail,
        ["analytic", "--quantity", "threshold", "--graph", thr_graph,
         "--t", str(thr_t)] + tail,
        ["analytic", "--quantity", "kappa", "--graph", kap_graph,
         "--t", _fmt_list(kap_ts)] + tail,
        ["analytic", "--quantity", "bd-law", "--chain", p["bd_law"]] + tail,
    ]


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _rel_close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def expected_stats(values):
    """Sweep statistics recomputed here, independent of the program:
    mean, nearest-rank median/q10/q90, and the standard error."""
    xs = sorted(float(v) for v in values)
    n = len(xs)

    def nearest_rank(p):
        return xs[max(math.ceil(p * n), 1) - 1]

    se = statistics.stdev(xs) / math.sqrt(n) if n > 1 else 0.0
    return {"mean": statistics.fmean(xs), "median": nearest_rank(0.5),
            "q10": nearest_rank(0.1), "q90": nearest_rank(0.9), "se": se}


class Checker:
    """Expensive references, computed once per run and shared by every pass:
    per-trial values from `simulate`, and event-driven activation runs."""

    def __init__(self, call):
        self.call = call
        self._calls = {}
        self._verdicts = {}
        self._expected = None

    @property
    def expected(self):
        """The analytic outputs recorded at the seed commit, by command line."""
        if self._expected is None:
            with open(EXPECTED_PATH) as fh:
                self._expected = json.load(fh)
        return self._expected

    def cli(self, argv):
        key = tuple(argv)
        if key not in self._calls:
            self._calls[key] = self.call(argv)
        return self._calls[key]

    def _setup(self, graph, lam, lam_max, seed):
        from frogline.graph import build_graph, parse_descriptor, resolve_origin
        from frogline.randomness import WalkStore, init_config
        g = build_graph(parse_descriptor(graph))
        init = init_config(g, lam, resolve_origin(g, "root"), seed,
                           lam_max=lam_max)
        return g, init, WalkStore(g, init)

    def is_minimal(self, graph, lam, lam_max, seed, s):
        """run_activation covers at tau = s and not at tau = s - 1."""
        key = ("min", graph, lam, lam_max, seed, s)
        if key not in self._verdicts:
            from frogline.frog_sim import run_activation
            g, init, walks = self._setup(graph, lam, lam_max, seed)
            self._verdicts[key] = (
                s >= 1
                and run_activation(g, init, walks, s).covered
                and not run_activation(g, init, walks, s - 1).covered)
        return self._verdicts[key]

    def is_cover_time(self, graph, lam, seed, ct):
        """run_activation with lifetime ct covers, last waking at ct."""
        key = ("cover", graph, lam, seed, ct)
        if key not in self._verdicts:
            from frogline.frog_sim import run_activation
            g, init, walks = self._setup(graph, lam, lam, seed)
            report = run_activation(g, init, walks, ct)
            self._verdicts[key] = report.covered and report.max_at == ct
        return self._verdicts[key]


class Tally:
    """Operations attempted in one pass and the set of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.notes = []

    def op(self, label, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed.add(label)
            self.notes.append("%s: %s" % (label, why))

    def fail(self, label, why):
        if label not in self.failed:
            self.failed.add(label)
            self.notes.append("%s: %s" % (label, why))


def _trial_values(result):
    """{trial index: value or None} and {trial index: seed} of simulate rows."""
    values, seeds = {}, {}
    for row in read_rows(result.text):
        i = int(row["trial"])
        values[i] = int(row["value"]) if row["value"] != "" else None
        seeds[i] = int(row["seed"])
    return values, seeds


def _check_sweep(tally, checker, out, graph, lambdas, trials, seed_base):
    """Sweep rows against per-trial simulate values at the same seeds."""
    lam_max = max(lambdas)
    call_ok = out.code == 0
    why = "exit code %d" % out.code
    rows = {}
    if call_ok:
        rows = {float(r["lambda"]): r for r in read_rows(out.text)}
        if sorted(rows) != sorted(lambdas):
            call_ok, why = False, "lambda cells %r" % sorted(rows)
    per_lam = {}
    for lam in lambdas:
        ref = checker.cli(simulate_argv(graph, lam, trials, seed_base,
                                        "susceptibility", lam_max=lam_max))
        values, seeds = _trial_values(ref) if ref.code == 0 else ({}, {})
        per_lam[lam] = (values, seeds)
        for i in range(trials):
            v = values.get(i)
            tally.op(("trial", lam, i), v is not None,
                     "no value (budget failure or simulate exit %d)" % ref.code)
        row = rows.get(lam)
        if row is None:
            continue
        good = [v for v in values.values() if v is not None]
        if int(row["failures"]) > 0:
            call_ok, why = False, "budget failures at lambda %g" % lam
        elif int(row["trials"]) != trials or len(good) != trials:
            call_ok, why = False, "trial count at lambda %g" % lam
        else:
            want = expected_stats(good)
            for k, w in want.items():
                if not _rel_close(float(row[k]), w, 1e-9):
                    call_ok, why = False, "%s %s != %r at lambda %g" % (
                        k, row[k], w, lam)
        # minimality of S, checked on the first trial of every cell
        v0, seed0 = values.get(0), seeds.get(0)
        if v0 is not None and not checker.is_minimal(graph, lam, lam_max,
                                                     seed0, v0):
            tally.fail(("trial", lam, 0), "S=%d is not minimal" % v0)
    # the coupled grid: S is pointwise nonincreasing in lambda
    for lo, hi in zip(lambdas, lambdas[1:]):
        for i in range(trials):
            a, b = per_lam[lo][0].get(i), per_lam[hi][0].get(i)
            if a is not None and b is not None and b > a:
                tally.fail(("trial", hi, i),
                           "S(%g)=%d > S(%g)=%d" % (hi, b, lo, a))
    tally.op(("call", "sweep"), call_ok, why)


def check_tree_susceptibility(outputs, checker, p, seed_base):
    tally = Tally()
    _check_sweep(tally, checker, outputs[0], p["tree"], TREE_LAMBDAS,
                 p["sus_trials"], seed_base)
    return tally


def check_complete_susceptibility(outputs, checker, p, seed_base):
    tally = Tally()
    _check_sweep(tally, checker, outputs[0], p["complete"], (1.0,),
                 p["complete_trials"], seed_base)
    return tally


def check_tree_cover(outputs, checker, p, seed_base):
    tally = Tally()
    out = outputs[0]
    trials = p["cover_trials"]
    values, seeds = _trial_values(out) if out.code == 0 else ({}, {})
    for i in range(trials):
        v = values.get(i)
        ok = v is not None
        if ok and i == 0:
            ok = checker.is_cover_time(p["tree"], 1.0, seeds[i], v)
        tally.op(("trial", i), ok,
                 "cover time %r does not match run_activation" % (v,))
    tally.op(("call", "simulate"), out.code == 0 and len(values) == trials,
             "exit code %d, %d rows" % (out.code, len(values)))
    return tally


def _bd_digest(text):
    """Summary of a bd-law table: row count, t range, mass sum and mean,
    and every `stride`-th row, so the recorded table stays small."""
    rows = read_rows(text)
    if not rows:
        return {"rows": 0}
    ts = [int(r["t"]) for r in rows]
    ms = [float(r["mass"]) for r in rows]
    stride = max(1, len(rows) // 200)
    picks = list(range(0, len(rows), stride)) + [len(rows) - 1]
    return {"rows": len(rows), "t_first": ts[0], "t_last": ts[-1],
            "mass_sum": math.fsum(ms),
            "mass_mean": math.fsum(t * m for t, m in zip(ts, ms)),
            "samples": [[ts[i], ms[i]] for i in picks]}


def analytic_digest(argv, text):
    """What the recorded table keeps of one analytic call's output."""
    if "bd-law" in argv:
        return _bd_digest(text)
    return [[r["quantity"], r["key"], float(r["value"])]
            for r in read_rows(text)]


def _same_digest(got, want):
    if isinstance(want, dict):
        if set(got) != set(want):
            return False
        return all(_same_digest(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_digest(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return isinstance(got, (int, float)) and _rel_close(got, want)
    return got == want


def _bd_truncated(chain_text):
    from frogline.spectral_bd import (geometric_convolution_law,
                                      hitting_eigenvalues)
    from frogline.tree_analytics import level_chain
    kv = dict(part.split("=") for part in chain_text.partition(":")[2].split(","))
    d, n = int(kv["d"]), int(kv["n"])
    pmf = geometric_convolution_law(hitting_eigenvalues(level_chain(d, n)),
                                    "odd" if n % 2 else "even")
    return pmf.truncated


def check_tree_analytics(outputs, checker, p, seed_base):
    tally = Tally()
    expected = checker.expected
    for out in outputs:
        key = " ".join(out.argv)
        label = ("call", out.argv[2])
        if out.code != 0:
            tally.op(label, False, "exit code %d" % out.code)
            continue
        got = analytic_digest(out.argv, out.text)
        ok = key in expected and _same_digest(got, expected[key])
        why = "differs from the table recorded at the seed commit"
        if ok and "bd-law" in out.argv:
            want_sum = 1.0 - _bd_truncated(p["bd_law"])
            ok = abs(got["mass_sum"] - want_sum) <= 1e-12
            why = "masses sum to %r, 1 - truncated is %r" % (got["mass_sum"],
                                                             want_sum)
        tally.op(label, ok, why)
    return tally


@dataclass
class Workload:
    name: str
    calls: object   # (profile, seed_base) -> list of argv
    warmup: object  # (seed_base) -> one small argv, same code paths
    check: object   # (outputs, checker, profile, seed_base) -> Tally


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "tree-susceptibility",
            lambda p, sb: [sweep_argv(p["tree"], TREE_LAMBDAS,
                                      p["sus_trials"], sb)],
            lambda sb: sweep_argv("tree:d=2,n=4", TREE_LAMBDAS, 1, sb),
            check_tree_susceptibility),
        Workload(
            "complete-susceptibility",
            lambda p, sb: [sweep_argv(p["complete"], (1.0,),
                                      p["complete_trials"], sb)],
            lambda sb: sweep_argv("complete:n=100", (1.0,), 1, sb),
            check_complete_susceptibility),
        Workload(
            "tree-cover",
            lambda p, sb: [simulate_argv(p["tree"], 1.0, p["cover_trials"],
                                         sb, "cover")],
            lambda sb: simulate_argv("tree:d=2,n=4", 1.0, 1, sb, "cover"),
            check_tree_cover),
        Workload(
            "tree-analytics",
            lambda p, sb: analytic_calls(p),
            lambda sb: ["analytic", "--quantity", "bd-law",
                        "--chain", "dary:d=2,n=4"],
            check_tree_analytics),
    ]
}
