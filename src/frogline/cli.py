"""frogline command line: simulate | sweep | analytic | validate.

Exit codes: 0 success, 1 check failure, 2 parameter error, 3 budget
exceeded, 4 internal error (a fault in frogline: the traceback and a line
starting `internal error:` go to stderr). CSV is the canonical output
format; --format json mirrors it.
"""

import argparse
import sys
import traceback

from . import experiments, spectral_bd, tree_analytics
from .errors import (DEFAULT_STEP_CAP, BudgetExceededError, ParameterError,
                     check_budget, check_horizon)
from .graph import build_graph, parse_descriptor, parse_fields, require_tree
from .tree_analytics import level_chain


def _output_flags(p):
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _common_flags(p):
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for simulate and sweep (>= 1; "
                        "at most one per batch of trials)")
    _output_flags(p)


def _simulation_flags(p):
    _common_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed base, 0 <= seed < 2^64")
    p.add_argument("--budget-steps", type=int, default=DEFAULT_STEP_CAP,
                   help="cap on the clock of susceptibility and cover-time "
                        "runs, and on the steps of a leaf walk")


def _list_of(kind):
    """An argparse type: a comma list of `kind` with no empty item."""
    def parse(text):
        if "" in text.split(","):
            raise argparse.ArgumentTypeError("empty item in %r" % (text,))
        return [kind(x) for x in text.split(",")]
    parse.__name__ = kind.__name__ + " list"
    return parse


def build_parser():
    ap = argparse.ArgumentParser(prog="frogline")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="per-trial simulation rows")
    _simulation_flags(sim)
    sim.add_argument("--graph", required=True,
                     help="tree:d=<int>,n=<int> | complete:n=<int> | cycle:n=<int>")
    sim.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sim.add_argument("--lambda-max", dest="lam_max", type=float, default=None,
                     help="changes no output; must be >= --lambda, finite")
    sim.add_argument("--origin", default=None, help="vertex index, 'root' or 'leaf'")
    sim.add_argument("--mode", choices=experiments.METRICS,
                     default="susceptibility")
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--s", type=int, default=None,
                     help="leafwalk restart parameter (restart prob 1/(2s))")

    sw = sub.add_parser("sweep", help="grid of cells, one estimate row each")
    _simulation_flags(sw)
    sw.add_argument("--graph", action="append", required=True,
                    help="repeatable graph descriptor")
    sw.add_argument("--lambda", dest="lambdas", type=_list_of(float), default=[],
                    help="comma-separated lambda grid")
    sw.add_argument("--metric", choices=experiments.METRICS,
                    default="susceptibility")
    sw.add_argument("--origin", default=None)
    sw.add_argument("--trials", type=int, default=1)
    sw.add_argument("--s", type=int, default=None)

    an = sub.add_parser("analytic", help="exact closed-form/numeric tables")
    _common_flags(an)
    an.add_argument("--graph", default=None)
    an.add_argument("--quantity", required=True,
                    choices=("pi", "q", "hit", "kappa", "threshold", "mu",
                             "mixing", "bd-law"))
    an.add_argument("--chain", default=None, help="dary:d=<int>,n=<int>")
    an.add_argument("--t", type=_list_of(int), default=None,
                    help="comma-separated times")
    an.add_argument("--lambda", dest="lam", type=float, default=1.0)
    an.add_argument("--delta", type=float, default=0.0)

    va = sub.add_parser("validate", help="run a named check suite")
    _output_flags(va)
    va.add_argument("--suite", help="a suite of frogline.checks.CRITERIA "
                                    "(default: its first)")
    return ap


def _spec(args, graphs, lambdas, metric):
    return experiments.ExperimentSpec(
        graphs=graphs, lambdas=lambdas, metric=metric, trials=args.trials,
        seed_base=args.seed, origin=args.origin, s=args.s,
        step_cap=args.budget_steps, jobs=args.jobs)


def _cmd_simulate(args):
    if args.lam_max is not None and args.mode != "leafwalk":
        # accepted for older command lines, though it changes no output
        check_horizon(args.lam, args.lam_max)
    spec = _spec(args, [args.graph], [args.lam], args.mode)
    results = experiments.run_spec_trials(spec)
    experiments.write_table(experiments.trial_csv_rows(results),
                            experiments.SIMULATE_COLUMNS, args.out,
                            args.format)
    if args.trials == 1 and results[0].value is None:
        raise BudgetExceededError(results[0].budget_reason)
    return 0


def _cmd_sweep(args):
    spec = _spec(args, args.graph, args.lambdas, args.metric)
    rows = experiments.sweep(spec)
    experiments.write_table(experiments.sweep_csv_rows(rows),
                            experiments.SWEEP_COLUMNS, args.out, args.format)
    return 0


def _parse_chain(text):
    usage = "--chain wants dary:d=<int>,n=<int>, got %r" % (text,)
    if text is None:
        raise ParameterError("--chain is required for bd-law (dary:d=,n=)")
    family, kv = parse_fields(text, usage)
    if family != "dary":
        raise ParameterError("unknown chain family %r" % (family,))
    if set(kv) != {"d", "n"}:
        raise ParameterError(usage)
    return level_chain(kv["d"], kv["n"])


def _cmd_analytic(args):
    q = args.quantity
    if args.t is not None and any(t < 0 for t in args.t):
        raise ParameterError("--t wants times >= 0, got %r" % (args.t,))
    if q == "bd-law":
        chain = _parse_chain(args.chain)
        experiments.write_law(spectral_bd.hitting_law(chain), args.out,
                              args.format)
        return 0
    if args.graph is None:
        raise ParameterError("--graph is required for this quantity")
    g = build_graph(parse_descriptor(args.graph))
    if q in ("pi", "q", "hit"):
        require_tree(g, q)
    # (quantity, key, value) of each row
    if q == "pi":
        pi = tree_analytics.stationary_levels(level_chain(g.d, g.n))
        rows = [("pi", l, repr(float(p))) for l, p in enumerate(pi)]
    elif q == "q":
        rows = [("q", i, repr(tree_analytics.gambler_ruin(g.d, g.n, i)))
                for i in range(g.n)]
    elif q == "hit":
        chain = level_chain(g.d, g.n)
        rows = [("crossing", j, repr(tree_analytics.expected_hit(
            chain, "crossing", j))) for j in range(g.n)]
        rows.append(("hit", "leaf_to_root", repr(tree_analytics.expected_hit(
            chain, "leaf_to_root"))))
    elif q == "kappa":
        ts = args.t or [16]
        kappa = tree_analytics.kappa_sequence(g, max(ts))
        rows = [("kappa", t, repr(float(kappa[t]))) for t in ts]
    elif q == "threshold":
        ts = args.t or [256]
        rows = [("threshold", "t", tree_analytics.threshold_time(
            g, args.lam, args.delta, max(ts)))]
    elif q == "mu":
        ts = args.t or [16]
        orbits = tree_analytics.Orbits(g)
        # a row costs about 516 bytes at the peak (tracemalloc, tree d=2
        # n=14, four times), within a trial cell's budget
        check_budget("a table of %d mu rows" % (orbits.size * len(ts)),
                     experiments.TRIAL_CELL_BYTES * orbits.size * len(ts))
        mu = tree_analytics.mu_table(g, args.lam, max(ts))
        rows = [("mu", "a=%d,t=%d" % (a, t), repr(float(mu[t])))
                for a in orbits.targets() for t in ts]
    elif q == "mixing":
        rows = [("mixing", t, repr(dev)) for t, dev in
                tree_analytics.mixing_profile(g, args.t or range(0, 33, 2))]
    columns = ["quantity", "key", "value"]
    experiments.write_table([dict(zip(columns, r)) for r in rows], columns,
                            args.out, args.format)
    return 0


def _cmd_validate(args):
    ok, results = experiments.validate(args.suite)
    rows = [{"check": r.check, "passed": str(r.passed).lower(),
             "detail": r.detail} for r in results]
    experiments.write_table(rows, ["check", "passed", "detail"], args.out,
                            args.format)
    return 0 if ok else 1


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "analytic": _cmd_analytic, "validate": _cmd_validate}
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ParameterError("jobs must be >= 1, got %r" % (args.jobs,))
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ParameterError as exc:
        print("parameter error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
