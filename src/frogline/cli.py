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
from .errors import BudgetExceededError, ParameterError
from .frog_sim import DEFAULT_STEP_CAP
from .graph import TREE, build_graph, parse_descriptor
from .tree_analytics import level_chain


def _common_flags(p):
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for simulate and sweep (>= 1; "
                        "at most one per batch of trials)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _simulation_flags(p):
    _common_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed base, 0 <= seed < 2^64")
    p.add_argument("--budget-steps", type=int, default=DEFAULT_STEP_CAP,
                   help="cap on the clock of susceptibility and cover-time "
                        "runs, and on the steps of a leaf walk")


def _float_list(text):
    return [float(x) for x in text.split(",") if x != ""]


def _int_list(text):
    return [int(x) for x in text.split(",") if x != ""]


def build_parser():
    ap = argparse.ArgumentParser(prog="frogline")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="per-trial simulation rows")
    _simulation_flags(sim)
    sim.add_argument("--graph", required=True,
                     help="tree:d=<int>,n=<int> | complete:n=<int> | cycle:n=<int>")
    sim.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sim.add_argument("--lambda-max", dest="lam_max", type=float, default=None)
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
    sw.add_argument("--lambda", dest="lambdas", type=_float_list, default=[],
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
    an.add_argument("--t", type=_int_list, default=None,
                    help="comma-separated times")
    an.add_argument("--lambda", dest="lam", type=float, default=1.0)
    an.add_argument("--delta", type=float, default=0.0)

    va = sub.add_parser("validate", help="run a named check suite")
    _common_flags(va)
    va.add_argument("--suite", choices=("fast", "full"), default="fast")
    return ap


def _cmd_simulate(args):
    spec = experiments.ExperimentSpec(
        graphs=[args.graph], lambdas=[args.lam], metric=args.mode,
        trials=args.trials, seed_base=args.seed, origin=args.origin,
        s=args.s, lam_max=args.lam_max, step_cap=args.budget_steps,
        jobs=args.jobs)
    results = experiments.run_spec_trials(spec)
    experiments.write_table(experiments.trial_csv_rows(results),
                            experiments.SIMULATE_COLUMNS, args.out,
                            args.format)
    if args.trials == 1 and results[0].value is None:
        raise BudgetExceededError(results[0].budget_reason)
    return 0


def _cmd_sweep(args):
    spec = experiments.ExperimentSpec(
        graphs=args.graph, lambdas=args.lambdas, metric=args.metric,
        trials=args.trials, seed_base=args.seed, origin=args.origin,
        s=args.s, step_cap=args.budget_steps, jobs=args.jobs)
    rows = experiments.sweep(spec)
    experiments.write_table(experiments.sweep_csv_rows(rows),
                            experiments.SWEEP_COLUMNS, args.out, args.format)
    return 0


def _require_graph(args):
    if args.graph is None:
        raise ParameterError("--graph is required for this quantity")
    return build_graph(parse_descriptor(args.graph))


def _parse_chain(text):
    usage = "--chain wants dary:d=<int>,n=<int>, got %r" % (text,)
    if text is None:
        raise ParameterError("--chain is required for bd-law (dary:d=,n=)")
    family, _, rest = text.partition(":")
    if family != "dary":
        raise ParameterError("unknown chain family %r" % (family,))
    try:
        kv = {k: int(v)
              for k, v in (part.split("=") for part in rest.split(","))}
    except ValueError:
        raise ParameterError(usage) from None
    if set(kv) != {"d", "n"}:
        raise ParameterError(usage)
    return level_chain(kv["d"], kv["n"])


def _cmd_analytic(args):
    q = args.quantity
    if args.t is not None and any(t < 0 for t in args.t):
        raise ParameterError("--t wants times >= 0, got %r" % (args.t,))
    rows = []
    if q == "pi":
        g = _require_graph(args)
        if g.family != TREE:
            raise ParameterError("pi needs a tree graph")
        pi = tree_analytics.stationary_levels(level_chain(g.d, g.n))
        rows = [{"quantity": "pi", "key": l, "value": repr(float(p))}
                for l, p in enumerate(pi)]
    elif q == "q":
        g = _require_graph(args)
        if g.family != TREE:
            raise ParameterError("q needs a tree graph")
        rows = [{"quantity": "q", "key": i,
                 "value": repr(tree_analytics.gambler_ruin(g.d, g.n, i))}
                for i in range(g.n)]
    elif q == "hit":
        g = _require_graph(args)
        if g.family != TREE:
            raise ParameterError("hit needs a tree graph")
        chain = level_chain(g.d, g.n)
        rows = [{"quantity": "crossing", "key": j,
                 "value": repr(tree_analytics.expected_hit(chain, "crossing", j))}
                for j in range(g.n)]
        rows.append({"quantity": "hit", "key": "leaf_to_root",
                     "value": repr(tree_analytics.expected_hit(
                         chain, "leaf_to_root"))})
    elif q == "kappa":
        g = _require_graph(args)
        ts = args.t or [16]
        kappa = tree_analytics.kappa_sequence(g, max(ts))
        rows = [{"quantity": "kappa", "key": t, "value": repr(float(kappa[t]))}
                for t in ts]
    elif q == "threshold":
        g = _require_graph(args)
        ts = args.t or [256]
        t = tree_analytics.threshold_time(g, args.lam, args.delta, max(ts))
        rows = [{"quantity": "threshold", "key": "t", "value": t}]
    elif q == "mu":
        g = _require_graph(args)
        ts = args.t or [16]
        targets, mu = tree_analytics.mu_table(g, args.lam, max(ts))
        for a, row in zip(targets, mu):
            for t in ts:
                rows.append({"quantity": "mu", "key": "a=%d,t=%d" % (a, t),
                             "value": repr(float(row[t]))})
    elif q == "mixing":
        g = _require_graph(args)
        ts = args.t or list(range(0, 33, 2))
        for t, dev in tree_analytics.mixing_profile(g, ts):
            rows.append({"quantity": "mixing", "key": t, "value": repr(dev)})
    elif q == "bd-law":
        chain = _parse_chain(args.chain)
        pmf = spectral_bd.geometric_convolution_law(
            spectral_bd.hitting_eigenvalues(chain),
            "odd" if chain.n % 2 else "even")
        experiments.write_law(pmf, args.out, args.format)
        return 0
    experiments.write_table(rows, ["quantity", "key", "value"], args.out,
                            args.format)
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
        if args.jobs < 1:
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
