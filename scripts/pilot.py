"""One-shot pilot runs that fit the constants frozen in frogline.bands.

Each subcommand prints the raw measurements plus a suggested frozen value.
The numbers in frogline/bands.py were produced by these commands; rerun only
when an algorithm change is supposed to move them, and record the new run.

Usage: python scripts/pilot.py {returns,mixing,heatkernel,cover,leafwalk,range,frogs} [--fast]
"""

import argparse
from math import log, sqrt

import numpy as np

from frogline.checks import (complete_graph_ratio, cover_time_checks,
                             heat_kernel_extremes, leafwalk_cell,
                             mixing_crossing_ratio, range_hit_ratios,
                             return_sum_ratios, tree_ratio_medians)


def pilot_returns(fast):
    ratios = []
    for d, n in [(2, 6), (3, 4)]:
        ts = [4, 16, 64, 256]
        r = return_sum_ratios(d, n, ts)
        print("d=%d n=%d ratios %s" % (d, n, ["%.4f" % x for x in r]))
        ratios += r
    center = sqrt(min(ratios) * max(ratios))
    print("spread factor %.3f" % (max(ratios) / min(ratios)))
    print("suggest RETURN_SUM_CENTER = %.3f (band spans /3 .. x3)" % center)


def pilot_mixing(fast):
    grid = [(2, 4), (2, 5), (3, 3), (4, 3)] if fast else \
        [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)]
    ratios = []
    for d, n in grid:
        r = mixing_crossing_ratio(d, n)
        ratios.append(r)
        print("d=%d n=%d crossing ratio %.3f" % (d, n, r))
    print("suggest band [%.3f, %.3f] -> freeze with ~x2 margin" %
          (min(ratios), max(ratios)))


def pilot_heatkernel(fast):
    for d, n, k in [(2, 6, 5), (3, 4, 3)]:
        lo, hi = heat_kernel_extremes(d, n, k)
        print("d=%d n=%d k<=%d ratio range [%.5f, %.5f]" % (d, n, k, lo, hi))
    print("freeze HK_LO below the smallest lo, HK_HI above the largest hi")


def pilot_cover(fast):
    bad, cts = cover_time_checks(trials=10 if fast else 30, seed_base=0,
                                 lam=4.0, n=8)
    print("band exits under current CT_BAND_C: %s" % (bad or "none"))
    # report raw ratios to pick C
    ratios = cts * 4.0 / (8 * log(8))
    print("CT*lambda/(n ln n): max %.3f mean %.3f" %
          (ratios.max(), ratios.mean()))


def pilot_leafwalk(fast):
    trials = 100 if fast else 200
    means, floors = [], []
    for n in (4, 5, 6, 7):
        cell = leafwalk_cell(2, n, 2 ** (n - 1), trials, seed=5)
        means.append(cell["mean_ratio"])
        med_restart = float(np.median(cell["restarts"]))
        scale = 2 ** n * n * log(2 ** (n - 1)) / 2 ** (n - 1)
        floors.append(med_restart / scale)
        print("n=%d mean_ratio %.4f cv %.4f median restarts %.1f (/scale %.3f)"
              % (n, cell["mean_ratio"], cell["cv"], med_restart, floors[-1]))
    center = sqrt(min(means) * max(means))
    print("suggest LEAFWALK_CENTER = %.3f, RESTART_C0 = %.3f (half min median)"
          % (center, 0.5 * min(floors)))


def pilot_range(fast):
    ratios = range_hit_ratios(2, 10, range(5, 10), trials=(50 if fast else 200),
                              seed=11)
    print("ratios %s" % ["%.4f" % r for r in ratios])
    print("suggest RANGE_CENTER = %.3f" % sqrt(min(ratios) * max(ratios)))


def pilot_frogs(fast):
    ratio, failed = complete_graph_ratio(1000, trials=10 if fast else 20,
                                         seed_base=17)
    print("complete(1000): median S/ln n = %.3f" % ratio)
    meds, _, more = tree_ratio_medians((6, 8) if fast else (6, 8, 10),
                                       trials=10 if fast else 30, seed_base=23)
    print("tree lambda*S/(n ln n) medians: %s" % ["%.3f" % m for m in meds])
    print("failed trials: %s" % (failed + more or "none"))


def main():
    jobs = {name[len("pilot_"):]: fn for name, fn in globals().items()
            if name.startswith("pilot_")}
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("what", choices=list(jobs) + ["all"])
    ap.add_argument("--fast", action="store_true",
                    help="smaller grids for a quick look")
    args = ap.parse_args()
    for name, fn in jobs.items():
        if args.what in (name, "all"):
            print("== %s ==" % name)
            fn(args.fast)


if __name__ == "__main__":
    main()
