#!/usr/bin/env python3
"""Record the analytic outputs that the tree-analytics check compares against.

The analytic quantities use no randomness, so their values are fixed by the
code. This table was recorded at the commit that introduced the benchmark;
re-record it only when a change is meant to alter these values, and say so.

    python3 perfbench/record_expected.py
"""

import json
import sys

import run
from workloads import EXPECTED_PATH, PROFILES, analytic_calls, analytic_digest


def main():
    run._require_source()
    table = {}
    for profile in ("full", "tiny"):
        for argv in analytic_calls(PROFILES[profile]):
            result = run.call_cli(argv)
            if result.code != 0:
                sys.exit("%s exited %d" % (" ".join(argv), result.code))
            table[" ".join(argv)] = analytic_digest(argv, result.text)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
