#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit and no failed operation, that a
traced run emits every per-layer metric with its unit, and that a
deliberately corrupted output is counted as a failed operation.
"""

import json
import os
import sys

import run
from workloads import WORKLOADS, read_rows

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def _bump(text, column):
    """The CLI table `text` with 1 added to every integer in `column`."""
    rows = read_rows(text)
    if not rows:
        return text
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        value = row[column]
        if value.lstrip("-").isdigit():
            row[column] = str(int(value) + 1)
        else:
            row[column] = repr(float(value) * (1 + 1e-9))
        lines.append(",".join('"%s"' % row[c] if "," in row[c] else row[c]
                              for c in header))
    return "\n".join(lines) + "\n"


def corrupting_call(argv):
    """call_cli, with S, CT or an analytic value off by one (or by 1e-9)."""
    result = run.call_cli(argv)
    column = {"simulate": "value", "sweep": "median",
              "analytic": "mass" if "bd-law" in argv else "value"}[argv[0]]
    result.text = _bump(result.text, column)
    return result


def expect_metrics(result, wanted, label):
    got = result["metrics"]
    for spec in wanted:
        name = spec["name"]
        assert name in got, "%s: metric %s missing" % (label, name)
        assert got[name]["unit"] == spec["unit"], (
            "%s: %s has unit %r, want %r" % (label, name, got[name]["unit"],
                                             spec["unit"]))
        assert isinstance(got[name]["value"], (int, float)), (label, name)
    assert set(got) == {s["name"] for s in wanted}, (label, sorted(got))


def main():
    run._require_source()
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        result, _, _ = run.measure(name, seed=7, seconds=0.1, trace=0,
                                   profile="tiny")
        expect_metrics(result, spec["end_to_end"], name)
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["metrics"]["success_rate"]["value"] == 1.0

        result, _, spans = run.measure(name, seed=7, seconds=0.1, trace=1,
                                       profile="tiny")
        expect_metrics(result, spec["per_layer"], name + " traced")
        assert result["failed"] == 0 and spans, (name, result)
        steps = result["metrics"]["randomness.steps_generated"]["value"]
        assert (steps == 0) == (name == "tree-analytics"), (name, steps)

        result, _, _ = run.measure(name, seed=7, seconds=0.1, trace=0,
                                   profile="tiny", call=corrupting_call)
        assert result["failed"] > 0, (name, "corruption not caught", result)
        assert result["metrics"]["success_rate"]["value"] < 1.0
        print("ok %s" % name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
