"""Acceptance suite: ten end-to-end criteria at full scale.

One test per acceptance run of `frogline.checks.ACCEPTANCE`, named after
the run. It runs every row of `checks.CRITERIA` that takes part in the run,
with the run's keyword arguments (the checks' defaults are `frogline
validate`'s scale), asserts that each check passed within the run's budget
and prints one PASS line with the checks' details (visible under pytest -s
or in the captured output). Scales and tolerances are fixed, so a failure
here means the library moved, not the test.
"""

import time

from frogline import checks, experiments


def _acceptance_test(num, label, run, budget):
    def test():
        t0 = time.perf_counter()
        results = checks.run_checks([(row.check, row.runs[run])
                                     for row in checks.CRITERIA
                                     if run in row.runs])
        took = time.perf_counter() - t0
        for r in results:
            assert r.passed, (r.check, r.detail)
        assert budget is None or took < budget
        print("[criterion %02d] PASS %s: %s, %.1fs" %
              (num, label, "; ".join("%s: %s" % (r.check, r.detail)
                                     for r in results), took))
    return test


# module-level tests, so that each keeps its run's name as its id
for _num, (_label, _budgets) in checks.ACCEPTANCE.items():
    for _run, _budget in _budgets.items():
        globals()["test_" + _run] = _acceptance_test(_num, _label, _run,
                                                     _budget)


def test_the_table_lists_each_check_once():
    public = sorted(name for name, f in vars(checks).items()
                    if name.startswith("check_")
                    and f.__module__ == checks.__name__)
    assert sorted(row.check.__name__ for row in checks.CRITERIA) == public
    assert sorted(checks.ACCEPTANCE) == list(range(1, 11))
    runs = {run for row in checks.CRITERIA for run in row.runs}
    budgets = [budgets for _, budgets in checks.ACCEPTANCE.values()]
    assert all(budgets) and runs == {run for b in budgets for run in b}
    # every check of the full suite passes, under a name of its own
    ok, results = experiments.validate("full")
    assert ok and len({r.check for r in results}) == len(checks.CRITERIA)
