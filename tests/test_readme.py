"""The README's Library example runs against the library as it is, and its
criterion table is the rendering of `checks.CRITERIA`, so neither can drift
from the code."""

import os
import re

from frogline import checks

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme():
    with open(README) as fh:
        return fh.read()


def test_library_example_runs():
    text = _readme()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, README, "exec"), {})


def _kwargs(kwargs, empty):
    return ("`%s`" % ", ".join("%s=%r" % kv for kv in kwargs.items())
            if kwargs else empty)


def criterion_table():
    """The criteria with their acceptance tests and budgets, then one line
    per check: its suite, its defaults and its acceptance runs' kwargs."""
    lines = ["| Criterion | Acceptance tests |", "| --- | --- |"]
    for num, (label, budgets) in checks.ACCEPTANCE.items():
        lines.append("| %02d %s | %s |" % (num, label, ", ".join(
            "`test_%s` (%s)" % (run, "no budget" if b is None else "%d s" % b)
            for run, b in budgets.items())))
    lines += ["", "| Check | Suite | `validate` arguments | Acceptance runs |",
              "| --- | --- | --- | --- |"]
    for row in checks.CRITERIA:
        runs = "; ".join("`test_%s`: %s" % (run, _kwargs(kw, "defaults"))
                         for run, kw in row.runs.items())
        lines.append("| `%s` | %s | %s | %s |" % (
            row.check.__name__, row.suite,
            _kwargs(checks.defaults(row.check), ""), runs))
    return "\n".join(lines) + "\n"


def test_criterion_table_is_rendered_from_the_checks():
    table = criterion_table()
    assert "\n" + table + "\n" in _readme(), (
        "README.md's criterion table should read:\n" + table)
