"""The README's Library example runs against the library as it is, so the
example cannot drift from the API."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_library_example_runs():
    with open(README) as fh:
        text = fh.read()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, README, "exec"), {})
