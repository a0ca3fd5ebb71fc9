"""scripts/pilot.py still runs against the checks' measurement helpers.

The pilot fits the constants of frogline.bands from the helpers of
frogline.checks, so a helper renamed or re-signed there fails here instead
of at the next band refit. Every pilot runs at its --fast scale.
"""

import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("what", ["returns", "mixing", "heatkernel", "cover",
                                  "leafwalk", "range", "frogs"])
def test_pilot_runs(what, monkeypatch, capsys):
    monkeypatch.syspath_prepend(SCRIPTS)
    import pilot
    getattr(pilot, "pilot_" + what)(True)
    out = capsys.readouterr().out
    assert out and "nan" not in out
