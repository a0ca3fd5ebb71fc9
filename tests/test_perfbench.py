"""The benchmark's tiny passes still run against the library.

perfbench/ drives the CLI in-process and its tracer wraps `run_trial`,
`init_config`, `generate_steps`, the engines and the analytics
(`apply_transition`, `kappa_sequence`, `mixing_profile`,
`hitting_eigenvalues`); its checks call
`WalkStore(g, init)`, `init_config(..., lam_max=)` and `run_activation`,
and compare the analytic tables with perfbench/expected_analytics.json. A
change to any of these that breaks the benchmark fails here instead of in a
benchmark run. Nothing under perfbench/ is changed.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("workload", ["tree-susceptibility",
                                      "complete-susceptibility", "tree-cover"])
def test_traced_tiny_pass(workload, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    result, _, spans = run.measure(workload, seed=7, seconds=0.1, trace=1,
                                   profile="tiny")
    assert result["attempted"] > 0 and result["failed"] == 0, result
    assert spans
    metrics = result["metrics"]
    assert metrics["randomness.steps_generated"]["value"] > 0
    assert metrics["frog_sim.engine_s"]["value"] > 0


def test_untraced_tiny_analytics_pass(monkeypatch):
    # the analytic tables of a pass match expected_analytics.json
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    result, _, _ = run.measure("tree-analytics", seed=7, seconds=0.1,
                               trace=0, profile="tiny")
    assert result["attempted"] > 0 and result["failed"] == 0, result


def test_traced_tiny_analytics_pass(monkeypatch):
    # the tracer skips a name the library no longer has without a word, so
    # each wrapped analytic must still be reached under its name
    monkeypatch.syspath_prepend(PERFBENCH)
    import run
    result, _, _ = run.measure("tree-analytics", seed=7, seconds=0.2,
                               trace=1, profile="tiny")
    assert result["attempted"] > 0 and result["failed"] == 0, result
    metrics = result["metrics"]
    for name in ("tree_analytics.apply_calls", "tree_analytics.kappa_s",
                 "tree_analytics.mixing_s", "spectral_bd.law_s"):
        assert metrics[name]["value"] > 0, (name, metrics[name])
