"""Each input rule that several modules apply, refused through its one
check wherever it is reached."""

import numpy as np
import pytest

from frogline import (BudgetExceededError, ExperimentSpec, FamilyError,
                      ParameterError, activation_times, build_graph,
                      cover_time, green_sums, init_config, kappa_sequence,
                      mixing_deviation, mixing_profile, mu_table,
                      parse_descriptor, resolve_origin, run_killed_leaf_walk,
                      select_spread_set, stack_views, susceptibility,
                      threshold_time, transition_powers, walk_keys)
from frogline.experiments import validate_spec
from frogline.tree_analytics import hitting_within


def _g(text):
    return build_graph(parse_descriptor(text))


def _stack():
    return stack_views([init_config(_g(TREE), 1.0, 0, 1)])


def _spec(lam=1.0, seed=0):
    return ExperimentSpec(graphs=["tree:d=2,n=3"], lambdas=[lam],
                          metric="cover", trials=1, seed_base=seed)


TREE, CYCLE = "tree:d=2,n=3", "cycle:n=6"

CASES = [
    # budget: bytes, and operator entries at 2^10 a step on small graphs
    ("bytes", lambda: init_config(_g("tree:d=2,n=40"), 1.0, 0, 1),
     BudgetExceededError),
    ("entries", lambda: kappa_sequence(_g("complete:n=5"), 130000000),
     BudgetExceededError),
    ("entries", lambda: mu_table(_g("complete:n=5"), 1.0, 10 ** 7),
     BudgetExceededError),
    ("lambda", lambda: init_config(_g(TREE), float("nan"), 0, 1),
     ParameterError),
    ("lambda", lambda: threshold_time(_g(TREE), -1.0, 0.0, 4),
     ParameterError),
    ("lambda", lambda: validate_spec(_spec(lam=float("inf"))),
     ParameterError),
    # numpy's own ValueError used to come first
    ("seed", lambda: init_config(_g(TREE), 1.0, 0, -1), ParameterError),
    ("seed", lambda: run_killed_leaf_walk(2, 3, 3, seed=2 ** 64),
     ParameterError),
    ("seed", lambda: walk_keys(-1, 3), ParameterError),
    ("seed", lambda: validate_spec(_spec(seed=2 ** 64)), ParameterError),
    ("step cap", lambda: run_killed_leaf_walk(2, 3, 3, 0, step_cap=0),
     ParameterError),
    ("step cap", lambda: cover_time(_stack(), step_cap=0), ParameterError),
    # a negative time used to return 1.0 or raise a bare IndexError
    ("t_max", lambda: mixing_deviation(_g(TREE), -1), ParameterError),
    ("t_max", lambda: mixing_profile(_g(TREE), [2, -2]), ParameterError),
    ("t_max", lambda: transition_powers(_g(TREE), 0, -1), ParameterError),
    ("t_max", lambda: hitting_within(_g(TREE), 7, -1), ParameterError),
    ("t_max", lambda: kappa_sequence(_g(TREE), -1), ParameterError),
    ("t_max", lambda: mu_table(_g(TREE), 1.0, -1), ParameterError),
    ("t_max", lambda: green_sums(_g(TREE), -1), ParameterError),
    # t = 0 or s = 0 used to divide by zero
    ("spread", lambda: select_spread_set([7, 8], 0, 1.0, np.zeros((2, 2))),
     ParameterError),
    ("spread", lambda: select_spread_set([7, 8], 1, 0.0, np.zeros((2, 2))),
     ParameterError),
    ("tree only", lambda: mixing_deviation(_g(CYCLE), 0), FamilyError),
    ("tree only", lambda: mixing_profile(_g(CYCLE), [2]), FamilyError),
    ("tree only", lambda: resolve_origin(_g(CYCLE), "leaf"), FamilyError),
    ("grammar", lambda: parse_descriptor("tree:d=2,n=3,n=1"), ParameterError),
    ("grammar", lambda: parse_descriptor("tree:d=x,n=3"), ParameterError),
    # a negative lifetime used to give negative step counts
    ("tau", lambda: activation_times(_stack(), tau=-1), ParameterError),
    ("step cap", lambda: susceptibility(_stack(), step_cap=0),
     ParameterError),
]


@pytest.mark.parametrize("rule, call, error", CASES,
                         ids=["%s-%d" % (c[0], i) for i, c in enumerate(CASES)])
def test_shared_rule_refuses(rule, call, error):
    with pytest.raises(error):
        call()
