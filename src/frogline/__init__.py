"""frogline: frog-model simulation and random-walk analytics on finite graphs."""

from .errors import (BudgetExceededError, FamilyError,
                     NumericalConsistencyError, ParameterError)
from .experiments import (ExperimentSpec, estimate, run_spec_trials, sweep,
                          trial_seed, validate, write_table)
from .frog_sim import (NEVER, ActivationReport, Outcome, activation_times,
                       cover_time, run_activation, susceptibility)
from .graph import (GraphDescriptor, build_graph, parse_descriptor,
                    resolve_origin)
from .leaf_walk import LeafWalkReport, run_killed_leaf_walk
from .randomness import (FrogInit, FrogStack, WalkStore, generate_steps,
                         init_config, stack_views, walk_keys)
from .spectral_bd import (BirthDeathChain, Pmf, check_logconcave,
                          geometric_convolution_law, half_e2_t0,
                          hitting_eigenvalues, hitting_pmf_dp, total_variation)
from .tree_analytics import (expected_hit, gambler_ruin, green_sums,
                             kappa_sequence, leaf_to_root_closed_form,
                             level_chain, mixing_crossing_time,
                             mixing_deviation, mixing_profile, mu_table,
                             return_sum_envelope, select_spread_set,
                             stationary_levels, threshold_time,
                             transition_powers)

__version__ = "0.1.0"

__all__ = [
    "ActivationReport", "BirthDeathChain", "BudgetExceededError",
    "ExperimentSpec", "FamilyError", "FrogInit", "FrogStack",
    "GraphDescriptor", "LeafWalkReport", "NEVER", "NumericalConsistencyError",
    "Outcome", "ParameterError", "Pmf", "WalkStore", "activation_times",
    "build_graph", "check_logconcave", "cover_time", "estimate",
    "expected_hit", "gambler_ruin", "generate_steps",
    "geometric_convolution_law", "green_sums", "half_e2_t0",
    "hitting_eigenvalues", "hitting_pmf_dp", "init_config", "kappa_sequence",
    "leaf_to_root_closed_form", "level_chain", "mixing_crossing_time",
    "mixing_deviation", "mixing_profile", "mu_table", "parse_descriptor",
    "resolve_origin", "return_sum_envelope", "run_activation",
    "run_killed_leaf_walk", "run_spec_trials", "select_spread_set",
    "stack_views", "stationary_levels", "susceptibility", "sweep",
    "threshold_time", "total_variation", "transition_powers",
    "trial_seed", "validate", "walk_keys", "write_table",
]
