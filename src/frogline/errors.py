"""Shared error types, and the input checks more than one module applies.
CLI maps the errors onto exit codes."""

from math import isfinite


class ParameterError(ValueError):
    """Bad user-facing parameter (descriptor out of range, invalid vertex, ...)."""


class FamilyError(ParameterError):
    """Operation asked of the wrong graph family (e.g. tree navigation on a cycle)."""


class BudgetExceededError(RuntimeError):
    """A step/size budget ran out before the computation finished.

    Carries whatever partial progress is meaningful for the caller:
    ``fraction_covered`` and ``bracket`` = (lowest possible value, None) for
    susceptibility and cover-time runs, ``attained`` for threshold scans.
    """

    def __init__(self, message, fraction_covered=None, bracket=None, attained=None):
        super().__init__(message)
        self.fraction_covered = fraction_covered
        self.bracket = bracket
        self.attained = attained


class NumericalConsistencyError(RuntimeError):
    """A numerical result violated a structural guarantee; signals a construction bug."""


# bytes one configuration, run, leaf walk, law or exact analytic may take
CONFIG_BYTE_LIMIT = 2 ** 32

# entries of the transition operator one exact analytic may touch: |V| per
# step of a vector, |V|^2 per step of the mixing matrices. Measured at 8-26
# ns an entry on trees of depth 10-16 (return sums on n=14 to t=256: 8 ns;
# the mixing profile of n=11 at t=16: 26 ns), so the limit is 35-110 s
ANALYTIC_ENTRY_LIMIT = 2 ** 32

# entries an operator step counts at least: a step of a vector costs 5-19 us
# however short the vector (shared 2-core VM, minimum of 3 runs of 10^5
# steps: K_5 5.0 us, cycle n=7 18 us, tree d=2 n=3 12 us), as much as 2^10
# entries at 8-26 ns, so the limit admits about 4.2M small steps, 21-80 s
STEP_ENTRY_FLOOR = 2 ** 10


def check_budget(what, nbytes, steps=0, step_entries=0):
    """Refuse, before anything is allocated, `what` when it is estimated at
    more than CONFIG_BYTE_LIMIT bytes, or at more than ANALYTIC_ENTRY_LIMIT
    operator entries over `steps` steps of `step_entries` entries each."""
    if nbytes > CONFIG_BYTE_LIMIT:
        raise BudgetExceededError(
            "%s needs about %.3g bytes, over the limit of %d"
            % (what, nbytes, CONFIG_BYTE_LIMIT))
    entries = steps * max(step_entries, STEP_ENTRY_FLOOR)
    if entries > ANALYTIC_ENTRY_LIMIT:
        raise BudgetExceededError(
            "%s needs about %.3g operator entries, over the limit of %d"
            % (what, entries, ANALYTIC_ENTRY_LIMIT))


# cap on the clock of activation, susceptibility and cover time, and on the
# steps of a leaf walk
DEFAULT_STEP_CAP = 10 ** 9


def check_step_cap(step_cap):
    """Refuse a cap on the clock (or the steps of a leaf walk) below 1."""
    if step_cap <= 0:
        raise ParameterError("step_cap must be > 0, got %r" % (step_cap,))


def check_lambda(name, lam):
    if not (isfinite(lam) and lam >= 0):
        raise ParameterError("%s must be finite and >= 0, got %r" % (name, lam))


def check_horizon(lam, lam_max):
    """Refuse a density past lam_max, the horizon its configuration is
    drawn to, and either one negative or not finite."""
    check_lambda("lambda", lam)
    check_lambda("lambda_max", lam_max)
    if lam > lam_max:
        raise ParameterError("lambda %r exceeds lambda_max %r" % (lam, lam_max))


def check_seed(seed):
    # a seed outside the u64 range would alias one inside it
    if not 0 <= seed < 2 ** 64:
        raise ParameterError("seed must be in [0, 2^64), got %r" % (seed,))


def check_t_max(t_max):
    if t_max < 0:
        raise ParameterError("t_max must be >= 0, got %r" % (t_max,))
