"""Shared error types. CLI maps these onto exit codes."""


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
