"""Exception hierarchy for brwlab."""


class BrwLabError(Exception):
    """Base class for all brwlab errors."""


class DomainError(BrwLabError):
    """A function is infinite (or undefined) where a finite value is required."""


class ToleranceError(BrwLabError):
    """A numerical search failed to bracket or converge."""


class ParamError(BrwLabError):
    """Invalid parameters for a reproduction law or system."""


class BudgetError(BrwLabError):
    """Particle budget exceeded where exactness is mandatory."""


class StateError(BrwLabError):
    """Trajectory statistics lack the exact generations an operation needs."""


class KernelError(BrwLabError):
    """Displacement law has no representation usable by the front recursion."""


class RangeError(BrwLabError):
    """Front profile values left [0, 1] or lost monotonicity beyond tolerance."""


class SchemaError(BrwLabError):
    """Experiment configuration failed validation.

    Carries the full list of (key path, reason) pairs, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {reason}" for path, reason in self.problems)
        super().__init__(f"invalid configuration: {lines}")
