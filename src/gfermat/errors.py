"""Exception types and the enumeration budget shared across the package."""

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, needed, budget):
        super().__init__(f"enumeration needs {needed} steps, budget is {budget}")
        self.needed = needed
        self.budget = budget


class ValidationError(ValueError):
    """Malformed payload (bad JSON, bad schema, unparseable scalar)."""


class NotInGeneralPosition(ValueError):
    """A hyperplane collection violates the general-position requirement."""


class TangencyError(ValueError):
    """A line that must be tangent to the reference conic is not.

    Carries the 1-based index of the offending line.
    """

    def __init__(self, index, message=None):
        super().__init__(message or f"line {index} is not tangent to the conic")
        self.index = index
