"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NotSeparatingError(ParameterError):
    """An index set that must separate the orbits does not."""


class ScaleError(RuntimeError):
    """A requested computation exceeds the configured brute-force bounds."""
