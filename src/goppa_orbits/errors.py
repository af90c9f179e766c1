"""Exception types shared across the package."""


class HypothesisError(ValueError):
    """A parameter set violates a required arithmetic hypothesis.

    The message names the specific failed condition.
    """


class GuardError(ValueError):
    """An enumeration or materialization guard ceiling was exceeded."""


class InternalCheckError(RuntimeError):
    """An internal exactness or consistency assertion failed.

    This always signals an arithmetic bug, never bad user input.
    """


def require_positive(**values: int) -> None:
    """Raise HypothesisError naming the first value below 1."""
    for name, value in values.items():
        if value < 1:
            raise HypothesisError(f"{name} must be positive, got {name} = {value}")
