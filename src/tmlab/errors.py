"""Shared exception types for tmlab."""


class TmLabError(Exception):
    """Base class for tmlab errors."""


class InvalidInputError(TmLabError, ValueError):
    """Malformed grid, profile, or parameter."""


class SingularEvaluationError(TmLabError, ArithmeticError):
    """potentials.sample met a non-finite V: its radius and value."""

    def __init__(self, abscissa, value):
        self.abscissa = abscissa
        self.value = value
        super().__init__(
            f"non-finite evaluation at r = {abscissa!r} (value = {value!r})"
        )


class NodalSolutionError(TmLabError, RuntimeError):
    """The shot radial solution crossed zero before reaching r = 1.

    Signals that the quadratic form is indefinite (potential too strong).
    """

    def __init__(self, radius):
        self.radius = radius
        super().__init__(f"solution crossed zero near r = {radius:.6g}")


class StepFailureError(TmLabError, RuntimeError):
    """The shooting solver could not advance: a cell propagator is not
    finite (the potential is not finite where it is sampled, or the
    propagator overflows)."""
