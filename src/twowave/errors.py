"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems -> 2,
solver failures -> 3, I/O and parse problems -> 4.
"""


class ConfigurationError(ValueError):
    """Invalid parameter, grid, or option combination."""


class DegenerateBoundsError(ConfigurationError):
    """Bounds M = M* = 0 leave the existence-interval formula undefined."""


class DomainError(ValueError):
    """Arguments outside the interval the kernel is defined on."""


class DivergenceError(RuntimeError):
    """Non-finite values appeared during iteration."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"iteration diverged (non-finite values at step {iteration})")


class NotConvergedError(RuntimeError):
    """An iteration used up its sweeps before the update fell below tol."""

    def __init__(self, iterations: int, last_update: float):
        self.iterations = iterations
        self.last_update = last_update
        super().__init__(
            f"no convergence after {iterations} sweeps; last update {last_update:.3e}"
        )


class MatchingFailureError(RuntimeError):
    """Boundary matching did not reach the required endpoint residual."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"boundary matching failed; final endpoint residual {residual:.3e}"
        )


class NoRealSolutionError(ConfigurationError):
    """The slope-matching radicand is negative; no real slope pair exists."""

    def __init__(self, radicand: float):
        self.radicand = radicand
        super().__init__(f"no real matching constants: radicand {radicand:.6g} < 0")


class ProfileParseError(ValueError):
    """A profile file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
