"""Exception types shared across the package."""


class MeasureflowError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MeasureflowError, ValueError):
    """Operands live on spaces of different dimension."""


class MassMismatch(MeasureflowError, ValueError):
    """Balanced-transport operation called on measures of unequal mass."""


class LipschitzViolation(MeasureflowError, ValueError):
    """A test function breaks its declared Lipschitz or sup-norm budget."""


class SupportOverflow(MeasureflowError, RuntimeError):
    """An atom left the lattice extent (space or velocity box).

    ``step_index`` is the scheme step at which the overflow occurred, or
    ``None`` when the run was rejected upfront by the growth-envelope check.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class ConfigError(MeasureflowError, ValueError):
    """Invalid run configuration or input file schema."""


class ProfileRangeError(MeasureflowError, ValueError):
    """A diffusion profile was queried outside its breakpoint table; the
    table must cover [0, |mu_t|] over the whole run."""


class SolverError(MeasureflowError, RuntimeError):
    """A transport or LP solver failed to return a certified optimum."""
