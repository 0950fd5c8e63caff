"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters more than the message text.
"""

from __future__ import annotations


class FssError(Exception):
    """Base class for all package errors."""


class UsageError(FssError):
    """Caller violated a precondition (dimension mismatch, bad arguments)."""


class DomainError(FssError):
    """Inputs outside the mathematical domain of a formula (poles, signs)."""


class ConfigError(FssError):
    """Scenario/config file failed schema validation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DataError(FssError):
    """Input data file could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class NumericalFailure(FssError):
    """Integrator or linear-algebra failure. Carries the failing time."""

    def __init__(self, message: str, time_ns: float | None = None):
        self.time_ns = time_ns
        if time_ns is not None:
            message = f"{message} (at t = {time_ns:g} ns)"
        super().__init__(message)


class SteadyStateAmbiguityError(FssError):
    """Liouvillian null space has dimension > 1 (no unique steady state).
    ``where`` names the failing member of a batch."""

    def __init__(self, null_dim: int, where: str | None = None):
        self.null_dim = null_dim
        message = f"steady state is not unique: Liouvillian null space has dimension {null_dim}"
        super().__init__(message if where is None else f"{message} at {where}")
