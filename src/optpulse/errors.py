"""Exception hierarchy shared across the compiler pipeline."""

from __future__ import annotations


class OptPulseError(Exception):
    """Base class for all optpulse errors."""


class CircuitSyntaxError(OptPulseError):
    """Malformed circuit source. Carries 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column

    def within(self, context: str) -> str:
        """The message with ``context`` put before its position."""
        return f"{self.message} {context} (line {self.line}, column {self.column})"


class CircuitError(OptPulseError):
    """Semantically invalid circuit: bad gate arity, index, or unresolved parameter."""


class ModelError(OptPulseError):
    """Invalid system model document or operator expression."""


class DynamicsError(OptPulseError):
    """Propagation failure: bad signal/model pairing or integrator breakdown."""


class OptimizationError(OptPulseError):
    """Optimizer misconfiguration or numerical failure."""


class UnknownMethodError(OptimizationError):
    """Requested optimal-control method is not registered."""


class PulseError(OptPulseError):
    """Malformed pulse instruction, program or pulse document."""


class LibraryError(OptPulseError):
    """Pulse-library lowering failed (missing gate entry or bad fragment)."""


class TransformError(OptPulseError):
    """Circuit-to-pulse transformation did not reach the acceptance threshold.

    The best-effort program and its infidelity are attached so callers can
    inspect or salvage the result.
    """

    def __init__(
        self, message: str, program=None, infidelity: float | None = None, result=None
    ):
        super().__init__(message)
        self.program = program
        self.infidelity = infidelity
        self.result = result
