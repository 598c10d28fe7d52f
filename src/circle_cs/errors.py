"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the range a routine is specified for."""


class ToleranceNotMet(RuntimeError):
    """Adaptive integration exhausted its budget before reaching tolerance.

    Carries the best estimate so callers can inspect how far off it was,
    and the index of the failing row within its batch (0 for a single
    integral).
    """

    def __init__(self, message: str, value: complex, err_est: float, row: int = 0):
        super().__init__(message)
        self.value = value
        self.err_est = err_est
        self.row = row
