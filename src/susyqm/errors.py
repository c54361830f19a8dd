"""Exception hierarchy.

Physics-invariant violations and configuration problems are kept apart because
the CLI maps them to different exit codes (1 and 2 respectively).
"""

__all__ = [
    "SusyQMError",
    "PhysicsViolationError",
    "DegeneracyError",
    "SignConditionError",
    "IndeterminateSignError",
    "ConfigError",
    "GridMismatchError",
    "NormalizationError",
]


class SusyQMError(Exception):
    """Base class for all package errors."""


class PhysicsViolationError(SusyQMError):
    """A physical invariant failed beyond tolerance."""


class DegeneracyError(PhysicsViolationError):
    """H+ has a second zero mode, a level at or below EPS0; carries that level."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class SignConditionError(PhysicsViolationError):
    """Superpotential sign condition fails: no normalizable zero mode."""


class IndeterminateSignError(SignConditionError):
    """W vanishes at a boundary node, sign condition undecidable there."""


class ConfigError(SusyQMError):
    """Invalid or incomplete run configuration."""


class GridMismatchError(SusyQMError, ValueError):
    """Operands live on different grids."""


class NormalizationError(PhysicsViolationError, ValueError):
    """A state that should have unit norm is off by more than its tolerance."""
