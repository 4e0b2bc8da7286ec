"""Exception types shared across the library."""

from __future__ import annotations


class MetaRLError(Exception):
    """Base class for all library errors."""


class NonFiniteValue(MetaRLError):
    """A forward pass or gradient produced NaN/Inf.

    Signals divergence; callers should abort the current epoch and surface
    diagnostics instead of letting NaNs propagate into logs.
    """


class InvalidAction(MetaRLError):
    """An action outside the environment's action spec reached step()."""


class EmptyTaskSet(MetaRLError):
    """An operation requiring at least one task received none."""


class EpochDiverged(MetaRLError):
    """Wraps NonFiniteValue with the epoch at which training diverged."""

    def __init__(self, epoch: int, cause: Exception):
        super().__init__(f"training diverged at epoch {epoch}: {cause}")
        self.epoch = epoch
        self.cause = cause


class ParseError(MetaRLError):
    """A config or log file could not be parsed."""


class ValidationError(MetaRLError):
    """A config value violates a constraint; message names the field."""
