"""Exception types shared across the package."""

from __future__ import annotations


class InvalidParameterError(ValueError):
    """A caller-supplied parameter is out of its documented range."""


class ResourceLimitError(RuntimeError):
    """A request over a cap of listdec.limits, raised before anything is built."""


class PrecisionError(RuntimeError):
    """A certified comparison could not be resolved at the maximum precision."""


class ConstructionError(RuntimeError):
    """A randomized constructor exhausted its retry or round budget.

    Carries the partial state so callers can inspect how far the build got.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
