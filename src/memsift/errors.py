"""Exception types shared across the package.

Everything raised on bad input derives from MemsiftError so callers (and the
CLI) can catch one base class.  Plain I/O trouble is left to the builtin
OSError hierarchy.
"""

from __future__ import annotations


class MemsiftError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidOptionError(MemsiftError, ValueError):
    """A scan, carve or fabrication option is out of range (negative
    window, zero min_len, cap below min_len, density of 1, ...).  The CLI
    reports it as a usage error."""


class MissingFileError(MemsiftError):
    """A manifest references an image file that does not exist."""


class DuplicateLabelError(MemsiftError):
    """Two manifest entries share the same label."""


class NonMonotonicStepError(MemsiftError):
    """Manifest step indices are not strictly increasing."""


class ZeroSizeError(MemsiftError):
    """An image file is empty; an empty acquisition is never valid evidence."""


class LineError(MemsiftError):
    """A line of a line-oriented input (manifest, process map, catalog,
    strings file) breaks a rule of its format.  Carries the file name, the
    1-based line number and the reason, and reads ``FILE:LINE: reason``."""

    def __init__(self, path: str, lineno: int, reason: str):
        self.path = path
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{path}:{lineno}: {reason}")


class UnknownLabelError(MemsiftError):
    """Findings reference an image label absent from the manifest."""


class OverlapError(MemsiftError):
    """Two fabrication placements collide (or sit too close to stay independent)."""


class PlacementOutOfBoundsError(MemsiftError):
    """A fabrication placement does not fit inside the image."""
