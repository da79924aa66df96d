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
    """A line of a line-oriented input does not parse.  Carries the 1-based
    line number, the line itself and the reason."""

    def __init__(self, lineno: int, line: str, reason: str = ""):
        self.lineno = lineno
        self.line = line
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(f"line {lineno}: cannot parse {line!r}{detail}")


class MalformedLineError(LineError):
    """A line-oriented input (strings file, manifest) has an unparseable line."""


class MalformedEntryError(LineError):
    """A process map line does not parse into a map entry."""


class InvertedRangeError(MemsiftError):
    """A process map entry has phys_start >= phys_end."""


class UnknownLabelError(MemsiftError):
    """Findings reference an image label absent from the manifest."""


class OverlapError(MemsiftError):
    """Two fabrication placements collide (or sit too close to stay independent)."""


class PlacementOutOfBoundsError(MemsiftError):
    """A fabrication placement does not fit inside the image."""


class CatalogError(LineError):
    """A signature catalog file line is malformed."""
