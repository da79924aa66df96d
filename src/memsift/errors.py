"""Exception types shared across the package.

Everything raised on bad input derives from MemsiftError so callers (and the
CLI) can catch one base class.  Plain I/O trouble is left to the builtin
OSError hierarchy.
"""

from __future__ import annotations


def checked(cls):
    """Make every instance of the NamedTuple ``cls`` run ``cls._check()``,
    those ``_replace`` and unpickling build included."""
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        self._check()
        return self

    __new__.__wrapped__ = new  # the signature still lists the fields
    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, fields: klass(*fields))  # ``_replace`` calls it
    return cls


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
    """A line of a line-oriented input (manifest, process map, catalog)
    breaks a rule of its format.  Carries the file name, the 1-based line
    number and the reason, and reads ``FILE:LINE: reason``."""

    def __init__(self, path: str, lineno: int, reason: str):
        self.path = path
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{path}:{lineno}: {reason}")


class OverlapError(MemsiftError):
    """Two fabrication placements collide (or sit too close to stay independent)."""


class PlacementOutOfBoundsError(MemsiftError):
    """A fabrication placement does not fit inside the image."""
