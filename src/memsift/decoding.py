"""Recover entered passwords from their stored form.

Browsers sit credentials in memory the way the wire saw them: form bodies
carry percent escapes (and ``+`` for space), some banking frontends store
only an encrypted digest.  ``percent_decode`` reads escapes the way a
browser wrote a UTF-8 form: each maximal run of ``%XX`` escapes is decoded
as UTF-8 bytes.  Unlike urllib.unquote it never substitutes: a run that is
not valid UTF-8 keeps one character per escape, and a malformed escape
passes through untouched, so the function is total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

_MD5_LIKE = re.compile(r"[0-9a-f]{32}\Z")
_ESCAPES = re.compile(r"(?:%[0-9A-Fa-f]{2})+")
_ESCAPES_OR_PLUS = re.compile(r"(?:%[0-9A-Fa-f]{2})+|\+")


class ValueEncoding(str, Enum):
    """What a signature expects of its stored values."""

    PLAINTEXT = "plaintext"
    PERCENT = "percent-encoded"
    OPAQUE = "opaque"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Classification(str, Enum):
    PLAINTEXT = "plaintext"
    PERCENT_ENCODED = "percent-encoded"
    SUSPECTED_ENCRYPTED = "suspected-encrypted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class DecodedValue:
    raw: str
    decoded: str
    classification: Classification

    @property
    def encrypted(self) -> bool:
        return self.classification is Classification.SUSPECTED_ENCRYPTED


def _unescape(m: re.Match) -> str:
    text = m.group()
    if text == "+":
        return " "
    raw = bytes.fromhex(text.replace("%", ""))
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def percent_decode(raw: str, plus_as_space: bool = False) -> str:
    """Decode ``%XX`` escapes (either hex case).

    Each maximal run of escapes is decoded as UTF-8 when it is valid UTF-8,
    else one character per escape.  A ``%`` not followed by two hex digits
    is kept literally, so the function is total over arbitrary input.  With
    ``plus_as_space``, ``+`` becomes a space (form-body convention).
    """
    return (_ESCAPES_OR_PLUS if plus_as_space else _ESCAPES).sub(_unescape, raw)


def has_percent_escape(raw: str) -> bool:
    """True when raw contains at least one well-formed %XX escape."""
    return _ESCAPES.search(raw) is not None


def classify_value(
    raw: str,
    expected: ValueEncoding = ValueEncoding.PLAINTEXT,
    *,
    plus_as_space: bool = False,
) -> DecodedValue:
    """Classify a stored value and produce its decoded form.

    Opaque-signature values and bare 32-char lowercase hex strings are
    reported suspected-encrypted with decoded == raw: decoding a digest
    would only destroy evidence.  Otherwise a valid %XX escape, or with
    ``plus_as_space`` any ``+``, makes the value percent-encoded; plaintext
    always keeps decoded == raw.
    """
    if expected is ValueEncoding.OPAQUE or _MD5_LIKE.match(raw):
        return DecodedValue(raw, raw, Classification.SUSPECTED_ENCRYPTED)
    if has_percent_escape(raw) or (plus_as_space and "+" in raw):
        return DecodedValue(
            raw, percent_decode(raw, plus_as_space), Classification.PERCENT_ENCODED
        )
    return DecodedValue(raw, raw, Classification.PLAINTEXT)
