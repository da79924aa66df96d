"""Recover entered passwords from their stored form.

Browsers sit credentials in memory the way the wire saw them: form bodies
carry percent escapes (and ``+`` for space), some banking frontends store
only an encrypted digest.  ``percent_decode`` is deliberately not
urllib.unquote: escapes are single-byte, there is no charset layer, and a
malformed escape passes through untouched so the function is total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

_HEX = set("0123456789abcdefABCDEF")
_MD5_LIKE = re.compile(r"[0-9a-f]{32}\Z")
_ESCAPE = re.compile(r"%[0-9A-Fa-f]{2}")


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


def percent_decode(raw: str, plus_as_space: bool = False) -> str:
    """Decode ``%XX`` escapes (either hex case) to single characters.

    A ``%`` not followed by two hex digits is kept literally, so the
    function is total over arbitrary input.  With ``plus_as_space``, ``+``
    becomes a space (form-body convention).
    """
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "%" and i + 2 < n and raw[i + 1] in _HEX and raw[i + 2] in _HEX:
            out.append(chr(int(raw[i + 1 : i + 3], 16)))
            i += 3
        elif ch == "+" and plus_as_space:
            out.append(" ")
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def has_percent_escape(raw: str) -> bool:
    """True when raw contains at least one well-formed %XX escape."""
    return _ESCAPE.search(raw) is not None


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
