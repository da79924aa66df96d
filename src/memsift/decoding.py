"""Recover entered passwords from their stored form.

Browsers sit credentials in memory the way the wire saw them: form bodies
carry percent escapes (and ``+`` for space), some banking frontends store
only an encrypted digest.  One rule sorts them: a value is
suspected-encrypted, and kept verbatim, when its signature says its values
are opaque or the value is 32 lowercase hex characters; any other value is
percent-decoded, which leaves an escape-free value as it is.

``percent_decode`` reads escapes the way a browser wrote a UTF-8 form: each
maximal run of ``%XX`` escapes is decoded as UTF-8 bytes.  Unlike
urllib.unquote it never substitutes: a run that is not valid UTF-8 keeps
one character per escape, and a malformed escape passes through untouched,
so the function is total.
"""

from __future__ import annotations

import re

_MD5_LIKE = re.compile(r"[0-9a-f]{32}\Z")
_ESCAPES = re.compile(r"(?:%[0-9A-Fa-f]{2})+")


def _unescape(m: re.Match) -> str:
    raw = bytes.fromhex(m.group().replace("%", ""))
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def percent_decode(raw: str, plus_as_space: bool = False) -> str:
    """Decode ``%XX`` escapes (either hex case).

    Each maximal run of escapes is decoded as UTF-8 when it is valid UTF-8,
    else one character per escape.  A ``%`` not followed by two hex digits
    is kept literally, so the function is total over arbitrary input.  With
    ``plus_as_space``, each ``+`` first becomes a space (form-body
    convention), which changes no escape: escapes hold only ``%`` and hex.
    """
    return _ESCAPES.sub(_unescape, raw.replace("+", " ") if plus_as_space else raw)


def classify_value(
    raw: str, opaque: bool = False, *, plus_as_space: bool = False
) -> str | None:
    """The decoded form of a stored value, or None when the value is
    suspected-encrypted (``opaque``, or 32 lowercase hex characters):
    decoding a digest would only destroy evidence."""
    if opaque or _MD5_LIKE.match(raw):
        return None
    return percent_decode(raw, plus_as_space)
