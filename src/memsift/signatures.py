"""Application credential signatures and the two matching modes.

A signature names the exact form-field keywords an application uses for its
login, the URL fragments that identify its login context, and whether its
stored values are opaque (encrypted, so kept verbatim).  Matching is
exact-case because the keywords really are case-sensitive on the wire:
``pass`` must never match a ``Passwd`` pair.

Two layouts occur in practice.  Firefox tends to leave the whole
``k=v&k=v`` request body as one carved string (inline mode); Chrome leaves
key and value as separate neighbouring strings a few bytes apart (adjacent
mode).  Gmail under Firefox additionally parks the account name in a
``GAUSR=mail:...`` cookie, handled by a dedicated extractor.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Sequence

from .carver import Encoding, ExtractedString
from .corpus import _tsv_rows

DEFAULT_DELTA = 64
DEFAULT_WINDOW = 1024

GAUSR_MARKER = "GAUSR=mail:"

_PRINTABLE = re.compile(r"[ -~]+")

_key_offset = attrgetter("key_offset")


class MatchMode:
    INLINE = "inline"
    ADJACENT = "adjacent"


@dataclass(frozen=True)
class CredentialSignature:
    app_id: str
    username_keys: tuple[str, ...]
    password_keys: tuple[str, ...]
    context_urls: tuple[str, ...]
    # The application stores its values encrypted: keep them verbatim.
    opaque: bool = False
    # Optional special extraction: a literal marker whose trailing text (up
    # to ';' or whitespace) is the account name, e.g. the GAUSR mail cookie.
    username_marker: str | None = None

    def __post_init__(self) -> None:
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if not self.username_keys or not self.password_keys:
            raise ValueError(f"{self.app_id}: key lists must be non-empty")
        # Carved text is printable ASCII, so a token holding anything else
        # could never match; the carver's keyword search relies on it too.
        marker = () if self.username_marker is None else (self.username_marker,)
        for token in (*self.username_keys, *self.password_keys,
                      *self.context_urls, *marker):
            if not _PRINTABLE.fullmatch(token):
                raise ValueError(
                    f"{self.app_id}: {token!r} is not non-empty printable ASCII"
                )

    def is_key(self, text: str) -> bool:
        return text in self.username_keys or text in self.password_keys


@dataclass(frozen=True, slots=True)
class KeyValuePair:
    """One ``key=value`` fragment with absolute byte offsets for both parts."""

    key: str
    value: str
    key_offset: int
    value_offset: int


@dataclass(frozen=True)
class SignatureMatch:
    signature: CredentialSignature
    mode: str
    username_raw: str | None = None
    username_offset: int | None = None
    username_key_offset: int | None = None
    password_raw: str | None = None
    password_offset: int | None = None
    password_key_offset: int | None = None
    # Untruncated text basis for the report snippet (source string for
    # inline, joined key/value strings for adjacent).
    context_text: str = ""

    def __post_init__(self) -> None:
        if self.username_raw is None and self.password_raw is None:
            raise ValueError("a match must carry a username or a password")

    @property
    def anchor_offset(self) -> int:
        """Offset the finding is pinned to: the password key when a password
        matched, else the username key."""
        if self.password_raw is not None and self.password_key_offset is not None:
            return self.password_key_offset
        assert self.username_key_offset is not None
        return self.username_key_offset


def builtin_catalog() -> list[CredentialSignature]:
    """The six applications this tool ships detection for, in stable order."""
    return [
        CredentialSignature(
            app_id="sonicwall",
            username_keys=("uName",),
            password_keys=("pass",),
            context_urls=("userLogin.html", "auth1.html"),
        ),
        CredentialSignature(
            app_id="facebook",
            username_keys=("email",),
            password_keys=("pass",),
            context_urls=("facebook.com/login.php",),
        ),
        CredentialSignature(
            app_id="gmail-ff",
            username_keys=("GAUSR",),
            password_keys=("Passwd",),
            context_urls=("accounts.google",),
            username_marker=GAUSR_MARKER,
        ),
        CredentialSignature(
            app_id="gmail-gc",
            username_keys=("Email",),
            password_keys=("Passwd",),
            context_urls=("accounts.google",),
        ),
        CredentialSignature(
            app_id="irctc",
            username_keys=("userName",),
            password_keys=("password",),
            context_urls=("irctc.co.in",),
        ),
        CredentialSignature(
            app_id="sbi",
            username_keys=("userName",),
            password_keys=("password",),
            context_urls=("onlinesbi.com",),
            opaque=True,
        ),
    ]


# The catalog's fifth column: plaintext and percent-encoded values are
# decoded alike, opaque ones are kept verbatim.
_OPAQUE = {"plaintext": False, "percent-encoded": False, "opaque": True}


def _signature(parts: list[str]) -> CredentialSignature:
    app_id, ukeys, pkeys, urls, enc = parts
    if enc not in _OPAQUE:
        raise ValueError(f"unknown value encoding {enc!r}")
    split = lambda cell: tuple(x for x in cell.split(",") if x)
    return CredentialSignature(
        app_id=app_id,
        username_keys=split(ukeys),
        password_keys=split(pkeys),
        context_urls=split(urls),
        opaque=_OPAQUE[enc],
    )


def load_catalog_file(source: str | Path | IO[str]) -> list[CredentialSignature]:
    """Parse user signatures from TSV: app_id, username_keys, password_keys,
    context_urls (comma-separated lists), value_encoding (``plaintext`` and
    ``percent-encoded`` alike, or ``opaque``)."""
    return list(_tsv_rows(source, 5, _signature))


def merge_catalogs(
    base: Sequence[CredentialSignature], extra: Sequence[CredentialSignature]
) -> list[CredentialSignature]:
    """Overlay extra signatures on base; matching app_ids are replaced in
    place, new ones append in their given order."""
    merged = list(base)
    index = {sig.app_id: i for i, sig in enumerate(merged)}
    for sig in extra:
        if sig.app_id in index:
            merged[index[sig.app_id]] = sig
        else:
            index[sig.app_id] = len(merged)
            merged.append(sig)
    return merged


def parse_form_pairs(string: ExtractedString) -> list[KeyValuePair]:
    """Split a carved string as a form body: fragments on ``&``, then key
    from value at the first ``=``.  Fragments without ``=`` are dropped.
    So that a request line (``GET /p?k=v&k2=v2 HTTP/1.1``) reads as its
    query, a key starts after the last ``?`` before its ``=`` and a value
    ends at its first space; a URL-encoded body holds neither.  Offsets are
    absolute byte positions (UTF-16LE characters count double).
    """
    unit = 2 if string.encoding is Encoding.UTF16LE else 1
    pairs: list[KeyValuePair] = []
    pos = 0
    text = string.text
    for fragment in text.split("&"):
        eq = fragment.find("=")
        if eq >= 0:
            start = fragment.rfind("?", 0, eq) + 1
            pairs.append(
                KeyValuePair(
                    key=fragment[start:eq],
                    value=fragment[eq + 1 :].partition(" ")[0],
                    key_offset=string.offset + unit * (pos + start),
                    value_offset=string.offset + unit * (pos + eq + 1),
                )
            )
        pos += len(fragment) + 1
    return pairs


def _first_pair(
    pairs: Iterable[KeyValuePair], keys: tuple[str, ...]
) -> KeyValuePair | None:
    for p in pairs:
        if p.key in keys and p.value:
            return p
    return None


def match_inline(
    string: ExtractedString,
    sig: CredentialSignature,
    *,
    pairs: list[KeyValuePair] | None = None,
) -> SignatureMatch | None:
    """Match a signature against one carved string treated as a form body.

    Returns a match when a username or password key appears among the pairs
    with a non-empty value; a username alone is enough (passwords decay
    from memory faster than usernames do).
    """
    if pairs is None:
        pairs = parse_form_pairs(string)
    if not pairs:
        return None
    upair = _first_pair(pairs, sig.username_keys)
    ppair = _first_pair(pairs, sig.password_keys)
    if upair is None and ppair is None:
        return None
    return SignatureMatch(
        signature=sig,
        mode=MatchMode.INLINE,
        username_raw=upair.value if upair else None,
        username_offset=upair.value_offset if upair else None,
        username_key_offset=upair.key_offset if upair else None,
        password_raw=ppair.value if ppair else None,
        password_offset=ppair.value_offset if ppair else None,
        password_key_offset=ppair.key_offset if ppair else None,
        context_text=string.text,
    )


@dataclass(slots=True)
class AdjacentBinding:
    """A key string bound to the value string that follows it."""

    sig: CredentialSignature
    kind: str  # "username" | "password"
    key_text: str
    key_offset: int
    value: str
    value_offset: int


class AdjacentBinder:
    """Incremental key/value pairing over a stream of carved strings.

    Feed strings in offset order.  A value is the string right after its
    key, so only the last string pushed is kept: it is the key whenever a
    binding can form.  Each push binds the new string to it, once for each
    (signature, kind) its text is a key of, when the new string starts
    within ``delta`` bytes of the key's end and is not itself a key of
    that signature.
    """

    def __init__(
        self, catalog: Sequence[CredentialSignature], delta: int = DEFAULT_DELTA
    ):
        self.delta = delta
        self._keys: dict[str, list[tuple[CredentialSignature, str]]] = {}
        for sig in catalog:
            for k in sig.username_keys:
                self._keys.setdefault(k, []).append((sig, "username"))
            for k in sig.password_keys:
                self._keys.setdefault(k, []).append((sig, "password"))
        self._last: ExtractedString | None = None

    def push(self, string: ExtractedString) -> list[AdjacentBinding]:
        key, self._last = self._last, string
        if key is None or string.offset > key.offset + key.byte_length + self.delta:
            return []
        return [
            AdjacentBinding(
                sig=sig,
                kind=kind,
                key_text=key.text,
                key_offset=key.offset,
                value=string.text,
                value_offset=string.offset,
            )
            for sig, kind in self._keys.get(key.text, ())
            if not sig.is_key(string.text)
        ]


def combine_bindings(
    bindings: Iterable[AdjacentBinding],
    sig: CredentialSignature,
    window: int = DEFAULT_WINDOW,
) -> list[SignatureMatch]:
    """Fuse username and password bindings of one signature into matches.

    Each password, in key offset order, takes the nearest untaken username
    within the context window (the lower offset on a tie); usernames left
    over surface as username-only matches, passwords as password-only.
    Everything is reported, nothing silently dropped.
    """
    mine = sorted(
        (b for b in bindings if b.sig.app_id == sig.app_id), key=_key_offset
    )
    # One sweep over the passwords.  The free usernames below the current
    # password form a stack with the nearest on top, those at or above it
    # a queue with the nearest first, so each password weighs two.  Two
    # usernames of one signature at one key offset come from one key
    # string and are alike, so which of them is taken does not matter.
    below: list[AdjacentBinding] = []
    above = deque(b for b in mine if b.kind == "username")
    matches: list[SignatureMatch] = []
    for pw in (b for b in mine if b.kind == "password"):
        at = pw.key_offset
        while above and above[0].key_offset < at:
            below.append(above.popleft())
        low = at - below[-1].key_offset if below else window + 1
        high = above[0].key_offset - at if above else window + 1
        best: AdjacentBinding | None = None
        if low <= min(high, window):
            best = below.pop()
        elif high <= window:
            best = above.popleft()
        parts = sorted(([best] if best else []) + [pw], key=_key_offset)
        text = " ".join(x for b in parts for x in (b.key_text, b.value))
        matches.append(
            SignatureMatch(
                signature=sig,
                mode=MatchMode.ADJACENT,
                username_raw=best.value if best else None,
                username_offset=best.value_offset if best else None,
                username_key_offset=best.key_offset if best else None,
                password_raw=pw.value,
                password_offset=pw.value_offset,
                password_key_offset=pw.key_offset,
                context_text=text,
            )
        )
    for u in [*below, *above]:
        matches.append(
            SignatureMatch(
                signature=sig,
                mode=MatchMode.ADJACENT,
                username_raw=u.value,
                username_offset=u.value_offset,
                username_key_offset=u.key_offset,
                context_text=f"{u.key_text} {u.value}",
            )
        )
    matches.sort(key=lambda m: m.anchor_offset)
    return matches


def extract_cookie_username(text: str, marker: str = GAUSR_MARKER) -> str | None:
    """Pull the account name out of a session cookie string.

    The name runs from just past the marker to the first ``;``, whitespace
    or end of string.  Returns None when the marker is absent or the name
    would be empty.
    """
    at = text.find(marker)
    if at == -1:
        return None
    start = at + len(marker)
    end = len(text)
    for i in range(start, len(text)):
        if text[i] == ";" or text[i].isspace():
            end = i
            break
    return text[start:end] or None


def cookie_username_offset(
    string: ExtractedString, marker: str = GAUSR_MARKER
) -> int | None:
    """Absolute offset of the marker within a carved string, or None."""
    at = string.text.find(marker)
    if at == -1:
        return None
    unit = 2 if string.encoding is Encoding.UTF16LE else 1
    return string.offset + unit * at


__all__ = [
    "AdjacentBinder",
    "AdjacentBinding",
    "CredentialSignature",
    "DEFAULT_DELTA",
    "DEFAULT_WINDOW",
    "GAUSR_MARKER",
    "KeyValuePair",
    "MatchMode",
    "SignatureMatch",
    "builtin_catalog",
    "combine_bindings",
    "cookie_username_offset",
    "extract_cookie_username",
    "load_catalog_file",
    "match_inline",
    "merge_catalogs",
    "parse_form_pairs",
]
