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
from typing import IO, Iterable, Mapping, Sequence

from .carver import Encoding, ExtractedString
from .corpus import _tsv_rows

DEFAULT_DELTA = 64
DEFAULT_WINDOW = 1024

GAUSR_MARKER = "GAUSR=mail:"

_PRINTABLE = re.compile(r"[ -~]+")
_COOKIE_NAME = re.compile(r"[^;\s]*")

_key_offset = attrgetter("key_offset")
_anchor_offset = attrgetter("anchor_offset")


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
        if not (self.username_keys or self.username_marker) or not self.password_keys:
            raise ValueError(
                f"{self.app_id}: needs a username key or marker, and a password key"
            )
        # Carved text is printable ASCII, so a token holding anything else
        # could never match; the carver's keyword search relies on it too.
        marker = () if self.username_marker is None else (self.username_marker,)
        for token in (*self.username_keys, *self.password_keys,
                      *self.context_urls, *marker):
            if not _PRINTABLE.fullmatch(token):
                raise ValueError(
                    f"{self.app_id}: {token!r} is not non-empty printable ASCII"
                )


@dataclass(frozen=True, slots=True)
class KeyValuePair:
    """A key and its value, with the absolute byte offset of each (a
    UTF-16LE character counts two bytes).

    Every layout yields one: a ``key=value`` fragment of a form body, a key
    string and the value string carved after it, or a cookie marker and
    the account name that follows it.
    """

    key: str
    value: str
    key_offset: int
    value_offset: int


@dataclass(frozen=True, slots=True)
class SignatureMatch:
    """What one signature matched: the pair that gave the username, the
    pair that gave the password, or both, each as it was found.  The raw
    values, their offsets and the anchor all come from the pairs.  It is
    the one candidate record: a form body's match, a key bound to the value
    after it and a GAUSR cookie's name (one-sided until they are paired)."""

    signature: CredentialSignature
    mode: str
    username: KeyValuePair | None = None
    password: KeyValuePair | None = None
    # Untruncated text basis for the report snippet (source string for
    # inline and cookies, joined key/value strings for adjacent).
    context_text: str = ""

    def __post_init__(self) -> None:
        if self.username is None and self.password is None:
            raise ValueError("a match must carry a username or a password")

    @property
    def anchor_offset(self) -> int:
        """Offset the finding is pinned to: the password key when a password
        matched, else the username key."""
        return (self.password or self.username).key_offset


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
        # Its account name comes from the GAUSR cookie alone: no login form
        # posts a username key.
        CredentialSignature(
            app_id="gmail-ff",
            username_keys=(),
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


def key_owners(
    catalog: Sequence[CredentialSignature],
) -> dict[str, list[tuple[CredentialSignature, str]]]:
    """Each form key of the catalog mapped to its listings, the (signature,
    kind) pairs that own it, kind ``"username"`` or ``"password"``: in
    catalog order, with a signature's username keys first.  This table
    alone says which signatures own a key; a shared key lists every owner
    (IRCTC and SBI both post ``userName`` and ``password``)."""
    owners: dict[str, list[tuple[CredentialSignature, str]]] = {}
    for sig in catalog:
        for kind, keys in (("username", sig.username_keys), ("password", sig.password_keys)):
            for key in keys:
                owners.setdefault(key, []).append((sig, kind))
    return owners


def match_inline(
    string: ExtractedString, owners: Mapping[str, Sequence[tuple[CredentialSignature, str]]]
) -> list[SignatureMatch]:
    """Match one carved string, parsed once as a form body, for each
    signature that owns one of its keys; ``owners`` is ``key_owners(catalog)``.

    A signature takes its first username pair and its first password pair
    with a non-empty value; a username alone is enough (passwords decay
    from memory faster than usernames do).  Matches come in the order of
    each signature's first such pair, not in catalog order.
    """
    found: dict[CredentialSignature, dict[str, KeyValuePair]] = {}
    for pair in parse_form_pairs(string):
        if pair.value:
            for sig, kind in owners.get(pair.key, ()):
                found.setdefault(sig, {}).setdefault(kind, pair)
    return [
        SignatureMatch(
            sig, MatchMode.INLINE, got.get("username"), got.get("password"), string.text
        )
        for sig, got in found.items()
    ]


class AdjacentBinder:
    """Incremental key/value pairing over a stream of carved strings.

    Feed strings in offset order.  A value is the string right after its
    key, so only the last string pushed is kept: it is the key whenever a
    binding can form.  Each push binds the new string to it, once for each
    of the key's listings in ``key_owners(catalog)``, when the new string
    starts within ``delta`` bytes of the key's end and is not itself a key
    of that listing's signature.  A binding is a one-sided adjacent match:
    its pair is the username or the password, as the listing's kind says,
    and its context text is ``"key value"``.
    """

    def __init__(
        self, catalog: Sequence[CredentialSignature], delta: int = DEFAULT_DELTA
    ):
        self.delta = delta
        self._owners = key_owners(catalog)
        self._last: ExtractedString | None = None

    def push(self, string: ExtractedString) -> list[SignatureMatch]:
        key, self._last = self._last, string
        if key is None or string.offset > key.offset + key.byte_length + self.delta:
            return []
        listings = self._owners.get(key.text)
        if listings is None:
            return []
        taken = {sig for sig, _ in self._owners.get(string.text, ())}
        pair = KeyValuePair(key.text, string.text, key.offset, string.offset)
        text = f"{key.text} {string.text}"
        return [
            SignatureMatch(sig, MatchMode.ADJACENT, pair, None, text)
            if kind == "username"
            else SignatureMatch(sig, MatchMode.ADJACENT, None, pair, text)
            for sig, kind in listings
            if sig not in taken
        ]


def combine_bindings(
    bindings: Iterable[SignatureMatch],
    sig: CredentialSignature,
    window: int = DEFAULT_WINDOW,
) -> list[SignatureMatch]:
    """Pair this signature's one-sided bindings, as ``AdjacentBinder.push``
    returns them, into matches.

    Each password, in key offset order, takes the nearest untaken username
    within the context window (the lower offset on a tie) into a new match;
    a password with no username in reach and the usernames left over are
    returned as they came.  Everything is reported, nothing silently
    dropped.
    """
    mine = sorted(
        (b for b in bindings if b.signature.app_id == sig.app_id), key=_anchor_offset
    )
    # One sweep over the passwords.  The free usernames below the current
    # password form a stack with the nearest on top, those at or above it a
    # queue with the nearest first, so each password weighs two.  Two
    # usernames of one signature at one key offset come from one key string
    # and are alike, so which of them is taken does not matter.
    below: list[SignatureMatch] = []
    above = deque(b for b in mine if b.password is None)
    matches: list[SignatureMatch] = []
    for b in mine:
        if (pw := b.password) is None:
            continue
        at = pw.key_offset
        while above and above[0].anchor_offset < at:
            below.append(above.popleft())
        low = at - below[-1].anchor_offset if below else window + 1
        high = above[0].anchor_offset - at if above else window + 1
        if low <= min(high, window):
            user = below.pop().username
        elif high <= window:
            user = above.popleft().username
        else:
            matches.append(b)
            continue
        parts = sorted((user, pw), key=_key_offset)
        text = " ".join(x for p in parts for x in (p.key, p.value))
        matches.append(SignatureMatch(sig, MatchMode.ADJACENT, user, pw, text))
    matches += [*below, *above]
    matches.sort(key=_anchor_offset)
    return matches


def cookie_username(
    string: ExtractedString, marker: str = GAUSR_MARKER
) -> KeyValuePair | None:
    """The account name in a session cookie string, as a pair whose key is
    the marker and whose value is the name, each at its absolute offset (a
    UTF-16LE character counts two bytes).

    The name runs from just past the marker to the first ``;``, whitespace
    or end of string.  Returns None when the marker is absent or the name
    would be empty.
    """
    text = string.text
    at = text.find(marker)
    if at == -1:
        return None
    start = at + len(marker)
    name = _COOKIE_NAME.match(text, start).group()
    if not name:
        return None
    unit = 2 if string.encoding is Encoding.UTF16LE else 1
    return KeyValuePair(
        marker, name, string.offset + unit * at, string.offset + unit * start
    )


__all__ = [
    "AdjacentBinder",
    "CredentialSignature",
    "DEFAULT_DELTA",
    "DEFAULT_WINDOW",
    "GAUSR_MARKER",
    "KeyValuePair",
    "MatchMode",
    "SignatureMatch",
    "builtin_catalog",
    "combine_bindings",
    "cookie_username",
    "key_owners",
    "load_catalog_file",
    "match_inline",
    "merge_catalogs",
    "parse_form_pairs",
]
