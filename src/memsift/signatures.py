"""Application credential signatures and the two matching modes.

A signature names the exact form-field keywords an application uses for its
login, the URL fragments that identify its login context, and what shape
its stored values take.  Matching is exact-case by default because the
keywords really are case-sensitive on the wire: ``pass`` must never match a
``Passwd`` pair.

Two layouts occur in practice.  Firefox tends to leave the whole
``k=v&k=v`` request body as one carved string (inline mode); Chrome leaves
key and value as separate neighbouring strings a few bytes apart (adjacent
mode).  Gmail under Firefox additionally parks the account name in a
``GAUSR=mail:...`` cookie, handled by a dedicated extractor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .carver import Encoding, ExtractedString
from .corpus import _tsv_rows
from .decoding import ValueEncoding
from .errors import CatalogError

DEFAULT_DELTA = 64
DEFAULT_WINDOW = 1024

GAUSR_MARKER = "GAUSR=mail:"


class MatchMode:
    INLINE = "inline"
    ADJACENT = "adjacent"


@dataclass(frozen=True)
class CredentialSignature:
    app_id: str
    display_name: str
    username_keys: tuple[str, ...]
    password_keys: tuple[str, ...]
    context_urls: tuple[str, ...]
    value_encoding: ValueEncoding = ValueEncoding.PLAINTEXT
    # Optional special extraction: a literal marker whose trailing text (up
    # to ';' or whitespace) is the account name, e.g. the GAUSR mail cookie.
    username_marker: str | None = None

    def __post_init__(self) -> None:
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if not self.username_keys or not self.password_keys:
            raise ValueError(f"{self.app_id}: key lists must be non-empty")

    def is_key(self, text: str, case_sensitive: bool = True) -> bool:
        keys = self.username_keys + self.password_keys
        if case_sensitive:
            return text in keys
        return text.lower() in tuple(k.lower() for k in keys)


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
            display_name="Sonicwall",
            username_keys=("uName",),
            password_keys=("pass",),
            context_urls=("userLogin.html", "auth1.html"),
            value_encoding=ValueEncoding.PERCENT,
        ),
        CredentialSignature(
            app_id="facebook",
            display_name="Facebook",
            username_keys=("email",),
            password_keys=("pass",),
            context_urls=("facebook.com/login.php",),
            value_encoding=ValueEncoding.PERCENT,
        ),
        CredentialSignature(
            app_id="gmail-ff",
            display_name="Gmail (Firefox)",
            username_keys=("GAUSR",),
            password_keys=("Passwd",),
            context_urls=("accounts.google",),
            value_encoding=ValueEncoding.PERCENT,
            username_marker=GAUSR_MARKER,
        ),
        CredentialSignature(
            app_id="gmail-gc",
            display_name="Gmail (Chrome)",
            username_keys=("Email",),
            password_keys=("Passwd",),
            context_urls=("accounts.google",),
        ),
        CredentialSignature(
            app_id="irctc",
            display_name="IRCTC",
            username_keys=("userName",),
            password_keys=("password",),
            context_urls=("irctc.co.in",),
        ),
        CredentialSignature(
            app_id="sbi",
            display_name="SBI",
            username_keys=("userName",),
            password_keys=("password",),
            context_urls=("onlinesbi.com",),
            value_encoding=ValueEncoding.OPAQUE,
        ),
    ]


def load_catalog_file(source: str | Path | IO[str]) -> list[CredentialSignature]:
    """Parse user signatures from TSV: app_id, username_keys, password_keys,
    context_urls (comma-separated lists), value_encoding."""
    sigs: list[CredentialSignature] = []
    for lineno, line, parts in _tsv_rows(source, 5, CatalogError):
        app_id, ukeys, pkeys, urls, enc = parts
        try:
            encoding = ValueEncoding(enc)
        except ValueError:
            raise CatalogError(lineno, line, f"unknown value encoding {enc!r}") from None
        split = lambda cell: tuple(x for x in cell.split(",") if x)
        try:
            sigs.append(
                CredentialSignature(
                    app_id=app_id,
                    display_name=app_id,
                    username_keys=split(ukeys),
                    password_keys=split(pkeys),
                    context_urls=split(urls),
                    value_encoding=encoding,
                )
            )
        except ValueError as exc:
            raise CatalogError(lineno, line, str(exc)) from None
    return sigs


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
    Offsets are absolute byte positions (UTF-16LE characters count double).
    """
    unit = 2 if string.encoding is Encoding.UTF16LE else 1
    pairs: list[KeyValuePair] = []
    pos = 0
    text = string.text
    for fragment in text.split("&"):
        eq = fragment.find("=")
        if eq >= 0:
            key = fragment[:eq]
            value = fragment[eq + 1 :]
            pairs.append(
                KeyValuePair(
                    key=key,
                    value=value,
                    key_offset=string.offset + unit * pos,
                    value_offset=string.offset + unit * (pos + eq + 1),
                )
            )
        pos += len(fragment) + 1
    return pairs


def _first_pair(
    pairs: Iterable[KeyValuePair], keys: tuple[str, ...], case_sensitive: bool
) -> KeyValuePair | None:
    if case_sensitive:
        wanted = set(keys)
        for p in pairs:
            if p.key in wanted and p.value:
                return p
    else:
        wanted = {k.lower() for k in keys}
        for p in pairs:
            if p.key.lower() in wanted and p.value:
                return p
    return None


def match_inline(
    string: ExtractedString,
    sig: CredentialSignature,
    *,
    case_sensitive: bool = True,
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
    upair = _first_pair(pairs, sig.username_keys, case_sensitive)
    ppair = _first_pair(pairs, sig.password_keys, case_sensitive)
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
    consumed: bool = False


class AdjacentBinder:
    """Incremental key/value pairing over a stream of carved strings.

    Feed strings in offset order; every string first settles any key seen
    immediately before it (bound if it starts within ``delta`` bytes of the
    key's end and is not itself a key of the same signature), then may
    register as a pending key itself.
    """

    def __init__(
        self,
        catalog: Sequence[CredentialSignature],
        delta: int = DEFAULT_DELTA,
        case_sensitive: bool = True,
    ):
        self.delta = delta
        self.case_sensitive = case_sensitive
        self._keys: dict[str, list[tuple[CredentialSignature, str]]] = {}
        for sig in catalog:
            for k in sig.username_keys:
                self._keys.setdefault(self._fold(k), []).append((sig, "username"))
            for k in sig.password_keys:
                self._keys.setdefault(self._fold(k), []).append((sig, "password"))
        # (sig, kind, key text, key offset, key end) of the last key string
        self._pending: list[tuple[CredentialSignature, str, str, int, int]] = []

    def _fold(self, text: str) -> str:
        return text if self.case_sensitive else text.lower()

    def push(self, string: ExtractedString) -> list[AdjacentBinding]:
        out: list[AdjacentBinding] = []
        for sig, kind, text, offset, end in self._pending:
            if string.offset <= end + self.delta and not sig.is_key(
                string.text, self.case_sensitive
            ):
                out.append(
                    AdjacentBinding(
                        sig=sig,
                        kind=kind,
                        key_text=text,
                        key_offset=offset,
                        value=string.text,
                        value_offset=string.offset,
                    )
                )
        self._pending.clear()
        hits = self._keys.get(self._fold(string.text))
        if hits:
            end = string.offset + string.byte_length
            for sig, kind in hits:
                self._pending.append((sig, kind, string.text, string.offset, end))
        return out


class NearestOffsets:
    """Nearest-offset lookup over ascending offsets, with removal.

    ``nearest`` returns the index of the offset closest to a target within
    ``window``; on equal distance the lower offset wins, and among equal
    offsets the first index.  ``take`` removes an index from later lookups.
    Taken runs are skipped through path-compressed links, one per
    direction, so lookups cost O(log n) amortised however many are taken.
    """

    def __init__(self, offsets: Sequence[int]):
        self.offsets = offsets
        n = len(offsets)
        self._up = list(range(n + 1))  # first free index >= i; n means none
        self._down = list(range(n + 1))  # 1 + last free index < i; 0 means none

    @staticmethod
    def _find(link: list[int], i: int) -> int:
        root = i
        while link[root] != root:
            root = link[root]
        while link[i] != root:
            link[i], i = root, link[i]
        return root

    def take(self, i: int) -> None:
        self._up[i] = i + 1
        self._down[i + 1] = i

    def nearest(self, target: int, window: int) -> int | None:
        offsets = self.offsets
        pos = bisect_left(offsets, target)
        best = self._find(self._up, pos)
        if best == len(offsets) or offsets[best] - target > window:
            best = None
        below = self._find(self._down, pos) - 1
        if below >= 0:
            gap = target - offsets[below]
            if gap <= window and (best is None or gap <= offsets[best] - target):
                # The first free index holding that offset.
                best = self._find(self._up, bisect_left(offsets, offsets[below]))
        return best


def combine_bindings(
    bindings: Iterable[AdjacentBinding],
    sig: CredentialSignature,
    window: int = DEFAULT_WINDOW,
) -> list[SignatureMatch]:
    """Fuse username and password bindings of one signature into matches.

    Each password, in binding order, takes the nearest unconsumed username
    within the context window (the lower offset on a tie); usernames left
    over surface as username-only matches, passwords as password-only.
    Everything is reported, nothing silently dropped.  Bindings must be
    ascending by key offset, as ``AdjacentBinder`` emits them.
    """
    mine = [b for b in bindings if b.sig.app_id == sig.app_id]
    users = [b for b in mine if b.kind == "username"]
    free = NearestOffsets([u.key_offset for u in users])
    for i, u in enumerate(users):
        if u.consumed:
            free.take(i)
    matches: list[SignatureMatch] = []
    for pw in (b for b in mine if b.kind == "password"):
        best: AdjacentBinding | None = None
        i = free.nearest(pw.key_offset, window)
        if i is not None:
            best = users[i]
            best.consumed = True
            free.take(i)
        parts = sorted(
            ([best] if best else []) + [pw], key=lambda b: b.key_offset
        )
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
    for u in users:
        if u.consumed:
            continue
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


def match_adjacent(
    strings: Sequence[ExtractedString],
    sig: CredentialSignature,
    delta: int = DEFAULT_DELTA,
    window: int = DEFAULT_WINDOW,
    *,
    case_sensitive: bool = True,
) -> list[SignatureMatch]:
    """Batch adjacent-mode matching over an in-order string sequence."""
    binder = AdjacentBinder([sig], delta, case_sensitive)
    bindings: list[AdjacentBinding] = []
    for s in strings:
        bindings.extend(binder.push(s))
    return combine_bindings(bindings, sig, window)


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
    "match_adjacent",
    "match_inline",
    "merge_catalogs",
    "parse_form_pairs",
]
