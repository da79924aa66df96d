"""End-to-end credential scan over carved strings.

The scan is keyword-first.  Signature keywords are rare, so only the
strings matching reads are built: the carver finds every key, marker and
context URL in the raw image bytes, in ASCII and UTF-16LE, in one pass per
buffer, and builds only the strings that hold one, plus the string right
after each key when it lies within the adjacency gap.  Printable text that
holds no catalog literal is searched but never carved.  The scan loads no
numpy.

Matching reads each carved string once, in offset order.  A form body is
matched for the signatures that own its keys, and each key string binds
the value after it for the same owners, both through one table from key to
signatures.  The same pass notes each GAUSR cookie and, per set of context
URLs, the offset of each string that holds one of them.  After the pass the
scan holds its candidates, each a ``SignatureMatch`` (a binding and a cookie
are one-sided matches until they are paired), and URL-string offsets; every
other string is dropped as soon as the next one is read.

Where two applications share keywords (IRCTC and SBI both post
``userName`` and ``password``), the login-page URL seen nearby is what
tells them apart, so dominated duplicates are dropped: a candidate loses
only to one that matched at least as much (username, context confirmation)
and strictly more of it.  Candidates that tie stay side by side; ambiguity
is evidence.

Matching costs O(n log n) in the n carved strings, however crowded the
image is.  Each form body is parsed once, adjacent usernames are paired by
one sweep over the offset-sorted bindings, and one bisection rule, the
nearest offset within the window (the lower on a tie), decides both context
confirmation and cookie naming.  A catalog's app ids are unique.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .carver import (
    DEFAULT_CAP,
    DEFAULT_MIN_LEN,
    MAX_CHUNK_SIZE,
    ExtractedString,
    _check_int,
    carve_strings,
)
from .corpus import DEFAULT_CHUNK_SIZE, ImageManifest, MemoryImage, open_image
from .decoding import classify_value
from .errors import InvalidOptionError, UnknownLabelError, checked
from .procmap import Attribution, ProcessMap, ProcessMapEntry
from .signatures import (
    DEFAULT_DELTA,
    DEFAULT_WINDOW,
    AdjacentBinder,
    CredentialSignature,
    MatchMode,
    SignatureMatch,
    builtin_catalog,
    combine_bindings,
    cookie_username,
    key_owners,
    match_inline,
)

HIGH = "HIGH"
LOW = "LOW"

# Table-style column layout: one column per application/browser pairing that
# can actually produce findings (the Firefox Gmail signature is
# Firefox-specific, its Chrome sibling Chrome-specific).
MF = "MF"
GC = "GC"
STANDARD_COLUMNS: tuple[tuple[str, str], ...] = (
    ("sonicwall", MF),
    ("sonicwall", GC),
    ("facebook", MF),
    ("facebook", GC),
    ("gmail-ff", MF),
    ("gmail-gc", GC),
    ("irctc", MF),
    ("irctc", GC),
    ("sbi", MF),
    ("sbi", GC),
)

_ALL_TAGS = frozenset(tag for _, tag in STANDARD_COLUMNS)

# Which OS process implies which browser column.
BROWSER_PROCESSES: Mapping[str, str] = {"firefox.exe": MF, "chrome.exe": GC}


def browser_tag(name: str | None) -> str | None:
    """Normalise a free-text browser name to a column tag, if recognised."""
    if not name:
        return None
    folded = name.strip().lower()
    if folded == "mf" or "firefox" in folded:
        return MF
    if folded == "gc" or "chrome" in folded:
        return GC
    return None

_SNIPPET_LIMIT = 256


@checked
class ScanOptions(NamedTuple):
    """The scan always matches exact-case keys, in both encodings, on
    strings carved at ``DEFAULT_CAP``."""

    min_len: int = DEFAULT_MIN_LEN
    delta: int = DEFAULT_DELTA
    window: int = DEFAULT_WINDOW
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def _check(self) -> None:
        # The window, delta and chunk_size ceilings keep offset arithmetic
        # within int64.
        for name, floor, ceiling in (
            ("window", 0, 1 << 32), ("delta", 0, 1 << 32),
            ("min_len", 1, DEFAULT_CAP), ("chunk_size", 1, MAX_CHUNK_SIZE),
        ):
            value = getattr(self, name)
            _check_int(name, value)
            if value < floor:
                raise InvalidOptionError(f"{name} must be at least {floor}")
            if value > ceiling:
                raise InvalidOptionError(f"{name} must be at most {ceiling}")


@checked
class CredentialFinding(NamedTuple):
    """One credential sighting.  Never deduplicated: each copy of the same
    password at a different offset is its own row of evidence."""

    app_id: str
    image_label: str
    username: str | None
    password_raw: str | None
    password_decoded: str | None
    match_mode: str
    offset: int
    confidence: str
    context_snippet: str
    attributions: tuple[Attribution, ...] = ()
    # Value offsets let findings be re-verified against the raw image.
    username_offset: int | None = None
    password_offset: int | None = None

    def _check(self) -> None:
        if self.username is None and self.password_raw is None:
            raise ValueError("finding must carry a username or a password")

    @property
    def encrypted(self) -> bool:
        """Suspected encrypted: a password was found but kept undecoded."""
        return self.password_raw is not None and self.password_decoded is None


def _nearest(offsets: Sequence[int], at: int, window: int) -> int | None:
    """By one bisection, the index of the offset in ascending ``offsets``
    nearest ``at``, the lower on a tie, if within ``window`` of it; else None."""
    i = bisect_left(offsets, at)
    if i == len(offsets) or (i and at - offsets[i - 1] <= offsets[i] - at):
        i -= 1
    return i if i >= 0 and abs(offsets[i] - at) <= window else None


def assign_confidence(
    anchor: int, offsets: Sequence[int], window: int = DEFAULT_WINDOW
) -> str:
    """HIGH iff one of ``offsets``, the ascending offsets of the strings
    that hold a context URL of the signature, lies within ``window``."""
    return LOW if _nearest(offsets, anchor, window) is None else HIGH


def _match_region(
    strings: Iterable[ExtractedString],
    catalog: Sequence[CredentialSignature],
    opts: ScanOptions,
) -> list[tuple[str, SignatureMatch]]:
    """All signature matches among ``strings``, read once in ascending
    offset order, with the dominated shared-keyword duplicates removed, as
    (confidence, match) pairs."""
    owners = key_owners(catalog)
    binder = AdjacentBinder(catalog, opts.delta)
    # Per URL set, the ascending offsets of the strings that hold one of
    # its URLs; a set's URLs are tested in turn until one is found.
    url_offsets: dict[tuple[str, ...], list[int]] = {sig.context_urls: [] for sig in catalog}
    # Per signature with a marker, its cookies as username-only matches.
    cookies: dict[CredentialSignature, list[SignatureMatch]] = {
        sig: [] for sig in catalog if sig.username_marker
    }
    # Inline: each carved string holding ``=`` is a form body.  Adjacent:
    # key and value carved as separate neighbouring strings.
    matches: list[SignatureMatch] = []
    bindings = []
    for s in strings:
        text = s.text
        if "=" in text:
            matches.extend(match_inline(s, owners))
        bindings.extend(binder.push(s))
        for urls, offsets in url_offsets.items():
            for url in urls:
                if url in text:
                    offsets.append(s.offset)
                    break
        for sig, found in cookies.items():
            if (cookie := cookie_username(s, sig.username_marker)) is not None:
                found.append(SignatureMatch(sig, MatchMode.INLINE, cookie, context_text=text))
    for sig in catalog:
        matches.extend(combine_bindings(bindings, sig, opts.window))
        # A password found without a username takes the nearest cookie's
        # name; a cookie nothing claimed stays a username-only match.
        found = cookies.get(sig)
        if not found:
            continue
        offsets = [cookie.anchor_offset for cookie in found]
        claimed: set[int] = set()
        for i, m in enumerate(matches):
            if m.signature.app_id == sig.app_id and m.password is not None and m.username is None:
                j = _nearest(offsets, m.anchor_offset, opts.window)
                if j is not None:
                    claimed.add(j)
                    matches[i] = m._replace(username=found[j].username)
        matches.extend(c for j, c in enumerate(found) if j not in claimed)

    # Shared-keyword arbitration.  Group candidates claiming the very same
    # value bytes; within a group drop anything strictly dominated on
    # (matched a username, context-confirmed).  The URL context is exactly
    # what associates an ambiguous userName/password pair with one site.
    groups: dict[tuple, list[tuple[tuple[bool, bool], str, SignatureMatch]]] = {}
    for m in matches:
        if m.password is not None:
            key = (m.mode, "pw", m.password.value_offset)
        else:
            key = (m.mode, "user", m.username.value_offset)
        conf = assign_confidence(
            m.anchor_offset, url_offsets[m.signature.context_urls], opts.window
        )
        score = (m.username is not None, conf == HIGH)
        groups.setdefault(key, []).append((score, conf, m))
    kept: list[tuple[str, SignatureMatch]] = []
    for members in groups.values():
        for score, conf, m in members:
            dominated = any(
                other[0] != score
                and other[0][0] >= score[0]
                and other[0][1] >= score[1]
                for other in members
            )
            if not dominated:
                kept.append((conf, m))
    return kept


def scan_image(
    image: MemoryImage,
    catalog: Sequence[CredentialSignature] | None = None,
    options: ScanOptions | None = None,
    process_map: Sequence[ProcessMapEntry] | ProcessMap | None = None,
) -> list[CredentialFinding]:
    """Scan one image and return findings sorted by offset.

    Zero findings is a result, not an error: on a timeline, the image taken
    after logout proving the password gone matters as much as the one where
    it was present.
    """
    catalog = list(catalog) if catalog is not None else builtin_catalog()
    if repeated := [a for a, n in Counter(sig.app_id for sig in catalog).items() if n > 1]:
        raise InvalidOptionError(f"catalog repeats app_id {repeated[0]!r}")
    opts = options or ScanOptions()
    pmap = process_map
    if pmap is not None and not isinstance(pmap, ProcessMap):
        pmap = ProcessMap(pmap)

    literals = {
        literal for sig in catalog for literal in (*sig.context_urls, sig.username_marker)
        if literal
    }
    strings = carve_strings(
        image, opts.min_len, chunk_size=opts.chunk_size,
        near=(literals, key_owners(catalog).keys(), opts.delta),
    )
    return _findings(_match_region(strings, catalog, opts), catalog, image.label, pmap)


def _findings(
    matches: Iterable[tuple[str, SignatureMatch]],
    catalog: Sequence[CredentialSignature],
    label: str,
    pmap: ProcessMap | None,
) -> list[CredentialFinding]:
    """The one step from (confidence, match) pairs to findings, sorted by
    anchor offset and then catalog order.  The fabricator builds its
    ground truth through it too."""
    order = {sig.app_id: i for i, sig in enumerate(catalog)}
    ranked = sorted(
        matches, key=lambda t: (t[1].anchor_offset, order[t[1].signature.app_id])
    )
    return [_to_finding(m, conf, label, pmap) for conf, m in ranked]


def _to_finding(
    m: SignatureMatch,
    confidence: str,
    label: str,
    pmap: ProcessMap | None,
) -> CredentialFinding:
    sig, user, pw = m.signature, m.username, m.password
    password_decoded = None
    if pw is not None:
        password_decoded = classify_value(
            pw.value, sig.opaque, plus_as_space=(m.mode == MatchMode.INLINE)
        )
    anchor = m.anchor_offset
    attributions = tuple(pmap.lookup(anchor)) if pmap is not None else ()
    return CredentialFinding(
        app_id=sig.app_id,
        image_label=label,
        username=user.value if user else None,
        password_raw=pw.value if pw else None,
        password_decoded=password_decoded,
        match_mode=m.mode,
        offset=anchor,
        confidence=confidence,
        context_snippet=m.context_text[:_SNIPPET_LIMIT],
        attributions=attributions,
        username_offset=user.value_offset if user else None,
        password_offset=pw.value_offset if pw else None,
    )


def scan_manifest(
    manifest: ImageManifest,
    catalog: Sequence[CredentialSignature] | None = None,
    options: ScanOptions | None = None,
    process_map: Sequence[ProcessMapEntry] | ProcessMap | None = None,
) -> dict[str, list[CredentialFinding]]:
    """Scan every manifest entry; keys follow manifest order."""
    out: dict[str, list[CredentialFinding]] = {}
    for entry in manifest:
        out[entry.label] = scan_image(open_image(entry), catalog, options, process_map)
    return out


def _finding_browsers(f: CredentialFinding, session_browser: str | None) -> frozenset[str]:
    tags = frozenset(
        BROWSER_PROCESSES[name]
        for a in f.attributions
        if (name := a.process_name.lower()) in BROWSER_PROCESSES
    )
    if tags:
        return tags
    if session_browser:
        return frozenset({session_browser})
    return _ALL_TAGS


def build_presence_matrix(
    rows: ImageManifest | Sequence[str],
    findings_by_image: Mapping[str, Sequence[CredentialFinding]],
) -> dict:
    """Reduce findings to the password-presence grid, the object a report
    stores as its ``matrix``: ``rows`` (the image labels), ``columns``
    (``[app, browser]`` pairs, ``STANDARD_COLUMNS``) and ``cells``, each
    row's list of ``"Yes"`` or ``"No"`` per column keyed by its label.

    A cell is Yes iff at least one finding for that application in that
    image still carries the password bytes; encrypted counts, the password
    was present even if unreadable.  Which browser column a finding feeds
    comes from its process attribution when one names a known browser, else
    from the manifest's session metadata, else it counts for every column
    of its application (the conservative reading).
    """
    session_browser = None
    if isinstance(rows, ImageManifest):
        labels = rows.labels()
        if rows.session_meta is not None:
            session_browser = browser_tag(rows.session_meta[0])
    else:
        labels = list(rows)
    cells = {
        label: [
            "Yes" if any(
                f.app_id == app_id
                and f.password_raw is not None
                and tag in _finding_browsers(f, session_browser)
                for f in findings_by_image.get(label, ())
            ) else "No"
            for app_id, tag in STANDARD_COLUMNS
        ]
        for label in labels
    }
    for label in findings_by_image:
        if label not in cells:
            raise UnknownLabelError(f"findings reference unknown image label {label!r}")
    return {"rows": labels, "columns": [list(c) for c in STANDARD_COLUMNS], "cells": cells}
