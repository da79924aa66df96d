"""End-to-end credential scan over carved strings.

The scan is keyword-first.  Signature keywords are rare, so only the
strings matching reads are built: the carver finds every key, marker and
context URL in the raw image bytes, in ASCII and UTF-16LE, in one pass per
buffer, and builds only the strings that hold one, plus the string right
after each key when it lies within the adjacency gap.  Every matching
decision is local, so those strings are split into batches wherever more
than ``reach`` bytes separate them, and each batch is matched as a unit as
soon as it ends.  Peak memory follows the largest batch rather than the
image size, and printable text that holds no catalog literal is searched
but never carved.  The scan loads no numpy.

Within a batch every signature is tried in both modes.  Where two
applications share keywords (IRCTC and SBI both post ``userName`` and
``password``), the login-page URL seen nearby is what tells them apart, so
dominated duplicates are dropped: a candidate loses only to one that
matched at least as much (username, context confirmation) and strictly
more of it.  Candidates that tie stay side by side; ambiguity is evidence.

Matching a batch costs O(n log n) in its n strings, however crowded it
is.  Adjacent usernames are paired with passwords by one sweep over the
offset-sorted bindings, and context URLs and GAUSR cookies are found by
bisection in offset-sorted lists built once per batch, never by
rescanning the batch per candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

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
from .errors import InvalidOptionError, UnknownLabelError
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
    match_inline,
    parse_form_pairs,
)

HIGH = "HIGH"
LOW = "LOW"

_offset = attrgetter("offset")

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


@dataclass(frozen=True)
class ScanOptions:
    """The scan always matches exact-case keys, in both encodings, on
    strings carved at ``DEFAULT_CAP``."""

    min_len: int = DEFAULT_MIN_LEN
    delta: int = DEFAULT_DELTA
    window: int = DEFAULT_WINDOW
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
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

    @property
    def reach(self) -> int:
        """The gap that splits the scan into batches: context window plus
        adjacency gap plus 256, more than the longest interaction,
        ``max(window, delta)``."""
        return self.window + self.delta + 256


@dataclass(frozen=True)
class CredentialFinding:
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

    def __post_init__(self) -> None:
        if self.username is None and self.password_raw is None:
            raise ValueError("finding must carry a username or a password")

    @property
    def encrypted(self) -> bool:
        """Suspected encrypted: a password was found but kept undecoded."""
        return self.password_raw is not None and self.password_decoded is None


def assign_confidence(
    anchor: int,
    context: Sequence[ExtractedString],
    sig: CredentialSignature,
    window: int = DEFAULT_WINDOW,
) -> str:
    """HIGH iff one of the signature's context URLs occurs in a carved
    string whose offset lies within [anchor-window, anchor+window].

    ``context`` must be ascending by offset, as carved strings arrive.  The
    first string inside the window is found by bisection, so when
    ``context`` holds only strings that carry one of the URLs a call costs
    O(log n).
    """
    lo, hi = anchor - window, anchor + window
    for i in range(bisect_left(context, lo, key=_offset), len(context)):
        s = context[i]
        if s.offset > hi:
            break
        if any(u in s.text for u in sig.context_urls):
            return HIGH
    return LOW


def _attach_cookie_usernames(
    matches: list[SignatureMatch],
    strings: Sequence[ExtractedString],
    sig: CredentialSignature,
    window: int,
) -> None:
    """Bind marker-style usernames (the GAUSR cookie) to this signature's
    password matches; a cookie nothing claimed becomes username evidence of
    its own."""
    # (marker/name pair, cookie string text)
    cookies = [
        (cookie, s.text)
        for s in strings
        if (cookie := cookie_username(s, sig.username_marker)) is not None
    ]
    if not cookies:
        return
    # Cookie offsets ascend with their strings' offsets and are distinct,
    # one per carved string, so the nearest cookie sits on either side of
    # the bisection point.
    offsets = [cookie.key_offset for cookie, _ in cookies]
    claimed: set[int] = set()
    for i, m in enumerate(matches):
        if (
            m.signature.app_id != sig.app_id
            or m.password is None
            or m.username is not None
        ):
            continue
        at = m.anchor_offset
        j = bisect_left(offsets, at)
        if j == len(offsets) or (j and at - offsets[j - 1] <= offsets[j] - at):
            j -= 1  # the lower cookie wins a tie
        if abs(offsets[j] - at) <= window:
            claimed.add(j)
            matches[i] = replace(m, username=cookies[j][0])
    for j, (cookie, text) in enumerate(cookies):
        if j not in claimed:
            matches.append(SignatureMatch(sig, MatchMode.INLINE, cookie, context_text=text))


def _match_region(
    strings: Sequence[ExtractedString],
    catalog: Sequence[CredentialSignature],
    opts: ScanOptions,
) -> list[tuple[str, SignatureMatch]]:
    """All signature matches among ``strings``, with the dominated
    shared-keyword duplicates removed, as (confidence, match) pairs."""
    matches: list[SignatureMatch] = []
    # Per URL set, the strings that carry one of its URLs, built on first
    # use; ascending by offset because ``strings`` is.
    url_strings: dict[tuple[str, ...], list[ExtractedString]] = {}

    # Inline: each carved string treated as a form body.
    for s in strings:
        if "=" not in s.text:
            continue
        pairs = parse_form_pairs(s)
        for sig in catalog:
            m = match_inline(s, sig, pairs=pairs)
            if m is not None:
                matches.append(m)

    # Adjacent: key and value carved as separate neighbouring strings.
    binder = AdjacentBinder(catalog, opts.delta)
    bindings = []
    for s in strings:
        bindings.extend(binder.push(s))
    for sig in catalog:
        matches.extend(combine_bindings(bindings, sig, opts.window))

    for sig in catalog:
        if sig.username_marker:
            _attach_cookie_usernames(matches, strings, sig, opts.window)

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
        urls = m.signature.context_urls
        if urls not in url_strings:
            url_strings[urls] = [
                s for s in strings if any(u in s.text for u in urls)
            ]
        conf = assign_confidence(
            m.anchor_offset, url_strings[urls], m.signature, opts.window
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


def _batches(
    strings: Iterable[ExtractedString], gap: int
) -> Iterator[list[ExtractedString]]:
    """Split strings, ascending by offset, into batches: a batch ends where
    the next string starts more than ``gap`` bytes past the furthest end
    seen in it.

    Every interaction joins two strings at most ``max(window, delta)``
    bytes apart, which is less than ``reach``: a key and its value, a
    password key and a username key, a GAUSR cookie and an anchor, a
    context URL and an anchor, and arbitration, which compares only
    candidates on the same value bytes.  So none crosses a gap of
    ``reach``, and matching batch by batch finds what matching every
    string at once would.
    """
    batch: list[ExtractedString] = []
    end = 0
    for s in strings:
        if batch and s.offset - end > gap:
            yield batch
            batch = []
        batch.append(s)
        end = max(end, s.offset + s.byte_length)
    if batch:
        yield batch


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
    opts = options or ScanOptions()
    pmap = process_map
    if pmap is not None and not isinstance(pmap, ProcessMap):
        pmap = ProcessMap(pmap)

    keys = {key for sig in catalog for key in (*sig.username_keys, *sig.password_keys)}
    literals = {
        literal for sig in catalog for literal in (*sig.context_urls, sig.username_marker)
        if literal
    }
    strings = carve_strings(
        image, opts.min_len, chunk_size=opts.chunk_size, near=(literals, keys, opts.delta)
    )
    matches = [
        match
        for batch in _batches(strings, opts.reach)
        for match in _match_region(batch, catalog, opts)
    ]
    return _findings(matches, catalog, image.label, pmap)


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


@dataclass(frozen=True)
class PresenceMatrix:
    """Yes/No grid: did image X still hold a password for column Y."""

    rows: tuple[str, ...]
    columns: tuple[tuple[str, str], ...]
    cells: tuple[tuple[str, ...], ...]

    def cell(self, label: str, app_id: str, browser: str) -> str:
        r = self.rows.index(label)
        c = self.columns.index((app_id, browser))
        return self.cells[r][c]


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
) -> PresenceMatrix:
    """Reduce findings to the password-presence grid.

    A cell is Yes iff at least one finding for that application in that
    image still carries the password bytes; encrypted counts, the password
    was present even if unreadable.  Which browser column a finding feeds
    comes from its process attribution when one names a known browser, else
    from the manifest's session metadata, else it counts for every column
    of its application (the conservative reading).
    """
    session_browser = None
    if isinstance(rows, ImageManifest):
        labels = tuple(rows.labels())
        if rows.session_meta is not None:
            session_browser = browser_tag(rows.session_meta[0])
    else:
        labels = tuple(rows)
    known = set(labels)
    for label in findings_by_image:
        if label not in known:
            raise UnknownLabelError(f"findings reference unknown image label {label!r}")
    grid: list[tuple[str, ...]] = []
    for label in labels:
        row: list[str] = []
        per_image = findings_by_image.get(label, ())
        for app_id, tag in STANDARD_COLUMNS:
            yes = any(
                f.app_id == app_id
                and f.password_raw is not None
                and tag in _finding_browsers(f, session_browser)
                for f in per_image
            )
            row.append("Yes" if yes else "No")
        grid.append(tuple(row))
    return PresenceMatrix(rows=labels, columns=STANDARD_COLUMNS, cells=tuple(grid))
