"""Independent reference implementations used to check the real ones.

Everything here favors obviousness over speed: the byte-at-a-time carvers
are straight transcriptions of the definition of a maximal printable run,
and the numpy carver is a separately-derived vectorization.  The two
agree with each other by construction of the tests, and the production
carver must agree with both.  ``match_inline_linear`` tries every
signature on a form body, ``bind_adjacent_linear`` pairs keys with values
over consecutive strings, and ``match_region_linear`` is the matcher
before its lookups were indexed; all three are the scanner's references,
and none goes through the scanner's key table.  ``scan_full_carve`` is ``scan_image``'s reference: it
differs from the scan only in carving every string, not just those
matching reads.
``values_at_offsets`` checks findings against the image bytes alone.
``has_token`` is the fabricator's reference: it checks by search what the
filler's byte table guarantees by construction.  ``percent_decode_two_regex``
is the percent decoder's reference: it reads ``+`` in the same pass as the
escapes.
"""

from __future__ import annotations

import re

import numpy as np

from memsift import scanner
from memsift.carver import Encoding, carve_strings
from memsift.scanner import HIGH, LOW, ScanOptions
from memsift.signatures import (
    GAUSR_MARKER,
    KeyValuePair,
    MatchMode,
    SignatureMatch,
    builtin_catalog,
    cookie_username,
    parse_form_pairs,
)

ASCII = "ascii"
UTF16LE = "utf16le"

_SAFE = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789*_.-")


def _printable(b: int) -> bool:
    return 0x20 <= b <= 0x7E


def _emit_capped(offset, chars, unit, min_len, cap, out):
    # Long runs split into cap-sized pieces; a final fragment shorter
    # than min_len is dropped, matching the length invariant.  `chars`
    # is a list of single characters or an already-joined string.
    for k in range(0, len(chars), cap):
        piece = chars[k : k + cap]
        if len(piece) >= min_len:
            text = piece if isinstance(piece, str) else "".join(piece)
            out.append((offset + unit * k, text, UTF16LE if unit == 2 else ASCII))


def carve_ascii_bruteforce(data: bytes, min_len: int = 4, cap: int = 4096):
    """One byte at a time: collect maximal printable runs."""
    out: list[tuple[int, str, str]] = []
    run: list[str] = []
    start = 0
    for i, b in enumerate(data):
        if _printable(b):
            if not run:
                start = i
            run.append(chr(b))
        elif run:
            _emit_capped(start, run, 1, min_len, cap, out)
            run = []
    if run:
        _emit_capped(start, run, 1, min_len, cap, out)
    return out


def carve_utf16_bruteforce(data: bytes, min_len: int = 4, cap: int = 4096):
    """Maximal chains of (printable, NUL) byte pairs at any alignment."""
    out: list[tuple[int, str, str]] = []
    n = len(data)

    def pair_at(i: int) -> bool:
        return i + 1 < n and _printable(data[i]) and data[i + 1] == 0

    for i in range(n):
        if not pair_at(i):
            continue
        if i >= 2 and pair_at(i - 2):
            continue  # interior of a chain found earlier
        chars = []
        j = i
        while pair_at(j):
            chars.append(chr(data[j]))
            j += 2
        _emit_capped(i, chars, 2, min_len, cap, out)
    out.sort(key=lambda t: t[0])
    return out


def carve_bruteforce(data: bytes, min_len: int = 4, cap: int = 4096):
    """Both encodings merged the way the carver orders them."""
    rows = carve_ascii_bruteforce(data, min_len, cap) + carve_utf16_bruteforce(
        data, min_len, cap
    )
    rows.sort(key=lambda t: (t[0], 0 if t[2] == ASCII else 1))
    return rows


def _runs_from_mask(mask: np.ndarray, keep_min: int = 1):
    """(start, length) of each maximal True run.

    Runs shorter than keep_min are skipped while still vectorized; a run
    below min_len can never contribute output (every cap piece of it is
    also below min_len), so callers pass min_len to avoid materializing
    the noise.
    """
    if mask.size == 0:
        return []
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    lens = np.flatnonzero(edges == -1) - starts
    if keep_min > 1:
        keep = lens >= keep_min
        starts, lens = starts[keep], lens[keep]
    return list(zip(starts.tolist(), lens.tolist()))


def carve_numpy(data: bytes, min_len: int = 4, cap: int = 4096):
    """Vectorized reference: run edges via mask diffs, per parity for
    UTF-16LE."""
    a = np.frombuffer(data, dtype=np.uint8)
    printable = (a >= 0x20) & (a <= 0x7E)
    narrow: list[tuple[int, str, str]] = []
    wide: list[tuple[int, str, str]] = []

    for start, length in _runs_from_mask(printable, min_len):
        chars = data[start : start + length].decode("latin-1")
        _emit_capped(start, chars, 1, min_len, cap, narrow)

    if a.size >= 2:
        pair = printable[:-1] & (a[1:] == 0)
        for parity in (0, 1):
            sub = pair[parity::2]
            for s, length in _runs_from_mask(sub, min_len):
                off = parity + 2 * s
                chars = data[off : off + 2 * length : 2].decode("latin-1")
                _emit_capped(off, chars, 2, min_len, cap, wide)
        wide.sort(key=lambda t: t[0])  # the two parity streams interleave

    # Merge the sorted encodings, ASCII first on an exact-offset tie.
    out: list[tuple[int, str, str]] = []
    i = j = 0
    while i < len(narrow) and j < len(wide):
        if narrow[i][0] <= wide[j][0]:
            out.append(narrow[i])
            i += 1
        else:
            out.append(wide[j])
            j += 1
    out += narrow[i:]
    out += wide[j:]
    return out


def percent_encode(text: str, plus_for_space: bool = False) -> str:
    """Escape every character outside the safe set as its UTF-8 bytes.
    Inverse of the decoder."""
    out = []
    for ch in text:
        if ch in _SAFE:
            out.append(ch)
        elif ch == " " and plus_for_space:
            out.append("+")
        else:
            out.extend(f"%{b:02X}" for b in ch.encode("utf-8"))
    return "".join(out)


_ESCAPE_RUN = re.compile(r"(?:%[0-9A-Fa-f]{2})+")
_ESCAPE_RUN_OR_PLUS = re.compile(r"(?:%[0-9A-Fa-f]{2})+|\+")


def _unescape_or_space(m: re.Match) -> str:
    if m.group() == "+":
        return " "
    raw = bytes.fromhex(m.group().replace("%", ""))
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def percent_decode_two_regex(raw: str, plus_as_space: bool = False) -> str:
    """``percent_decode``'s reference: one left-to-right pass that turns
    each ``+`` into a space, with ``plus_as_space``, in the same pass that
    decodes each maximal escape run (as UTF-8, else one character per
    escape)."""
    return (_ESCAPE_RUN_OR_PLUS if plus_as_space else _ESCAPE_RUN).sub(_unescape_or_space, raw)


def random_buffer(seed_parts, size: int, density: float) -> bytes:
    """Density-controlled random bytes, same recipe family as the
    fabricator's filler but independent of it."""
    rng = np.random.default_rng(seed_parts)
    mask = rng.random(size) < density
    printable = rng.integers(0x20, 0x7F, size, dtype=np.uint8)
    other = rng.integers(0, 0xA1, size, dtype=np.uint8)
    other = np.where(other < 0x20, other, other + 0x5F).astype(np.uint8)
    return np.where(mask, printable, other).tobytes()


def _forbidden_tokens() -> tuple[bytes, ...]:
    texts: set[str] = {GAUSR_MARKER}
    for sig in builtin_catalog():
        texts.update(sig.username_keys)
        texts.update(sig.password_keys)
        texts.update(sig.context_urls)
    return tuple(
        t.encode(codec) for t in sorted(texts) for codec in ("ascii", "utf-16-le")
    )


# Every text whose chance appearance in filler could make a finding: catalog
# keywords, context URLs and the GAUSR cookie marker, in both encodings.
FORBIDDEN_TOKENS = _forbidden_tokens()


def has_token(data: bytes) -> bool:
    return any(tok in data for tok in FORBIDDEN_TOKENS)


def catalog_near() -> tuple[list[str], list[str]]:
    """The literals and the keys the scan's keyword carve is given with the
    built-in catalog: the context URLs and the GAUSR marker, and every
    form key."""
    catalog = builtin_catalog()
    literals = {GAUSR_MARKER}.union(*(sig.context_urls for sig in catalog))
    keys = {key for sig in catalog for key in (*sig.username_keys, *sig.password_keys)}
    return sorted(literals), sorted(keys)


def strings_tuples(extracted) -> list[tuple[int, str, str]]:
    """Project ExtractedString objects onto oracle rows.

    The encoding enum subclasses str and compares equal to its value, so
    the member can stand in for the "ascii"/"utf16le" labels directly;
    going through .value costs a descriptor call per row.
    """
    return [(s.offset, s.text, s.encoding) for s in extracted]


def scan_full_carve(image, options=None):
    """Reference for ``memsift.scanner.scan_image`` with the built-in
    catalog: carve every string, then match them all at once."""
    catalog = builtin_catalog()
    opts = options or ScanOptions()
    strings = list(carve_strings(image, opts.min_len, chunk_size=opts.chunk_size))
    matches = scanner._match_region(strings, catalog, opts)
    return scanner._findings(matches, catalog, None)


def values_at_offsets(data: bytes, findings) -> int:
    """Check that each finding's ``username`` sits at its
    ``username_offset`` and its ``password_raw`` at its ``password_offset``
    in ``data``, spelt in ASCII or in UTF-16LE, and that a value absent has
    no offset.  Returns how many values were checked."""
    checked = 0
    for f in findings:
        for value, at in ((f.username, f.username_offset), (f.password_raw, f.password_offset)):
            if value is None:
                assert at is None, f
                continue
            assert any(
                data.startswith(value.encode(codec), at) for codec in ("ascii", "utf-16-le")
            ), (value, at, f)
            checked += 1
    return checked


# The matcher as it was before its lookups went through sorted
# offsets and sweeps: confidence walks every string for each
# candidate, each password scans every username, each cookie-bound match
# scans every cookie.  Quadratic, but each step is the definition read off
# directly.


def assign_confidence_linear(anchor, context, sig, window):

    lo, hi = anchor - window, anchor + window
    for s in context:
        if lo <= s.offset <= hi and any(u in s.text for u in sig.context_urls):
            return HIGH
    return LOW


def match_inline_linear(string, catalog):
    """Reference for ``match_inline``: for each signature in catalog order,
    the first username pair and the first password pair of the form body
    with a non-empty value."""
    pairs = parse_form_pairs(string)
    matches = []
    for sig in catalog:
        username, password = (
            next((p for p in pairs if p.key in keys and p.value), None)
            for keys in (sig.username_keys, sig.password_keys)
        )
        if username is not None or password is not None:
            matches.append(
                SignatureMatch(sig, MatchMode.INLINE, username, password, string.text)
            )
    return matches


def bind_adjacent_linear(strings, catalog, delta):
    """Reference for ``AdjacentBinder``: each pair of consecutive strings
    whose first is a key of a signature, whose second starts within delta
    bytes of the key's end and is no key of that signature, binds once per
    listing of the key, as a one-sided adjacent match, usernames before
    passwords, in catalog order."""
    strings = list(strings)
    bindings = []
    for key, value in zip(strings, strings[1:]):
        if value.offset > key.offset + key.byte_length + delta:
            continue
        pair = KeyValuePair(key.text, value.text, key.offset, value.offset)
        text = key.text + " " + value.text
        for sig in catalog:
            if value.text in sig.username_keys + sig.password_keys:
                continue
            bindings.extend(
                SignatureMatch(sig, MatchMode.ADJACENT, username=pair, context_text=text)
                for k in sig.username_keys
                if k == key.text
            )
            bindings.extend(
                SignatureMatch(sig, MatchMode.ADJACENT, password=pair, context_text=text)
                for k in sig.password_keys
                if k == key.text
            )
    return bindings


def combine_bindings_linear(bindings, sig, window):
    mine = [b for b in bindings if b.signature.app_id == sig.app_id]
    users = [b.username for b in mine if b.username is not None]
    consumed = set()
    matches = []
    for pw in (b.password for b in mine if b.password is not None):
        nearest = None
        for i, u in enumerate(users):
            if i in consumed or abs(u.key_offset - pw.key_offset) > window:
                continue
            if nearest is None or abs(u.key_offset - pw.key_offset) < abs(
                users[nearest].key_offset - pw.key_offset
            ):
                nearest = i
        best = None
        if nearest is not None:
            consumed.add(nearest)
            best = users[nearest]
        parts = sorted(([best] if best else []) + [pw], key=lambda p: p.key_offset)
        matches.append(
            SignatureMatch(
                signature=sig,
                mode=MatchMode.ADJACENT,
                username=best,
                password=pw,
                context_text=" ".join(x for p in parts for x in (p.key, p.value)),
            )
        )
    for i, u in enumerate(users):
        if i not in consumed:
            matches.append(
                SignatureMatch(
                    signature=sig,
                    mode=MatchMode.ADJACENT,
                    username=u,
                    context_text=f"{u.key} {u.value}",
                )
            )
    matches.sort(key=lambda m: m.anchor_offset)
    return matches


def cookie_name_linear(text, start):
    """Reference for the extent of ``cookie_username``'s name: from
    ``start`` to the first ``;`` or whitespace, or to the end of ``text``."""
    end = len(text)
    for i in range(start, len(text)):
        if text[i] == ";" or text[i].isspace():
            end = i
            break
    return text[start:end]


def attach_cookie_usernames_linear(matches, strings, sig, window):
    # Only the marker offset and the name are read from ``cookie_username``;
    # the name's offset is worked out here.
    marker = sig.username_marker
    cookies = []
    for s in strings:
        cookie = cookie_username(s, marker)
        if cookie is not None:
            unit = 2 if s.encoding is Encoding.UTF16LE else 1
            coff = cookie.key_offset
            name = KeyValuePair(marker, cookie.value, coff, coff + unit * len(marker))
            cookies.append((coff, name, s))
    claimed = set()
    for i, m in enumerate(matches):
        if (
            m.signature.app_id != sig.app_id
            or m.password is None
            or m.username is not None
        ):
            continue
        best = None
        for j, (coff, _name, _src) in enumerate(cookies):
            if abs(coff - m.anchor_offset) > window:
                continue
            if best is None or abs(coff - m.anchor_offset) < abs(
                cookies[best][0] - m.anchor_offset
            ):
                best = j
        if best is not None:
            _coff, name, _src = cookies[best]
            claimed.add(best)
            matches[i] = SignatureMatch(
                signature=m.signature,
                mode=m.mode,
                username=name,
                password=m.password,
                context_text=m.context_text,
            )
    for j, (_coff, name, src) in enumerate(cookies):
        if j not in claimed:
            matches.append(
                SignatureMatch(
                    signature=sig,
                    mode=MatchMode.INLINE,
                    username=name,
                    context_text=src.text,
                )
            )


def match_region_linear(strings, catalog, opts):
    """Drop-in reference for ``memsift.scanner._match_region``."""
    matches = []
    for s in strings:
        if "=" in s.text:
            matches.extend(match_inline_linear(s, catalog))

    bindings = bind_adjacent_linear(strings, catalog, opts.delta)
    for sig in catalog:
        matches.extend(combine_bindings_linear(bindings, sig, opts.window))

    for sig in catalog:
        if sig.username_marker:
            attach_cookie_usernames_linear(matches, strings, sig, opts.window)

    groups = {}
    for m in matches:
        if m.password is not None:
            key = (m.mode, "pw", m.password.value_offset)
        else:
            key = (m.mode, "user", m.username.value_offset)
        conf = assign_confidence_linear(m.anchor_offset, strings, m.signature, opts.window)
        score = (m.username is not None, conf == HIGH)
        groups.setdefault(key, []).append((score, conf, m))
    kept = []
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
