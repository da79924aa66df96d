"""Independent reference implementations used to check the real ones.

Everything here favors obviousness over speed: the byte-at-a-time carvers
are straight transcriptions of the definition of a maximal printable run,
and the numpy carver is a separately-derived vectorization.  The two
agree with each other by construction of the tests, and the production
carver must agree with both.  ``regions_linear`` groups strings into hit
regions with every string in hand, and ``match_region_linear`` is the
region matcher before its lookups were indexed; both are the scanner's
references.
"""

from __future__ import annotations

import numpy as np

from memsift.carver import Encoding
from memsift.scanner import HIGH, LOW
from memsift.signatures import (
    AdjacentBinder,
    MatchMode,
    SignatureMatch,
    cookie_username_offset,
    extract_cookie_username,
    match_inline,
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
    """Escape every character outside the safe set; ordinal must fit one
    byte.  Inverse of the decoder over that domain."""
    out = []
    for ch in text:
        if ch in _SAFE:
            out.append(ch)
        elif ch == " " and plus_for_space:
            out.append("+")
        else:
            o = ord(ch)
            if o > 0xFF:
                raise ValueError(f"cannot single-byte encode {ch!r}")
            out.append(f"%{o:02X}")
    return "".join(out)


def random_buffer(seed_parts, size: int, density: float) -> bytes:
    """Density-controlled random bytes, same recipe family as the
    fabricator's filler but independent of it."""
    rng = np.random.default_rng(seed_parts)
    mask = rng.random(size) < density
    printable = rng.integers(0x20, 0x7F, size, dtype=np.uint8)
    other = rng.integers(0, 0xA1, size, dtype=np.uint8)
    other = np.where(other < 0x20, other, other + 0x5F).astype(np.uint8)
    return np.where(mask, printable, other).tobytes()


def strings_tuples(extracted) -> list[tuple[int, str, str]]:
    """Project ExtractedString objects onto oracle rows.

    The encoding enum subclasses str and compares equal to its value, so
    the member can stand in for the "ascii"/"utf16le" labels directly;
    going through .value costs a descriptor call per row.
    """
    return [(s.offset, s.text, s.encoding) for s in extracted]


# --- Region references ------------------------------------------------------


def regions_linear(strings, hit_re, reach):
    """Reference for ``memsift.scanner._regions``: collect every string,
    merge the hit claims [offset - reach, offset + byte_length + reach]
    that overlap or touch, and slice the strings by offset."""
    strings = list(strings)
    claims = []
    for s in strings:
        if hit_re.search(s.text):
            start, end = s.offset - reach, s.offset + s.byte_length + reach
            if claims and start <= claims[-1][1]:
                claims[-1][1] = max(claims[-1][1], end)
            else:
                claims.append([start, end])
    return [[s for s in strings if start <= s.offset <= end] for start, end in claims]


# The region matcher as it was before its lookups went through sorted
# offset indexes: confidence walks every region string for each candidate,
# each password scans every username, each cookie-bound match scans every
# cookie.  Quadratic, but each step is the definition read off directly.


def assign_confidence_linear(anchor, context, sig, window):

    lo, hi = anchor - window, anchor + window
    for s in context:
        if lo <= s.offset <= hi and any(u in s.text for u in sig.context_urls):
            return HIGH
    return LOW


def combine_bindings_linear(bindings, sig, window):
    mine = [b for b in bindings if b.sig.app_id == sig.app_id]
    users = [b for b in mine if b.kind == "username"]
    matches = []
    for pw in (b for b in mine if b.kind == "password"):
        best = None
        for u in users:
            if u.consumed or abs(u.key_offset - pw.key_offset) > window:
                continue
            if best is None or abs(u.key_offset - pw.key_offset) < abs(
                best.key_offset - pw.key_offset
            ):
                best = u
        if best is not None:
            best.consumed = True
        parts = sorted(([best] if best else []) + [pw], key=lambda b: b.key_offset)
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
                context_text=" ".join(x for b in parts for x in (b.key_text, b.value)),
            )
        )
    for u in users:
        if not u.consumed:
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


def attach_cookie_usernames_linear(matches, strings, sig, window):
    cookies = []
    for s in strings:
        name = extract_cookie_username(s.text, sig.username_marker)
        if name is not None:
            cookies.append((cookie_username_offset(s, sig.username_marker), name, s))
    claimed = set()
    for i, m in enumerate(matches):
        if (
            m.signature.app_id != sig.app_id
            or m.password_raw is None
            or m.username_raw is not None
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
            coff, name, src = cookies[best]
            claimed.add(best)
            unit = 2 if src.encoding is Encoding.UTF16LE else 1
            matches[i] = SignatureMatch(
                signature=m.signature,
                mode=m.mode,
                username_raw=name,
                username_offset=coff + unit * len(sig.username_marker),
                username_key_offset=coff,
                password_raw=m.password_raw,
                password_offset=m.password_offset,
                password_key_offset=m.password_key_offset,
                context_text=m.context_text,
            )
    for j, (coff, name, src) in enumerate(cookies):
        if j not in claimed:
            unit = 2 if src.encoding is Encoding.UTF16LE else 1
            matches.append(
                SignatureMatch(
                    signature=sig,
                    mode=MatchMode.INLINE,
                    username_raw=name,
                    username_offset=coff + unit * len(sig.username_marker),
                    username_key_offset=coff,
                    context_text=src.text,
                )
            )


def match_region_linear(strings, catalog, opts, hit_re):
    """Drop-in reference for ``memsift.scanner._match_region``."""
    sig_order = {sig.app_id: i for i, sig in enumerate(catalog)}
    matches = []
    for s in strings:
        if "=" not in s.text or not hit_re.search(s.text):
            continue
        pairs = parse_form_pairs(s)
        if not pairs:
            continue
        for sig in catalog:
            m = match_inline(s, sig, case_sensitive=opts.case_sensitive, pairs=pairs)
            if m is not None:
                matches.append(m)

    binder = AdjacentBinder(catalog, opts.delta, opts.case_sensitive)
    bindings = []
    for s in strings:
        bindings.extend(binder.push(s))
    for sig in catalog:
        matches.extend(combine_bindings_linear(bindings, sig, opts.window))

    for sig in catalog:
        if sig.username_marker:
            attach_cookie_usernames_linear(matches, strings, sig, opts.window)

    groups = {}
    for m in matches:
        if m.password_raw is not None:
            key = (m.mode, "pw", m.password_offset)
        else:
            key = (m.mode, "user", m.username_offset)
        conf = assign_confidence_linear(m.anchor_offset, strings, m.signature, opts.window)
        score = (m.username_raw is not None, conf == HIGH)
        groups.setdefault(key, []).append((score, sig_order[m.signature.app_id], conf, m))
    kept = []
    for members in groups.values():
        for score, order, conf, m in members:
            dominated = any(
                other[0] != score
                and other[0][0] >= score[0]
                and other[0][1] >= score[1]
                for other in members
            )
            if not dominated:
                kept.append((order, conf, m))
    return kept
