"""Carve printable strings, with offsets, out of raw memory images.

Two encodings are recognised: plain ASCII runs (bytes 0x20..0x7e) and
UTF-16LE runs (printable byte, NUL, repeated, at either byte parity).  A
run must reach ``min_len`` characters to be emitted, and runs longer than
``cap`` characters are split at the cap, each piece carrying its own
offset.

The image is carved one buffer at a time: the bytes carried over from the
previous buffer plus the next chunk.  A buffer has three streams: ASCII
bytes, and UTF-16LE pairs at each absolute byte parity.  The run that
touches the buffer end may still grow (a trailing printable byte counts
as a pair whose NUL may still arrive), so its last cap piece is not
settled yet.  The cut is the start of the earliest unsettled piece.  Every
piece starting before the cut is settled, and the bytes from the cut on
are carried into the next buffer, where the open run is found again.  The
carry is therefore under one cap piece of the widest stream, ``2*cap``
bytes.  Each stream resumes at the end of the last piece it emitted, so a
run found again keeps its cap grid.  The settled pieces are thus the same
whatever chunk size the image is read with, which the brute-force
reference carve in the test suite checks.  ``_buffers`` is the one loop
over the chunks that does all this, for both carves below: it yields each
buffer with its streams, each knowing where it resumes, and its cut.  A
stream finds the run holding a position by reading out from it, and
keeps the last one: its lookups ascend, but for one step back per buffer
after the one that sets the cut, so a run is read at most twice per
buffer however many lookups land in it.  Read backwards, a window past the first, short one
that lies wholly inside the run is told by translating its bytes, so
only the window that holds the run's start is read with a regex.

The full carve, every piece of the image, is ``carve_strings`` without
``near`` and ``dump_strings`` (``memsift strings``).  It finds each
stream's long runs in a buffer at once with numpy and keeps their cap
pieces from the stream's floor up to the cut, in ``memsift.fullcarve``,
which only those two calls import.

The keyword scan asks ``carve_strings(near=(literals, keys, delta))`` for
the pieces its matcher reads, and that path is plain Python.  A piece is
kept if it holds a whole occurrence of a literal, or if it is the piece
right after a piece whose text is a key and starts within ``delta`` bytes
of the key's end.  A piece that holds a literal holds one that contains
no other, so only those are searched for, spelt in ASCII and in UTF-16LE,
all in one pass per buffer.  A few characters, chosen greedily, cover
the literals: each literal holds one, and its first one is its anchor.
For the built-in catalog they are ``a``, ``A`` and ``.``, far rarer in
text than the literals' first bytes, which take in the vowels.  The
buffer is translated once so that every anchor byte becomes one class
byte, and one regex stops on that byte where a trie of the translated
bytes after the anchors follows it; each stop is confirmed against the
spellings anchored there, from their first byte, so every occurrence is
reported, overlaps included.  Each occurrence is mapped to the piece of
its own stream that holds it, from the extent of the run holding it and
the run's cap grid, and a kept piece is a key if its bytes are a key's
spelling, so no piece is decoded to be tested.  The piece after a key is
the first one of any stream in the order pieces are yielded, found as
soon as the key is by a search forward that stops at ``delta``; when it
may lie past the cut, the search goes on in the next buffer.  Printable
text that holds no literal and follows no key is searched but never
carved, and the scan never loads numpy.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import chain, starmap
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator, NamedTuple

from .corpus import DEFAULT_CHUNK_SIZE, MemoryImage, _parse_digits, _parse_lines
from .errors import InvalidOptionError

DEFAULT_MIN_LEN = 4
DEFAULT_CAP = 4096
MAX_CHUNK_SIZE = 1 << 30  # keeps offset arithmetic within int64


class Encoding(str, Enum):
    ASCII = "ascii"
    UTF16LE = "utf16le"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


BOTH_ENCODINGS = (Encoding.ASCII, Encoding.UTF16LE)

# Indexed by a piece's bytes per character.
_BY_UNIT = (None, Encoding.ASCII, Encoding.UTF16LE)


# NamedTuple rather than a dataclass: tens of thousands of these come out
# of a single image, and tuple construction is measurably cheaper.
class ExtractedString(NamedTuple):
    """One carved run.  ``byte_length`` covers exactly the bytes that decode
    back to ``text`` (2x the character count for UTF-16LE)."""

    offset: int
    text: str
    encoding: Encoding
    byte_length: int


# A run's characters, indexed by bytes per character: read forwards from a
# position, and read from the end of a reversed window.  Possessive, so a
# long run leaves no backtracking state behind.
_FORWARD = (None, re.compile(rb"[\x20-\x7e]*+"), re.compile(rb"(?:[\x20-\x7e]\x00)*+"))
_BACKWARD = (None, re.compile(rb"[\x20-\x7e]*+"), re.compile(rb"(?:\x00[\x20-\x7e])*+"))
_PRINTABLE = bytes(range(0x20, 0x7F))
# A printable byte reads 1, a NUL 0 and any other byte 2, so UTF-16LE
# characters read 1, 0, 1, 0, ...
_CLASSES = bytes(1 if 0x20 <= b <= 0x7E else 2 if b else 0 for b in range(256))


@lru_cache(maxsize=16)
def _long_run(unit: int, min_len: int) -> re.Pattern:
    """``min_len`` characters of ``unit`` bytes each, at either parity."""
    char = rb"[\x20-\x7e]" if unit == 1 else rb"(?:[\x20-\x7e]\x00)"
    return re.compile(char + b"{%d}" % min_len)


def _trie(tails: list[bytes], klass: bytes = b"") -> bytes:
    """A regex that matches where one of ``tails`` starts, as a trie, so
    that ``re`` reads each byte once however many tails share it.  It
    consumes no ``klass`` byte but looks ahead from it, so a search that
    resumes at the end of a match still stops on every class byte."""
    if b"" in tails:
        return b""
    by_head: dict[bytes, list[bytes]] = {}
    for tail in tails:
        by_head.setdefault(tail[:1], []).append(tail[1:])
    alternatives = [
        b"(?=%s%s)" % (re.escape(head), _trie(rest)) if head == klass
        else re.escape(head) + _trie(rest, klass)
        for head, rest in sorted(by_head.items())
    ]
    return alternatives[0] if len(alternatives) == 1 else b"(?:%s)" % b"|".join(alternatives)


@lru_cache(maxsize=16)
def _candidates(tails: tuple[bytes, ...], klass: bytes) -> re.Pattern:
    """The class byte followed by the trie of ``tails``; cached, since a
    scan of many images builds the same one for each."""
    return re.compile(re.escape(klass) + _trie(list(tails), klass) if tails else b"(?!)")


@lru_cache(maxsize=16)
def _cover(literals: frozenset[str]) -> str:
    """A small set of characters such that every literal holds one, built
    greedily: each step takes the character held by the most literals not
    yet covered, on a tie one that is no lowercase letter or digit, then
    the least.  Cached, since a scan of many images needs the same one
    for each."""
    cover, left = "", set(literals)
    while left:
        held = Counter(c for lit in left for c in set(lit))
        c = min(held, key=lambda c: (-held[c], c.islower() or c.isdigit(), c))
        cover += c
        left = {lit for lit in left if c not in lit}
    return cover


class _Stream:
    """One stream of a buffer: ASCII, or UTF-16LE pairs at one byte parity.

    A position is a character's first byte.  ``run`` finds the run holding
    a position by reading out from it, and keeps the last one, the only
    one a later lookup can land in, as lookups ascend.  Runs start no
    earlier than ``floor``, where the stream resumes: the bytes before it
    went out in an earlier buffer's pieces.
    """

    def __init__(self, buf, final, unit, parity, floor, min_len, cap):
        self.buf, self.n, self.final = buf, len(buf), final
        self.unit, self.parity = unit, parity
        floor = max(floor, 0)
        self.floor = floor + (floor - parity) % unit
        self.span, self.min_bytes = unit * cap, unit * min_len
        self.long_run = _long_run(unit, min_len)
        self.last = (0, 0)  # the last run found

    def at(self, byte: int) -> int:
        """The position whose character holds ``byte``."""
        return byte - (byte - self.parity) % self.unit

    def member(self, x: int) -> bool:
        """Whether position ``x`` holds a character.  A printable last byte
        of a buffer that is not the last counts as a UTF-16LE character,
        since its NUL may still arrive; it makes the run the one at the
        buffer end, which fixes the cut."""
        buf, n = self.buf, self.n
        if not (0 <= x < n and 0x20 <= buf[x] <= 0x7E):
            return False
        if self.unit == 1:
            return True
        return buf[x + 1] == 0 if x + 1 < n else not self.final

    def run(self, x: int) -> tuple[int, int] | None:
        """``(start, end)`` of the run holding position ``x``, or None.
        Before the floor, it is the run the stream resumes in.  A run
        holds every position from its start up to its end, so one that
        ends in a lone last byte ends a byte past the buffer."""
        x = max(x, self.floor)
        if self.last[0] <= x < self.last[1]:
            return self.last
        if not self.member(x):
            return None
        # The window read backwards grows by a factor each time, so the
        # cost follows the run's length; the byte before a run holds no
        # character, so only the floor bounds it.  Past the first, short
        # window, one wholly inside the run is told by ``inside``, and only
        # the one holding the run's start is read with the slower regex.
        start, width = x, 256
        while start > self.floor:
            first = max(self.floor, x - width)
            if width > 256 and self.inside(first, start):
                start = first
            else:
                start -= _BACKWARD[self.unit].match(self.buf[first:start][::-1]).end()
                if start > first:
                    break
            width *= 4
        end = _FORWARD[self.unit].match(self.buf, x).end()
        if self.unit == 2 and self.member(end):  # the lone last byte
            end += 2
        self.last = start, end
        return self.last

    def inside(self, first: int, last: int) -> bool:
        """Whether every position in [first, last) holds a character,
        ``last`` being a position that does."""
        buf = self.buf
        if self.unit == 1:
            return not buf[first:last].translate(None, _PRINTABLE)
        return buf[first:last].translate(_CLASSES) == b"\1\0" * ((last - first) // 2)

    def holding(self, x: int, length: int) -> tuple[int, int] | None:
        """``(start, stop)`` of the piece that holds all of bytes
        [x, x + length), ``x`` a position, or None."""
        run = self.run(x)
        if run is None or run[0] > x:
            return None
        start, end = run
        at = x - (x - start) % self.span
        stop = min(at + self.span, end)
        return (at, stop) if x + length <= stop and stop - at >= self.min_bytes else None

    def first(self, lo: int, hi: int) -> tuple[int, int] | None:
        """``(start, stop)`` of the first piece starting in [lo, hi), or
        None."""
        x = max(lo, self.floor)
        x += (self.parity - x) % self.unit
        if x >= hi:
            return None
        run = self.run(x)
        if run:  # the next piece of the run holding x
            start, end = run
            at = x + (start - x) % self.span
            if at < min(end, hi) and min(at + self.span, end) - at >= self.min_bytes:
                return at, min(at + self.span, end)
            x = end
        # Else the first run past x that is long enough for a piece.  One
        # starting before hi shows min_len characters by the search's end.
        buf, endpos = self.buf, hi - 1 + self.min_bytes
        m = self.long_run.search(buf, x, endpos)
        while m and (m.start() - self.parity) % self.unit:
            # A UTF-16LE run at the other parity holds no position of ours.
            m = self.long_run.search(buf, _FORWARD[2].match(buf, m.start(), endpos).end(), endpos)
        if m is None or m.start() >= hi:
            return None
        at = m.start()  # a run's start, whose piece before the cut ends in buf
        return at, _FORWARD[self.unit].match(buf, at, at + self.span).end()


def _buffers(
    image: MemoryImage, wanted: list[Encoding], min_len: int, cap: int, chunk_size: int
) -> Iterator[tuple[bytes, int, dict[tuple[int, int], _Stream], int]]:
    """Yield ``(buf, base, streams, cut)`` per buffer: the carry plus the
    next chunk, its absolute offset, its wanted streams by (bytes per
    character, parity in the buffer), ASCII first, and the cut.  A
    buffer's pieces are those that start at or past their stream's floor
    and before the cut.  The last buffer is all carry."""
    kinds = [(1, 0)] if Encoding.ASCII in wanted else []
    if Encoding.UTF16LE in wanted:
        kinds += [(2, 0), (2, 1)]
    # Per stream, by (bytes per character, absolute parity), the absolute
    # offset it resumes at.
    resume = dict.fromkeys(kinds, 0)
    carry, base = b"", 0
    for chunk in chain(image.chunks(chunk_size), [None]):
        final = chunk is None
        buf = carry if final else carry + chunk
        n = len(buf)
        streams = {
            (unit, q): _Stream(buf, final, unit, q, resume[unit, (base + q) % unit] - base,
                               min_len, cap)
            for unit, q in kinds
        }
        cut = n
        if not final:
            # The start of the last, unsettled cap piece of each stream's
            # run at the buffer end.
            for st in streams.values():
                end_run = st.run(st.at(n - 1))
                if end_run:
                    start = end_run[0]
                    cut = min(cut, start + (n - start) // st.span * st.span)
            # A stream resumes after its piece across the cut, if it has
            # one.  Every earlier piece ends by the cut, where the next
            # buffer starts.
            for (unit, q), st in streams.items():
                across = st.holding(st.at(cut), 1)
                if across and across[0] < cut:
                    resume[unit, (base + q) % unit] = base + across[1]
        yield buf, base, streams, cut
        carry, base = buf[cut:], base + cut


class _NearCarve:
    """``carve_strings(near=(literals, keys, delta))``: per buffer of
    ``_buffers``, the pieces that hold a literal, and the piece right after
    each key, found through the buffer's streams.  Literals are found by
    one search that stops on their anchors: each literal's first character
    in a small cover of the literals' characters, which text holds far
    fewer of than the literals' first bytes."""

    def __init__(self, wanted, literals, keys, delta):
        literals = {*literals, *keys}
        for literal in literals:
            if not (isinstance(literal, str) and literal.isascii() and literal.isprintable()
                    and literal):
                raise InvalidOptionError(
                    f"near literal {literal!r} is not non-empty printable ASCII"
                )
        # A piece that holds a literal holds one that contains no other.
        literals = {a for a in literals if not any(b != a and b in a for b in literals)}
        cover = _cover(frozenset(literals))
        units = [(unit, codec) for unit, codec in ((1, "ascii"), (2, "utf-16-le"))
                 if _BY_UNIT[unit] in wanted]
        # Each spelling is anchored on its literal's first character in the
        # cover, ``j`` bytes in.  The spellings are grouped by their anchor
        # and the byte after it; one that ends on its anchor joins every
        # group of its anchor, and the group of the anchor alone, for a stop
        # on the buffer's last byte.
        self.groups: dict[bytes, list[tuple[bytes, int, int]]] = {}
        tails = []
        for lit in literals:
            i = next(i for i, c in enumerate(lit) if c in cover)
            for unit, codec in units:
                spelling, j = lit.encode(codec), unit * i
                tails.append(spelling[j:])
                heads = [spelling[j:j + 2]]
                if len(heads[0]) == 1:
                    heads += [heads[0] + bytes([b]) for b in range(256)]
                for head in heads:
                    self.groups.setdefault(head, []).append((spelling, unit, j))
        # The spellings that start furthest before the stop come first.
        for group in self.groups.values():
            group.sort(key=lambda entry: (-entry[2], entry[0]))
        # A piece's bytes are a key's spelling in its own encoding, since
        # only UTF-16LE spellings hold NULs.
        self.keys = {key.encode(codec) for key in keys for _, codec in units}
        # Every anchor byte becomes the class byte, the least of them, so
        # one regex that starts with that byte stops on them all; the trie
        # of the translated bytes after the anchors drops most stops before
        # Python sees them.
        anchors = bytes(sorted({tail[0] for tail in tails}))
        klass = anchors[:1]
        self.table = bytes.maketrans(anchors, klass * len(anchors))
        self.candidates = _candidates(
            tuple(sorted({tail.translate(self.table)[1:] for tail in tails})), klass
        )
        self.delta = delta
        # The last byte at which the piece after the key that ended the
        # previous buffer's pieces may start, if that piece may still come.
        self.pending = None

    def occurrences(self, buf: bytes) -> list[tuple[int, bytes, int]]:
        """``(offset, spelling, bytes per character)`` of every occurrence
        of every spelling in ``buf``, overlaps included, ascending.  Each
        stop of the search is an anchor, and each spelling of its group is
        confirmed from ``j`` bytes before it.  A stop fewer than ``j`` bytes
        into the buffer is no occurrence of that spelling, and is skipped,
        since ``startswith`` would count a negative start from the end.

        The stops ascend, and so do the occurrences: no byte of an
        occurrence before its anchor is in the cover, so no other
        occurrence that starts after it can be anchored before its anchor,
        and the spellings of a group are ordered by where they start."""
        groups = self.groups
        return [
            (y - j, spelling, unit)
            for y in [m.start() for m in self.candidates.finditer(buf.translate(self.table))]
            for spelling, unit, j in groups.get(buf[y:y + 2], ())
            if y >= j and buf.startswith(spelling, y - j)
        ]

    def buffer(
        self, buf: bytes, base: int, streams: dict[tuple[int, int], _Stream], cut: int
    ) -> list[ExtractedString]:
        """The pieces kept in a buffer of ``_buffers``.

        A piece is kept if it holds all of an occurrence of a literal, or
        if it comes right after a piece whose text is a key, in the order
        pieces are yielded, and starts at most ``delta`` bytes past the
        key's end.  Pieces before the cut are this buffer's, so a key whose
        next piece may lie at or past the cut leaves the search for it to
        the next buffer.
        """
        rows: set[tuple[int, int, int]] = set()

        def follow(at: int, unit: int, limit: int) -> None:
            """Keep the first piece after the one at ``at`` of ``unit`` bytes
            per character (0: in an earlier buffer) if it starts by
            ``limit``.  On a tie ASCII goes first, so a UTF-16LE piece at
            ``at`` comes after an ASCII one."""
            hi, after = min(limit + 1, cut), None
            for st in streams.values():
                piece = st.first(at + (st.unit <= unit), hi)
                if piece:
                    after, hi = (piece[0], st.unit, piece[1]), piece[0]
            if after:
                rows.add(after)
            elif limit >= cut:
                self.pending = base + limit

        pending, self.pending = self.pending, None
        if pending is not None:
            follow(0, 0, pending - base)
        # Keys are followed as found, so lookups ascend; ``found`` holds the
        # occurrences' pieces, since a piece kept after a key may be a key too.
        found = set()
        for x, spelling, unit in self.occurrences(buf):
            piece = streams[unit, x % unit].holding(x, len(spelling))
            if piece and piece[0] < cut and (row := (piece[0], unit, piece[1])) not in found:
                found.add(row)
                rows.add(row)
                if buf[piece[0]:piece[1]] in self.keys:
                    follow(piece[0], unit, piece[1] + self.delta)
        # tuple.__new__ over ready rows skips ExtractedString's Python-level
        # __new__, a third of the cost of building each string.
        return [
            tuple.__new__(ExtractedString, (
                base + at, buf[at:stop:unit].decode("ascii"), _BY_UNIT[unit], stop - at
            ))
            for at, unit, stop in sorted(rows)
        ]


def _check_int(name: str, value: object) -> None:
    # ``type``, not ``isinstance``, which would take True and False.
    if type(value) is not int:
        raise InvalidOptionError(f"{name} must be an integer, not {value!r}")


def _checked(
    image: MemoryImage | bytes,
    min_len: int,
    encodings: Iterable[Encoding],
    chunk_size: int,
    cap: int,
) -> tuple[MemoryImage, list[Encoding]]:
    """The image as a MemoryImage and the wanted encodings, once the
    options are checked."""
    for name, value in (("min_len", min_len), ("cap", cap), ("chunk_size", chunk_size)):
        _check_int(name, value)
    if min_len < 1:
        raise InvalidOptionError("min_len must be at least 1")
    if cap < min_len:
        raise InvalidOptionError("cap must be >= min_len")
    if chunk_size < 1:
        raise InvalidOptionError("chunk_size must be at least 1")
    if chunk_size > MAX_CHUNK_SIZE:
        raise InvalidOptionError(f"chunk_size must be at most {MAX_CHUNK_SIZE}")
    if isinstance(encodings, str):
        raise InvalidOptionError("encodings must be a collection of names, not one string")
    try:
        wanted = list(dict.fromkeys(map(Encoding, encodings)))
    except ValueError as exc:
        raise InvalidOptionError(f"{exc}; expected {', '.join(BOTH_ENCODINGS)}") from None
    if not wanted:
        raise InvalidOptionError("at least one encoding is required")
    if isinstance(image, (bytes, bytearray)):
        image = MemoryImage.from_bytes(bytes(image))
    return image, wanted


def carve_strings(
    image: MemoryImage | bytes,
    min_len: int = DEFAULT_MIN_LEN,
    encodings: Iterable[Encoding] = BOTH_ENCODINGS,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cap: int = DEFAULT_CAP,
    near: tuple[Iterable[str], Iterable[str], int] | None = None,
) -> Iterator[ExtractedString]:
    """Stream every maximal printable run in the image, ascending by offset.

    Offsets within one encoding are strictly increasing; across encodings the
    stream is merged by offset (ASCII first on the rare exact tie).  The
    options are checked when this is called, not when the stream is first
    read.  The stream holds only the current chunk plus a carry of under
    ``2*cap`` bytes, so peak memory does not depend on image size.

    ``near=(literals, keys, delta)`` keeps two kinds of piece, in the same
    order: a piece that holds all of an occurrence of a literal, and the
    piece right after a piece whose whole text is a key, when it starts at
    most ``delta`` bytes past the key's end.  Every key counts as a literal.
    Literals must be non-empty printable-ASCII strings and ``delta`` at
    least 0, or InvalidOptionError is raised.  Only the kept pieces are
    built as strings, and each buffer's are yielded before the next chunk
    is read.  This path does not load numpy.
    """
    image, wanted = _checked(image, min_len, encodings, chunk_size, cap)
    if near is None:
        from .fullcarve import carve

        return carve(image, wanted, min_len, cap, chunk_size)
    literals, keys, delta = near
    _check_int("delta", delta)
    if delta < 0:
        raise InvalidOptionError("delta must be at least 0")
    near_carve = _NearCarve(wanted, literals, tuple(keys), delta)
    buffers = _buffers(image, wanted, min_len, cap, chunk_size)
    return chain.from_iterable(starmap(near_carve.buffer, buffers))


def dump_strings(
    image: MemoryImage | bytes,
    sink: str | Path | BinaryIO,
    min_len: int = DEFAULT_MIN_LEN,
    encodings: Iterable[Encoding] = BOTH_ENCODINGS,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cap: int = DEFAULT_CAP,
) -> int:
    """Write every piece ``carve_strings`` would yield as an ``offset:text``
    line (decimal offset, LF) to a path or a binary file, one write per
    buffer.  Returns the number of lines written.  The options are checked
    before the path is opened."""
    image, wanted = _checked(image, min_len, encodings, chunk_size, cap)
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as fh:
            return dump_strings(image, fh, min_len, wanted, chunk_size=chunk_size, cap=cap)
    from .fullcarve import dump

    return dump(image, sink, wanted, min_len, cap, chunk_size)


def _strings_row(line: str) -> tuple[int, str] | None:
    if not line:
        return None
    head, sep, text = line.partition(":")
    if not sep:
        raise ValueError("no ':' separator")
    return _parse_digits(head, "offset"), text


def parse_strings_file(
    source: str | Path | IO[str] | Iterable[str],
) -> Iterator[tuple[int, str]]:
    """Parse an ``offset:text`` file back into (offset, text) tuples.

    The first colon splits the line; text keeps any further colons.  A line
    with no colon or a non-decimal offset raises LineError naming the file
    and the 1-based line number.
    """
    return _parse_lines(source, _strings_row)
