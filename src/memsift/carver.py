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
carry is therefore always under ``2*cap+1`` bytes.  Each stream resumes at
the end of the last piece it emitted, so a run found again keeps its cap
grid.  The settled pieces are thus the same whatever chunk size the image
is read with, which the brute-force reference carve in the test suite
checks.

The full carve, every piece of the image, is ``carve_strings`` without
``near`` and ``dump_strings`` (``memsift strings``).  It finds every run
of a buffer at once with numpy, in ``memsift.fullcarve``, which only
those two calls import.

The keyword scan asks ``carve_strings(near=(pattern, reach))`` for the
pieces near a keyword, and that path is plain Python.  A keyword pattern
is an alternation of literals, so it is found in the raw bytes: one bytes
regex searches each buffer for every literal, spelt in ASCII and in
UTF-16LE.  Each occurrence is mapped to the pieces its bytes overlap, in
any stream, from the extent of the run holding it and the run's cap grid,
and a piece is a hit if the pattern matches its text.  Then only the
hits' claims and the zones within reach of the buffer seams are carved.
A run's extent is found by reading out from a position and is remembered
for the buffer, so no run is read twice however many occurrences it
holds.  Printable text far from any keyword and from any seam is searched
but never carved, and the scan never loads numpy.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from itertools import chain
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
_REGEX_OPERATORS = frozenset(".^$*+?{}[]()|\\")


def _literals(pattern: re.Pattern) -> list[str]:
    """The literals of ``pattern``, an alternation of escaped printable-ASCII
    literals as ``re.escape`` writes them.  Anything else could match text
    the literals miss, so it is refused."""
    text = pattern.pattern
    if not isinstance(text, str) or pattern.flags & ~(re.UNICODE | re.ASCII):
        raise InvalidOptionError("near pattern must be a str pattern with no flags")
    literals, literal, chars = [], "", iter(text)
    for ch in chars:
        if ch == "|":
            literals.append(literal)
            literal = ""
            continue
        if ch == "\\":  # an escaped operator; \d, \n or \x41 is no literal
            ch = next(chars, "")
            literal_char = not ch.isalnum()
        else:
            literal_char = ch not in _REGEX_OPERATORS
        if not (literal_char and ch.isascii() and ch.isprintable() and ch):
            raise InvalidOptionError(
                f"near pattern {text!r} is not an alternation of literals"
            )
        literal += ch
    literals.append(literal)
    if not all(literals):
        raise InvalidOptionError(f"near pattern {text!r} has an empty literal")
    return literals


class _Stream:
    """One stream of a buffer: ASCII, or UTF-16LE pairs at one byte parity.

    A position is a character's first byte.  ``run`` finds the run holding
    a position by reading out from it, and keeps it, so a run's bytes are
    read once per buffer however many lookups land in it.  Runs start no
    earlier than ``floor``, where the stream resumes: the bytes before it
    went out in an earlier buffer's pieces.
    """

    def __init__(self, buf, final, unit, parity, floor, min_len, cap, long_run):
        self.buf, self.n, self.final = buf, len(buf), final
        self.unit, self.parity = unit, parity
        floor = max(floor, 0)
        self.floor = floor + (floor - parity) % unit
        self.span, self.min_bytes = unit * cap, unit * min_len
        self.long_run = long_run  # finds runs of at least min_len characters
        self.starts: list[int] = []  # the runs found so far, ascending
        self.ends: list[int] = []

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
        if not self.member(x):
            return None
        i = bisect_right(self.starts, x)
        if i and x < self.ends[i - 1]:
            return self.starts[i - 1], self.ends[i - 1]
        # The run starts past the run found before it, and only the window
        # read backwards grows, by a factor each time, so the cost follows
        # the run's length.
        lo, width = self.ends[i - 1] if i else self.floor, 256
        while True:
            first = max(lo, x - width)
            back = _BACKWARD[self.unit].match(self.buf[first:x][::-1]).end()
            if back < x - first or first == lo:
                break
            width *= 4
        end = _FORWARD[self.unit].match(self.buf, x).end()
        if self.unit == 2 and self.member(end):  # the lone last byte
            end += 2
        self.starts.insert(i, x - back)
        self.ends.insert(i, end)
        return x - back, end

    def run_pieces(
        self, run: tuple[int, int], lo: int, hi: int, cut: int
    ) -> Iterator[tuple[int, int]]:
        """``(start, stop)`` of the pieces of ``run`` that overlap bytes
        [lo, hi) and start before ``cut``."""
        start, end = run
        span = self.span
        for at in range(start + max(lo - start, 0) // span * span, min(end, hi, cut), span):
            stop = min(at + span, end)
            if stop - at >= self.min_bytes:
                yield at, stop

    def pieces(self, lo: int, hi: int, cut: int) -> Iterator[tuple[int, int]]:
        """The pieces of every run that overlap bytes [lo, hi) and start
        before ``cut``."""
        first = self.run(self.at(lo))
        runs = [first]
        # A run of at least min_len characters that starts before hi shows
        # them all before hi + min_bytes.
        pos = first[1] if first else max(self.at(lo), 0)
        for m in self.long_run.finditer(self.buf, pos, min(self.n, hi + self.min_bytes)):
            x = m.start()
            if self.unit == 2:  # the match starts on the NUL of a pair
                x += -1 if self.member(x - 1) else 1
            if x < hi and (x - self.parity) % self.unit == 0:
                runs.append(self.run(x))
        for run in filter(None, runs):
            yield from self.run_pieces(run, lo, hi, cut)


class _NearCarve:
    """``carve_strings(near=(pattern, reach))``: per buffer, the settled
    pieces a keyword hit may claim."""

    def __init__(self, wanted, min_len, cap, pattern, reach):
        literals = _literals(pattern)
        # One bytes regex per first character, since ``re`` scans for one
        # first byte several times faster than for a set of them.
        by_first: dict[str, set[bytes]] = {}
        for lit in literals:
            for codec in ("ascii", "utf-16-le"):
                by_first.setdefault(lit[0], set()).add(lit.encode(codec))
        self.needles = [
            re.compile(b"|".join(map(re.escape, sorted(spellings))))
            for spellings in by_first.values()
        ]
        self.search, self.reach = pattern.search, reach
        self.min_len, self.cap = min_len, cap
        # (bytes per character, parity) of each wanted stream
        self.kinds = [(1, 0)] if Encoding.ASCII in wanted else []
        if Encoding.UTF16LE in wanted:
            self.kinds += [(2, 0), (2, 1)]
        # Per bytes per character, a regex that finds each run of at least
        # min_len characters.  A UTF-16LE run is found from the NUL of its
        # first pair, since ``re`` scans for one literal first byte fast.
        # The run starts on the byte before the match if that is printable;
        # if not, it starts after the NUL, and may be one character short.
        self.long_runs = (
            None,
            re.compile(rb"[\x20-\x7e]{%d,}+" % min_len),
            re.compile(rb"\x00(?:[\x20-\x7e]\x00){%d,}+" % (min_len - 1)),
        )

    def carve(self, image: MemoryImage, chunk_size: int) -> Iterator[list[ExtractedString]]:
        """Per buffer, the pieces kept.  Each buffer's are yielded before
        the next chunk is read.  The buffers, cuts and carries are those of
        ``memsift.fullcarve._buffers``, and so is ``resume``."""
        resume = [0, 0, 0]
        carry, base = b"", 0
        for chunk in chain(image.chunks(chunk_size), [None]):
            final = chunk is None
            buf = carry if final else carry + chunk
            kept, cut = self.buffer(buf, base, len(carry), final, resume)
            yield kept
            carry, base = buf[cut:], base + cut

    def buffer(
        self, buf: bytes, base: int, carried: int, final: bool, resume: list[int]
    ) -> tuple[list[ExtractedString], int]:
        """The pieces a hit may claim in a buffer that starts at absolute
        ``base`` and holds ``carried`` bytes of carry, and the cut.

        A hit is a piece whose text the pattern matches, and it claims the
        pieces starting in [offset - reach, offset + byte_length + reach].
        A piece is kept if a hit in this buffer claims it, or if it lies
        within ``reach`` of a seam, where a hit in another buffer may claim
        it: an earlier buffer's hit ends by the end of the previous buffer,
        ``carried``, and a later buffer's hit starts at or past the cut.
        """
        n, reach = len(buf), self.reach

        def slot(unit: int, q: int) -> int:  # the stream's index into resume
            return 0 if unit == 1 else 1 + (base + q) % 2

        streams = {
            (unit, q): _Stream(
                buf, final, unit, q, resume[slot(unit, q)] - base, self.min_len,
                self.cap, self.long_runs[unit],
            )
            for unit, q in self.kinds
        }

        # The cut: the start of the last, unsettled cap piece of each
        # stream's run at the buffer end.
        cut = n
        if not final:
            for st in streams.values():
                end_run = st.run(st.at(n - 1))
                if end_run:
                    start = end_run[0]
                    cut = min(cut, start + (n - start) // st.span * st.span)
        # A stream resumes after its piece across the cut, if it has one.
        # Every earlier piece ends by the cut, where the next buffer starts.
        for (unit, q), st in streams.items():
            across = st.run(st.at(cut))
            if across and across[0] < cut:
                start, end = across
                at = cut - (cut - start) % st.span
                stop = min(at + st.span, end)
                if at < cut and stop - at >= st.min_bytes:
                    resume[slot(unit, q)] = base + stop

        claims = [(0, carried + reach), (cut - reach, cut - 1)]
        tested = set()
        for m in chain.from_iterable(needle.finditer(buf) for needle in self.needles):
            for st, lo, hi in self._spots(buf, m, streams):
                run = st.run(lo) if st else None
                for at, stop in st.run_pieces(run, lo, hi, cut) if run else ():
                    if (at, st.unit) not in tested:
                        tested.add((at, st.unit))
                        if self.search(buf[at:stop:st.unit].decode("ascii")):
                            claims.append((at - reach, stop + reach))

        # Carve the pieces that start in a claim: merge the claims, then
        # read each merged one in every stream.
        merged: list[list[int]] = []
        for lo, hi in sorted(claims):
            lo, hi = max(lo, 0), min(hi, cut - 1)
            if lo > hi:
                continue
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        rows = sorted(
            (at, st.unit, stop)
            for lo, hi in merged
            for st in streams.values()
            for at, stop in st.pieces(lo, hi + 1, cut)
            if at >= lo
        )
        # tuple.__new__ over ready rows skips ExtractedString's Python-level
        # __new__, a third of the cost of building each string.
        return [
            tuple.__new__(ExtractedString, (
                base + at, buf[at:stop:unit].decode("ascii"), _BY_UNIT[unit], stop - at
            ))
            for at, unit, stop in rows
        ], cut

    @staticmethod
    def _spots(buf: bytes, m: re.Match, streams: dict) -> Iterator[tuple]:
        """``(stream, lo, hi)``: where a piece may hold a literal whose first
        byte lies in the occurrence ``m``; the pieces overlapping [lo, hi)
        of the stream's run at ``lo``.

        Each search reports the leftmost occurrence past the one before, so
        every occurrence of its literals has its first byte in a reported
        one, R.  A literal in R's encoding lies in R's run.  In the other
        encoding, it is UTF-16LE and starts on the last byte of an ASCII
        R, as a NUL never sits inside an ASCII one, or it is one ASCII
        character on a UTF-16LE R.  That character is not R's first: its
        one-byte spelling sorts first in the alternation, so it would be
        reported there instead.  On a later byte of R it needs no test, as
        the UTF-16LE piece holding that byte holds the same literal and
        claims all it would.
        """
        start, end = m.span()
        if end - start > 1 and buf[start + 1] == 0:  # a UTF-16LE spelling
            yield streams.get((2, start % 2)), start, end
        else:
            yield streams.get((1, 0)), start, end
            if end < len(buf) and buf[end] == 0:
                yield streams.get((2, (end - 1) % 2)), end - 1, end


def _checked(
    image: MemoryImage | bytes,
    min_len: int,
    encodings: Iterable[Encoding],
    chunk_size: int,
    cap: int,
) -> tuple[MemoryImage, list[Encoding]]:
    """The image as a MemoryImage and the wanted encodings, once the
    options are checked."""
    if min_len < 1:
        raise InvalidOptionError("min_len must be at least 1")
    if cap < min_len:
        raise InvalidOptionError("cap must be >= min_len")
    if chunk_size < 1:
        raise InvalidOptionError("chunk_size must be at least 1")
    if chunk_size > MAX_CHUNK_SIZE:
        raise InvalidOptionError(f"chunk_size must be at most {MAX_CHUNK_SIZE}")
    wanted = list(dict.fromkeys(Encoding(e) for e in encodings))
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
    near: tuple[re.Pattern, int] | None = None,
) -> Iterator[ExtractedString]:
    """Stream every maximal printable run in the image, ascending by offset.

    Offsets within one encoding are strictly increasing; across encodings the
    stream is merged by offset (ASCII first on the rare exact tie).  The
    options are checked when this is called, not when the stream is first
    read.  The stream holds only the current chunk plus a carry of under
    ``2*cap+1`` bytes, so peak memory does not depend on image size.

    ``near=(pattern, reach)`` keeps a superset of the pieces a hit claims:
    every piece in a claim, plus pieces within reach of a buffer seam.  A
    hit is a piece whose text ``pattern`` matches, and it claims the pieces
    whose offset lies in [offset - reach, offset + byte_length + reach].
    The pattern must be an alternation of escaped printable-ASCII literals,
    as ``re.escape`` writes them, or InvalidOptionError is raised.  Only
    the kept pieces are built as strings, and each buffer's are yielded
    before the next chunk is read.  This path does not load numpy.
    """
    image, wanted = _checked(image, min_len, encodings, chunk_size, cap)
    if near is None:
        from .fullcarve import carve

        return carve(image, wanted, min_len, cap, chunk_size)
    pattern, reach = near
    if reach < 0:
        raise InvalidOptionError("reach must be at least 0")
    near_carve = _NearCarve(wanted, min_len, cap, pattern, reach)
    return chain.from_iterable(near_carve.carve(image, chunk_size))


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
