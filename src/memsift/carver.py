"""Carve printable strings, with offsets, out of raw memory images.

Two encodings are recognised: plain ASCII runs (bytes 0x20..0x7e) and
UTF-16LE runs (printable byte, NUL, repeated, at either byte parity).  A
run must reach ``min_len`` characters to be emitted, and runs longer than
``cap`` characters are split at the cap, each piece carrying its own
offset.

The image is carved one buffer at a time: the bytes carried over from the
previous buffer plus the next chunk.  Three streams are found in it by
mask diffs: ASCII, and UTF-16LE at each absolute byte parity.  A run that
touches the buffer end may still grow (a trailing printable byte counts
as a pair whose NUL may still arrive), so its last cap piece is not
settled yet.  The cut is the start of the earliest unsettled piece.  Every
piece starting before the cut is emitted, and the bytes from the cut on
are carried into the next buffer, where the open run is found again.  The
carry is therefore always under ``2*cap+1`` bytes.  Each stream resumes at
the end of the last piece it emitted, so a run found again keeps its cap
grid.

The emitted stream is thus byte-for-byte identical whatever chunk size the
image is read with.  That is the one property everything downstream leans
on, and it is what the brute-force reference scan in the test suite checks
the implementation against.

Pieces are found as numpy arrays (offset, stop, bytes per character) and
only then built as strings.  ``memsift strings`` builds every piece.  The
scan is keyword-first: it asks for the pieces near a keyword, and the
carver tests all of a buffer's pieces with one pattern search over their
gathered characters.  What it builds is a superset: every piece in a
claim, plus pieces within reach of a buffer seam, where a hit in another
buffer may claim them.  The scan's region rule drops the extra ones.
Each buffer is decided on its own, so nothing waits across buffers, and
printable text far from any keyword and from any seam never becomes a
Python object.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .corpus import DEFAULT_CHUNK_SIZE, MemoryImage, _parse_digits, _parse_lines
from .errors import InvalidOptionError

DEFAULT_MIN_LEN = 4
DEFAULT_CAP = 4096

_ZERO8 = np.zeros(1, np.int8)
_NO_INDEX = np.zeros(0, np.intp)


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


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the maximal True runs of a boolean mask."""
    edges = np.diff(mask.view(np.int8), prepend=_ZERO8, append=_ZERO8)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _cap_pieces(
    starts: np.ndarray, ends: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split each run into pieces of at most span bytes, laid from its start."""
    count = (ends - starts + span - 1) // span
    first = np.repeat(np.cumsum(count) - count, count)
    piece_starts = np.repeat(starts, count) + (np.arange(first.size) - first) * span
    return piece_starts, np.minimum(piece_starts + span, np.repeat(ends, count))


def _spans(
    buf: bytes,
    base: int,
    wanted: list[Encoding],
    resume: list[int],
    min_len: int,
    cap: int,
    final: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Find the settled pieces of a buffer that starts at absolute offset
    ``base``.

    Returns the pieces' buffer indices ``offset`` and ``stop`` and their
    bytes per character ``unit``, ordered by (offset, ASCII first), and the
    cut, the buffer index the next buffer starts at.  ``resume`` holds, per
    stream (ASCII, then UTF-16LE at absolute parity 0 and 1), the absolute
    end of the last piece it emitted; it is updated in place.
    """
    n = len(buf)
    a = np.frombuffer(buf, np.uint8)
    printable = (a >= 0x20) & (a <= 0x7E)
    streams = []  # (stream, bytes per char, run starts, run ends)
    if Encoding.ASCII in wanted:
        streams.append((0, 1, *_runs(printable)))
    if Encoding.UTF16LE in wanted and n:
        pair = printable.copy()
        pair[:-1] &= a[1:] == 0
        if final:
            pair[-1] = False
        for q in (0, 1):
            starts, ends = _runs(pair[q::2])
            streams.append((1 + (base + q) % 2, 2, 2 * starts + q, 2 * ends + q))

    cut = n
    if not final:
        for k, unit, starts, ends in streams:
            if ends.size and ends[-1] >= n:
                span = unit * cap
                start = max(int(starts[-1]), resume[k] - base)
                cut = min(cut, start + (n - start) // span * span)

    offsets, stops, units = [], [], []
    for k, unit, starts, ends in streams:
        if not starts.size:
            continue
        starts = np.maximum(starts, resume[k] - base)
        keep = (ends - starts >= unit * min_len) & (starts < cut)
        starts, ends = starts[keep], ends[keep]
        if not starts.size:
            continue
        if (ends - starts).max() > unit * cap:
            starts, ends = _cap_pieces(starts, ends, unit * cap)
            keep = (ends - starts >= unit * min_len) & (starts < cut)
            starts, ends = starts[keep], ends[keep]
        resume[k] = base + int(ends[-1])
        offsets.append(starts)
        stops.append(ends)
        units.append(np.full(starts.size, unit, np.int8))
    if not offsets:
        return _NO_INDEX, _NO_INDEX, _NO_INDEX.astype(np.int8), cut
    offset, stop, unit = (np.concatenate(x) for x in (offsets, stops, units))
    if len(offsets) > 1:
        order = np.lexsort((unit, offset))
        offset, stop, unit = offset[order], stop[order], unit[order]
    return offset, stop, unit, cut


def _strings(
    buf: bytes, base: int, offset: np.ndarray, stop: np.ndarray, unit: np.ndarray
) -> list[ExtractedString]:
    """Build the given pieces of a buffer that starts at absolute ``base``."""
    steps = unit.tolist()
    texts = [
        buf[s:e:u].decode("ascii")
        for s, e, u in zip(offset.tolist(), stop.tolist(), steps)
    ]
    # tuple.__new__ over ready rows skips ExtractedString's Python-level
    # __new__, a third of the cost of building each string.
    rows = zip(
        (offset + base).tolist(),
        texts,
        map(_BY_UNIT.__getitem__, steps),
        (stop - offset).tolist(),
    )
    return list(map(tuple.__new__, repeat(ExtractedString), rows))


def _near(
    finditer, reach: int, buf: bytes, offset: np.ndarray, stop: np.ndarray,
    unit: np.ndarray, carried: int, cut: int,
) -> np.ndarray:
    """A mask of the pieces a hit may claim in a buffer that holds
    ``carried`` bytes of carry, then a chunk, and is cut at ``cut``.  A hit
    is a piece whose text ``finditer`` matches, and it claims [offset -
    reach, offset + byte_length + reach].

    A piece is kept if it lies in the claim of a hit in this buffer, or
    within ``reach`` of a seam, where a hit in another buffer may claim
    it: an earlier buffer's hit ends by the end of the previous buffer,
    ``carried``, and a later buffer's hit starts at or past ``cut``.  Every
    claimed piece is thus kept, plus some near seams that no claim holds.
    """
    keep = (offset <= carried + reach) | (offset >= cut - reach)
    if not offset.size:
        return keep
    # Gather every piece's characters with one index, a NUL after each,
    # search the result once and map each match back to its piece.
    width = (stop - offset) // unit + 1  # characters plus the NUL
    first = np.cumsum(width) - width  # where each piece starts in the text
    # Gather indices as running sums: each piece steps by its unit from its
    # offset, and its NUL slot reads its stop.
    index = np.repeat(unit, width).astype(np.intp)
    index[first] = offset - np.concatenate(([0], stop[:-1]))
    np.cumsum(index, out=index)
    text = np.frombuffer(buf, np.uint8).take(index, mode="clip")
    text[first + width - 1] = 0
    starts = [m.start() for m in finditer(text)]
    if starts:
        # Ascending, and a piece with several matches repeats, which
        # neither step below minds.  (np.unique would import numpy.ma, a
        # cost of its own in every scan process.)
        hit = np.searchsorted(first, starts, "right") - 1
        # The hits that start within reach before a piece are a prefix of
        # them; the piece is claimed iff the furthest claim end among that
        # prefix reaches it.
        claim_end = np.maximum.accumulate(stop[hit] + reach)
        k = np.searchsorted(offset[hit], offset + reach, "right") - 1
        keep |= (k >= 0) & (claim_end[k] >= offset)
    return keep


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
    The pattern must be ASCII and match only printable text, as a literal
    alternation does; it is searched as bytes over the pieces' characters.
    Only the kept pieces are built as strings, and each buffer's are
    yielded before the next chunk is read.
    """
    if min_len < 1:
        raise InvalidOptionError("min_len must be at least 1")
    if cap < min_len:
        raise InvalidOptionError("cap must be >= min_len")
    if chunk_size < 1:
        raise InvalidOptionError("chunk_size must be at least 1")
    wanted = list(dict.fromkeys(Encoding(e) for e in encodings))
    if not wanted:
        raise InvalidOptionError("at least one encoding is required")
    if near is not None and near[1] < 0:
        raise InvalidOptionError("reach must be at least 0")
    if isinstance(image, (bytes, bytearray)):
        image = MemoryImage.from_bytes(bytes(image))
    return _carve(image, wanted, min_len, cap, chunk_size, near)


def _carve(
    image: MemoryImage,
    wanted: list[Encoding],
    min_len: int,
    cap: int,
    chunk_size: int,
    near: tuple[re.Pattern, int] | None,
) -> Iterator[ExtractedString]:
    if near is None:
        def pick(buf, offset, stop, unit, carried, cut):
            return offset, stop, unit
    else:
        pattern, reach = near
        finditer = re.compile(
            pattern.pattern.encode("ascii"), pattern.flags & ~re.UNICODE
        ).finditer

        def pick(buf, offset, stop, unit, carried, cut):
            keep = _near(finditer, reach, buf, offset, stop, unit, carried, cut)
            return offset[keep], stop[keep], unit[keep]

    resume = [0, 0, 0]
    carry, base = b"", 0
    for chunk in image.chunks(chunk_size):
        buf = carry + chunk
        offset, stop, unit, cut = _spans(
            buf, base, wanted, resume, min_len, cap, final=False
        )
        yield from _strings(buf, base, *pick(buf, offset, stop, unit, len(carry), cut))
        carry, base = buf[cut:], base + cut
    # The last buffer is all carry: every piece in it lies before the end
    # of the previous buffer.
    offset, stop, unit, cut = _spans(carry, base, wanted, resume, min_len, cap, final=True)
    yield from _strings(carry, base, *pick(carry, offset, stop, unit, len(carry), cut))


def write_strings_file(
    strings: Iterable[ExtractedString], sink: str | Path | IO[str]
) -> int:
    """Write ``offset:text`` lines (decimal offset, UTF-8, LF).  Returns the
    number of lines written."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            return write_strings_file(strings, fh)
    count = 0
    for s in strings:
        sink.write(f"{s.offset}:{s.text}\n")
        count += 1
    return count


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
