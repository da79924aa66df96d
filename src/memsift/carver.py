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
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .corpus import DEFAULT_CHUNK_SIZE, MemoryImage
from .errors import MalformedLineError

DEFAULT_MIN_LEN = 4
DEFAULT_CAP = 4096

_ZERO8 = np.zeros(1, np.int8)


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


def _carve_buffer(
    buf: bytes,
    base: int,
    wanted: list[Encoding],
    resume: list[int],
    min_len: int,
    cap: int,
    final: bool,
) -> tuple[list[ExtractedString], int]:
    """Carve a buffer that starts at absolute offset ``base``.

    Returns the settled pieces, ordered by (offset, ASCII first), and the
    cut, the buffer index the next buffer starts at.  ``resume`` holds,
    per stream (ASCII, then UTF-16LE at absolute parity 0 and 1), the
    absolute end of the last piece it emitted; it is updated in place.
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
        return [], cut
    offset, stop, unit = (np.concatenate(x) for x in (offsets, stops, units))
    if len(offsets) > 1:
        order = np.lexsort((unit, offset))
        offset, stop, unit = offset[order], stop[order], unit[order]
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
    return list(map(tuple.__new__, repeat(ExtractedString), rows)), cut


def carve_strings(
    image: MemoryImage | bytes,
    min_len: int = DEFAULT_MIN_LEN,
    encodings: Iterable[Encoding] = BOTH_ENCODINGS,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cap: int = DEFAULT_CAP,
) -> Iterator[ExtractedString]:
    """Stream every maximal printable run in the image, ascending by offset.

    Offsets within one encoding are strictly increasing; across encodings the
    stream is merged by offset (ASCII first on the rare exact tie).  The
    generator holds only the current chunk plus a carry of under
    ``2*cap+1`` bytes, so peak memory does not depend on image size.
    """
    if min_len < 1:
        raise ValueError("min_len must be at least 1")
    if cap < min_len:
        raise ValueError("cap must be >= min_len")
    wanted = list(dict.fromkeys(Encoding(e) for e in encodings))
    if not wanted:
        raise ValueError("at least one encoding is required")
    if isinstance(image, (bytes, bytearray)):
        image = MemoryImage.from_bytes(bytes(image))

    resume = [0, 0, 0]
    carry, base = b"", 0
    for chunk in image.chunks(chunk_size):
        buf = carry + chunk
        pieces, cut = _carve_buffer(
            buf, base, wanted, resume, min_len, cap, final=False
        )
        yield from pieces
        carry, base = buf[cut:], base + cut
    yield from _carve_buffer(carry, base, wanted, resume, min_len, cap, final=True)[0]


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


def parse_strings_file(
    source: str | Path | IO[str] | Iterable[str],
) -> Iterator[tuple[int, str]]:
    """Parse an ``offset:text`` file back into (offset, text) tuples.

    The first colon splits the line; text keeps any further colons.  A line
    with no colon or a non-decimal offset raises MalformedLineError carrying
    the 1-based line number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from parse_strings_file(fh)
        return
    for lineno, raw in enumerate(source, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        head, sep, text = line.partition(":")
        if not sep:
            raise MalformedLineError(lineno, line, "no ':' separator")
        if not head.isdigit():
            raise MalformedLineError(lineno, line, "offset is not a decimal integer")
        yield int(head), text
