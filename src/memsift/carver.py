"""Carve printable strings, with offsets, out of raw memory images.

Two encodings are recognised: plain ASCII runs (bytes 0x20..0x7e) and
UTF-16LE runs (printable byte, NUL, repeated, at either byte parity).  A
run must reach ``min_len`` characters to be emitted, and runs longer than
``cap`` characters are split at the cap, each piece carrying its own
offset.

The image is carved one buffer at a time: the bytes carried over from the
previous buffer plus the next chunk.  Three streams are found in it: ASCII
bytes, and UTF-16LE read as little-endian words at each absolute byte
parity.  Each stream's runs are found on its mask ANDed with itself
shifted, so runs shorter than ``min_len`` never leave numpy; the one kept
anyway is the run that touches the buffer end.  It may still grow (a
trailing printable byte counts as a pair whose NUL may still arrive), so
its last cap piece is not settled yet.  The cut is the start of the
earliest unsettled piece.  Every piece starting before the cut is emitted,
and the bytes from the cut on are carried into the next buffer, where the
open run is found again.  The carry is therefore always under ``2*cap+1``
bytes.  Each stream resumes at the end of the last piece it emitted, so a
run found again keeps its cap grid.

The emitted stream is thus byte-for-byte identical whatever chunk size the
image is read with.  That is the one property everything downstream leans
on, and it is what the brute-force reference scan in the test suite checks
the implementation against.

Each buffer's pieces are found as numpy arrays (offset, stop, bytes per
character), and both consumers work from those arrays.  ``memsift
strings`` (``dump_strings``) never builds a string: it lays a buffer's
``offset:text`` lines out as one byte array, the decimal digits computed
by vectorised division and the characters gathered by index, and writes
it at once.  The scan is keyword-first: it asks
``carve_strings`` for the pieces near a keyword, and the carver tests all
of a buffer's pieces with one pattern search over their characters,
gathered the same way.  What it builds is a superset: every piece in a
claim, plus pieces within reach of a buffer seam, where a hit in another
buffer may claim them.  The scan's region rule drops the extra ones.
Each buffer is decided on its own, so nothing waits across buffers, and
printable text far from any keyword and from any seam never becomes a
Python object.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain, repeat, starmap
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .corpus import DEFAULT_CHUNK_SIZE, MemoryImage, _parse_digits, _parse_lines
from .errors import InvalidOptionError

DEFAULT_MIN_LEN = 4
DEFAULT_CAP = 4096
MAX_CHUNK_SIZE = 1 << 30  # keeps offset arithmetic within int64

_NO_INDEX = np.zeros(0, np.intp)
# 10, 100, ..., 10**18: a non-negative int64 has one digit more than the
# number of these it reaches.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
_GATHER_SLOTS = 1 << 18


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


def _runs(mask: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the maximal True runs of a boolean mask that
    are at least ``length`` long, then of the run that touches the mask's
    end whatever its length.

    A run is that long iff it holds a window of ``length`` Trues.  The
    window mask ANDs the mask with itself shifted, the shift doubling and
    one last step overlapping, so its runs are the long runs, each ending
    ``length - 1`` early.  Short runs thus never leave numpy.
    """
    window, width = mask, 1
    while width < length:
        step = min(width, length - width)
        window = window[:-step] & window[step:]
        width += step
    edges = np.flatnonzero(np.diff(window, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2] + (length - 1)
    n = mask.size
    if n and mask[-1] and not (ends.size and ends[-1] == n):
        # A shorter end run lies within the last length - 1 places.
        lead = max(n - length + 1, 0)
        gaps = np.flatnonzero(~mask[lead:])
        start = lead + (int(gaps[-1]) + 1 if gaps.size else 0)
        starts, ends = np.append(starts, start), np.append(ends, n)
    return starts, ends


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
    cut, the buffer index the next buffer starts at.  Only runs of at least
    ``min_len`` characters, and the run at the buffer end, leave numpy;
    UTF-16LE is read as words.  ``resume`` holds, per stream (ASCII, then
    UTF-16LE at absolute parity 0 and 1), the absolute end of the last piece
    it emitted; it is updated in place.
    """
    n = len(buf)
    streams = []  # (stream, bytes per char, run starts, run ends)
    if Encoding.ASCII in wanted:
        # uint8 arithmetic wraps, so one compare tests 0x20..0x7e.
        printable = np.frombuffer(buf, np.uint8) - np.uint8(0x20) < 0x5F
        streams.append((0, 1, *_runs(printable, min_len)))
    if Encoding.UTF16LE in wanted and n:
        for q in (0, 1):
            # A printable byte then a NUL is one little-endian word in
            # 0x20..0x7e.
            words = np.frombuffer(buf, "<u2", (n - q) // 2, q)
            pair = words - np.uint16(0x20) < 0x5F
            if (n - q) % 2 and not final:  # its NUL may still arrive
                pair = np.append(pair, 0x20 <= buf[-1] <= 0x7E)
            starts, ends = _runs(pair, min_len)
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


def _buffers(
    image: MemoryImage, wanted: list[Encoding], min_len: int, cap: int, chunk_size: int
) -> Iterator[tuple[bytes, int, np.ndarray, np.ndarray, np.ndarray, int, int]]:
    """Yield ``(buf, base, offset, stop, unit, carried, cut)`` per buffer:
    the buffer, its absolute offset, its settled pieces (see ``_spans``),
    the bytes carried into it and its cut.  The last buffer is all carry,
    and every piece in it lies before the end of the previous buffer."""
    resume = [0, 0, 0]
    carry, base = b"", 0
    for chunk in chain(image.chunks(chunk_size), [None]):
        final = chunk is None
        buf = carry if final else carry + chunk
        offset, stop, unit, cut = _spans(buf, base, wanted, resume, min_len, cap, final)
        yield buf, base, offset, stop, unit, len(carry), cut
        carry, base = buf[cut:], base + cut


def _gather(
    buf: bytes, offset: np.ndarray, stop: np.ndarray, unit: np.ndarray, lead=0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every piece's characters read out of ``buf``, each after ``lead``
    free slots (a count, or one per piece) and before one more.  Returns
    the bytes, where each piece's slots start and how many it has.  The
    free slots hold arbitrary bytes for the caller to set."""
    width = lead + (stop - offset) // unit + 1
    end = np.cumsum(width)
    text = np.empty(int(end[-1]), np.uint8)
    source = np.frombuffer(buf, np.uint8)
    lead = np.broadcast_to(lead, offset.shape)
    # The index, 8 bytes a slot, is built for about _GATHER_SLOTS slots of
    # pieces at a time, so it stays small beside the buffer.
    cuts = np.searchsorted(end, range(_GATHER_SLOTS, int(end[-1]), _GATHER_SLOTS))
    bounds = list(dict.fromkeys([0, *cuts.tolist(), offset.size]))
    for lo, hi in zip(bounds, bounds[1:]):
        w = width[lo:hi]
        first = np.cumsum(w) - w
        # Running sums: every slot steps by its piece's unit, and a piece's
        # first character jumps to its offset from the previous piece's
        # last slot, which reads that piece's stop.
        index = np.repeat(unit[lo:hi].astype(np.intp), w)
        index[first + lead[lo:hi]] = (
            offset[lo:hi] - np.concatenate(([0], stop[lo : hi - 1]))
            - lead[lo:hi] * unit[lo:hi]
        )
        np.cumsum(index, out=index)
        source.take(index, out=text[end[lo] - w[0] : end[hi - 1]], mode="clip")
    return text, end - width, width


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


def _lines(
    buf: bytes, base: int, offset: np.ndarray, stop: np.ndarray, unit: np.ndarray
) -> np.ndarray:
    """The ``offset:text`` lines (decimal absolute offset, LF) of the given
    pieces of a buffer that starts at ``base``, as one byte array."""
    value = offset.astype(np.int64) + base
    digits = np.searchsorted(_POWERS_OF_TEN, value, "right") + 1
    lines, first, width = _gather(buf, offset, stop, unit, lead=digits + 1)
    at = first + digits  # the colon, then each digit leftwards
    lines[at] = ord(":")
    lines[first + width - 1] = ord("\n")
    for k in range(int(digits.max())):
        if k >= digits.min():  # drop the offsets with no digit left
            more = digits > k
            at, value, digits = at[more], value[more], digits[more]
        at = at - 1
        value, digit = np.divmod(value, 10)
        lines[at] = digit + ord("0")
    return lines


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
    # Search every piece's characters at once, a NUL after each, and map
    # each match back to its piece.
    text, first, width = _gather(buf, offset, stop, unit)
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
    The pattern must be ASCII and match only printable text, as a literal
    alternation does; it is searched as bytes over the pieces' characters.
    Only the kept pieces are built as strings, and each buffer's are
    yielded before the next chunk is read.
    """
    image, wanted = _checked(image, min_len, encodings, chunk_size, cap)
    if near is None:
        def pick(buf, base, offset, stop, unit, carried, cut):
            return _strings(buf, base, offset, stop, unit)
    else:
        pattern, reach = near
        if reach < 0:
            raise InvalidOptionError("reach must be at least 0")
        finditer = re.compile(
            pattern.pattern.encode("ascii"), pattern.flags & ~re.UNICODE
        ).finditer

        def pick(buf, base, offset, stop, unit, carried, cut):
            keep = _near(finditer, reach, buf, offset, stop, unit, carried, cut)
            return _strings(buf, base, offset[keep], stop[keep], unit[keep])

    # starmap lets go of each buffer once its pieces are picked, and chain
    # of its strings once they are read, so neither is held while the next
    # buffer is carved.
    return chain.from_iterable(starmap(pick, _buffers(image, wanted, min_len, cap, chunk_size)))


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

    def write(buf, base, offset, stop, unit, carried, cut):
        if offset.size:
            sink.write(_lines(buf, base, offset, stop, unit))
        return offset.size

    # starmap lets go of each buffer once it is written, so it is not held
    # while the next buffer is carved.
    return sum(starmap(write, _buffers(image, wanted, min_len, cap, chunk_size)))


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
