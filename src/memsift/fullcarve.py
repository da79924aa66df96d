"""The full carve: every piece of an image, found as numpy arrays.

``carve_strings`` without ``near`` and ``dump_strings`` (``memsift
strings``) come here, so only they load numpy; the piece rules are the
ones ``memsift.carver`` describes.  The buffers come from
``carver._buffers``, each with its streams, where each resumes, and its
cut.  Each stream's runs (ASCII, and UTF-16LE read as little-endian words
at its byte parity) are found on its mask ANDed with itself shifted, so
runs shorter than ``min_len`` never leave numpy, and each is cut into cap
pieces from the stream's floor up to the cut.  ``carve`` builds a
buffer's pieces as strings.  ``dump`` builds none: it lays a buffer's
``offset:text`` lines out as one byte array, the decimal digits by
vectorised division and the characters gathered by index, and writes it
at once.
"""

from __future__ import annotations

from itertools import chain, repeat, starmap
from typing import BinaryIO, Iterator

import numpy as np

from .carver import _BY_UNIT, Encoding, ExtractedString, _buffers, _Stream
from .corpus import MemoryImage

_NO_INDEX = np.zeros(0, np.intp)
# 10, 100, ..., 10**18: a non-negative int64 has one digit more than the
# number of these it reaches.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
_GATHER_SLOTS = 1 << 18


def _runs(mask: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the maximal True runs of a boolean mask that
    are at least ``length`` long.

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
    return edges[::2], edges[1::2] + (length - 1)


def _cap_pieces(
    starts: np.ndarray, ends: np.ndarray, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split each run into pieces of at most span bytes, laid from its start."""
    count = (ends - starts + span - 1) // span
    first = np.repeat(np.cumsum(count) - count, count)
    piece_starts = np.repeat(starts, count) + (np.arange(first.size) - first) * span
    return piece_starts, np.minimum(piece_starts + span, np.repeat(ends, count))


def _spans(
    buf: bytes, base: int, streams: dict[tuple[int, int], _Stream], cut: int
) -> tuple[bytes, int, np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of a buffer of ``carver._buffers``, as ``(buf, base,
    offset, stop, unit)``: their buffer indices ``offset`` and ``stop`` and
    their bytes per character ``unit``, ordered by (offset, ASCII first).

    Each stream's runs of at least ``min_len`` characters are found on its
    mask, UTF-16LE read as words; each run starts no earlier than the
    stream's floor and is cut into cap pieces, and the pieces that start
    before the cut are kept.
    """
    offsets, stops, units = [], [], []
    for st in streams.values() if buf else ():  # frombuffer rejects b"" at parity 1
        unit, q = st.unit, st.parity
        # A printable byte then a NUL is one little-endian word in
        # 0x20..0x7e, and unsigned arithmetic wraps, so one compare tests
        # either.
        chars = np.frombuffer(buf, "<u%d" % unit, (len(buf) - q) // unit, q)
        starts, ends = _runs(chars - chars.dtype.type(0x20) < 0x5F, st.min_bytes // unit)
        if unit == 2:  # word indices to buffer indices
            starts, ends = 2 * starts + q, 2 * ends + q
        starts = np.maximum(starts, st.floor)
        keep = (ends - starts >= st.min_bytes) & (starts < cut)
        starts, ends = starts[keep], ends[keep]
        if not starts.size:
            continue
        if (ends - starts).max() > st.span:
            starts, ends = _cap_pieces(starts, ends, st.span)
            keep = (ends - starts >= st.min_bytes) & (starts < cut)
            starts, ends = starts[keep], ends[keep]
        offsets.append(starts)
        stops.append(ends)
        units.append(np.full(starts.size, unit, np.int8))
    if not offsets:
        return buf, base, _NO_INDEX, _NO_INDEX, _NO_INDEX.astype(np.int8)
    offset, stop, unit = (np.concatenate(x) for x in (offsets, stops, units))
    if len(offsets) > 1:
        order = np.lexsort((unit, offset))
        offset, stop, unit = offset[order], stop[order], unit[order]
    return buf, base, offset, stop, unit


def _gather(
    buf: bytes, offset: np.ndarray, stop: np.ndarray, unit: np.ndarray, lead
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every piece's characters read out of ``buf``, each after ``lead``
    free slots (one count per piece) and before one more.  Returns the
    bytes, where each piece's slots start and how many it has.  The free
    slots hold arbitrary bytes for the caller to set."""
    width = lead + (stop - offset) // unit + 1
    end = np.cumsum(width)
    text = np.empty(int(end[-1]), np.uint8)
    source = np.frombuffer(buf, np.uint8)
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


def carve(
    image: MemoryImage, wanted: list[Encoding], min_len: int, cap: int, chunk_size: int
) -> Iterator[ExtractedString]:
    """Every piece of the image as a string, ascending by offset."""
    # starmap lets go of each buffer once its strings are built, and chain
    # of its strings once they are read, so neither is held while the next
    # buffer is carved.
    buffers = _buffers(image, wanted, min_len, cap, chunk_size)
    return chain.from_iterable(starmap(_strings, starmap(_spans, buffers)))


def dump(
    image: MemoryImage, sink: BinaryIO, wanted: list[Encoding], min_len: int, cap: int,
    chunk_size: int,
) -> int:
    """Write every piece's ``offset:text`` line to ``sink``, one write per
    buffer, and return the number of lines."""

    def write(buf, base, offset, stop, unit):
        if offset.size:
            sink.write(_lines(buf, base, offset, stop, unit))
        return offset.size

    # starmap lets go of each buffer once it is written, so it is not held
    # while the next buffer is carved.
    buffers = _buffers(image, wanted, min_len, cap, chunk_size)
    return sum(starmap(write, starmap(_spans, buffers)))
