"""String carving against brute-force and vectorized references."""

import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsift import (
    BOTH_ENCODINGS,
    DEFAULT_CAP,
    Encoding,
    ExtractedString,
    MemoryImage,
    carve_strings,
    dump_strings,
)
from memsift import (
    carver,
    fabricate,
    fabricator,
    fullcarve,
    load_manifest,
    scan_manifest,
    table1_preset,
)
from memsift.fullcarve import _lines, _spans
from memsift.errors import InvalidOptionError

from oracles import (
    carve_bruteforce,
    carve_numpy,
    catalog_near,
    random_buffer,
    strings_tuples,
)
from seams import at_seams

# byte soup with enough printable mass to form runs, plus soup dense in
# (printable, NUL) pairs so UTF-16LE chains cross chunk seams too, plus
# words in both encodings, whose runs reach the longer min_len windows
_blobs = st.binary(min_size=0, max_size=2048) | st.lists(
    st.sampled_from(b"aZ~ \x00\x00\x01"), max_size=2048
).map(bytes) | st.lists(
    st.sampled_from([b"word ", "word ".encode("utf-16-le"), b"\x00", b"\x01"]),
    max_size=300,
).map(b"".join)
_chunky = st.integers(min_value=1, max_value=257)
_encoding_sets = st.sampled_from(
    [(Encoding.ASCII,), (Encoding.UTF16LE,), BOTH_ENCODINGS]
)


@st.composite
def _len_and_cap(draw):
    """min_len, and a cap small enough that cap pieces meet chunk seams.
    Some draws take a min_len of 7..40, a wider run window that is mostly
    not a power of two, and some take cap equal to min_len."""
    min_len = draw(st.integers(1, 6) | st.integers(7, 40))
    return min_len, draw(st.integers(min_len, min_len + 30) | st.just(min_len))


def _long_runs_reference(mask, length):
    """(start, end) of each maximal True run at least ``length`` long, from
    plain edge diffs."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    starts, ends = edges[::2], edges[1::2]
    keep = ends - starts >= length
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


@st.composite
def _run_masks(draw):
    """A boolean mask laid out as alternating runs, some about 4096 long."""
    lengths = draw(st.lists(
        st.integers(1, 80) | st.sampled_from([4095, 4096, 4097]), max_size=12
    ))
    bits = np.arange(len(lengths)) % 2 == draw(st.integers(0, 1))
    return np.repeat(bits, lengths)


@settings(max_examples=300)
@given(_run_masks(), st.integers(1, 70) | st.just(4096))
def test_runs_keeps_long_runs(mask, length):
    starts, ends = fullcarve._runs(mask, length)
    assert list(zip(starts.tolist(), ends.tolist())) == _long_runs_reference(mask, length)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 64, 70, 4096])
def test_runs_on_edge_masks(length):
    masks = [
        np.zeros(length - 1, bool),  # shorter than the window
        np.ones(length - 1, bool),
        np.zeros(3 * length, bool),
        np.ones(3 * length, bool),
        np.r_[np.ones(length, bool), False, np.ones(length - 1, bool)],  # end run of length - 1
        np.r_[False, np.ones(length - 1, bool)],
        np.r_[np.ones(length - 1, bool), False],
    ]
    for mask in masks:
        starts, ends = fullcarve._runs(mask, length)
        assert list(zip(starts.tolist(), ends.tolist())) == _long_runs_reference(mask, length)


@pytest.mark.parametrize("min_len", [3, 4, 5, 7, 64])
@pytest.mark.parametrize("wide", [False, True])
def test_short_end_run_grows_past_min_len_in_next_chunk(min_len, wide):
    """A run shorter than min_len at a chunk's end is carried, not dropped,
    and comes out whole once the next chunk makes it long enough.  Every
    split of the run's first min_len characters is tried, at both chunk
    parities: UTF-16LE meets the seam at both byte parities, and between a
    printable last byte and its NUL."""
    text = "".join(chr(ord("A") + i % 26) for i in range(min_len + 2))
    encoded = text.encode("utf-16-le" if wide else "ascii")
    for chunk_size in (200, 201):
        for before in range(1, (1 + wide) * min_len):  # bytes in the first chunk
            start = chunk_size - before
            data = b"\x01" * start + encoded + b"\x01" * 10
            rows = strings_tuples(carve_strings(data, min_len, chunk_size=chunk_size))
            assert rows == [(start, text, "utf16le" if wide else "ascii")]


def test_simple_ascii_run():
    rows = strings_tuples(carve_strings(b"\x00\x01param1=&uName=x\xffrest"))
    assert rows[0] == (2, "param1=&uName=x", "ascii")


def test_min_len_filters_short_runs():
    data = b"ab\x00abc\x00abcd\x00abcde"
    got = [s.text for s in carve_strings(data, min_len=4)]
    assert got == ["abcd", "abcde"]
    got5 = [s.text for s in carve_strings(data, min_len=5)]
    assert got5 == ["abcde"]


def test_utf16_both_alignments():
    even = "user".encode("utf-16-le")
    odd = b"\xff" + "name".encode("utf-16-le")
    rows = strings_tuples(carve_strings(even))
    assert rows == [(0, "user", "utf16le")]
    rows = strings_tuples(carve_strings(odd))
    assert rows == [(1, "name", "utf16le")]


def test_encoding_restriction():
    # \x01 separator so the trailing NUL of "plain" cannot seed a pair chain
    data = b"plain\x01" + "wide".encode("utf-16-le")
    only_ascii = carve_strings(data, encodings=(Encoding.ASCII,))
    assert [s.text for s in only_ascii] == ["plain"]
    only_wide = carve_strings(data, encodings=(Encoding.UTF16LE,))
    assert [s.text for s in only_wide] == ["wide"]


@pytest.mark.parametrize("bad, message", [
    (dict(min_len=0), "min_len must be at least 1"),
    (dict(cap=0), "cap must be >= min_len"),
    (dict(chunk_size=0), "chunk_size must be at least 1"),
    (dict(encodings=()), "at least one encoding is required"),
    (dict(near=(["pass"], ["pass"], -1)), "delta must be at least 0"),
    (dict(chunk_size=(1 << 30) + 1), "chunk_size must be at most 1073741824"),
    (dict(encodings=["latin1"]), "'latin1' is not a valid Encoding; expected ascii, utf16le"),
    (dict(encodings="ascii"), "encodings must be a collection of names, not one string"),
    (dict(min_len=4.0), "min_len must be an integer, not 4.0"),
    (dict(cap=4096.0), "cap must be an integer, not 4096.0"),
    (dict(chunk_size=100.5), "chunk_size must be an integer, not 100.5"),
    (dict(near=(["pass"], ["pass"], 2.5)), "delta must be an integer, not 2.5"),
])
def test_bad_options_raise_on_call(bad, message):
    # Raised by the call itself, before any string is pulled.
    with pytest.raises(InvalidOptionError, match=message):
        carve_strings(b"abcdabcd", **bad)
    if "near" not in bad:  # and by the writer before it opens its path
        with pytest.raises(InvalidOptionError, match=message):
            dump_strings(b"abcdabcd", "/nonexistent/dir/out", **bad)


def test_cap_splits_long_runs():
    data = b"A" * 10000
    rows = list(carve_strings(data, cap=4096))
    assert [(s.offset, len(s.text)) for s in rows] == [(0, 4096), (4096, 4096), (8192, 1808)]


@pytest.mark.parametrize("codec, lead", [("ascii", 0), ("utf-16-le", 0), ("utf-16-le", 1)])
def test_run_across_whole_buffers_is_its_cap_pieces(codec, lead):
    """A 3 MiB run spans whole buffers at the default chunk size and
    comes out as exactly its cap pieces, laid from its start, whether
    carved or written, at both byte parities in UTF-16LE."""
    unit = len("w".encode(codec))
    text = "word " * ((3 << 20) // unit // 5)  # the last piece falls short of the cap
    data = b"\x01" * lead + text.encode(codec) + b"\x01"
    encoding = "ascii" if unit == 1 else "utf16le"
    want = [
        (lead + unit * at, text[at : at + DEFAULT_CAP], encoding)
        for at in range(0, len(text), DEFAULT_CAP)
    ]
    assert strings_tuples(carve_strings(data)) == want
    sink = io.BytesIO()
    assert dump_strings(data, sink) == len(want)
    assert sink.getvalue() == _lines_of(want)


def test_cap_tail_below_min_len_dropped():
    # 4099 = 4096 + 3; the 3-char tail is shorter than min_len and goes away
    rows = list(carve_strings(b"B" * 4099, min_len=4, cap=4096))
    assert [(s.offset, len(s.text)) for s in rows] == [(0, 4096)]


def test_runs_crossing_chunk_boundaries():
    # place a run so it straddles the chunk edge at every small offset
    for shift in range(-3, 4):
        data = bytearray(b"\x00" * 300)
        start = 128 + shift
        data[start : start + 12] = b"straddle=yes"
        rows = strings_tuples(carve_strings(bytes(data), chunk_size=128))
        assert (start, "straddle=yes", "ascii") in rows


def test_utf16_run_crossing_chunk_boundary():
    data = bytearray(b"\x01" * 200)
    enc = "boundary".encode("utf-16-le")
    data[121 : 121 + len(enc)] = enc
    rows = strings_tuples(carve_strings(bytes(data), chunk_size=128))
    assert (121, "boundary", "utf16le") in rows


@settings(max_examples=150)
@given(_blobs, _len_and_cap(), _chunky, _encoding_sets)
def test_matches_bruteforce(data, len_and_cap, chunk_size, encodings):
    assert strings_tuples(carve_strings(data)) == carve_bruteforce(data)
    min_len, cap = len_and_cap
    got = carve_strings(data, min_len, encodings, chunk_size=chunk_size, cap=cap)
    want = [row for row in carve_bruteforce(data, min_len, cap) if row[2] in encodings]
    assert strings_tuples(got) == want


@settings(max_examples=150)
@given(_blobs, _chunky, _len_and_cap(), _encoding_sets)
def test_chunk_size_independence(data, chunk_size, len_and_cap, encodings):
    whole = strings_tuples(carve_strings(data))
    chunked = strings_tuples(carve_strings(data, chunk_size=chunk_size))
    assert whole == chunked
    min_len, cap = len_and_cap
    whole = strings_tuples(carve_strings(data, min_len, encodings, cap=cap))
    chunked = carve_strings(data, min_len, encodings, chunk_size=chunk_size, cap=cap)
    assert strings_tuples(chunked) == whole


class _CountingImage:
    """Wraps an image's chunks() to record how many bytes were read."""

    def __init__(self, data: bytes):
        self.image = MemoryImage.from_bytes(data)
        self.read = 0

    def chunks(self, chunk_size):
        for chunk in self.image.chunks(chunk_size):
            self.read += len(chunk)
            yield chunk


def _interleaved(size: int) -> bytes:
    rng = np.random.default_rng(5)
    out = bytearray()
    while len(out) < size:
        text = bytes(rng.integers(0x20, 0x7F, int(rng.integers(1, 12000)), np.uint8))
        out += text if rng.random() < 0.5 else text.decode().encode("utf-16-le")
    return bytes(out[:size])


_LAG_IMAGES = {
    "ascii": lambda: b"x" * (3 << 20),
    "utf16le": lambda: "x".encode("utf-16-le") * (3 << 19),
    "interleaved": lambda: _interleaved(3 << 20),
}


@pytest.mark.parametrize("kind", sorted(_LAG_IMAGES))
def test_streaming_lag_is_bounded(kind):
    """Each string is yielded before the reader gets more than one chunk
    plus the carry bound past its end, however long the runs are."""
    data = _LAG_IMAGES[kind]()
    chunk_size, cap = 64 * 1024, 4096
    image = _CountingImage(data)
    count = 0
    for s in carve_strings(image, chunk_size=chunk_size, cap=cap):
        assert image.read - (s.offset + s.byte_length) <= chunk_size + 2 * cap + 1
        count += 1
    assert count >= len(data) // (2 * cap)


# A keyword carve's literals and keys, as the scan passes them: every key
# counts as a literal, and the marker is a literal but no key.
_LITERALS = ("GAUSR=mail:",)
_KEYS = ("password", "pass", "uName")


@pytest.mark.parametrize("kind", sorted(_LAG_IMAGES))
def test_streaming_lag_near_hits_is_bounded(kind):
    """Picking pieces near hits delays none: each buffer's picks are
    yielded before the next chunk is read."""
    data = _LAG_IMAGES[kind]()
    data = b"\0pass\0".join(data[i : i + 1500] for i in range(0, 1 << 20, 1500))
    chunk_size, cap = 64 * 1024, 4096
    image = _CountingImage(data)
    count = 0
    for s in carve_strings(image, chunk_size=chunk_size, cap=cap, near=(_LITERALS, _KEYS, 1000)):
        assert image.read - (s.offset + s.byte_length) <= chunk_size + 2 * cap + 1
        count += 1
    assert count >= (1 << 20) // 1500


# Keys are rare among the parts, so the piece after a key may start
# buffers after it.
_HIT_PARTS = st.sampled_from(
    ("pass", "uName", "password", "GAUSR=mail:")
    + ("pas", "s", "xyz", "=&", "word " * 8, "\0", "\0" * 40, "\x01") * 3
)


def _encode(parts):
    return b"".join(
        text.encode("utf-16-le" if wide else "latin-1") for text, wide in parts
    )


def _near_reference(
    data, min_len, cap, delta, literals=_LITERALS, keys=_KEYS, encodings=BOTH_ENCODINGS
):
    """The numpy reference carve, filtered piece by piece: a piece is kept
    if its text holds a literal or a key, or if the piece before it is a
    key that ends at most ``delta`` bytes before it starts."""
    rows = [row for row in carve_numpy(data, min_len, cap) if row[2] in encodings]
    found = [*literals, *keys]
    return [
        row for i, row in enumerate(rows)
        if any(lit in row[1] for lit in found)
        or i and rows[i - 1][1] in keys
        and row[0] <= rows[i - 1][0] + len(rows[i - 1][1].encode(_CODECS[rows[i - 1][2]])) + delta
    ]


def _seam_unit(hit, filler, wide, after):
    """A hit between two other pieces, and where the hit meets the piece
    before it, or the piece after it."""
    text = f"\0{filler}\0{hit}\0{filler}\0"
    at = len(filler) + 2 + (len(hit) + 1 if after else 0)
    return _encode([(text, wide)]), at * (1 + wide)


_SEAM_HITS = st.builds(
    _seam_unit,
    st.sampled_from(("pass", "uName", "password", "GAUSR=mail:")),
    st.sampled_from(("wordy", "x=1&y=2", "word " * 6)),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(
    st.data(),
    st.lists(st.tuples(_HIT_PARTS, st.booleans()), max_size=120).map(_encode),
    _len_and_cap(),
    _chunky,
    st.integers(0, 200),
)
def test_near_picks_pieces_in_hit_claims(draw, parts, len_and_cap, chunk_size, delta):
    """The kept pieces are exactly the reference's, in stream order.  Hits
    are planted near chunk seams, where a key and the piece after it fall
    in different buffers."""
    min_len, cap = len_and_cap
    data = draw.draw(at_seams(parts, chunk_size, delta + cap, _SEAM_HITS))
    got = carve_strings(
        data, min_len, chunk_size=chunk_size, cap=cap, near=(_LITERALS, _KEYS, delta)
    )
    assert strings_tuples(got) == _near_reference(data, min_len, cap, delta)


@st.composite
def _literal_sets(draw):
    """1..6 literals of 1..8 printable-ASCII characters, from a small
    alphabet so that they share bytes.  Some draws add a literal holding
    another (``pass`` in ``password``) and one that starts on a later
    character of another (the ``e`` of ``userName``), and many hold a
    literal one character long."""
    chars = st.sampled_from("pasNe") | st.characters(min_codepoint=0x20, max_codepoint=0x7E)
    literals = draw(st.lists(st.text(chars, min_size=1, max_size=8), min_size=1, max_size=6))
    lit = literals[0]
    if draw(st.booleans()):
        literals.append((draw(st.text(chars, max_size=3)) + lit + draw(st.text(chars, max_size=3)))[:8])
    if len(lit) > 1 and draw(st.booleans()):
        literals.append(lit[draw(st.integers(1, len(lit) - 1)):])
    return literals


_CODECS = {Encoding.ASCII: "ascii", Encoding.UTF16LE: "utf-16-le"}


def _spellings(literals, encodings=BOTH_ENCODINGS):
    return sorted({lit.encode(_CODECS[enc]) for lit in literals for enc in encodings})


def _minimal(literals):
    """The literals that contain no other."""
    return [a for a in literals if not any(b != a and b in a for b in literals)]


@st.composite
def _keyword_images(draw, literals, fillers=(b"",)):
    """Bytes made of the literals' spellings, prefixes and suffixes of
    them, NUL, any byte, ``fillers``, and any one character of a literal,
    such as an anchor, where the search stops, or the class byte every
    anchor is translated to."""
    spellings = _spellings(literals)
    parts = spellings + [sp[:-1] for sp in spellings] + [sp[1:] for sp in spellings]
    parts += [b"\0", *fillers]
    chars = sorted({c.encode() for lit in literals for c in lit})
    pieces = st.sampled_from(parts) | st.sampled_from(chars) | st.binary(min_size=1, max_size=1)
    return b"".join(draw(st.lists(pieces, max_size=80)))


@settings(max_examples=300, deadline=None)
@given(st.data(), _literal_sets(), _encoding_sets)
def test_keyword_search_finds_every_occurrence(data, literals, encodings):
    """The one-pass search reports, ascending and overlaps included, every
    occurrence of every spelling of the literals that hold no other, the
    same as a ``bytes.find`` per spelling."""
    buf = data.draw(_keyword_images(literals))
    near = carver._NearCarve(encodings, literals, (), 0)
    want = []
    for spelling in _spellings(_minimal(literals), encodings):
        at = buf.find(spelling)
        while at != -1:
            want.append((at, spelling))
            at = buf.find(spelling, at + 1)
    assert [(at, sp) for at, sp, _unit in near.occurrences(buf)] == sorted(want)


@settings(max_examples=120, deadline=None)
@given(
    st.data(), _literal_sets(), _len_and_cap(), _chunky, st.integers(0, 200), _encoding_sets,
)
def test_near_keeps_exactly_what_the_full_carve_buffers_give(
    data, literals, len_and_cap, chunk_size, delta, encodings
):
    """The keyword carve reads the same buffers, cuts and carries as the
    full carve, in plain Python, and keeps exactly the pieces the rule
    picks from the full carve, in the same order, whatever the literals
    and whichever of them are keys."""
    min_len, cap = len_and_cap
    keys = data.draw(st.lists(st.sampled_from(literals), unique=True))
    fillers = (b"word " * 8, "word ".encode("utf-16-le") * 8, b"\0" * 40, b"\x01")
    image = data.draw(_keyword_images(literals, fillers))
    got = carve_strings(
        image, min_len, encodings, chunk_size=chunk_size, cap=cap, near=(literals, keys, delta)
    )
    assert strings_tuples(got) == _near_reference(
        image, min_len, cap, delta, literals, keys, encodings
    )


@pytest.mark.parametrize("chunk_size", [50, 777, 4096])
def test_near_keeps_nothing_without_literals(chunk_size):
    """With no literal in the image, no piece holds one and none follows
    a key, so nothing is kept, at any chunk size."""
    data = random_buffer([5151, chunk_size], 64 * 1024, 0.7)
    # Every literal holds an s, N or G, in either encoding.
    data = data.replace(b"s", b"t").replace(b"N", b"t").replace(b"G", b"t")
    assert carve_numpy(data, 4, 16)
    got = carve_strings(data, chunk_size=chunk_size, cap=16, near=(_LITERALS, _KEYS, 100))
    assert list(got) == []


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
@pytest.mark.parametrize("outside", [0, 1])
def test_near_claim_edges(chunk_size, outside):
    """A key claims the piece right after it when that piece starts at
    most delta bytes past the key's end: with delta 30, ``pass`` at 200
    claims a piece at 234 in ASCII and at 238 in UTF-16LE, and not one a
    byte further out.  The piece before the key is never kept."""
    for codec in ("ascii", "utf-16-le"):
        data = bytearray(300)
        end = 200 + len("pass".encode(codec)) + 30
        for at, text in ((170, "wxyz"), (200, "pass"), (end + outside, "stuv")):
            spelling = text.encode(codec)
            data[at : at + len(spelling)] = spelling
        got = carve_strings(bytes(data), chunk_size=chunk_size, near=(_LITERALS, _KEYS, 30))
        assert [s.text for s in got] == (["pass"] if outside else ["pass", "stuv"]), codec


@pytest.mark.parametrize("wide", [False, True])
def test_near_keeps_the_value_after_a_key_across_every_seam(wide):
    r"""``\0pass\0\0val1\0`` keeps the key and its value wherever a
    chunk seam falls in it."""
    unit = _encode([("\0pass\0\0val1\0", wide)])
    data = b"\x01" * 100 + unit + b"\x01" * 20
    encoding = "utf16le" if wide else "ascii"
    want = [(100 + (1 + wide) * 1, "pass", encoding), (100 + (1 + wide) * 7, "val1", encoding)]
    for chunk_size in range(100, 100 + len(unit) + 1):
        got = carve_strings(data, chunk_size=chunk_size, near=(_LITERALS, _KEYS, 4))
        assert strings_tuples(got) == want == _near_reference(data, 4, 4096, 4)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 4096])
def test_near_keeps_a_utf16le_value_starting_on_the_key_last_byte(chunk_size):
    r"""The UTF-16LE chain ``s\0v\0a\0l\0`` starts on the last byte of
    an ASCII ``pass``, before the key ends: it comes right after the key,
    since ASCII goes first only on a tie, and it is kept at delta 0."""
    data = b"\x01pas" + "sval".encode("utf-16-le") + b"\x01"
    got = strings_tuples(carve_strings(data, chunk_size=chunk_size, near=(_LITERALS, _KEYS, 0)))
    assert got == [(1, "pass", "ascii"), (4, "sval", "utf16le")]
    assert got == _near_reference(data, 4, 4096, 0)


@pytest.mark.parametrize("tail", [
    b"abcd\0\0" + "wxyz".encode("utf-16-le"),  # ASCII, then UTF-16LE
    # one UTF-16LE parity, then the other
    "\x01abcd\0".encode("utf-16-le") + b"\x01" + "wxyz".encode("utf-16-le"),
    "\x01abcd\0".encode("utf-16-le") + b"wxyz",  # UTF-16LE, then ASCII
])
def test_near_keeps_the_nearest_piece_of_any_stream(tail):
    """The piece after a key is the first of every stream's next pieces,
    not the first stream's."""
    data = b"\0pass\0" + tail + b"\0\0"
    got = strings_tuples(carve_strings(data, near=(_LITERALS, _KEYS, 64)))
    assert [row[1] for row in got] == ["pass", "abcd"]
    assert got == _near_reference(data, 4, 4096, 64)


@pytest.mark.parametrize("text, kept", [
    # the key is the last cap piece of its run; its value is the next run
    ("\0xxxxpass\0\0val1\0", ["pass", "val1"]),
    # the key is the first cap piece; the next piece of its run follows it
    ("\0passxxxx\0\0val1\0", ["pass", "xxxx"]),
])
@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("chunk_size", [1, 3, 4096])
def test_near_key_as_a_cap_piece(text, kept, wide, chunk_size):
    """A key cut from a long run by the cap is a key as well."""
    data = _encode([(text, wide)])
    got = strings_tuples(
        carve_strings(data, cap=4, chunk_size=chunk_size, near=(_LITERALS, _KEYS, 4))
    )
    assert [row[1] for row in got] == kept
    assert got == _near_reference(data, 4, 4, 4)


@pytest.mark.parametrize("lead", range(0, 9))
def test_keyword_cut_by_cap_seam_is_no_hit(lead):
    """``pass`` is a hit only inside one cap piece, as the full scan sees it."""
    for wide in (False, True):
        data = _encode([("\0" + "x" * lead + "pass" + "y" * 12 + "\0", wide)])
        got = strings_tuples(carve_strings(data, cap=8, near=(_LITERALS, _KEYS, 0)))
        assert got == _near_reference(data, 4, 8, 0)
        assert bool(got) == (lead % 8 <= 4)


@pytest.mark.parametrize("literals, text, min_len, cap, kept", [
    # password is cut by the cap seam after pass; word, a literal of its
    # own, lies whole in the next piece.
    ("password|word", "\0xxxxpassword\0", 4, 8, (9, "word")),
    # aab is cut by the cap seam, and the ab inside it, the one literal
    # searched for, lies whole in the next piece.
    ("aab|ab", "\0xxxaab\0", 2, 4, (5, "ab")),
])
@pytest.mark.parametrize("wide", [False, True])
def test_match_overlapping_an_occurrence_cut_at_a_cap_seam(
    literals, text, min_len, cap, kept, wide
):
    literals = literals.split("|")
    data = _encode([(text, wide)])
    got = strings_tuples(carve_strings(data, min_len, cap=cap, near=(literals, (), 0)))
    at, piece = kept
    assert got == [(at * (1 + wide), piece, "utf16le" if wide else "ascii")]
    assert got == _near_reference(data, min_len, cap, 0, literals, ())


@pytest.mark.parametrize("lead", [100, 101])  # both UTF-16LE parities
@pytest.mark.parametrize("wide", [False, True])
def test_keyword_run_shorter_than_min_len_is_no_hit(lead, wide):
    """The run ``pass`` is a key at min_len 4, and the next piece is kept;
    at min_len 5 it is no piece, so nothing is kept."""
    data = b"\x01" * lead + _encode([("pass\0wordy\0", wide)]) + b"\x01" * 100
    encoding = "utf16le" if wide else "ascii"
    for min_len, want in (
        (4, [(lead, "pass", encoding), (lead + 5 * (1 + wide), "wordy", encoding)]),
        (5, []),
    ):
        got = strings_tuples(carve_strings(data, min_len, near=(_LITERALS, _KEYS, 10)))
        assert got == want == _near_reference(data, min_len, 4096, 10)


def test_near_finds_escaped_literals_in_both_encodings():
    """Literals holding regex operators, and one a single character long,
    which shares its byte with occurrences in the other encoding: the
    UTF-16LE ``u`` starts on an ASCII one, and ASCII ones sit on the
    printable bytes of a UTF-16LE ``uxu``, the first ending an ASCII run."""
    literals = ["a.b", "x+y", "GAUSR=mail:", "q r", "#&~", "(p)", "u", "uxu"]
    parts = [("\0" * 40 + f"zz{lit}zz", wide) for lit in literals for wide in (False, True)]
    parts += [("\0" * 40 + "zz", False), ("uxuzz", True), ("\0" * 40, False)]
    data = _encode(parts)
    got = strings_tuples(carve_strings(data, 1, near=(literals, (), 0)))
    assert got == _near_reference(data, 1, 4096, 0, literals, ())
    for lit in literals:
        assert {enc for _at, text, enc in got if lit in text} == {"ascii", "utf16le"}


@pytest.mark.parametrize("encodings", [(Encoding.ASCII,), BOTH_ENCODINGS])
def test_occurrences_at_one_stop_ascend(encodings):
    """``qa`` and ``ab`` are both anchored on ``a``, a byte into ``qa`` and
    on the first byte of ``ab``, so in ``qab`` the one search stop holds
    both, and ``qa`` starts first."""
    near = carver._NearCarve(encodings, ["ab", "qa"], (), 0)
    buf = b"qab\0" + "qab".encode("utf-16-le")
    want = [(0, b"qa", 1), (1, b"ab", 1), (4, b"q\0a\0", 2), (6, b"a\0b\0", 2)]
    assert near.occurrences(buf) == [row for row in want if carver._BY_UNIT[row[2]] in encodings]


_CATALOG_NEAR = catalog_near()


@pytest.mark.parametrize("text", [
    "\0\0pass\0",  # anchored on its a, a byte in
    "\0GAUSR=mail:u\0",  # on the a of mail, 8 bytes in
    "\0https://www.irctc.co.in\0",  # on the . of irctc.co.in, 5 bytes in
])
@pytest.mark.parametrize("wide", [False, True])
def test_occurrence_anchored_past_its_first_byte_at_every_seam(text, wide):
    """An occurrence whose anchor lies past its first byte is kept once
    wherever a chunk seam falls in it.  A buffer that starts between the
    occurrence's first byte and its anchor reports no occurrence there,
    not one at an offset counted from the buffer's end."""
    literals, keys = _CATALOG_NEAR
    unit = _encode([(text, wide)])
    data = b"\x01" * 100 + unit + b"\x01" * 20
    want = _near_reference(data, 4, 4096, 4, literals, keys)
    assert want
    for chunk_size in range(100, 100 + len(unit) + 1):
        got = carve_strings(data, chunk_size=chunk_size, near=(literals, keys, 4))
        assert strings_tuples(got) == want, chunk_size
    near = carver._NearCarve(BOTH_ENCODINGS, literals, keys, 4)
    spellings = _spellings(_minimal([*literals, *keys]))
    for cut in range(len(unit) + 1):
        for buf in (unit[cut:], unit[:cut]):
            found = [(at, sp) for at, sp, _unit in near.occurrences(buf)]
            assert found == sorted((at, sp) for sp in spellings
                                   for at in range(len(buf)) if buf.startswith(sp, at))


@pytest.mark.parametrize("codec", ["ascii", "utf-16-le"])
def test_keys_with_nothing_between_carve_in_linear_time(codec):
    r"""512 KiB of ``pass\0xxxx\0``: every other piece is a key, and the
    one after it is kept as its value.  The keyword carve reads each
    stream in one ascending pass, so one chunk of the whole image costs
    about what four chunks do: ratios of 1.01 to 1.04 were measured on a
    shared 2-core host, and 1.46 to 1.87 for a carve that inserted each
    value's run into sorted lists of the runs found."""
    data = ("pass\0xxxx\0" * (52 * 1024)).encode(codec)[: 512 << 10]
    unit = 2 if codec == "utf-16-le" else 1
    cpu, counts = {128 << 10: float("inf"), 512 << 10: float("inf")}, set()
    # The two chunk sizes take turns within each repeat, so a spell of load
    # from other work on the host slows both alike rather than one size's
    # whole series; the best time of each size is kept.
    for _ in range(5):
        for chunk_size in cpu:
            t0 = time.process_time()
            strings = list(carve_strings(data, chunk_size=chunk_size, near=(*_CATALOG_NEAR, 64)))
            cpu[chunk_size] = min(cpu[chunk_size], time.process_time() - t0)
            counts.add(len(strings))
    assert len(counts) == 1 and counts.pop() > 100000 // unit  # every key and value
    assert cpu[512 << 10] <= 1.3 * cpu[128 << 10], cpu


def _covered(cover, literals):
    return all(any(c in lit for c in cover) for lit in literals)


@settings(max_examples=200)
@given(_literal_sets())
def test_every_literal_holds_an_anchor(literals):
    """The cover holds a character of every literal, and each of its
    characters covers a literal that the ones before it did not."""
    cover = carver._cover(frozenset(literals))
    assert _covered(cover, literals)
    for i in range(len(cover)):
        assert not _covered(cover[:i], literals)


def test_builtin_catalog_cover_is_two_characters():
    """The built-in catalog's literals are covered by ``a`` and ``.``, bytes
    fabricator filler never draws, so on fabricated images the search
    stops almost only at planted text."""
    literals, keys = _CATALOG_NEAR
    cover = carver._cover(frozenset(_minimal([*literals, *keys])))
    assert sorted(cover) == sorted("a.")
    assert set(cover.encode()) <= set(fabricator._EXCLUDED)


@pytest.mark.parametrize("literals, cover", [
    (["abc", "xyz", "123"], "1ax"),  # no shared character: one each
    # ties go to a character that is no lowercase letter or digit, then
    # to the least
    (["ab~", "cd"], "~c"),
    (["x1A"], "A"),
    (["pass", "uName", "GAUSR"], "aA"),  # a is held by most
])
def test_cover_choices(literals, cover):
    assert carver._cover(frozenset(literals)) == cover


def test_cover_is_computed_once_per_manifest(tmp_path):
    """Scanning a 13-image timeline builds 13 keyword carves with the same
    literals, and computes their cover once."""
    manifest = load_manifest(fabricate(table1_preset(image_size=1 << 20), tmp_path).manifest_path)
    assert len(manifest.entries) == 13
    carver._cover.cache_clear()
    scan_manifest(manifest)
    assert carver._cover.cache_info()[:2] == (12, 1)  # hits, misses


@pytest.mark.parametrize("near", [
    ([""], [], 0), (["pa\tss"], [], 0), (["pässword"], [], 0), ([b"pass"], [], 0),
    ([], ["pass\n"], 0),
], ids=["empty", "tab", "non-ascii", "bytes", "key-with-newline"])
def test_near_refuses_literals_that_are_not_printable_ascii(near):
    """Carved text is printable ASCII, so any other literal or key could
    never be found; it is refused on the call."""
    with pytest.raises(InvalidOptionError, match="near literal"):
        carve_strings(b"\0pass\0", near=near)


@settings(max_examples=100)
@given(_blobs, st.integers(min_value=1, max_value=8))
def test_min_len_honoured(data, min_len):
    for s in carve_strings(data, min_len=min_len):
        assert min_len <= len(s.text) <= 4096


@settings(max_examples=100)
@given(_blobs)
def test_offsets_strictly_increase_per_encoding(data):
    last = {}
    for s in carve_strings(data):
        if s.encoding in last:
            assert s.offset > last[s.encoding]
        last[s.encoding] = s.offset


@settings(max_examples=100)
@given(_blobs)
def test_extraction_is_sound(data):
    """Re-reading the claimed span reproduces the text."""
    for s in carve_strings(data):
        span = data[s.offset : s.offset + s.byte_length]
        if s.encoding is Encoding.ASCII:
            assert span.decode("ascii") == s.text
            assert s.byte_length == len(s.text)
        else:
            assert span.decode("utf-16-le") == s.text
            assert s.byte_length == 2 * len(s.text)


@settings(max_examples=60)
@given(st.binary(min_size=0, max_size=512), st.integers(1, 6), st.integers(4, 64))
def test_bruteforce_and_numpy_references_agree(data, min_len, cap):
    assert carve_bruteforce(data, min_len, cap) == carve_numpy(data, min_len, cap)


def test_numpy_reference_on_density_sweep():
    for i, density in enumerate((0.1, 0.3, 0.7)):
        data = random_buffer([5150, i], 16 * 1024, density)
        assert strings_tuples(carve_strings(data)) == carve_numpy(data)


def test_carve_accepts_image_objects():
    data = b"\x00imagebacked\x00" * 3
    img = MemoryImage.from_bytes(data, label="m")
    assert strings_tuples(carve_strings(img)) == strings_tuples(carve_strings(data))


def _lines_of(rows) -> bytes:
    return "".join(f"{offset}:{text}\n" for offset, text, _ in rows).encode()


@settings(max_examples=150, deadline=None)
@given(_blobs, _len_and_cap(), _chunky, _encoding_sets)
def test_dump_writes_reference_lines(data, len_and_cap, chunk_size, encodings):
    """The writer's bytes are the reference carve's ``offset:text`` lines."""
    min_len, cap = len_and_cap
    sink = io.BytesIO()
    count = dump_strings(data, sink, min_len, encodings, chunk_size=chunk_size, cap=cap)
    want = [row for row in carve_numpy(data, min_len, cap) if row[2] in encodings]
    assert sink.getvalue() == _lines_of(want)
    assert count == len(want)
    if len(data) <= 512:
        brute = [row for row in carve_bruteforce(data, min_len, cap) if row[2] in encodings]
        assert sink.getvalue() == _lines_of(brute)


@pytest.mark.parametrize("base", [
    0, 9, 10, 99, 100,
    *(10**k + d for k in (3, 6, 10, 18) for d in (-1, 0)),
    2**32, 2**40,
])
def test_dump_digits_at_any_base(base):
    """A buffer at ``base`` writes absolute offsets: the digit count may
    change between its lines, and offsets past int32 keep every digit."""
    buf = b"abcd\x00efgh\x01" + "wxyz".encode("utf-16-le") + b"\x02" + b"k" * 9
    kinds = ((1, 0), (2, 0), (2, 1))
    streams = {kind: carver._Stream(buf, True, *kind, 0, 4, 4096) for kind in kinds}
    _, _, offset, stop, unit = _spans(buf, base, streams, len(buf))
    want = "".join(
        f"{base + s}:{buf[s:e:u].decode()}\n"
        for s, e, u in zip(offset.tolist(), stop.tolist(), unit.tolist())
    )
    assert want.count("\n") == 4
    assert _lines(buf, base, offset, stop, unit).tobytes() == want.encode()


@pytest.mark.parametrize("slots", [1, 7, 1000])
def test_gather_slices_change_nothing(monkeypatch, slots):
    """The gather index is built a slice of pieces at a time; lines and
    keyword picks are the same whatever the slice holds."""
    data = bytearray(random_buffer([5153], 256 * 1024, 0.7))
    for at in range(0, len(data), 5000):
        data[at : at + 6] = b"\0pass\0" if at % 2 else "\0uName".encode("utf-16-le")[:6]
    data = bytes(data)
    whole = io.BytesIO()
    dump_strings(data, whole, chunk_size=65536)
    near = strings_tuples(carve_strings(data, chunk_size=65536, near=(_LITERALS, _KEYS, 300)))
    monkeypatch.setattr(fullcarve, "_GATHER_SLOTS", slots)
    sliced = io.BytesIO()
    dump_strings(data, sliced, chunk_size=65536)
    assert sliced.getvalue() == whole.getvalue() == _lines_of(carve_numpy(data))
    again = carve_strings(data, chunk_size=65536, near=(_LITERALS, _KEYS, 300))
    assert strings_tuples(again) == near
    assert len(near) < len(carve_numpy(data))


def test_strings_file_round_trip(tmp_path):
    data = b"\x00one:two\x00three\x00" + "wide".encode("utf-16-le")
    path = tmp_path / "out.strings"
    assert dump_strings(data, path) == 3
    lines = "".join(f"{s.offset}:{s.text}\n" for s in carve_strings(data))
    assert path.read_bytes() == lines.encode()
