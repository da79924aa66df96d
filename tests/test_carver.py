"""String carving against brute-force and vectorized references."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsift import (
    BOTH_ENCODINGS,
    Encoding,
    ExtractedString,
    MemoryImage,
    carve_strings,
    parse_strings_file,
    write_strings_file,
)
from memsift.errors import MalformedLineError

from oracles import carve_bruteforce, carve_numpy, random_buffer, strings_tuples

# byte soup with enough printable mass to form runs, plus soup dense in
# (printable, NUL) pairs so UTF-16LE chains cross chunk seams too
_blobs = st.binary(min_size=0, max_size=2048) | st.lists(
    st.sampled_from(b"aZ~ \x00\x00\x01"), max_size=2048
).map(bytes)
_chunky = st.integers(min_value=1, max_value=257)
_encoding_sets = st.sampled_from(
    [(Encoding.ASCII,), (Encoding.UTF16LE,), BOTH_ENCODINGS]
)


@st.composite
def _len_and_cap(draw):
    """min_len, and a cap small enough that cap pieces meet chunk seams."""
    min_len = draw(st.integers(min_value=1, max_value=6))
    return min_len, draw(st.integers(min_value=min_len, max_value=min_len + 30))


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


def test_cap_splits_long_runs():
    data = b"A" * 10000
    rows = list(carve_strings(data, cap=4096))
    assert [(s.offset, len(s.text)) for s in rows] == [(0, 4096), (4096, 4096), (8192, 1808)]


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


def test_strings_file_round_trip(tmp_path):
    rows = list(carve_strings(b"\x00one:two\x00three\x00" + "wide".encode("utf-16-le")))
    path = tmp_path / "out.strings"
    write_strings_file(rows, path)
    back = list(parse_strings_file(path))
    assert [(o, t) for o, t in back] == [(s.offset, s.text) for s in rows]


def test_strings_file_text_may_contain_colons(tmp_path):
    buf = io.StringIO("12:a:b:c\n")
    assert list(parse_strings_file(buf)) == [(12, "a:b:c")]


def test_strings_file_rejects_garbage():
    with pytest.raises(MalformedLineError) as err:
        list(parse_strings_file(io.StringIO("oops no colon\n")))
    assert err.value.lineno == 1


def test_extracted_string_is_frozen():
    s = ExtractedString(0, "abcd", Encoding.ASCII, 4)
    with pytest.raises(AttributeError):
        s.offset = 5
