"""The scan on text: words drawn from a fixed list, where anchors are dense.

Fabricator filler never draws ``a``, ``A`` or ``.``, which take in ``a``
and ``.``, the bytes the keyword search anchors the built-in catalog's
literals on, so fabricated images stop the search almost only at planted
text.  Real RAM is full of text, which holds those bytes often.
``word_text`` stands in for it: words of prose, catalog keys, context URLs
and whole form bodies, separated by spaces, line breaks and NUL runs.
"""

import random

import pytest

from memsift import BOTH_ENCODINGS, MemoryImage, carver, scan_image

from oracles import catalog_near, scan_full_carve, values_at_offsets

# Prose, with the a, A and . of everyday text, in its own proportions.
_PROSE = """
When someone logs into a web application, the browser builds the login
request in process memory, and fragments of it (form bodies, cookies,
headers) stay resident long after the login completes. The tool carves
printable strings out of a physical memory image, matches them against a
catalog of per-application credential signatures, decodes what it finds,
attributes each hit to an owning process, and tabulates credential
presence across a whole timeline of acquisitions. A synthetic-corpus
fabricator with exact ground truth makes the whole pipeline testable end
to end without ever touching real memory dumps. ASCII and UTF-16LE runs
are streamed chunk by chunk, e.g. at any byte alignment.
"""

WORDS = (
    *_PROSE.split(),
    # keys, and words that hold one or nearly do
    "pass", "password", "Passwd", "email", "Email", "uName", "userName",
    "GAUSR", "bypass", "passage", "class", "emails", "user", "Name", "mail",
    # context URLs
    "https://www.facebook.com/login.php?login_attempt=1",
    "https://accounts.google.com/ServiceLogin",
    "https://www.irctc.co.in/nget/train-search", "https://www.onlinesbi.com/",
    "/userLogin.html", "https://ncs.example.edu/auth1.html",
    # form bodies and cookies
    "uName=306110003&pass=Nitt500&digest=",
    "email=alice%40example.com&pass=s3cr3t%21",
    "Email=bob@gmail.com&Passwd=hunter2&signIn=Sign+in",
    "userName=carol&password=pa55word",
    "GET /userLogin.html?uName=dave&pass=d4ve HTTP/1.1",
    "GAUSR=mail:erin@gmail.com;",
)

# (separator, weight): a space after most words, a line break or a NUL run
# after the rest.
_SEPARATORS = ((" ", 8), ("\n", 1), ("\0" * 4, 1))


def word_text(size: int, codec: str, seed: int = 1) -> bytes:
    """``size`` bytes of words from ``WORDS``, each followed by a separator,
    spelt in ``codec``."""
    rng = random.Random(seed)
    seps, weights = zip(*_SEPARATORS)
    unit = len("a".encode(codec))
    parts, n = [], 0
    while n < size:
        part = rng.choice(WORDS) + rng.choices(seps, weights)[0]
        parts.append(part)
        n += unit * len(part)
    return "".join(parts).encode(codec)[:size]


SIZE = 256 * 1024


@pytest.mark.parametrize("codec", ["ascii", "utf-16-le"])
def test_word_text_scan_equals_full_carve(codec):
    """On text dense in anchors, the scan's findings are those of the scan
    that carves and matches every string, and each value sits in the
    image at the offset reported."""
    data = word_text(SIZE, codec)
    image = MemoryImage.from_bytes(data, label="words")
    want = scan_full_carve(image)
    assert len(want) >= 100
    assert scan_image(image) == want
    assert values_at_offsets(data, want) >= len(want)


def test_search_stops_on_few_bytes_of_text():
    """A guard on the keyword search's cost that no timing can flake: the
    bytes it stops on, the class byte of the translated buffer, are under
    10% of word text with the built-in catalog.  Anchored on the literals'
    first bytes, which take in the vowels, they were about 30%."""
    literals, keys = catalog_near()
    near = carver._NearCarve(BOTH_ENCODINGS, literals, keys, 0)
    # Every anchor is translated to the class byte, and the class byte
    # to itself.
    klass = {near.table[b] for b in range(256) if near.table[b] != b}.pop()
    data = word_text(SIZE, "ascii")
    assert data.translate(near.table).count(klass) < 0.10 * len(data)
