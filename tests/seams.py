"""A hypothesis strategy that plants keyword hits at chunk seams.

Short random inputs seldom put a hit within reach of a buffer seam, where
the piece after a key, or a piece a hit claims, lies in the neighbouring
buffer.  ``at_seams`` writes units over an input.  A unit is a hit with pieces
around it that the hit claims, and it names the byte where the hit and a
claimed piece meet.  That byte lands at ``k*chunk_size + d``.  In half
the draws d is 0, or 1 (inside a UTF-16LE pair), so the hit and the piece
fall in different buffers; any later d puts the piece's run across the
seam, and the carry takes the hit along with it.  In the other draws d
is anywhere within ``spread``.
"""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def at_seams(draw, data: bytes, chunk_size: int, spread: int, units) -> bytes:
    """``data``, padded with NULs to hold a seam, with one to four units
    drawn from ``units`` written over it.  A unit is ``(text, at)``, and
    its byte ``at`` is placed at ``k*chunk_size + d``, for some k >= 1
    and |d| <= spread."""
    buf = bytearray(data.ljust(chunk_size + spread, b"\0"))
    at_seam = st.integers(0, min(spread, 1))
    for _ in range(draw(st.integers(1, 4))):
        text, at = draw(units)
        seam = chunk_size * draw(st.integers(1, max(1, len(buf) // chunk_size)))
        d = draw(at_seam | st.integers(-spread, spread))
        start = min(max(0, seam + d - at), len(buf))
        buf[start : start + len(text)] = text
    return bytes(buf)
