"""Checks of `memsift` outputs against results computed apart from the scanner.

Each checker returns a list of problems; an empty list means the output is
right.  Findings are compared as report documents, field by field, so a
dropped finding, a shifted offset or a wrong confidence each shows up.
Carved strings are compared with a carve made here, by whole-array run
detection, which shares no code with `memsift.carver`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

# The presence table the table1 preset encodes from the paper: one row per
# image, one column per application/browser pairing, in this column order.
TABLE1_COLUMNS = (
    ("sonicwall", "MF"), ("sonicwall", "GC"),
    ("facebook", "MF"), ("facebook", "GC"),
    ("gmail-ff", "MF"), ("gmail-gc", "GC"),
    ("irctc", "MF"), ("irctc", "GC"),
    ("sbi", "MF"), ("sbi", "GC"),
)
_NONE = "No No No No No No No No No No"
TABLE1_ROWS = {
    "Img1": _NONE,
    "Img2": _NONE,
    "Img3": "Yes Yes No No No No No No No No",
    "Img4": "Yes Yes Yes Yes Yes Yes Yes Yes No Yes",
    "Img5": "Yes Yes Yes Yes Yes Yes Yes Yes No Yes",
    "Img6": "Yes Yes Yes Yes Yes Yes Yes Yes No Yes",
    "Img7": "Yes Yes Yes No Yes No Yes Yes No Yes",
    "Img8": "Yes Yes Yes No Yes No Yes Yes No No",
    "Img9": "Yes Yes Yes No Yes No Yes Yes No No",
    "Img10": _NONE,
    "Img11": _NONE,
    "Img12": _NONE,
    "Img13": _NONE,
}


def _describe(fd: Mapping) -> str:
    return (
        f"{fd.get('app_id')}/{fd.get('match_mode')}@{fd.get('offset')} "
        f"{fd.get('confidence')}"
    )


def check_findings(
    report: Mapping, expected: Mapping[str, Sequence[Mapping]]
) -> list[str]:
    """The report's per-image findings must equal ``expected`` exactly, in
    order, for exactly the expected image labels."""
    problems: list[str] = []
    images = report.get("images")
    if not isinstance(images, list):
        return ["report has no image list"]
    labels = [img.get("label") for img in images]
    if labels != list(expected):
        return [f"image labels {labels} != expected {list(expected)}"]
    for img in images:
        label = img["label"]
        got = img.get("findings", [])
        want = list(expected[label])
        if got == want:
            continue
        if len(got) != len(want):
            problems.append(f"{label}: {len(got)} findings, expected {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                fields = sorted(k for k in set(g) | set(w) if g.get(k) != w.get(k))
                problems.append(
                    f"{label} finding {i}: {_describe(g)} differs from "
                    f"{_describe(w)} in {', '.join(fields)}"
                )
                break
    return problems


def check_matrix(report: Mapping, rows: Mapping[str, str]) -> list[str]:
    """The report's presence matrix must equal the reference Yes/No table
    (``rows``, in TABLE1_COLUMNS order)."""
    matrix = report.get("matrix")
    if not isinstance(matrix, Mapping):
        return ["report has no presence matrix"]
    if [tuple(c) for c in matrix.get("columns", ())] != list(TABLE1_COLUMNS):
        return [f"matrix columns {matrix.get('columns')} != reference"]
    if list(matrix.get("rows", ())) != list(rows):
        return [f"matrix rows {matrix.get('rows')} != reference"]
    problems = []
    for label, want in rows.items():
        got = " ".join(matrix["cells"].get(label, ()))
        if got != want:
            problems.append(f"matrix row {label}: {got!r} != {want!r}")
    return problems


# --- reference carve --------------------------------------------------------


def _runs(mask: np.ndarray, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every maximal True run at least min_len long."""
    padded = np.zeros(mask.size + 2, dtype=np.int8)
    padded[1:-1] = mask
    step = np.diff(padded)
    starts = np.flatnonzero(step == 1)
    lengths = np.flatnonzero(step == -1) - starts
    keep = lengths >= min_len
    return starts[keep], lengths[keep]


def reference_strings(data: bytes, min_len: int = 4, cap: int = 4096) -> bytes:
    """The `memsift strings` file for ``data``: every maximal run of
    printable ASCII, and every maximal chain of (printable, NUL) byte pairs
    at either alignment, split into ``cap``-character pieces with pieces
    shorter than ``min_len`` dropped; ``offset:text`` lines ordered by
    offset, ASCII first on a tie."""
    a = np.frombuffer(data, dtype=np.uint8)
    printable = (a >= 0x20) & (a <= 0x7E)
    rows: list[tuple[int, int, str]] = []

    def emit(offset: int, text: str, unit: int, rank: int) -> None:
        for k in range(0, len(text), cap):
            piece = text[k : k + cap]
            if len(piece) >= min_len:
                rows.append((offset + unit * k, rank, piece))

    starts, lengths = _runs(printable, min_len)
    for s, n in zip(starts.tolist(), lengths.tolist()):
        emit(s, data[s : s + n].decode("ascii"), 1, 0)
    if a.size >= 2:
        pairs = printable[:-1] & (a[1:] == 0)
        for parity in (0, 1):
            starts, lengths = _runs(pairs[parity::2], min_len)
            for s, n in zip(starts.tolist(), lengths.tolist()):
                off = parity + 2 * s
                emit(off, data[off : off + 2 * n : 2].decode("ascii"), 2, 1)
    rows.sort()
    return "".join(f"{off}:{text}\n" for off, _rank, text in rows).encode("ascii")


def check_strings(got: bytes, want: bytes) -> list[str]:
    """A `strings --out` file must equal the reference carve line for line."""
    if got == want:
        return []
    got_lines = got.split(b"\n")
    want_lines = want.split(b"\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return [f"strings line {i + 1}: {g[:60]!r} != reference {w[:60]!r}"]
    return [f"{len(got_lines) - 1} strings lines, reference has {len(want_lines) - 1}"]
