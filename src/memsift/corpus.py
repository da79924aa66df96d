"""Acquisition corpora: memory images and the manifest describing a timeline.

A manifest is a small TSV file tying ordered acquisition snapshots to image
files on disk:

    # comment lines start with '#'
    Img1<TAB>2<TAB>system started<TAB>img1.raw

Columns are label, step_index, step_description, path.  Paths are resolved
relative to the manifest's own directory.  Labels must be unique and step
indices strictly increasing, because the whole point of a timeline is that
later rows really are later.  A label is non-empty and must not read as a
comment, and no label or description holds a tab or line break, so every
row a writer accepts reads back as itself.

A session captured with one fixed browser and application can say so in a
directive comment, which downstream reporting uses to tag its columns:

    # session: Mozilla Firefox<TAB>Gmail
"""

from __future__ import annotations

import io
import re
from contextlib import nullcontext
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, TypeVar

from .errors import (
    DuplicateLabelError,
    LineError,
    MemsiftError,
    MissingFileError,
    NonMonotonicStepError,
    ZeroSizeError,
    checked,
)

T = TypeVar("T")

DEFAULT_CHUNK_SIZE = 1 << 20


_DIGITS = {10: re.compile("[0-9]+"), 16: re.compile("[0-9a-fA-F]+")}


def _parse_digits(text: str, what: str, base: int = 10, signed: bool = False) -> int:
    """``text`` as the writers write an integer field: ASCII digits of
    ``base`` alone, after a ``-`` if the field is ``signed``.  ``int``
    would also take a ``+``, surrounding space, underscores and the digits
    of other scripts; here each is a ``ValueError`` naming ``what``."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if _DIGITS[base].fullmatch(digits) is None:
        kind = "decimal" if base == 10 else "hex"
        raise ValueError(f"{what} {text!r} is not a {kind} integer")
    return int(text, base)


def _fits_field(text: str) -> bool:
    """True if ``text`` reads back as one field of a TSV line."""
    return "\t" not in text and "".join(text.splitlines()) == text


@checked
class ManifestEntry(NamedTuple):
    label: str
    step_index: int
    step_description: str
    path: Path

    def _check(self) -> None:
        if not self.label:
            raise ValueError("empty label")
        if self.label.lstrip().startswith("#"):
            raise ValueError(f"label {self.label!r} reads as a comment")
        for name, text in (("label", self.label), ("step description", self.step_description)):
            if not _fits_field(text):
                raise ValueError(f"{name} {text!r} holds a tab or line break")


def _append(timeline: dict[str, ManifestEntry], entry: ManifestEntry) -> None:
    """Add ``entry`` to ``timeline`` (label to entry, in order), keeping
    labels unique and step indices strictly increasing."""
    last = next(reversed(timeline.values()), None)
    if entry.label in timeline:
        raise DuplicateLabelError(f"duplicate label {entry.label!r}")
    if last is not None and entry.step_index <= last.step_index:
        raise NonMonotonicStepError(
            f"step {entry.step_index} does not increase past {last.step_index}"
        )
    timeline[entry.label] = entry


def _check_session(meta: tuple[str, str]) -> tuple[str, str]:
    """Check a (browser, application) pair reads back from its ``# session:``
    line as written: two text fields, each free of tab and line breaks and
    of the space at either end that the reader strips."""
    if not (
        isinstance(meta, tuple) and len(meta) == 2 and all(isinstance(f, str) for f in meta)
    ):
        raise ValueError(f"session_meta {meta!r} is not a (browser, application) pair")
    if not all(map(_fits_field, meta)):
        raise ValueError("session_meta holds a tab or line break")
    for field in meta:
        if field != field.strip():
            raise ValueError(f"session_meta field {field!r} has space at an end")
    return meta


class ImageManifest:
    """Ordered acquisition timeline. Entry order follows the file.
    ``session_meta`` is the (browser name, application name) pair when the
    whole session used one.  Manifests with equal fields are equal."""

    __slots__ = ("entries", "session_meta")

    def __init__(
        self, entries: tuple[ManifestEntry, ...], session_meta: tuple[str, str] | None = None
    ) -> None:
        timeline: dict[str, ManifestEntry] = {}
        for e in entries:
            _append(timeline, e)
        if session_meta is not None:
            _check_session(session_meta)
        self.entries, self.session_meta = entries, session_meta

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ImageManifest) and (self.entries, self.session_meta) == (
            other.entries, other.session_meta
        )

    def entry(self, label: str) -> ManifestEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _check_file(path: Path, what: str) -> None:
    """A ``MissingFileError`` unless ``path`` is a regular file; a path
    that exists as something else (a directory) is not called missing."""
    if not path.is_file():
        problem = "is not a regular file" if path.exists() else "not found"
        raise MissingFileError(f"{what} {problem}: {path}")


class MemoryImage:
    """A single raw memory image.

    ``open()`` hands back a fresh binary handle each call, so concurrent
    readers never share a cursor.  ``chunks()`` streams the content without
    ever holding the whole image in memory; 512 MiB inputs cost the same
    working set as 4 KiB ones.
    """

    __slots__ = ("label", "size", "path", "_data")

    def __init__(self, label: str, size: int, path: Path | None = None,
                 _data: bytes | None = None) -> None:
        self.label, self.size, self.path, self._data = label, size, path, _data

    def __repr__(self) -> str:
        return f"MemoryImage(label={self.label!r}, size={self.size!r}, path={self.path!r})"

    @classmethod
    def from_file(cls, path: str | Path, label: str | None = None) -> "MemoryImage":
        p = Path(path)
        _check_file(p, "image file")
        size = p.stat().st_size
        if size == 0:
            raise ZeroSizeError(f"image file is empty: {p}")
        return cls(label=label or p.stem, size=size, path=p)

    @classmethod
    def from_bytes(cls, data: bytes, label: str = "buffer") -> "MemoryImage":
        return cls(label=label, size=len(data), _data=bytes(data))

    def open(self) -> BinaryIO:
        if self.path is not None:
            return open(self.path, "rb")
        return io.BytesIO(self._data if self._data is not None else b"")

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        with self.open() as handle:
            while True:
                block = handle.read(chunk_size)
                if not block:
                    return
                yield block

    def read_at(self, offset: int, length: int) -> bytes:
        """Re-read a small slice, used to verify findings against raw bytes."""
        for name, value in (("offset", offset), ("length", length)):
            if value < 0:
                raise ValueError(f"{name} must be at least 0, not {value}")
        with self.open() as handle:
            handle.seek(offset)
            return handle.read(length)


def _tsv_rows(
    source: str | Path | Iterable[str], nfields: int, parse: Callable[[list[str]], T],
    comment: Callable[[str], None] = lambda line: None,
) -> Iterator[T]:
    """``parse`` of the fields of each data line, end removed, of a UTF-8
    file or text lines: the one reader of the manifest, process-map and
    catalog formats.  A byte-order mark at the start of the first line is
    dropped, as some Windows editors write one.  Blank lines are skipped
    and ``#`` lines go to ``comment``.  A line without exactly ``nfields``
    tab-separated fields, or a ``ValueError`` from ``parse``, ``comment``
    or decoding, is a ``LineError``; a ``MemsiftError`` keeps its type
    with ``FILE:LINE:`` put before its message."""
    named = isinstance(source, (str, Path))
    name = str(source) if named else getattr(source, "name", "<stream>")
    with open(source, "rb") if named else nullcontext(source) as lines:
        for lineno, raw in enumerate(lines, 1):
            try:
                line = (raw.decode("utf-8") if named else raw).rstrip("\r\n")
                line = line.removeprefix("\ufeff") if lineno == 1 else line
                if not line.strip() or line.lstrip().startswith("#"):
                    comment(line)
                    continue
                parts = line.split("\t")
                if len(parts) != nfields:
                    raise ValueError(f"expected {nfields} fields, got {len(parts)}")
                row = parse(parts)
            except MemsiftError as exc:
                raise type(exc)(f"{name}:{lineno}: {exc}") from None
            except ValueError as exc:
                raise LineError(name, lineno, str(exc)) from None
            yield row


def load_manifest(path: str | Path) -> ImageManifest:
    """Parse a manifest TSV and check every referenced image is usable.

    Identical file bytes always produce a structurally identical manifest.
    Raises MissingFileError / ZeroSizeError / DuplicateLabelError /
    NonMonotonicStepError on the matching defect and LineError on a row
    that does not parse, each naming the file and line.
    """
    src = Path(path)
    _check_file(src, "manifest")
    timeline: dict[str, ManifestEntry] = {}
    session: list[tuple[str, str]] = []

    def directive(line: str) -> None:
        stripped = line.strip()
        if stripped.startswith("# session:"):
            browser, _, application = stripped[len("# session:") :].partition("\t")
            session.append(_check_session((browser.strip(), application.strip())))

    def entry(parts: list[str]) -> ManifestEntry:
        label, step_text, description, rel = parts
        step = _parse_digits(step_text, "step index", signed=True)
        img_path = (src.parent / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        _append(timeline, ManifestEntry(label, step, description, img_path))
        MemoryImage.from_file(img_path)  # the image exists and is not empty
        return timeline[label]

    entries = tuple(_tsv_rows(src, 4, entry, directive))
    return ImageManifest(entries, session[-1] if session else None)


def write_manifest(
    entries: list[ManifestEntry] | ImageManifest,
    path: str | Path,
    session_meta: tuple[str, str] | None = None,
) -> None:
    """Write entries back out in the manifest TSV format (paths made
    relative).  Rows ``load_manifest`` would reject raise before anything
    is written."""
    dest = Path(path)
    if isinstance(entries, ImageManifest):
        session_meta = session_meta or entries.session_meta
    manifest = ImageManifest(tuple(entries), session_meta)
    lines = ["# label\tstep_index\tstep_description\tpath"]
    if session_meta is not None:
        lines.append(f"# session: {session_meta[0]}\t{session_meta[1]}")
    base = dest.resolve().parent
    for e in manifest:
        p = Path(e.path).resolve()
        try:
            p = p.relative_to(base)
        except ValueError:
            pass
        if not _fits_field(str(p)):
            raise ValueError(f"path {str(p)!r} holds a tab or line break")
        lines.append(f"{e.label}\t{e.step_index}\t{e.step_description}\t{p}")
    dest.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
