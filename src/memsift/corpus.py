"""Acquisition corpora: memory images and the manifest describing a timeline.

A manifest is a small TSV file tying ordered acquisition snapshots to image
files on disk:

    # comment lines start with '#'
    Img1<TAB>2<TAB>system started<TAB>img1.raw

Columns are label, step_index, step_description, path.  Paths are resolved
relative to the manifest's own directory.  Labels must be unique and step
indices strictly increasing, because the whole point of a timeline is that
later rows really are later.

A session captured with one fixed browser and application can say so in a
directive comment, which downstream reporting uses to tag its columns:

    # session: Mozilla Firefox<TAB>Gmail
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, BinaryIO, Iterator

from .errors import (
    DuplicateLabelError,
    LineError,
    MalformedLineError,
    MissingFileError,
    NonMonotonicStepError,
    ZeroSizeError,
)

DEFAULT_CHUNK_SIZE = 1 << 20


@dataclass(frozen=True)
class ManifestEntry:
    label: str
    step_index: int
    step_description: str
    path: Path


@dataclass(frozen=True)
class ImageManifest:
    """Ordered acquisition timeline. Entry order follows the file."""

    entries: tuple[ManifestEntry, ...]
    source: Path | None = None
    # (browser name, application name) when the whole session used one pair.
    session_meta: tuple[str, str] | None = None

    def labels(self) -> list[str]:
        return [e.label for e in self.entries]

    def entry(self, label: str) -> ManifestEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MemoryImage:
    """A single raw memory image.

    ``open()`` hands back a fresh binary handle each call, so concurrent
    readers never share a cursor.  ``chunks()`` streams the content without
    ever holding the whole image in memory; 512 MiB inputs cost the same
    working set as 4 KiB ones.
    """

    label: str
    size: int
    path: Path | None = None
    _data: bytes | None = field(default=None, repr=False)

    @classmethod
    def from_file(cls, path: str | Path, label: str | None = None) -> "MemoryImage":
        p = Path(path)
        if not p.is_file():
            raise MissingFileError(f"image file not found: {p}")
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
        with self.open() as handle:
            handle.seek(offset)
            return handle.read(length)


def _tsv_rows(
    source: str | Path | IO[str], nfields: int, error: type[LineError]
) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, fields) for each data line of a TSV file or
    handle.  Blank and ``#`` lines are skipped; a line without exactly
    ``nfields`` tab-separated fields raises ``error``.  Shared by the
    process-map and catalog loaders."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from _tsv_rows(fh, nfields, error)
        return
    for lineno, raw in enumerate(source, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != nfields:
            raise error(lineno, line, f"expected {nfields} fields, got {len(parts)}")
        yield lineno, line, parts


def load_manifest(path: str | Path) -> ImageManifest:
    """Parse a manifest TSV and check every referenced image is usable.

    Identical file bytes always produce a structurally identical manifest.
    Raises MissingFileError / ZeroSizeError / DuplicateLabelError /
    NonMonotonicStepError on the matching defect.
    """
    src = Path(path)
    if not src.is_file():
        raise MissingFileError(f"manifest not found: {src}")
    base = src.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    last_step: int | None = None
    session_meta: tuple[str, str] | None = None
    for lineno, raw in enumerate(src.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            stripped = line.strip()
            if stripped.startswith("# session:"):
                meta = stripped[len("# session:") :].strip()
                browser, _, application = meta.partition("\t")
                session_meta = (browser.strip(), application.strip())
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise MalformedLineError(
                lineno, line, f"expected 4 tab-separated fields, got {len(parts)}"
            )
        label, step_text, description, rel = parts
        if not label:
            raise MalformedLineError(lineno, line, "empty label")
        try:
            step = int(step_text)
        except ValueError:
            raise MalformedLineError(
                lineno, line, f"step index {step_text!r} is not an integer"
            ) from None
        if label in seen:
            raise DuplicateLabelError(f"{src}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        if last_step is not None and step <= last_step:
            raise NonMonotonicStepError(
                f"{src}:{lineno}: step {step} does not increase past {last_step}"
            )
        last_step = step
        img_path = (base / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        if not img_path.is_file():
            raise MissingFileError(f"{src}:{lineno}: image file not found: {img_path}")
        if img_path.stat().st_size == 0:
            raise ZeroSizeError(f"{src}:{lineno}: image file is empty: {img_path}")
        entries.append(ManifestEntry(label, step, description, img_path))
    return ImageManifest(entries=tuple(entries), source=src, session_meta=session_meta)


def open_image(entry: ManifestEntry) -> MemoryImage:
    """Open one manifest entry as a streamable image."""
    return MemoryImage.from_file(entry.path, label=entry.label)


def write_manifest(
    entries: list[ManifestEntry] | ImageManifest,
    path: str | Path,
    session_meta: tuple[str, str] | None = None,
) -> None:
    """Write entries back out in the manifest TSV format (paths made relative)."""
    dest = Path(path)
    if isinstance(entries, ImageManifest):
        rows = entries.entries
        session_meta = session_meta or entries.session_meta
    else:
        rows = tuple(entries)
    lines = ["# label\tstep_index\tstep_description\tpath"]
    if session_meta is not None:
        lines.append(f"# session: {session_meta[0]}\t{session_meta[1]}")
    base = dest.resolve().parent
    for e in rows:
        p = Path(e.path).resolve()
        try:
            p = p.relative_to(base)
        except ValueError:
            pass
        lines.append(f"{e.label}\t{e.step_index}\t{e.step_description}\t{p}")
    dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
