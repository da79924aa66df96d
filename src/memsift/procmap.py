"""Attribute physical offsets to the processes whose pages held them.

A process map is a TSV of ``pid  name  phys_start  phys_end  virt_base``
rows (addresses hex, 0x-prefixed), the shape a pslist/memmap walk of the
same image produces.  Ranges may overlap: shared pages legitimately belong
to several processes, and every owner is evidence.  pid 0 is reserved for
kernel-resident ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .corpus import _fits_field, _parse_digits, _tsv_rows
from .errors import checked


@checked
class ProcessMapEntry(NamedTuple):
    """One map row.  Every entry writes a row that loads back as itself:
    pid >= 0, a non-empty name that fits one TSV field, and
    0 <= phys_start < phys_end and virt_base >= 0."""

    pid: int
    name: str
    phys_start: int
    phys_end: int
    virt_base: int

    def _check(self) -> None:
        if self.pid < 0:
            raise ValueError(f"negative pid {self.pid}")
        if not self.name:
            raise ValueError("empty process name")
        if not _fits_field(self.name):
            raise ValueError(f"process name {self.name!r} holds a tab or line break")
        if self.phys_start < 0 or self.virt_base < 0:
            raise ValueError("addresses must be non-negative")
        if self.phys_start >= self.phys_end:
            raise ValueError(
                f"range 0x{self.phys_start:x}..0x{self.phys_end:x} is inverted or empty"
            )


class Attribution(NamedTuple):
    pid: int
    process_name: str
    virtual_address: int


def _parse_hex(cell: str) -> int:
    if not cell.lower().startswith("0x"):
        raise ValueError(f"address {cell!r} lacks 0x prefix")
    return _parse_digits(cell[2:], "address", 16)


def _entry(parts: list[str]) -> ProcessMapEntry:
    pid, name, start, end, virt = parts
    return ProcessMapEntry(
        _parse_digits(pid, "pid"), name, _parse_hex(start), _parse_hex(end), _parse_hex(virt)
    )


def load_process_map(source: str | Path | IO[str]) -> ProcessMap:
    """Parse and validate a process map file into a ``ProcessMap``.  Its
    entries are sorted by phys_start; the sort is stable, so entries
    sharing a start keep their file order, the order ``ProcessMap.lookup``
    reports multiple owners in."""
    return ProcessMap(_tsv_rows(source, 5, _entry))


class ProcessMap:
    """Sorted map with an offset index.

    Lookup is a binary search over range starts followed by a bounded scan
    back (no containing range can start more than the longest range's
    length before the offset), so it stays fast on maps with thousands of
    rows and degrades to nothing on empty ones.
    """

    def __init__(self, entries: Iterable[ProcessMapEntry]):
        self.entries = sorted(entries, key=lambda e: e.phys_start)
        self._starts = [e.phys_start for e in self.entries]
        self._max_len = max(
            (e.phys_end - e.phys_start for e in self.entries), default=0
        )

    def lookup(self, offset: int) -> list[Attribution]:
        hits: list[Attribution] = []
        i = bisect_right(self._starts, offset) - 1
        low = offset - self._max_len
        while i >= 0 and self._starts[i] > low:
            e = self.entries[i]
            if e.phys_start <= offset < e.phys_end:
                hits.append(
                    Attribution(
                        pid=e.pid,
                        process_name=e.name,
                        virtual_address=e.virt_base + (offset - e.phys_start),
                    )
                )
            i -= 1
        hits.reverse()
        return hits


def write_process_map(
    entries: Iterable[ProcessMapEntry], path: str | Path
) -> None:
    lines = ["# pid\tname\tphys_start\tphys_end\tvirt_base"]
    for e in entries:
        lines.append(
            f"{e.pid}\t{e.name}\t0x{e.phys_start:08x}\t0x{e.phys_end:08x}\t0x{e.virt_base:08x}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
