"""Attribute physical offsets to the processes whose pages held them.

A process map is a TSV of ``pid  name  phys_start  phys_end  virt_base``
rows (addresses hex, 0x-prefixed), the shape a pslist/memmap walk of the
same image produces.  Ranges may overlap: shared pages legitimately belong
to several processes, and every owner is evidence.  pid 0 is reserved for
kernel-resident ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .corpus import _tsv_rows
from .errors import InvertedRangeError, MalformedEntryError


@dataclass(frozen=True, slots=True)
class ProcessMapEntry:
    pid: int
    name: str
    phys_start: int
    phys_end: int
    virt_base: int


@dataclass(frozen=True, slots=True)
class Attribution:
    pid: int
    process_name: str
    virtual_address: int


def _parse_hex(cell: str) -> int:
    if not cell.lower().startswith("0x"):
        raise ValueError(f"address {cell!r} lacks 0x prefix")
    return int(cell, 16)


def load_process_map(source: str | Path | IO[str]) -> list[ProcessMapEntry]:
    """Parse and validate a process map, returned sorted by phys_start.

    The sort is stable, so entries sharing a start keep their file order;
    that order is what ``ProcessMap.lookup`` reports multiple owners in.
    """
    entries: list[ProcessMapEntry] = []
    for lineno, line, parts in _tsv_rows(source, 5, MalformedEntryError):
        pid_text, name, start_text, end_text, virt_text = parts
        try:
            pid = int(pid_text)
            start = _parse_hex(start_text)
            end = _parse_hex(end_text)
            virt = _parse_hex(virt_text)
        except ValueError as exc:
            raise MalformedEntryError(lineno, line, str(exc)) from None
        if pid < 0:
            raise MalformedEntryError(lineno, line, f"negative pid {pid}")
        if not name:
            raise MalformedEntryError(lineno, line, "empty process name")
        if start >= end:
            raise InvertedRangeError(
                f"line {lineno}: range 0x{start:x}..0x{end:x} is inverted or empty"
            )
        entries.append(ProcessMapEntry(pid, name, start, end, virt))
    entries.sort(key=lambda e: e.phys_start)
    return entries


class ProcessMap:
    """Sorted map with an offset index.

    Lookup is a binary search over range starts followed by a bounded scan
    back (no containing range can start more than the longest range's
    length before the offset), so it stays fast on maps with thousands of
    rows and degrades to nothing on empty ones.
    """

    def __init__(self, entries: Sequence[ProcessMapEntry]):
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
