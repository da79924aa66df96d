"""Per-layer spans for the traced in-process pass.

``instrumented`` wraps the names the scanner and the CLI call into each
layer (carving, chunk reads, confidence, inline and adjacent matching,
binding, decoding, process lookup, matrix, report) and restores them on
exit; no file under ``src/`` knows about it.  Spans nest through a stack:
each span adds its duration to its parent's child time, so a layer's self
time is its total minus the spans inside it.  Spans are aggregated per
name as they close.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from itertools import islice
from time import perf_counter_ns
from typing import Callable, Iterable, Iterator

import memsift.cli as cli
import memsift.corpus as corpus
import memsift.procmap as procmap
import memsift.scanner as scanner


class Tracer:
    def __init__(self) -> None:
        self.total_ns: Counter[str] = Counter()
        self.child_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.bytes_read = 0
        self.strings: Counter[str] = Counter()  # per encoding name
        self._stack: list[list[int]] = [[0]]  # one [child_ns] per open span

    def _close(self, name: str, start: int, frame: list[int]) -> None:
        elapsed = perf_counter_ns() - start
        self._stack.pop()
        self._stack[-1][0] += elapsed
        self.total_ns[name] += elapsed
        self.child_ns[name] += frame[0]
        self.calls[name] += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        def spanned(*args, **kwargs):
            frame = [0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, frame)

        return spanned

    def wrap_iter(
        self, name: str, items: Iterable, on_batch: Callable, batch: int = 1
    ) -> Iterator:
        """Span the steps of an iterator (the carver and the chunk reader are
        generators: their work happens inside ``next``).  Items are pulled
        ``batch`` at a time, so a large batch makes the span cost nothing
        per item; the consumer sees the same items in the same order."""
        it = iter(items)
        while True:
            frame = [0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                pulled = list(islice(it, batch))
                on_batch(pulled)
            finally:
                self._close(name, start, frame)
            if not pulled:
                return
            yield from pulled

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return (self.total_ns[name] - self.child_ns[name]) / 1e9


@contextmanager
def instrumented(tracer: Tracer):
    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, new: object) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def count_bytes(chunks: list[bytes]) -> None:
        tracer.bytes_read += sum(map(len, chunks))

    def count_strings(strings: list) -> None:
        tracer.strings.update(s.encoding.value for s in strings)

    carve = scanner.carve_strings
    read = corpus.MemoryImage.chunks

    class SpannedBinder(scanner.AdjacentBinder):
        push = tracer.wrap("signatures.adjacent", scanner.AdjacentBinder.push)

    try:
        scan = tracer.wrap("scanner.scan", scanner.scan_image)
        patch(scanner, "scan_image", scan)  # scan_manifest calls it per image
        patch(cli, "scan_image", scan)
        # Carved strings are pulled 4096 at a time, image chunks one by one.
        patch(scanner, "carve_strings",
              lambda *a, **k: tracer.wrap_iter("carver", carve(*a, **k), count_strings, 4096))
        patch(corpus.MemoryImage, "chunks",
              lambda self, *a, **k: tracer.wrap_iter("corpus.read", read(self, *a, **k), count_bytes))
        patch(scanner, "AdjacentBinder", SpannedBinder)
        for owner, attr, name in (
            (scanner, "assign_confidence", "scanner.confidence"),
            (scanner, "match_inline", "signatures.inline"),
            (scanner, "combine_bindings", "signatures.combine"),
            (scanner, "classify_value", "decoding.classify"),
            (procmap.ProcessMap, "lookup", "procmap.lookup"),
            (cli, "build_presence_matrix", "scanner.matrix"),
            (cli, "build_report", "report.build"),
            (cli, "render_json", "report.render"),
        ):
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
