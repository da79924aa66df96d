"""The benchmark's tracer wraps scanner, corpus, procmap and CLI names from
outside; a renamed or rebound name must fail here, not only in the bench."""

import sys
from pathlib import Path

import memsift.cli as cli
import memsift.corpus as corpus
import memsift.procmap as procmap
import memsift.scanner as scanner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracing import Tracer, instrumented  # noqa: E402

# The spans one traced manifest scan with a process map must record.
SPANS = (
    "scanner.scan", "carver", "corpus.read", "signatures.inline",
    "signatures.adjacent", "signatures.combine", "scanner.confidence",
    "decoding.classify", "procmap.lookup", "scanner.matrix", "report.build",
    "report.render",
)


def _names():
    return {
        owner: dict(vars(owner))
        for owner in (scanner, cli, corpus.MemoryImage, procmap.ProcessMap)
    }


def test_traced_scan_reports_the_same_and_restores_every_name(small_corpus, tmp_path):
    _plan, result = small_corpus
    argv = ["scan", str(result.manifest_path), "--process-map",
            str(result.process_map_path), "--deterministic", "--out"]
    # The untraced run first: it resolves the CLI's lazily imported names,
    # so the snapshot below holds every name the tracer patches.
    assert cli.main([*argv, str(tmp_path / "plain.json")]) == 0
    before = _names()
    tracer = Tracer()
    with instrumented(tracer):
        assert cli.main([*argv, str(tmp_path / "traced.json")]) == 0
    after = _names()
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    changed = [
        (owner.__name__, name)
        for owner, names in after.items()
        for name in names.keys() | before[owner].keys()
        if names.get(name) is not before[owner].get(name)
    ]
    assert changed == []
    assert [name for name in SPANS if not tracer.calls[name]] == []
