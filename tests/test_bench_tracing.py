"""The benchmark's tracer wraps scanner, corpus, procmap and CLI names from
outside; a renamed or rebound name must fail here, not only in the bench."""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import memsift.cli as cli
import memsift.corpus as corpus
import memsift.procmap as procmap
import memsift.scanner as scanner
import oracles
from memsift import DEFAULT_MIN_LEN, MemoryImage, ScanOptions, builtin_catalog, carve_strings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracing import Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_candidates_are_those_the_linear_reference_scores(name, tmp_path):
    """The bench's ``scanner.candidates`` counts ``assign_confidence`` calls:
    one per candidate the linear reference scores on the image's full carve."""
    workload = WORKLOADS[name]
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["fabricate", *workload.fabricate_args(tmp_path, 1), "--out", str(out)]) == 0
    inputs = workload.finish(out, 1)
    tracer = Tracer()
    with instrumented(tracer):
        assert cli.main(["scan", *inputs.scan_args, "--out", str(tmp_path / "report.json")]) == 0
    linear = oracles.assign_confidence_linear
    with mock.patch.object(oracles, "assign_confidence_linear", wraps=linear) as scored:
        for path in inputs.images:
            strings = list(carve_strings(MemoryImage.from_file(path), DEFAULT_MIN_LEN))
            oracles.match_region_linear(strings, builtin_catalog(), ScanOptions())
    assert tracer.calls["scanner.confidence"] == scored.call_count > 0
