"""Tests of the benchmark itself, at small input sizes.

Run from the repository root:  python -m pytest -q bench/tests
"""

import copy
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import run
from harness import memsift_argv, run_child, scratch_dir
from workloads import WORKLOADS, DenseText, KeywordDense, Timeline

from memsift import carve_strings

SMALL = {
    "timeline-table1": Timeline(image_size=1 << 20),
    "dense-text": DenseText(image_size=256 << 10),
    "keyword-dense": KeywordDense(image_size=256 << 10, cluster_bytes=8 << 10),
}
# The benchmark's default seed and the second seed its checks must also pass.
SEEDS = (1, 2)


def _live_pids_mentioning(text: str) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and int(entry.name) != os.getpid():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if text.encode() in cmdline:
                found.append(int(entry.name))
    return found


@pytest.fixture(scope="module", params=[(n, s) for n in SMALL for s in SEEDS],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def outputs(request, tmp_path_factory):
    """Real `memsift` outputs for one small workload: the report, the
    strings file of its strings image, and what both must equal."""
    name, seed = request.param
    workload = SMALL[name]
    work = tmp_path_factory.mktemp(name)
    out = work / "inputs"
    args = workload.fabricate_args(work, seed)
    assert run_child(memsift_argv("fabricate", *args, "--out", str(out)), 60, work).ok
    inputs = workload.finish(out, seed)
    report_path, strings_path = work / "report.json", work / "strings.txt"
    scan = memsift_argv("scan", *inputs.scan_args, "--deterministic", "--out", str(report_path))
    assert run_child(scan, 60, work).ok
    image = inputs.strings_image
    assert run_child(memsift_argv("strings", str(image), "--out", str(strings_path)), 60, work).ok
    return {
        "expected": workload.expected(out, seed),
        "report": json.loads(report_path.read_text(encoding="utf-8")),
        "strings": strings_path.read_bytes(),
        "reference": checks.reference_strings(image.read_bytes()),
    }


def _first_finding(report):
    for image in report["images"]:
        if image["findings"]:
            return image["findings"]
    raise AssertionError("no findings to corrupt")


# --- every checker accepts real output ---------------------------------------


def test_findings_checker_accepts_real_report(outputs):
    assert outputs["expected"].findings, "workload expects no image at all"
    assert checks.check_findings(outputs["report"], outputs["expected"].findings) == []


def test_matrix_checker_accepts_real_report(outputs):
    if outputs["expected"].matrix_rows is None:
        pytest.skip("workload has no reference table")
    assert checks.check_matrix(outputs["report"], outputs["expected"].matrix_rows) == []


def test_strings_checker_accepts_real_output(outputs):
    assert outputs["strings"]
    assert checks.check_strings(outputs["strings"], outputs["reference"]) == []


# --- every checker rejects a corrupted copy ----------------------------------


def test_dropped_finding_rejected(outputs):
    report = copy.deepcopy(outputs["report"])
    _first_finding(report).pop()
    assert checks.check_findings(report, outputs["expected"].findings)


def test_shifted_offset_rejected(outputs):
    for field in ("offset", "username_offset", "password_offset"):
        report = copy.deepcopy(outputs["report"])
        finding = next(f for f in _first_finding(report) if f[field] is not None)
        finding[field] += 2
        assert checks.check_findings(report, outputs["expected"].findings), field


def test_wrong_confidence_rejected(outputs):
    report = copy.deepcopy(outputs["report"])
    finding = _first_finding(report)[0]
    finding["confidence"] = "LOW" if finding["confidence"] == "HIGH" else "HIGH"
    assert checks.check_findings(report, outputs["expected"].findings)


def test_flipped_matrix_cell_rejected(outputs):
    if outputs["expected"].matrix_rows is None:
        pytest.skip("workload has no reference table")
    report = copy.deepcopy(outputs["report"])
    row = report["matrix"]["cells"]["Img5"]
    row[0] = "No" if row[0] == "Yes" else "Yes"
    assert checks.check_matrix(report, outputs["expected"].matrix_rows)


def test_missing_carved_string_rejected(outputs):
    lines = outputs["strings"].splitlines(keepends=True)
    for gone in (0, len(lines) // 2, len(lines) - 1):
        corrupted = b"".join(lines[:gone] + lines[gone + 1 :])
        assert checks.check_strings(corrupted, outputs["reference"]), gone


# --- reference carve and workload layouts ----------------------------------


def test_reference_carve_matches_carver_at_cap_boundaries():
    rng = np.random.default_rng(7)
    data = bytearray(rng.integers(0, 256, 1 << 16, dtype=np.uint8).tobytes())
    data[100:150] = b"A" * 50  # ASCII run longer than the cap
    data[301:401] = "B".encode("utf-16-le") * 50  # UTF-16LE run at odd alignment
    data[401:403] = b"\xff\xff"
    for cap in (16, 4096):
        want = "".join(
            f"{s.offset}:{s.text}\n" for s in carve_strings(bytes(data), 4, cap=cap)
        ).encode()
        assert checks.reference_strings(bytes(data), 4, cap) == want


def test_keyword_dense_units_alternate_encodings_and_fill_cluster():
    workload = SMALL["keyword-dense"]
    units = workload.units(3)
    assert {u.wide for u in units} == {False, True}
    last = units[-1]
    assert last.offset + len(last.encode()) <= workload.cluster_start + workload.cluster_bytes
    assert units == workload.units(3) and units != workload.units(4)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((harness.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# --- processes and scratch space ---------------------------------------------


def test_overrunning_child_is_killed_and_reaped(tmp_path):
    marker = str(tmp_path / "sleeper")
    sleeper = [sys.executable, "-c", "import sys, time; time.sleep(60)", marker]
    result = run_child(sleeper, 0.5, tmp_path)
    assert result.timed_out and not result.ok
    assert result.wall_s < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(result.pid, os.WNOHANG)  # already reaped
    assert _live_pids_mentioning(marker) == []


def test_child_reports_exit_code_and_peak_memory(tmp_path):
    result = run_child([sys.executable, "-c", "raise SystemExit(3)"], 30, tmp_path)
    assert (result.returncode, result.timed_out, result.ok) == (3, False, False)
    assert result.peak_rss_mib > 1


def test_scratch_dir_removed_when_block_raises(tmp_path):
    root = tmp_path / "work"
    with pytest.raises(RuntimeError):
        with scratch_dir("x-", root) as path:
            (path / "image.img").write_bytes(b"\0" * 10)
            raise RuntimeError("boom")
    assert not root.exists()


def _run_main(monkeypatch, tmp_path, capsys, *argv):
    monkeypatch.setattr(harness, "WORK_ROOT", tmp_path / ".bench_work")
    monkeypatch.setitem(WORKLOADS, "keyword-dense", SMALL["keyword-dense"])
    code = run.main(["--workload", "keyword-dense", "--seed", "2", "--seconds", "0.1", *argv])
    assert not (tmp_path / ".bench_work").exists()
    assert _live_pids_mentioning(str(tmp_path)) == []
    return code, capsys.readouterr().out


@pytest.mark.parametrize("trace, names", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_run_prints_every_metric_and_cleans_up(monkeypatch, tmp_path, capsys, trace, names):
    code, out = _run_main(monkeypatch, tmp_path, capsys, "--trace", trace)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_run_with_overrunning_children_fails_and_cleans_up(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "CHILD_TIMEOUT", 0.05)
    code, out = _run_main(monkeypatch, tmp_path, capsys, "--trace", "0")
    assert code != 0 and out == ""
