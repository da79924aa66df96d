"""Acceptance gate: seven criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n>: PASS ...` on success (visible with -s or
-rA); with -v the test name itself is the per-criterion line.  Tolerances:
value checks are exact; runtime ceilings are the stated targets (criterion
2: 1 s per fixture, criterion 3: 60 s, criterion 4: 30 s of process CPU
time, so load from other processes cannot fail it, criterion 5: 60 s);
criterion 7 asserts peak traced memory < 128 MiB and only reports
wall-clock.
"""

import json
import time
import tracemalloc
from itertools import starmap

import numpy as np
import pytest

from memsift import (
    BOTH_ENCODINGS,
    HIGH,
    LOW,
    FabricationPlan,
    MatchMode,
    MemoryImage,
    PlannedImage,
    ProcessMap,
    ProcessMapEntry,
    STANDARD_COLUMNS,
    build_presence_matrix,
    fabricate,
    load_manifest,
    load_process_map,
    percent_decode,
    scan_image,
    scan_manifest,
    table1_preset,
    template_by_id,
)
from memsift.cli import main
from memsift.carver import _buffers
from memsift.fullcarve import _spans

from oracles import carve_bruteforce, carve_numpy, random_buffer

pytestmark = pytest.mark.acceptance


def _fixture_image(template_id: str, base: int = 8192, size: int = 256 * 1024):
    data = template_by_id(template_id).render()
    buf = bytearray(size)
    buf[base : base + len(data)] = data
    return MemoryImage.from_bytes(bytes(buf), label=template_id), base


def test_criterion_1_decode_vectors():
    assert percent_decode("who678%2C%3B") == "who678,;"
    assert percent_decode("abc*%21123") == "abc*!123"
    print("ACCEPTANCE 1: PASS - both published decode vectors exact")


def test_criterion_2_recovery_fixtures():
    checks = []

    def scan_one(template_id):
        img, base = _fixture_image(template_id)
        t0 = time.perf_counter()
        findings = scan_image(img)
        dt = time.perf_counter() - t0
        assert dt < 1.0, f"{template_id}: {dt:.2f}s"
        checks.append((template_id, dt))
        return findings, base

    f, _ = scan_one("sonicwall-inline")
    assert len(f) == 1
    assert (f[0].app_id, f[0].username, f[0].password_decoded) == (
        "sonicwall", "306110003", "Nitt500")
    assert f[0].confidence == HIGH

    f, _ = scan_one("facebook-ff-inline")
    assert len(f) == 1
    assert (f[0].username, f[0].password_decoded) == (
        "ipsita.chinky@gmail.com", "who678,;")
    assert f[0].password_raw == "who678%2C%3B"

    f, _ = scan_one("facebook-gc-adjacent")
    assert len(f) == 1
    assert f[0].match_mode == MatchMode.ADJACENT
    assert (f[0].username, f[0].password_decoded) == (
        "ipsita.chinky@gmail.com", "berham!19")

    f, _ = scan_one("gmail-ff-cookie-inline")
    assert len(f) == 1
    assert f[0].app_id == "gmail-ff"
    assert f[0].username == "ipsita.chinky@gmail.com"  # from the cookie
    assert f[0].password_decoded == "abc*!123"

    f, _ = scan_one("irctc-inline")
    assert len(f) == 1
    assert (f[0].app_id, f[0].username, f[0].password_decoded) == (
        "irctc", "ipsita689", "durga21")

    f, _ = scan_one("sbi-gc-inline")
    assert len(f) == 1
    assert f[0].encrypted
    assert f[0].password_raw == "37f08c5d00de89cb3c26e50200ee7242"
    assert f[0].password_decoded is None

    f, _ = scan_one("sbi-ff-isolated")
    assert [x.password_raw for x in f] == [None, None]
    assert {x.app_id for x in f} == {"irctc", "sbi"}
    assert all(x.confidence == LOW and x.username == "ipsitasbi" for x in f)

    worst = max(dt for _t, dt in checks)
    print(f"ACCEPTANCE 2: PASS - 7 recovery fixtures exact, worst {worst * 1000:.0f} ms")


# Reference presence pattern for the table1 preset, one row per image,
# columns in STANDARD order.
_TABLE1 = {
    1:  "No No No No No No No No No No",
    2:  "No No No No No No No No No No",
    3:  "Yes Yes No No No No No No No No",
    4:  "Yes Yes Yes Yes Yes Yes Yes Yes No Yes",
    5:  "Yes Yes Yes Yes Yes Yes Yes Yes No Yes",
    6:  "Yes Yes Yes Yes Yes Yes Yes Yes No Yes",
    7:  "Yes Yes Yes No Yes No Yes Yes No Yes",
    8:  "Yes Yes Yes No Yes No Yes Yes No No",
    9:  "Yes Yes Yes No Yes No Yes Yes No No",
    10: "No No No No No No No No No No",
    11: "No No No No No No No No No No",
    12: "No No No No No No No No No No",
    13: "No No No No No No No No No No",
}


def test_criterion_3_table1_reproduction(tmp_path):
    t0 = time.perf_counter()
    plan = table1_preset()  # 16 MiB images
    result = fabricate(plan, tmp_path / "corpus")
    manifest = load_manifest(result.manifest_path)
    pmap = load_process_map(result.process_map_path)
    findings = scan_manifest(manifest, process_map=pmap)
    matrix = build_presence_matrix(findings, manifest.session_meta)
    dt = time.perf_counter() - t0

    assert matrix["rows"] == [f"Img{n}" for n in _TABLE1]
    assert matrix["columns"] == [list(c) for c in STANDARD_COLUMNS]
    mismatches = [
        (f"Img{n}", matrix["cells"][f"Img{n}"], row.split())
        for n, row in _TABLE1.items()
        if matrix["cells"][f"Img{n}"] != row.split()
    ]
    assert not mismatches, mismatches
    assert dt < 60.0, f"{dt:.1f}s"
    print(f"ACCEPTANCE 3: PASS - 130/130 cells match, {dt:.1f} s")


def _carved_spans(data: bytes, chunk_size: int) -> tuple[np.ndarray, ...]:
    """The full carve's pieces as absolute (offset, stop, bytes per
    character) arrays, read off its buffers with no string built."""
    image = MemoryImage.from_bytes(data)
    buffers = _buffers(image, list(BOTH_ENCODINGS), 4, 4096, chunk_size)
    parts = [
        (offset + base, stop + base, unit)
        for _buf, base, offset, stop, unit in starmap(_spans, buffers)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _row_spans(rows) -> tuple[np.ndarray, ...]:
    """Reference rows (offset, text, encoding) as the same three arrays."""
    unit = np.array([2 if enc == "utf16le" else 1 for _at, _text, enc in rows], np.int64)
    offset = np.array([at for at, _text, _enc in rows], np.int64)
    length = np.array([len(text) for _at, text, _enc in rows], np.int64)
    return offset, offset + unit * length, unit


def test_criterion_4_carver_oracle_equivalence():
    t0 = time.process_time()
    densities = (0.1, 0.3, 0.7)
    # 65535 cuts each 64 KiB buffer one byte short, then a 1-byte chunk.
    chunk_sizes = (4 * 1024, 64 * 1024, 65535)
    for i in range(1000):
        density = densities[i % 3]
        data = random_buffer([8801, i], 64 * 1024, density)
        reference = carve_numpy(data)
        if i < 9:
            # the slow two-loop scan anchors the vectorized reference
            assert carve_bruteforce(data) == reference
        # A piece's text is its bytes, so equal spans are equal pieces.
        want = _row_spans(reference)
        for cs in chunk_sizes:
            got = _carved_spans(data, cs)
            assert all(map(np.array_equal, got, want)), (i, density, cs)
    dt = time.process_time() - t0
    assert dt < 30.0, f"{dt:.1f}s CPU"
    print(
        f"ACCEPTANCE 4: PASS - 1000 buffers x 3 chunk sizes equal reference,"
        f" {dt:.1f} s CPU"
    )


_ALL_TEMPLATES = (
    "sonicwall-inline", "facebook-ff-inline", "facebook-gc-adjacent",
    "gmail-ff-cookie-inline", "gmail-gc-adjacent", "irctc-inline",
    "sbi-gc-inline", "sbi-ff-isolated",
)


def _random_plan(rng: np.random.Generator, k: int) -> FabricationPlan:
    image_size = int(rng.choice((256, 384, 512))) * 1024
    density = float(rng.choice((0.1, 0.3, 0.7)))
    pmap = None
    if k % 2 == 0:
        half = image_size // 2
        pmap = (
            ProcessMapEntry(1532, "firefox.exe", 0, half, 0x00400000),
            ProcessMapEntry(2210, "chrome.exe", half, image_size, 0x01000000),
        )
    images = []
    for i in range(int(rng.integers(1, 4))):
        count = int(rng.integers(0, 5))
        chosen = rng.choice(len(_ALL_TEMPLATES), size=count, replace=False)
        cursor = int(rng.integers(1024, 4096))
        placements = []
        for t_idx in chosen:
            tid = _ALL_TEMPLATES[int(t_idx)]
            placements.append((tid, cursor))
            cursor += template_by_id(tid).byte_length + 2048 + int(rng.integers(0, 8192))
        images.append(
            PlannedImage(f"R{i}", 2 * (i + 1), f"random step {i}", tuple(placements))
        )
    return FabricationPlan(
        image_size=image_size,
        seed=int(rng.integers(0, 2**31)),
        printable_density=density,
        process_map=pmap,
        images=tuple(images),
    )


def test_criterion_5_end_to_end_oracle(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20110623)
    for k in range(20):
        plan = _random_plan(rng, k)
        result = fabricate(plan, tmp_path / f"plan{k}")
        pmap = ProcessMap(plan.process_map) if plan.process_map else None
        for path in result.image_paths:
            img = MemoryImage.from_file(path, label=path.stem)
            got = tuple(scan_image(img, process_map=pmap))
            want = result.ground_truth[path.stem]
            assert got == want, (k, path.stem)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"{dt:.1f}s"
    print(f"ACCEPTANCE 5: PASS - 20 random plans scan == ground truth, {dt:.1f} s")


def test_criterion_6_deterministic_reports(tmp_path):
    corpus = tmp_path / "corpus"
    plan = table1_preset(image_size=1 << 20)
    fabricate(plan, corpus)
    reports = []
    for name in ("one.json", "two.json"):
        dest = tmp_path / name
        code = main([
            "scan", str(corpus / "manifest.tsv"),
            "--process-map", str(corpus / "process_map.tsv"),
            "--deterministic", "--out", str(dest),
        ])
        assert code == 0
        reports.append(dest.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])  # actually a JSON document
    print("ACCEPTANCE 6: PASS - two --deterministic runs byte-identical")


class _OnePassProbe:
    """Image wrapper that counts how many bytes the scanner pulls."""

    def __init__(self, image):
        self._image = image
        self.label = image.label
        self.size = image.size
        self.bytes_read = 0

    def chunks(self, chunk_size):
        for block in self._image.chunks(chunk_size):
            self.bytes_read += len(block)
            yield block


def test_criterion_7_scale_property(tmp_path):
    size = 512 << 20
    plan = FabricationPlan(
        image_size=size,
        seed=2012,
        printable_density=0.1,
        images=(
            PlannedImage("Big", 2, "scale check", (
                ("sonicwall-inline", 0x00100000),
                ("irctc-inline", 0x10000000),
                ("gmail-ff-cookie-inline", 0x1FF00000),
            )),
        ),
    )
    t0 = time.perf_counter()
    result = fabricate(plan, tmp_path)
    t_fab = time.perf_counter() - t0

    image = MemoryImage.from_file(result.image_paths[0], label="Big")
    probe = _OnePassProbe(image)
    tracemalloc.start()
    t0 = time.perf_counter()
    findings = scan_image(probe)
    t_scan = time.perf_counter() - t0
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert probe.bytes_read == size  # exactly one pass over the image
    assert tuple(findings) == result.ground_truth["Big"]
    limit = 128 << 20
    assert peak < limit, f"peak {peak / 2**20:.1f} MiB"
    print(
        f"ACCEPTANCE 7: PASS - 512 MiB in one pass, peak {peak / 2**20:.1f} MiB"
        f" (< 128 MiB), wall fabricate {t_fab:.1f} s / scan {t_scan:.1f} s"
    )
