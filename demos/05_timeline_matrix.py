"""
Artifact persistence across an acquisition timeline
===================================================

The headline workflow: capture memory repeatedly while logging into
sites, then later while logging out, closing the browser, and finally
rebooting.  Scanning every image and tabulating presence per application
and browser shows how long each credential survives.

This demo fabricates a small synthetic timeline (2 MiB images instead of
the full-size preset, same layout) with known ground truth, scans it,
and prints the presence matrix.
"""

import tempfile
from pathlib import Path

from memsift import (
    ProcessMap,
    build_presence_matrix,
    fabricate,
    load_manifest,
    load_process_map,
    scan_manifest,
    table1_preset,
)
from memsift.report import render_matrix_table

# the corpus lives in a temporary directory, removed once it is scanned
with tempfile.TemporaryDirectory(prefix="memsift-demo-") as tmp:
    out = Path(tmp)

    # 13 images: logins happen around Img3-6, logout before Img7, browser
    # close before Img10, reboot before Img12
    plan = table1_preset(image_size=2 * 1024 * 1024)
    result = fabricate(plan, out)
    print(f"fabricated {len(result.image_paths)} images under {out}")

    manifest = load_manifest(result.manifest_path)
    for entry in manifest.entries[:4]:
        print(f"  step {entry.step_index:2d}  {entry.label:6s} {entry.step_description}")
    print("  ...")

    # scan the whole corpus with process attribution
    pmap = ProcessMap(load_process_map(result.process_map_path))
    findings = scan_manifest(manifest, process_map=pmap)
    total = sum(len(v) for v in findings.values())
    print(f"\n{total} findings across the timeline")

# the matrix answers "was app X's credential still in memory at step N,
# under browser Y"; MF is Firefox, GC is Chrome
matrix = build_presence_matrix(manifest, findings)
print()
print(render_matrix_table(matrix))

# credentials survive logout (Img7-9) and only leave when the browser
# process dies; nothing survives the reboot
print("\nsonicwall/MF on Img9 (after logout):",
      matrix.cell("Img9", "sonicwall", "MF"))
print("sonicwall/MF on Img10 (browser closed):",
      matrix.cell("Img10", "sonicwall", "MF"))
