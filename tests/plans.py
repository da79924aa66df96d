"""A small fabrication plan that several suites share.

A plain module rather than part of ``conftest.py``: when the benchmark's
tests are collected in the same session, its ``conftest`` module shadows
this directory's, so ``from conftest import ...`` would find the wrong one.
"""

from memsift import FabricationPlan, PlannedImage, ProcessMapEntry

SMALL_PMAP = (
    ProcessMapEntry(1532, "firefox.exe", 0x00000, 0x40000, 0x00400000),
    ProcessMapEntry(2210, "chrome.exe", 0x40000, 0x80000, 0x01000000),
)


def small_plan(seed: int = 11) -> FabricationPlan:
    """Three 512 KiB images covering every template plus an empty one."""
    return FabricationPlan(
        image_size=512 * 1024,
        seed=seed,
        printable_density=0.3,
        process_map=SMALL_PMAP,
        session_meta=("Mozilla Firefox", "mixed applications"),
        images=(
            PlannedImage("A", 2, "firefox side", (
                ("sonicwall-inline", 0x02000),
                ("facebook-ff-inline", 0x08000),
                ("gmail-ff-cookie-inline", 0x10000),
                ("irctc-inline", 0x18000),
                ("sbi-ff-isolated", 0x20000),
            )),
            PlannedImage("B", 4, "chrome side", (
                ("facebook-gc-adjacent", 0x42000),
                ("gmail-gc-adjacent", 0x48000),
                ("sbi-gc-inline", 0x50000),
            )),
            PlannedImage("C", 6, "after cleanup", ()),
        ),
    )
