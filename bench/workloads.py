"""The benchmark's three workloads: how each builds its inputs and what a
correct scan of them must report.

A workload is built in two timed steps, ``fabricate_args`` (the arguments of
one `memsift fabricate` call, after writing any plan file it needs) and
``finish`` (anything written over the fabricated images), and one untimed
step, ``expected``, which derives the outputs a correct scan must give.
Only ``--seed`` varies the inputs; every size is fixed per workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import checks

LOW = "LOW"
MAX_SNIPPET = 256


@dataclass(frozen=True)
class Expected:
    """What a correct `memsift scan` of the workload reports."""

    findings: dict[str, list[dict]]  # image label -> finding documents
    matrix_rows: dict[str, str] | None = None  # reference presence table


@dataclass(frozen=True)
class Inputs:
    scan_args: list[str]  # `memsift scan` target and flags, less --out
    images: list[Path]  # every image the scan reads
    strings_image: Path  # the image `memsift strings` is timed on

    @property
    def scan_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.images)


def _process_map(size: int) -> list[list]:
    """Two browser processes splitting the image in half:
    [pid, name, phys_start, phys_end, virt_base] rows."""
    half = size // 2
    return [
        [1532, "firefox.exe", 0, half, 0x00400000],
        [2210, "chrome.exe", half, size, 0x01000000],
    ]


def _attributions(offset: int, pmap: list[list]) -> list[dict]:
    return [
        {"pid": pid, "process_name": name, "virtual_address": virt + offset - lo}
        for pid, name, lo, hi, virt in pmap
        if lo <= offset < hi
    ]


def _write_plan(path: Path, size: int, seed: int, density: float, placements) -> None:
    doc = {
        "image_size": size,
        "seed": seed,
        "printable_density": density,
        "session_meta": None,
        "process_map": _process_map(size),
        "images": [
            {
                "label": "image",
                "step_index": 1,
                "step_description": "single acquisition",
                "placements": [list(p) for p in placements],
            }
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _ground_truth(out: Path) -> dict[str, list[dict]]:
    doc = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
    return {img["label"]: img["findings"] for img in doc["images"]}


def _single_image_scan(out: Path) -> Inputs:
    image = out / "image.img"
    return Inputs(
        scan_args=[str(image), "--process-map", str(out / "process_map.tsv")],
        images=[image],
        strings_image=image,
    )


@dataclass(frozen=True)
class Timeline:
    """The paper's experiment: the 13-image table1 timeline, scanned as one
    manifest with its process map."""

    name = "timeline-table1"
    why = "the paper's 13-image timeline: every layer, arbitration, cookies, attribution and the matrix"
    image_size: int = 2 << 20
    density = 0.3

    def fabricate_args(self, work: Path, seed: int) -> list[str]:
        return [
            "--preset", "table1",
            "--image-size", str(self.image_size),
            "--seed", str(seed),
            "--density", str(self.density),
        ]

    def finish(self, out: Path, seed: int) -> Inputs:
        return Inputs(
            scan_args=[
                str(out / "manifest.tsv"),
                "--process-map", str(out / "process_map.tsv"),
            ],
            images=[out / f"Img{n}.img" for n in range(1, 14)],
            # `strings` is timed on the image where most artifacts are live.
            strings_image=out / "Img4.img",
        )

    def expected(self, out: Path, seed: int) -> Expected:
        return Expected(_ground_truth(out), matrix_rows=checks.TABLE1_ROWS)


@dataclass(frozen=True)
class DenseText:
    """One image where most bytes are printable, with a few planted
    templates: carving dominates the scan."""

    name = "dense-text"
    why = "printable density 0.7 with four planted templates: carving dominates, matching idles"
    image_size: int = 4 << 20
    density = 0.7
    # One template per matching path: inline, adjacent, cookie, encrypted.
    templates = (
        "sonicwall-inline",
        "facebook-gc-adjacent",
        "gmail-ff-cookie-inline",
        "sbi-gc-inline",
    )

    def fabricate_args(self, work: Path, seed: int) -> list[str]:
        # Templates sit at the middle of equal slots, jittered by the seed.
        rng = random.Random(seed)
        slot = self.image_size // len(self.templates)
        placements = [
            (tid, i * slot + slot // 4 + rng.randrange(slot // 4))
            for i, tid in enumerate(self.templates)
        ]
        plan = work / "plan.json"
        _write_plan(plan, self.image_size, seed, self.density, placements)
        return ["--plan", str(plan)]

    def finish(self, out: Path, seed: int) -> Inputs:
        return _single_image_scan(out)

    def expected(self, out: Path, seed: int) -> Expected:
        return Expected(_ground_truth(out))


@dataclass(frozen=True)
class LoginUnit:
    """One repeated login residue: an inline form body followed by a
    Chrome-style key/value string run, all in one encoding."""

    offset: int
    wide: bool  # UTF-16LE rather than ASCII
    username: str
    password: str

    @property
    def strings(self) -> list[str]:
        body = f"uName={self.username}&pass={self.password}"
        return [body, "Email", self.username, "Passwd", self.password]

    def encode(self) -> bytes:
        codec = "utf-16-le" if self.wide else "ascii"
        # Two NULs end every string: one is not enough to stop a UTF-16LE
        # chain from absorbing the last character of an ASCII string.
        return b"".join(s.encode(codec) + b"\0\0" for s in self.strings)

    def string_offsets(self) -> list[int]:
        unit = 2 if self.wide else 1
        offsets, pos = [], self.offset
        for s in self.strings:
            offsets.append(pos)
            pos += unit * len(s) + 2
        return offsets

    def findings(self, pmap: list[list]) -> list[dict]:
        """Exactly two LOW findings: the inline body as Sonicwall and the
        key/value run as Chrome Gmail.  No context URL is near, so the
        password-only Facebook (inline ``pass``) and Firefox Gmail
        (adjacent ``Passwd``) candidates are dominated and dropped."""
        unit = 2 if self.wide else 1
        body_at, _email_at, user_at, passwd_at, pw_at = self.string_offsets()
        body = self.strings[0]
        pass_key = body.index("&pass=") + 1
        decoded = self.password.replace("%21", "!")

        def finding(app_id, mode, offset, uoff, poff, snippet):
            return {
                "app_id": app_id,
                "username": self.username,
                "password_raw": self.password,
                "password_decoded": decoded,
                "encrypted": False,
                "match_mode": mode,
                "offset": offset,
                "confidence": LOW,
                "context_snippet": snippet[:MAX_SNIPPET],
                "attributions": _attributions(offset, pmap),
                "username_offset": uoff,
                "password_offset": poff,
            }

        return [
            finding(
                "sonicwall", "inline",
                body_at + unit * pass_key,
                body_at + unit * len("uName="),
                body_at + unit * (pass_key + len("pass=")),
                body,
            ),
            finding(
                "gmail-gc", "adjacent", passwd_at, user_at, pw_at,
                f"Email {self.username} Passwd {self.password}",
            ),
        ]


@dataclass(frozen=True)
class KeywordDense:
    """A cluster of login units packed closer than the scanner's reach,
    written over a fabricated image that has no placements: one region
    spans the whole cluster, so matching and arbitration dominate."""

    name = "keyword-dense"
    why = "a 64 KiB cluster of repeated login units forms one region: matching and arbitration dominate"
    image_size: int = 1 << 20
    density = 0.3
    cluster_bytes: int = 64 << 10

    @property
    def cluster_start(self) -> int:
        # Centred, so the cluster straddles the two processes of the map.
        return (self.image_size - self.cluster_bytes) // 2

    def units(self, seed: int) -> list[LoginUnit]:
        """Units alternate ASCII and UTF-16LE; values are hex digits, which
        can never spell a catalog keyword."""
        rng = random.Random(seed)
        out: list[LoginUnit] = []
        pos = self.cluster_start + 2  # two leading NULs guard the first unit
        end = self.cluster_start + self.cluster_bytes - 2
        while True:
            unit = LoginUnit(
                offset=pos,
                wide=len(out) % 2 == 1,
                username=f"u{rng.getrandbits(32):08x}",
                password=f"p{rng.getrandbits(32):08x}%21",
            )
            size = len(unit.encode())
            if pos + size > end:
                return out
            out.append(unit)
            pos += size

    def fabricate_args(self, work: Path, seed: int) -> list[str]:
        plan = work / "plan.json"
        _write_plan(plan, self.image_size, seed, self.density, [])
        return ["--plan", str(plan)]

    def finish(self, out: Path, seed: int) -> Inputs:
        cluster = bytearray(self.cluster_bytes)  # NUL padding on both sides
        for unit in self.units(seed):
            data = unit.encode()
            rel = unit.offset - self.cluster_start
            cluster[rel : rel + len(data)] = data
        with open(out / "image.img", "r+b") as fh:
            fh.seek(self.cluster_start)
            fh.write(cluster)
        return _single_image_scan(out)

    def expected(self, out: Path, seed: int) -> Expected:
        pmap = _process_map(self.image_size)
        findings = [f for unit in self.units(seed) for f in unit.findings(pmap)]
        return Expected({"image": findings})


WORKLOADS = {w.name: w for w in (Timeline(), DenseText(), KeywordDense())}
