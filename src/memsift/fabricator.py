"""Synthetic memory image generation with known planted credentials.

Real acquisition timelines are hard to come by, so this module builds them:
seeded pseudo-random filler with a chosen printable density, overlaid with
artifact templates copied from real login-page residue (request bodies,
Set-Cookie lines, adjacent key/value string pairs).  Every byte is a
deterministic function of (plan, seed), and each fabrication emits the
ground truth findings a correct scanner must report, which makes whole
corpora usable as end-to-end oracles.  A template lists its text blocks
once and names the keys of each match it must produce; the offsets,
values, mode and context text of those matches are read off the blocks.

No catalog keyword, context URL or cookie marker can appear in filler by
chance, so none is searched for: each holds one of ``a``, ``A`` and ``.``
in both encodings, and filler never draws them.  They take in the
carver's anchors, ``a`` and ``.``, so its search stops almost only at
planted text.  With the templates blanked to NULs, such a byte could only
come from filler, so no token can form in filler, across a block seam, or
where filler meets the NUL guards at template edges.  Placements must keep a
clear gap between each other so their context windows cannot interact;
ground truth is then simply the union of per-template expectations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import ImageManifest, ManifestEntry, _check_session, write_manifest
from .errors import InvalidOptionError, OverlapError, PlacementOutOfBoundsError, checked
from .procmap import ProcessMap, ProcessMapEntry, write_process_map
from .report import finding_to_doc
from .scanner import HIGH, LOW, CredentialFinding, _findings
from .signatures import (
    GAUSR_MARKER,
    KeyValuePair,
    MatchMode,
    SignatureMatch,
    builtin_catalog,
)

BLOCK_SIZE = 4 << 20
# Separation placements must keep so context windows never overlap.
MIN_PLACEMENT_GAP = 2048


@checked
class ArtifactTemplate(NamedTuple):
    """A block of login-page residue, rendered as NUL-separated text runs.

    Relative offsets start at 1 so the rendered bytes begin and end with a
    NUL guard; without the guards a template could fuse with neighbouring
    filler into one longer carved string.  ``expected`` holds the
    (confidence, match) pairs a correct scan must make of the rendered
    bytes, at offsets relative to the placement point.  A built-in
    template names only the keys of each match; its offsets, values, mode
    and context text are read off the blocks.
    """

    template_id: str
    text_blocks: tuple[tuple[int, str], ...]
    expected: tuple[tuple[str, SignatureMatch], ...]

    def _check(self) -> None:
        last_end = 0
        for rel, text in self.text_blocks:
            if rel < 1:
                raise ValueError(f"{self.template_id}: block offset {rel} < 1")
            if rel <= last_end:
                raise ValueError(
                    f"{self.template_id}: block at {rel} overlaps previous run"
                )
            if not text:
                raise ValueError(f"{self.template_id}: empty text block")
            last_end = rel + len(text)

    @property
    def byte_length(self) -> int:
        rel, text = self.text_blocks[-1]
        return rel + len(text) + 1

    def render(self) -> bytes:
        buf = bytearray(self.byte_length)
        for rel, text in self.text_blocks:
            buf[rel : rel + len(text)] = text.encode("ascii")
        return bytes(buf)


# --- templates, from publicly documented login artifacts ------------------

_Blocks = tuple[tuple[int, str], ...]
# confidence, app id, username key, password key (None for a missing side)
_Claim = tuple[str, str, str | None, str | None]

# Each template: its id, its text blocks at character offsets from the
# placement point, and one claim per expected match.  ``_locate`` reads
# each claimed pair off the blocks.
_TEMPLATE_TABLE: tuple[tuple[str, _Blocks, tuple[_Claim, ...]], ...] = (
    ("sonicwall-inline", (
        (1, "<HTML>"),
        (8, "<HEAD><TITLE>Page Redirecting</TITLE>"),
        (46, '<META HTTP-EQUIV="Pragma" CONTENT="no-cache">'),
        (92, '<META HTTP-EQUIV="Expires" CONTENT="-1">'),
        (133, "</HEAD>"),
        (141, "<BODY onLoad=\"top.location.href = 'http://192.168.20.1/userLogin.html';\">"),
        (215, "This page is redirecting! Click <A HREF='http://192.168.20.1/userLogin.html\">here</A>"),
        (301, "</BODY>"),
        (309, "</HTML>"),
        (317, "on: keep-alive"),
        (333, "Referer: https://192.168.20.1/auth1.html"),
        (375, "Cookie: temp=temp; SessId=523518834; PageSeed=7e88bfc81a9."),
        (455, "Content-Type: application/x-www-form-urlencoded"),
        (504, "Content-Length: 122"),
        (527, "param1=&param2=93BF844DF6D46F0F1453F46441968A46&sessId=523518834"
              "&id=a4&select=English&uName=306110003&pass=Nitt500&digest="),
        (4106, "t#hP"),
    ), ((HIGH, "sonicwall", "uName", "pass"),)),
    ("facebook-ff-inline", (
        (1, "https://www.facebook.com/login.php"),
        (48, "Content-Type: application/x-www-form-urlencoded"),
        (100, "lsd=AVp_kX2x&email=ipsita.chinky@gmail.com&pass=who678%2C%3B"
              "&default_persistent=0&timezone=-330&lgnrnd=031754_EPdU"
              "&lgnjs=1314120894&locale=en_US"),
        (300, "POST /login.php HTTP/1.1"),
    ), ((HIGH, "facebook", "email", "pass"),)),
    ("facebook-gc-adjacent", (
        (1, "8@@"),
        (5, "@@@@@@"),
        (249, "//www.facebook.com/2"),
        (273, "https://www.facebook.com/login.php?login_attempt=1"),
        (329, "https://www.facebook.com/checkpoint/"),
        (381, "http://www.facebook.com/"),
        (409, 'http://www.facebook.com/"'),
        (437, "https://www.facebook.com/login.php"),
        (481, "email"),
        (497, "ipsita.chinky@gmail.com"),
        (549, "pass"),
        (561, "berham!19"),
        (605, "text/html"),
        (621, "69.171.229.74"),
        (717, "https://www.facebook.com/checkpoint/d"),
        (793, "https://www.facebook.com/login.php?login_attempt=1"),
        (897, "_e_1MWL"),
        (957, "http://www.facebook.com/"),
        (1053, "http://www.facebook.com/"),
        (4181, "DefaultConnectionSettings"),
        (4865, "X2@"),
        (5335, "A>a"),
        (5619, "B>}!"),
    ), ((HIGH, "facebook", "email", "pass"),)),
    ("gmail-ff-cookie-inline", (
        (1, "qRW8I"),
        (98, "=@)"),
        (103, " SHKtU0htggZw%26gausr%3Dipsita.chinky%2540gmail.com"),
        (156, "Content-Encoding: gzip"),
        (180, "Date: Tue, 23 Aug 2011 18:05:37 GMT"),
        (217, "Expires: Tue, 23 Aug 2011 18:05:37 GMT"),
        (257, "Cache-Control: private, max-age=0"),
        (292, "X-Content-Type-Options: nosniff"),
        (325, "X-XSS-Protection: 1; mode=block"),
        (358, "Content-Length: 674"),
        (379, "Server: GSE"),
        (398, "Set-Cookie: LSID=mail|s.IN:DQAAAL0AAACNKnQxFIOEmQaAp"),
        (725, "Set-Cookie: GAUSR=mail:ipsita.chinky@gmail.com; Path=/accounts;secure"),
        (795, "Location: https://accounts.google.co.in/accounts/SetSID?"
              "ssdc=1&sidt=AlWU2cs%2F1jKI0%2BfeR3yEy22NCywE05YSVI"
              "&Passwd=abc*%21123&rmShown=1&signIn=Sign+in&asts="),
        (8661, " `BI"),
        (8741, " `BI"),
        (9062, "fff"),
    ), ((HIGH, "gmail-ff", GAUSR_MARKER, "Passwd"),)),
    ("gmail-gc-adjacent", (
        (1, "https://accounts.google.com/ServiceLoginAuth"),
        (64, "continue=https://mail.google.com/mail/"),
        (120, "Email"),
        (136, "ipsita.chinky@gmail.com"),
        (176, "Passwd"),
        (192, "awesome^&28"),
        (240, "PersistentCookie"),
    ), ((HIGH, "gmail-gc", "Email", "Passwd"),)),
    ("irctc-inline", (
        (1, "8MD"),
        (208, "-bin/bv60.dll/irctc/booking/planner.do?screen=fromlogin"
              "&BV_SessionID=@@@1511077481.1340172850@@@"
              "&BV_EngineID=ccdldfhdehfgdlcefecehidfgmdfff.0 HTTP/1.1"),
        (363, "Host: www.irctc.co.in"),
        (386, "Connection: keep-alive"),
        (410, "Cache-Control: max-age=0"),
        (436, "User-Agent: Mozilla/5.0 (Windows NT 5.1) AppleWebKit/536.5 "
              "(KHTML, like Gecko) Chrome/19.0.1084.56 Safari/536.5"),
        (549, "Accept: text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"),
        (622, "Referer: https://www.irctc.co.in/"),
        (657, "Accept-Encoding: gzip,deflate,sdch"),
        (693, "Accept-Language: en-US,en;q=0.8"),
        (726, "Accept-Charset: ISO-8859-1,utf-8;q=0.7,*;q=0.3"),
        (774, "Cookie: __utma=168397561.1282852060.1340176438.1340176438.1340176438.1;"
              " __utmb=168397561.1.10.1340176438; __utmc=168397561;"
              " __utmz=168397561.1340176438.1.1.utmcsr=(direct)|utmccn=(direct)|utmcmd=(none)"),
        (980, "n=home&userName=ipsita689&password=durga21&button=Login"),
        (1233, "t&SV"),
    ), ((HIGH, "irctc", "userName", "password"),)),
    ("sbi-gc-inline", (
        (1, "https://www.onlinesbi.com/retail/login.htm"),
        (60, "Referer: https://www.onlinesbi.com/"),
        (110, "userName=ipsitasbi&password=37f08c5d00de89cb3c26e50200ee7242&subBtnName=Login"),
        (220, "State Bank of India"),
    ), ((HIGH, "sbi", "userName", "password"),)),
    # The banking session under Firefox leaves only a bare username form
    # fragment with nothing around it.  The keyword is shared between two
    # applications and no URL is nearby to split the tie, so a correct
    # scan reports the username under both, LOW, with no password.
    ("sbi-ff-isolated", (
        (1, "userName=ipsitasbi"),
    ), ((LOW, "irctc", "userName", None), (LOW, "sbi", "userName", None))),
)

_SIGNATURES = {sig.app_id: sig for sig in builtin_catalog()}


def _locate(template_id: str, blocks: _Blocks, key: str) -> tuple[KeyValuePair, str, str]:
    """The one pair ``key`` names in the blocks, with the mode and context
    text of the rule that placed it.  A block that is the key alone takes
    the next block as its value; ``key=`` in a block takes the value up to
    ``&`` or the block's end; the cookie marker takes the name up to ``;``."""
    head, stop = (key, ";") if key == GAUSR_MARKER else (f"{key}=", "&")
    places = []
    for (rel, text), after in zip(blocks, (*blocks[1:], None)):
        if text == key and after is not None:
            pair = KeyValuePair(key, after[1], rel, after[0])
            places.append((pair, MatchMode.ADJACENT, f"{key} {after[1]}"))
        at = text.find(head)
        while at != -1:
            start = at + len(head)
            end = text.find(stop, start)
            value = text[start : None if end == -1 else end]
            pair = KeyValuePair(key, value, rel + at, rel + start)
            places.append((pair, MatchMode.INLINE, text))
            at = text.find(head, at + 1)
    if len(places) != 1:
        raise ValueError(f"{template_id}: key {key!r} sits in {len(places)} places, not one")
    return places[0]


def _template(template_id: str, blocks: _Blocks, claims: tuple[_Claim, ...]) -> ArtifactTemplate:
    """A template whose expected matches are read off its blocks: the
    anchor pair (the password's, else the username's) gives the mode and
    the context text, which for adjacent pairs joins both sides."""
    expected = []
    for confidence, app_id, *keys in claims:
        located = [None if k is None else _locate(template_id, blocks, k) for k in keys]
        user, pw = (loc and loc[0] for loc in located)
        _, mode, context = located[1] or located[0]
        if mode == MatchMode.ADJACENT:
            context = " ".join(loc[2] for loc in located if loc)
        match = SignatureMatch(_SIGNATURES[app_id], mode, user, pw, context)
        expected.append((confidence, match))
    return ArtifactTemplate(template_id, blocks, tuple(expected))


_TEMPLATES: dict[str, ArtifactTemplate] = {row[0]: _template(*row) for row in _TEMPLATE_TABLE}


def builtin_templates() -> list[ArtifactTemplate]:
    """All shipped artifact templates, one per application/browser case."""
    return list(_TEMPLATES.values())


def template_by_id(template_id: str) -> ArtifactTemplate:
    try:
        return _TEMPLATES[template_id]
    except KeyError:
        raise ValueError(f"unknown template_id {template_id!r}") from None


# --- plans ----------------------------------------------------------------


class PlannedImage(NamedTuple):
    label: str
    step_index: int
    step_description: str
    placements: tuple[tuple[str, int], ...]  # (template_id, absolute offset)


@checked
class FabricationPlan(NamedTuple):
    image_size: int
    seed: int
    images: tuple[PlannedImage, ...]
    printable_density: float = 0.3
    process_map: tuple[ProcessMapEntry, ...] | None = None
    session_meta: tuple[str, str] | None = None

    def _check(self) -> None:
        if self.image_size < 1:
            raise InvalidOptionError("image_size must be positive")
        if self.seed < 0:
            raise InvalidOptionError("seed must be non-negative")
        if not (0.0 <= self.printable_density < 1.0):
            raise InvalidOptionError("printable_density must be in [0, 1)")

    def validate(self) -> None:
        """Check the corpus stays inside its output directory and reads
        back as a manifest, every placement fits, and placements stay
        independent."""
        for img in self.images:
            label = img.label
            # The label names a file in the output directory.
            if label in ("", ".", "..") or label != Path(label).name or "\0" in label:
                raise ValueError(f"label {label!r} cannot name an image file")
            spans: list[tuple[int, int, str]] = []
            for template_id, offset in img.placements:
                t = template_by_id(template_id)
                if offset < 0 or offset + t.byte_length > self.image_size:
                    raise PlacementOutOfBoundsError(
                        f"{img.label}: {template_id} at {offset} exceeds "
                        f"image size {self.image_size}"
                    )
                spans.append((offset, offset + t.byte_length, template_id))
            spans.sort()
            for (s1, e1, id1), (s2, _e2, id2) in zip(spans, spans[1:]):
                if s2 < e1 + MIN_PLACEMENT_GAP:
                    raise OverlapError(
                        f"{img.label}: {id1} and {id2} collide (or sit too "
                        f"close to stay independent): gap {s2 - e1} < "
                        f"{MIN_PLACEMENT_GAP}"
                    )
        # The rows must keep the manifest's own rules too.
        rows = [ManifestEntry(i.label, i.step_index, i.step_description, Path(f"{i.label}.img"))
                for i in self.images]
        ImageManifest(tuple(rows), self.session_meta)


def save_plan(plan: FabricationPlan, path: str | Path) -> None:
    doc = {
        "image_size": plan.image_size,
        "seed": plan.seed,
        "printable_density": plan.printable_density,
        "session_meta": list(plan.session_meta) if plan.session_meta else None,
        "process_map": (
            [list(e) for e in plan.process_map]
            if plan.process_map is not None
            else None
        ),
        "images": [
            {
                "label": img.label,
                "step_index": img.step_index,
                "step_description": img.step_description,
                "placements": [[tid, off] for tid, off in img.placements],
            }
            for img in plan.images
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _json_int(value: object) -> int:
    """A JSON integer as ``save_plan`` writes one; ``int`` would also take
    a float, a bool or a string."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _json_number(value: object) -> float:
    """A JSON number; ``float`` would also take a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _json_str(value: object) -> str:
    """A JSON string; ``str`` would turn any value into one."""
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def load_plan(path: str | Path) -> FabricationPlan:
    """Read a plan saved by ``save_plan``.  A missing key or a wrongly
    shaped value, such as a number that is not a JSON integer or a label
    that is not a JSON string, raises ``ValueError`` naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        pmap = doc.get("process_map")
        session = doc.get("session_meta")
        if isinstance(session, list):
            session = tuple(session)
        return FabricationPlan(
            image_size=_json_int(doc["image_size"]),
            seed=_json_int(doc["seed"]),
            printable_density=_json_number(doc.get("printable_density", 0.3)),
            process_map=(
                tuple(
                    ProcessMapEntry(
                        _json_int(p), _json_str(n), *map(_json_int, (s, e, v))
                    )
                    for p, n, s, e, v in pmap
                )
                if pmap is not None
                else None
            ),
            session_meta=None if session is None else _check_session(session),
            images=tuple(
                PlannedImage(
                    label=_json_str(img["label"]),
                    step_index=_json_int(img["step_index"]),
                    step_description=_json_str(img.get("step_description", "")),
                    placements=tuple(
                        (_json_str(t), _json_int(o)) for t, o in img["placements"]
                    ),
                )
                for img in doc["images"]
            ),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: plan lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed plan: {exc}") from None


# --- filler ---------------------------------------------------------------


# Bytes filler never draws.  Every catalog keyword, URL and the marker
# holds one, and they take in the carver's anchors.  A constant, not the
# anchors themselves, so that a change of anchors leaves corpora as they are.
_EXCLUDED = b"aA."
_PRINTABLE = np.frombuffer(
    bytes(b for b in range(0x20, 0x7F) if b not in _EXCLUDED), dtype=np.uint8
)
_NON_PRINTABLE = np.frombuffer(
    bytes(b for b in range(256) if not 0x20 <= b <= 0x7E), dtype=np.uint8
)


def _filler_block(
    seed: int, image_index: int, block_index: int, size: int, density: float
) -> bytes:
    """One deterministic filler block: one uint16 draw per byte, mapped
    through a table whose first ``round(density * 65536)`` entries cycle
    through the printable bytes and the rest through the non-printable
    ones."""
    rng = np.random.default_rng([seed, image_index, block_index])
    n = round(density * 65536)
    table = np.concatenate(
        (np.resize(_PRINTABLE, n), np.resize(_NON_PRINTABLE, 65536 - n))
    )
    return table[rng.integers(0, 65536, size, dtype=np.uint16)].tobytes()


# --- fabrication ----------------------------------------------------------


class FabricationResult(NamedTuple):
    out_dir: Path
    manifest_path: Path
    image_paths: tuple[Path, ...]
    process_map_path: Path | None
    ground_truth_path: Path
    ground_truth: dict[str, tuple[CredentialFinding, ...]]


def _moved(m: SignatureMatch, by: int) -> SignatureMatch:
    def shift(p: KeyValuePair | None) -> KeyValuePair | None:
        return p and KeyValuePair(p.key, p.value, p.key_offset + by, p.value_offset + by)

    return m._replace(username=shift(m.username), password=shift(m.password))


def _ground_truth_findings(
    img: PlannedImage, pmap: ProcessMap | None
) -> tuple[CredentialFinding, ...]:
    """Each placement's expected matches, moved to the placement point and
    turned into findings the way the scan turns its own matches."""
    matches = [
        (confidence, _moved(m, offset))
        for template_id, offset in img.placements
        for confidence, m in template_by_id(template_id).expected
    ]
    return tuple(_findings(matches, builtin_catalog(), img.label, pmap))


def _write_image(
    path: Path, plan: FabricationPlan, img: PlannedImage, image_index: int
) -> None:
    """Stream one image to disk in fixed-size blocks: filler, with every
    template that overlaps the block copied over it."""
    rendered = [(off, template_by_id(tid).render()) for tid, off in img.placements]
    size, seed, density = plan.image_size, plan.seed, plan.printable_density
    with open(path, "wb") as fh:
        for bi, start in enumerate(range(0, size, BLOCK_SIZE)):
            length = min(BLOCK_SIZE, size - start)
            buf = bytearray(_filler_block(seed, image_index, bi, length, density))
            for off, data in rendered:
                lo = max(off, start)
                hi = min(off + len(data), start + length)
                if lo < hi:
                    buf[lo - start : hi - start] = data[lo - off : hi - off]
            fh.write(buf)


def fabricate(plan: FabricationPlan, out_dir: str | Path) -> FabricationResult:
    """Write the planned corpus: images, manifest, optional process map and
    the ground truth findings file."""
    plan.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pmap = ProcessMap(plan.process_map) if plan.process_map is not None else None

    entries: list[ManifestEntry] = []
    truth: dict[str, tuple[CredentialFinding, ...]] = {}
    for idx, img in enumerate(plan.images):
        path = out / f"{img.label}.img"
        _write_image(path, plan, img, idx)
        entries.append(
            ManifestEntry(img.label, img.step_index, img.step_description, path)
        )
        truth[img.label] = _ground_truth_findings(img, pmap)

    manifest_path = out / "manifest.tsv"
    write_manifest(entries, manifest_path, session_meta=plan.session_meta)

    map_path: Path | None = None
    if plan.process_map is not None:
        map_path = out / "process_map.tsv"
        write_process_map(plan.process_map, map_path)

    truth_path = out / "ground_truth.json"
    truth_doc = {
        "images": [
            {"label": label, "findings": [finding_to_doc(f) for f in findings]}
            for label, findings in truth.items()
        ]
    }
    truth_path.write_text(json.dumps(truth_doc, indent=2) + "\n", encoding="utf-8")

    return FabricationResult(
        out_dir=out,
        manifest_path=manifest_path,
        image_paths=tuple(e.path for e in entries),
        process_map_path=map_path,
        ground_truth_path=truth_path,
        ground_truth=truth,
    )


# --- the 13-image timeline preset ----------------------------------------

_STEP_DESCRIPTIONS = (
    "clean boot, no browser running",
    "browsers launched, no logins yet",
    "logged into firewall interface",
    "logged into all four applications",
    "applications in active use",
    "just before application logout",
    "after application logout",
    "after closing browser windows",
    "just before firewall logout",
    "after firewall logout",
    "idle after session end",
    "system idle, memory settling",
    "final snapshot before shutdown",
)

# Each placement of the preset: template id, offset at the 16 MiB reference
# size (inside the browser process ranges declared in the preset's process
# map, scaled linearly for other image sizes) and the 1-based numbers of the
# images that carry it.  Rows ascend by offset: Firefox's, then Chrome's.
_PRESET_PLACEMENTS: tuple[tuple[str, int, range], ...] = (
    ("sonicwall-inline", 0x180000, range(3, 10)),
    ("facebook-ff-inline", 0x200000, range(4, 10)),
    ("gmail-ff-cookie-inline", 0x280000, range(4, 10)),
    ("irctc-inline", 0x300000, range(4, 10)),
    ("sbi-ff-isolated", 0x380000, range(4, 10)),
    ("sonicwall-inline", 0x880000, range(3, 10)),
    ("facebook-gc-adjacent", 0x900000, range(4, 7)),
    ("gmail-gc-adjacent", 0x980000, range(4, 7)),
    ("irctc-inline", 0xA00000, range(4, 10)),
    ("sbi-gc-inline", 0xA80000, range(4, 8)),
)
_PRESET_BASE_SIZE = 16 << 20


def table1_preset(
    image_size: int = _PRESET_BASE_SIZE,
    seed: int = 2011,
    printable_density: float = 0.3,
) -> FabricationPlan:
    """The reference timeline: 13 images, both browsers, five
    applications appearing and decaying in the standard pattern."""
    if image_size < 1 << 20:
        raise InvalidOptionError("preset needs at least a 1 MiB image")
    scale = image_size / _PRESET_BASE_SIZE

    def sc(v: int) -> int:
        return int(v * scale)

    pmap = (
        ProcessMapEntry(0, "System", 0, sc(0x10000), 0x80000000),
        ProcessMapEntry(1004, "svchost.exe", sc(0xD00000), sc(0xE00000), 0x6B000000),
        ProcessMapEntry(1532, "firefox.exe", sc(0x100000), sc(0x600000), 0x00400000),
        ProcessMapEntry(2210, "chrome.exe", sc(0x800000), sc(0xD00000), 0x01000000),
    )
    images = tuple(
        PlannedImage(
            label=f"Img{n}",
            step_index=2 * n,
            step_description=_STEP_DESCRIPTIONS[n - 1],
            placements=tuple(
                (tid, sc(offset)) for tid, offset, rows in _PRESET_PLACEMENTS if n in rows
            ),
        )
        for n in range(1, 14)
    )
    return FabricationPlan(
        image_size=image_size,
        seed=seed,
        images=images,
        printable_density=printable_density,
        process_map=pmap,
    )
