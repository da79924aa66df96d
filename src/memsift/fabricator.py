"""Synthetic memory image generation with known planted credentials.

Real acquisition timelines are hard to come by, so this module builds them:
seeded pseudo-random filler with a chosen printable density, overlaid with
artifact templates copied from real login-page residue (request bodies,
Set-Cookie lines, adjacent key/value string pairs).  Every byte is a
deterministic function of (plan, seed), and each fabrication emits the
ground truth findings a correct scanner must report, which makes whole
corpora usable as end-to-end oracles.

Filler is rejection-sampled so that no catalog keyword, context URL or
cookie marker ever appears in it by chance, in either ASCII or UTF-16LE
reading, including across block seams and against the NUL guards at
template edges.  Placements must keep a clear gap between each other so
their context windows cannot interact; ground truth is then simply the
union of per-template expectations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ManifestEntry, write_manifest
from .decoding import classify_value
from .errors import OverlapError, PlacementOutOfBoundsError
from .procmap import ProcessMap, ProcessMapEntry, write_process_map
from .report import finding_to_doc
from .scanner import _SNIPPET_LIMIT, HIGH, LOW, CredentialFinding
from .signatures import GAUSR_MARKER, MatchMode, builtin_catalog

BLOCK_SIZE = 4 << 20
# Separation placements must keep so context windows never overlap.
MIN_PLACEMENT_GAP = 2048
_SEAM = 64
_MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class ExpectedFinding:
    """What one template placement must produce, offsets relative to the
    placement point."""

    app_id: str
    username: str | None
    password_raw: str | None
    match_mode: str
    rel_offset: int
    confidence: str
    context_snippet: str
    rel_username_offset: int | None = None
    rel_password_offset: int | None = None


@dataclass(frozen=True)
class ArtifactTemplate:
    """A block of login-page residue, rendered as NUL-separated text runs.

    Relative offsets start at 1 so the rendered bytes begin and end with a
    NUL guard; without the guards a template could fuse with neighbouring
    filler into one longer carved string.
    """

    template_id: str
    app_id: str
    layout: str  # "inline" | "adjacent" | "cookie"
    text_blocks: tuple[tuple[int, str], ...]
    planted_username: str | None
    planted_password_raw: str | None
    expected: tuple[ExpectedFinding, ...]

    def __post_init__(self) -> None:
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


# --- template texts, from publicly documented login artifacts ------------

_SONICWALL_BODY = (
    "param1=&param2=93BF844DF6D46F0F1453F46441968A46&sessId=523518834"
    "&id=a4&select=English&uName=306110003&pass=Nitt500&digest="
)

_FACEBOOK_FF_BODY = (
    "lsd=AVp_kX2x&email=ipsita.chinky@gmail.com&pass=who678%2C%3B"
    "&default_persistent=0&timezone=-330&lgnrnd=031754_EPdU"
    "&lgnjs=1314120894&locale=en_US"
)

_GMAIL_COOKIE_LINE = (
    "Set-Cookie: GAUSR=mail:ipsita.chinky@gmail.com; Path=/accounts;secure"
)

_GMAIL_LOCATION_LINE = (
    "Location: https://accounts.google.co.in/accounts/SetSID?"
    "ssdc=1&sidt=AlWU2cs%2F1jKI0%2BfeR3yEy22NCywE05YSVI"
    "&Passwd=abc*%21123&rmShown=1&signIn=Sign+in&asts="
)

_IRCTC_REQUEST_LINE = (
    "-bin/bv60.dll/irctc/booking/planner.do?screen=fromlogin"
    "&BV_SessionID=@@@1511077481.1340172850@@@"
    "&BV_EngineID=ccdldfhdehfgdlcefecehidfgmdfff.0 HTTP/1.1"
)

_IRCTC_UA_LINE = (
    "User-Agent: Mozilla/5.0 (Windows NT 5.1) AppleWebKit/536.5 "
    "(KHTML, like Gecko) Chrome/19.0.1084.56 Safari/536.5"
)

_IRCTC_COOKIE_LINE = (
    "Cookie: __utma=168397561.1282852060.1340176438.1340176438.1340176438.1;"
    " __utmb=168397561.1.10.1340176438; __utmc=168397561;"
    " __utmz=168397561.1340176438.1.1.utmcsr=(direct)|utmccn=(direct)|utmcmd=(none)"
)

_IRCTC_BODY = "n=home&userName=ipsita689&password=durga21&button=Login"

_SBI_BODY = "userName=ipsitasbi&password=37f08c5d00de89cb3c26e50200ee7242&subBtnName=Login"

_SBI_FF_STRING = "userName=ipsitasbi"


def _inline_expected(
    app_id: str,
    body: str,
    body_rel: int,
    user_key: str | None,
    pw_key: str | None,
    confidence: str,
) -> ExpectedFinding:
    """Derive the finding an inline form body produces, by locating the
    keys inside the body text the same way the parser will."""
    username = password = None
    rel_uoff = rel_poff = None
    anchor = None
    if pw_key is not None:
        at = body.index(f"{pw_key}=")
        end = body.find("&", at)
        password = body[at + len(pw_key) + 1 : end if end != -1 else len(body)]
        rel_poff = body_rel + at + len(pw_key) + 1
        anchor = body_rel + at
    if user_key is not None:
        at = body.index(f"{user_key}=")
        end = body.find("&", at)
        username = body[at + len(user_key) + 1 : end if end != -1 else len(body)]
        rel_uoff = body_rel + at + len(user_key) + 1
        if anchor is None:
            anchor = body_rel + at
    assert anchor is not None
    return ExpectedFinding(
        app_id=app_id,
        username=username,
        password_raw=password,
        match_mode=MatchMode.INLINE,
        rel_offset=anchor,
        confidence=confidence,
        context_snippet=body[:_SNIPPET_LIMIT],
        rel_username_offset=rel_uoff,
        rel_password_offset=rel_poff,
    )


def _sonicwall_template() -> ArtifactTemplate:
    blocks = (
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
        (527, _SONICWALL_BODY),
        (4106, "t#hP"),
    )
    return ArtifactTemplate(
        template_id="sonicwall-inline",
        app_id="sonicwall",
        layout="inline",
        text_blocks=blocks,
        planted_username="306110003",
        planted_password_raw="Nitt500",
        expected=(
            _inline_expected("sonicwall", _SONICWALL_BODY, 527, "uName", "pass", HIGH),
        ),
    )


def _facebook_ff_template() -> ArtifactTemplate:
    blocks = (
        (1, "https://www.facebook.com/login.php"),
        (48, "Content-Type: application/x-www-form-urlencoded"),
        (100, _FACEBOOK_FF_BODY),
        (300, "POST /login.php HTTP/1.1"),
    )
    return ArtifactTemplate(
        template_id="facebook-ff-inline",
        app_id="facebook",
        layout="inline",
        text_blocks=blocks,
        planted_username="ipsita.chinky@gmail.com",
        planted_password_raw="who678%2C%3B",
        expected=(
            _inline_expected("facebook", _FACEBOOK_FF_BODY, 100, "email", "pass", HIGH),
        ),
    )


def _facebook_gc_template() -> ArtifactTemplate:
    blocks = (
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
    )
    return ArtifactTemplate(
        template_id="facebook-gc-adjacent",
        app_id="facebook",
        layout="adjacent",
        text_blocks=blocks,
        planted_username="ipsita.chinky@gmail.com",
        planted_password_raw="berham!19",
        expected=(
            ExpectedFinding(
                app_id="facebook",
                username="ipsita.chinky@gmail.com",
                password_raw="berham!19",
                match_mode=MatchMode.ADJACENT,
                rel_offset=549,
                confidence=HIGH,
                context_snippet="email ipsita.chinky@gmail.com pass berham!19",
                rel_username_offset=497,
                rel_password_offset=561,
            ),
        ),
    )


def _gmail_ff_template() -> ArtifactTemplate:
    blocks = (
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
        (725, _GMAIL_COOKIE_LINE),
        (795, _GMAIL_LOCATION_LINE),
        (8661, " `BI"),
        (8741, " `BI"),
        (9062, "fff"),
    )
    marker_rel = 725 + _GMAIL_COOKIE_LINE.index(GAUSR_MARKER)
    anchor_rel = 795 + _GMAIL_LOCATION_LINE.index("Passwd=")
    return ArtifactTemplate(
        template_id="gmail-ff-cookie-inline",
        app_id="gmail-ff",
        layout="cookie",
        text_blocks=blocks,
        planted_username="ipsita.chinky@gmail.com",
        planted_password_raw="abc*%21123",
        expected=(
            ExpectedFinding(
                app_id="gmail-ff",
                username="ipsita.chinky@gmail.com",
                password_raw="abc*%21123",
                match_mode=MatchMode.INLINE,
                rel_offset=anchor_rel,
                confidence=HIGH,
                context_snippet=_GMAIL_LOCATION_LINE[:_SNIPPET_LIMIT],
                rel_username_offset=marker_rel + len(GAUSR_MARKER),
                rel_password_offset=anchor_rel + len("Passwd="),
            ),
        ),
    )


def _gmail_gc_template() -> ArtifactTemplate:
    blocks = (
        (1, "https://accounts.google.com/ServiceLoginAuth"),
        (64, "continue=https://mail.google.com/mail/"),
        (120, "Email"),
        (136, "ipsita.chinky@gmail.com"),
        (176, "Passwd"),
        (192, "awesome^&28"),
        (240, "PersistentCookie"),
    )
    return ArtifactTemplate(
        template_id="gmail-gc-adjacent",
        app_id="gmail-gc",
        layout="adjacent",
        text_blocks=blocks,
        planted_username="ipsita.chinky@gmail.com",
        planted_password_raw="awesome^&28",
        expected=(
            ExpectedFinding(
                app_id="gmail-gc",
                username="ipsita.chinky@gmail.com",
                password_raw="awesome^&28",
                match_mode=MatchMode.ADJACENT,
                rel_offset=176,
                confidence=HIGH,
                context_snippet="Email ipsita.chinky@gmail.com Passwd awesome^&28",
                rel_username_offset=136,
                rel_password_offset=192,
            ),
        ),
    )


def _irctc_template() -> ArtifactTemplate:
    blocks = (
        (1, "8MD"),
        (208, _IRCTC_REQUEST_LINE),
        (363, "Host: www.irctc.co.in"),
        (386, "Connection: keep-alive"),
        (410, "Cache-Control: max-age=0"),
        (436, _IRCTC_UA_LINE),
        (549, "Accept: text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"),
        (622, "Referer: https://www.irctc.co.in/"),
        (657, "Accept-Encoding: gzip,deflate,sdch"),
        (693, "Accept-Language: en-US,en;q=0.8"),
        (726, "Accept-Charset: ISO-8859-1,utf-8;q=0.7,*;q=0.3"),
        (774, _IRCTC_COOKIE_LINE),
        (980, _IRCTC_BODY),
        (1233, "t&SV"),
    )
    return ArtifactTemplate(
        template_id="irctc-inline",
        app_id="irctc",
        layout="inline",
        text_blocks=blocks,
        planted_username="ipsita689",
        planted_password_raw="durga21",
        expected=(
            _inline_expected("irctc", _IRCTC_BODY, 980, "userName", "password", HIGH),
        ),
    )


def _sbi_gc_template() -> ArtifactTemplate:
    blocks = (
        (1, "https://www.onlinesbi.com/retail/login.htm"),
        (60, "Referer: https://www.onlinesbi.com/"),
        (110, _SBI_BODY),
        (220, "State Bank of India"),
    )
    return ArtifactTemplate(
        template_id="sbi-gc-inline",
        app_id="sbi",
        layout="inline",
        text_blocks=blocks,
        planted_username="ipsitasbi",
        planted_password_raw="37f08c5d00de89cb3c26e50200ee7242",
        expected=(
            _inline_expected("sbi", _SBI_BODY, 110, "userName", "password", HIGH),
        ),
    )


def _sbi_ff_template() -> ArtifactTemplate:
    # The banking session under Firefox leaves only a bare username form
    # fragment with nothing around it.  The keyword is shared between two
    # applications and no URL is nearby to split the tie, so a correct
    # scan reports the username under both, LOW, with no password.
    blocks = ((1, _SBI_FF_STRING),)
    user = _SBI_FF_STRING.split("=", 1)[1]
    rel_uoff = 1 + _SBI_FF_STRING.index("=") + 1
    common = dict(
        username=user,
        password_raw=None,
        match_mode=MatchMode.INLINE,
        rel_offset=1,
        confidence=LOW,
        context_snippet=_SBI_FF_STRING,
        rel_username_offset=rel_uoff,
        rel_password_offset=None,
    )
    return ArtifactTemplate(
        template_id="sbi-ff-isolated",
        app_id="sbi",
        layout="inline",
        text_blocks=blocks,
        planted_username=user,
        planted_password_raw=None,
        expected=(
            ExpectedFinding(app_id="irctc", **common),
            ExpectedFinding(app_id="sbi", **common),
        ),
    )


def builtin_templates() -> list[ArtifactTemplate]:
    """All shipped artifact templates, one per application/browser case."""
    return [
        _sonicwall_template(),
        _facebook_ff_template(),
        _facebook_gc_template(),
        _gmail_ff_template(),
        _gmail_gc_template(),
        _irctc_template(),
        _sbi_gc_template(),
        _sbi_ff_template(),
    ]


_TEMPLATES: dict[str, ArtifactTemplate] = {
    t.template_id: t for t in builtin_templates()
}


def template_by_id(template_id: str) -> ArtifactTemplate:
    try:
        return _TEMPLATES[template_id]
    except KeyError:
        raise ValueError(f"unknown template_id {template_id!r}") from None


# --- plans ----------------------------------------------------------------


@dataclass(frozen=True)
class PlannedImage:
    label: str
    step_index: int
    step_description: str
    placements: tuple[tuple[str, int], ...]  # (template_id, absolute offset)


@dataclass(frozen=True)
class FabricationPlan:
    image_size: int
    seed: int
    images: tuple[PlannedImage, ...]
    printable_density: float = 0.3
    process_map: tuple[ProcessMapEntry, ...] | None = None
    session_meta: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.image_size < 1:
            raise ValueError("image_size must be positive")
        if not (0.0 <= self.printable_density < 1.0):
            raise ValueError("printable_density must be in [0, 1)")

    def validate(self) -> None:
        """Check every placement fits and placements stay independent."""
        for img in self.images:
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


def save_plan(plan: FabricationPlan, path: str | Path) -> None:
    doc = {
        "image_size": plan.image_size,
        "seed": plan.seed,
        "printable_density": plan.printable_density,
        "session_meta": list(plan.session_meta) if plan.session_meta else None,
        "process_map": (
            [
                [e.pid, e.name, e.phys_start, e.phys_end, e.virt_base]
                for e in plan.process_map
            ]
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


def load_plan(path: str | Path) -> FabricationPlan:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    pmap = doc.get("process_map")
    session = doc.get("session_meta")
    return FabricationPlan(
        image_size=int(doc["image_size"]),
        seed=int(doc["seed"]),
        printable_density=float(doc.get("printable_density", 0.3)),
        process_map=(
            tuple(
                ProcessMapEntry(int(p), str(n), int(s), int(e), int(v))
                for p, n, s, e, v in pmap
            )
            if pmap is not None
            else None
        ),
        session_meta=tuple(session) if session else None,
        images=tuple(
            PlannedImage(
                label=str(img["label"]),
                step_index=int(img["step_index"]),
                step_description=str(img.get("step_description", "")),
                placements=tuple((str(t), int(o)) for t, o in img["placements"]),
            )
            for img in doc["images"]
        ),
    )


# --- filler ---------------------------------------------------------------


def _forbidden_tokens() -> tuple[bytes, ...]:
    texts: set[str] = {GAUSR_MARKER}
    for sig in builtin_catalog():
        texts.update(sig.username_keys)
        texts.update(sig.password_keys)
        texts.update(sig.context_urls)
    out: list[bytes] = []
    for t in sorted(texts):
        out.append(t.encode("ascii"))
        out.append(t.encode("utf-16-le"))
    return tuple(out)


_FORBIDDEN = _forbidden_tokens()


def _has_token(data: bytes) -> bool:
    return any(tok in data for tok in _FORBIDDEN)


def _filler_block(
    seed: int, image_index: int, block_key: int, size: int, density: float
) -> bytes:
    """One deterministic filler block.  Printable bytes land with the given
    density; the rest come from the non-printable byte values."""
    rng = np.random.default_rng([seed, image_index, block_key])
    mask = rng.random(size) < density
    printable = rng.integers(0x20, 0x7F, size, dtype=np.uint8)
    other = rng.integers(0, 0xA1, size, dtype=np.uint8)
    other = np.where(other < 0x20, other, other + 0x5F).astype(np.uint8)
    return np.where(mask, printable, other).tobytes()


# --- fabrication ----------------------------------------------------------


@dataclass(frozen=True)
class FabricationResult:
    out_dir: Path
    manifest_path: Path
    image_paths: tuple[Path, ...]
    process_map_path: Path | None
    ground_truth_path: Path
    ground_truth: dict[str, tuple[CredentialFinding, ...]]


def _ground_truth_findings(
    img: PlannedImage, pmap: ProcessMap | None
) -> tuple[CredentialFinding, ...]:
    catalog = builtin_catalog()
    order = {sig.app_id: i for i, sig in enumerate(catalog)}
    by_app = {sig.app_id: sig for sig in catalog}
    rows: list[tuple[int, int, CredentialFinding]] = []
    for template_id, offset in img.placements:
        t = template_by_id(template_id)
        for exp in t.expected:
            encrypted = False
            decoded = None
            if exp.password_raw is not None:
                dv = classify_value(
                    exp.password_raw,
                    by_app[exp.app_id].value_encoding,
                    plus_as_space=(exp.match_mode == MatchMode.INLINE),
                )
                encrypted = dv.encrypted
                decoded = None if encrypted else dv.decoded
            anchor = offset + exp.rel_offset
            finding = CredentialFinding(
                app_id=exp.app_id,
                image_label=img.label,
                username=exp.username,
                password_raw=exp.password_raw,
                password_decoded=decoded,
                encrypted=encrypted,
                match_mode=exp.match_mode,
                offset=anchor,
                confidence=exp.confidence,
                context_snippet=exp.context_snippet,
                attributions=tuple(pmap.lookup(anchor)) if pmap is not None else (),
                username_offset=(
                    offset + exp.rel_username_offset
                    if exp.rel_username_offset is not None
                    else None
                ),
                password_offset=(
                    offset + exp.rel_password_offset
                    if exp.rel_password_offset is not None
                    else None
                ),
            )
            rows.append((anchor, order[exp.app_id], finding))
    rows.sort(key=lambda r: (r[0], r[1]))
    return tuple(f for _a, _o, f in rows)


def _write_image(
    path: Path, plan: FabricationPlan, img: PlannedImage, image_index: int
) -> None:
    """Stream one image to disk in fixed-size blocks.

    Token freedom is checked on a masked view of each block: planted
    template ranges are blanked to NULs so only filler bytes (plus the NUL
    guards they sit against) are inspected.  The previous block's masked
    tail is prepended so no token can hide across a seam, and a NUL is
    appended so none can be completed by whatever follows.  A block that
    fails is regenerated from a shifted substream; everything stays a pure
    function of the plan.
    """
    rendered = [
        (off, template_by_id(tid).render())
        for tid, off in sorted(img.placements, key=lambda p: p[1])
    ]
    size = plan.image_size
    with open(path, "wb") as fh:
        prev_tail = b""
        n_blocks = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for bi in range(n_blocks):
            start = bi * BLOCK_SIZE
            length = min(BLOCK_SIZE, size - start)
            for attempt in range(_MAX_ATTEMPTS):
                block = _filler_block(
                    plan.seed,
                    image_index,
                    bi + (attempt << 32),
                    length,
                    plan.printable_density,
                )
                buf = bytearray(block)
                masked = bytearray(block)
                for off, data in rendered:
                    lo = max(off, start)
                    hi = min(off + len(data), start + length)
                    if lo < hi:
                        buf[lo - start : hi - start] = data[lo - off : hi - off]
                        masked[lo - start : hi - start] = bytes(hi - lo)
                if not _has_token(prev_tail + bytes(masked) + b"\x00"):
                    break
            else:
                raise RuntimeError(
                    f"could not generate token-free filler after {_MAX_ATTEMPTS} attempts"
                )
            fh.write(buf)
            prev_tail = bytes(masked[-_SEAM:])


def fabricate(plan: FabricationPlan, out_dir: str | Path) -> FabricationResult:
    """Write the planned corpus: images, manifest, optional process map and
    the ground truth findings file."""
    plan.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pmap = ProcessMap(plan.process_map) if plan.process_map is not None else None

    image_paths: list[Path] = []
    entries: list[ManifestEntry] = []
    truth: dict[str, tuple[CredentialFinding, ...]] = {}
    for idx, img in enumerate(plan.images):
        path = out / f"{img.label}.img"
        _write_image(path, plan, img, idx)
        image_paths.append(path)
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
        image_paths=tuple(image_paths),
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

# Which 1-based image numbers carry each template, per browser.
_PRESET_PRESENCE: dict[str, tuple[range | tuple, range | tuple]] = {
    "sonicwall-inline": (range(3, 10), range(3, 10)),
    "facebook-ff-inline": (range(4, 10), ()),
    "facebook-gc-adjacent": ((), range(4, 7)),
    "gmail-ff-cookie-inline": (range(4, 10), ()),
    "gmail-gc-adjacent": ((), range(4, 7)),
    "irctc-inline": (range(4, 10), range(4, 10)),
    "sbi-gc-inline": ((), range(4, 8)),
    "sbi-ff-isolated": (range(4, 10), ()),
}

# Placement slots at the 16 MiB reference size, inside the browser process
# ranges declared in the preset's process map; scaled linearly for other
# image sizes.
_FIREFOX_SLOTS = {
    "sonicwall-inline": 0x180000,
    "facebook-ff-inline": 0x200000,
    "gmail-ff-cookie-inline": 0x280000,
    "irctc-inline": 0x300000,
    "sbi-ff-isolated": 0x380000,
}
_CHROME_SLOTS = {
    "sonicwall-inline": 0x880000,
    "facebook-gc-adjacent": 0x900000,
    "gmail-gc-adjacent": 0x980000,
    "irctc-inline": 0xA00000,
    "sbi-gc-inline": 0xA80000,
}
_PRESET_BASE_SIZE = 16 << 20


def table1_preset(
    image_size: int = _PRESET_BASE_SIZE,
    seed: int = 2011,
    printable_density: float = 0.3,
) -> FabricationPlan:
    """The reference timeline: 13 images, both browsers, five
    applications appearing and decaying in the standard pattern."""
    if image_size < 1 << 20:
        raise ValueError("preset needs at least a 1 MiB image")
    scale = image_size / _PRESET_BASE_SIZE

    def sc(v: int) -> int:
        return int(v * scale)

    pmap = (
        ProcessMapEntry(0, "System", 0, sc(0x10000), 0x80000000),
        ProcessMapEntry(1004, "svchost.exe", sc(0xD00000), sc(0xE00000), 0x6B000000),
        ProcessMapEntry(1532, "firefox.exe", sc(0x100000), sc(0x600000), 0x00400000),
        ProcessMapEntry(2210, "chrome.exe", sc(0x800000), sc(0xD00000), 0x01000000),
    )
    images = []
    for n in range(1, 14):
        placements: list[tuple[str, int]] = []
        for tid, (ff_rows, gc_rows) in _PRESET_PRESENCE.items():
            if n in ff_rows:
                placements.append((tid, sc(_FIREFOX_SLOTS[tid])))
            if n in gc_rows:
                placements.append((tid, sc(_CHROME_SLOTS[tid])))
        placements.sort(key=lambda p: p[1])
        images.append(
            PlannedImage(
                label=f"Img{n}",
                step_index=2 * n,
                step_description=_STEP_DESCRIPTIONS[n - 1],
                placements=tuple(placements),
            )
        )
    return FabricationPlan(
        image_size=image_size,
        seed=seed,
        images=tuple(images),
        printable_density=printable_density,
        process_map=pmap,
    )
