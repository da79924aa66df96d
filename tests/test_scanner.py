"""Credential scanning over raw buffers, dedup, confidence, matrix."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsift import (
    HIGH,
    LOW,
    Attribution,
    CredentialFinding,
    Encoding,
    ExtractedString,
    MatchMode,
    MemoryImage,
    ProcessMap,
    ProcessMapEntry,
    ScanOptions,
    assign_confidence,
    browser_tag,
    build_presence_matrix,
    builtin_catalog,
    carve_strings,
    scan_image,
)
from memsift import scanner
from memsift.errors import InvalidOptionError, UnknownLabelError
from oracles import match_region_linear, regions_linear


def _sig(app):
    return next(s for s in builtin_catalog() if s.app_id == app)


def _s(offset, text, encoding=Encoding.ASCII):
    unit = 2 if encoding is Encoding.UTF16LE else 1
    return ExtractedString(offset, text, encoding, unit * len(text))


def _image(*planted, size=16384, fill=b"\x00"):
    """A quiet buffer with (offset, bytes) runs laid in."""
    buf = bytearray(fill * size)
    for offset, data in planted:
        if isinstance(data, str):
            data = data.encode("ascii")
        buf[offset : offset + len(data)] = data
    return MemoryImage.from_bytes(bytes(buf), label="t")


def scan(*planted, size=16384, pmap=None, options=None):
    return scan_image(_image(*planted, size=size), process_map=pmap, options=options)


class TestAssignConfidence:
    def test_context_url_raises_confidence(self):
        ctx = [_s(100, "Referer: https://www.irctc.co.in/")]
        assert assign_confidence(200, ctx, _sig("irctc")) == HIGH

    def test_no_context_is_low(self):
        assert assign_confidence(200, [], _sig("irctc")) == LOW
        wrong = [_s(100, "https://www.onlinesbi.com/")]
        assert assign_confidence(200, wrong, _sig("irctc")) == LOW

    def test_window_boundary_inclusive(self):
        url = "irctc.co.in"
        w = 1024
        at_edge = [_s(200 + w, url)]
        assert assign_confidence(200, at_edge, _sig("irctc"), window=w) == HIGH
        past_edge = [_s(200 + w + 1, url)]
        assert assign_confidence(200, past_edge, _sig("irctc"), window=w) == LOW
        before = [_s(200 - w, url)]
        assert assign_confidence(200, before, _sig("irctc"), window=w) == HIGH

    @settings(max_examples=60)
    @given(
        st.integers(0, 5000), st.integers(0, 5000),
        st.integers(0, 2000), st.integers(0, 2000),
    )
    def test_monotonic_in_window(self, anchor, ctx_off, w1, w2):
        lo, hi = sorted((w1, w2))
        ctx = [_s(ctx_off, "irctc.co.in")]
        narrow = assign_confidence(anchor, ctx, _sig("irctc"), window=lo)
        wide = assign_confidence(anchor, ctx, _sig("irctc"), window=hi)
        if narrow == HIGH:
            assert wide == HIGH


class TestScanInline:
    BODY = "n=home&userName=ipsita689&password=durga21&button=Login"

    def test_with_context_url(self):
        findings = scan((600, "Host: www.irctc.co.in"), (700, self.BODY))
        assert len(findings) == 1
        f = findings[0]
        assert f.app_id == "irctc"
        assert (f.username, f.password_decoded) == ("ipsita689", "durga21")
        assert f.confidence == HIGH
        assert f.match_mode == MatchMode.INLINE
        assert f.offset == 700 + self.BODY.index("password")
        assert f.password_offset == 700 + self.BODY.index("durga21")

    def test_without_context_url_stays_ambiguous(self):
        # userName/password serve two catalog entries; with no URL nearby
        # the body is claimed by both, LOW
        findings = scan((700, self.BODY))
        assert [(f.app_id, f.confidence) for f in findings] == [
            ("irctc", LOW), ("sbi", LOW),
        ]
        assert all(f.password_raw == "durga21" for f in findings)

    def test_context_outside_window_is_low(self):
        anchor = 8000 + self.BODY.index("password")
        far = anchor - 1024 - len("irctc.co.in") - 10
        findings = scan((far, "irctc.co.in"), (8000, self.BODY))
        assert all(f.confidence == LOW for f in findings)
        assert "irctc" in {f.app_id for f in findings}

    def test_percent_decoding_applied(self):
        body = "lsd=AV&email=a@b.c&pass=who678%2C%3B&lgnjs=1"
        findings = scan((300, "https://www.facebook.com/login.php"), (400, body))
        assert len(findings) == 1
        f = findings[0]
        assert f.password_raw == "who678%2C%3B"
        assert f.password_decoded == "who678,;"
        assert not f.encrypted

    def test_opaque_value_flagged_not_decoded(self):
        body = "userName=ipsitasbi&password=37f08c5d00de89cb3c26e50200ee7242&x=1"
        findings = scan((300, "https://www.onlinesbi.com/"), (400, body))
        sbi = [f for f in findings if f.app_id == "sbi"]
        assert len(sbi) == 1
        assert sbi[0].encrypted
        assert sbi[0].password_decoded is None
        assert sbi[0].password_raw == "37f08c5d00de89cb3c26e50200ee7242"

    def test_utf16_form_body(self):
        wide = self.BODY.encode("utf-16-le")
        url = "irctc.co.in".encode("utf-16-le")
        findings = scan((600, url), (700, wide))
        assert len(findings) == 1
        f = findings[0]
        assert f.username == "ipsita689"
        assert f.confidence == HIGH
        assert f.offset == 700 + 2 * self.BODY.index("password")
        assert f.password_offset == 700 + 2 * self.BODY.index("durga21")

    def test_empty_image_has_no_findings(self):
        assert scan() == []

    def test_scan_is_chunk_size_independent(self):
        planted = [(100, "irctc.co.in"), (5000, self.BODY)]
        base = scan(*planted)
        for cs in (4096, 1 << 16, 1 << 20):
            opts = ScanOptions(chunk_size=cs)
            assert scan(*planted, options=opts) == base


class TestScanAdjacent:
    STRINGS = (
        (437, "https://www.facebook.com/login.php"),
        (481, "email"),
        (497, "ipsita.chinky@gmail.com"),
        (549, "pass"),
        (561, "berham!19"),
    )

    def test_key_value_strings_combine(self):
        findings = scan(*self.STRINGS)
        assert len(findings) == 1
        f = findings[0]
        assert f.app_id == "facebook"
        assert f.match_mode == MatchMode.ADJACENT
        assert (f.username, f.password_decoded) == ("ipsita.chinky@gmail.com", "berham!19")
        assert f.confidence == HIGH
        assert f.offset == 549
        assert f.context_snippet == "email ipsita.chinky@gmail.com pass berham!19"

    def test_adjacent_values_not_percent_decoded(self):
        # adjacent-mode storage is verbatim; '+' must survive
        findings = scan(
            (100, "accounts.google.com"),
            (140, "Email"), (150, "a@b.c"),
            (180, "Passwd"), (190, "Sign+in%21"),
        )
        gc = [f for f in findings if f.app_id == "gmail-gc"]
        assert len(gc) == 1
        assert gc[0].password_decoded == "Sign in!" or gc[0].password_raw == "Sign+in%21"


class TestCookieUsername:
    COOKIE = "Set-Cookie: GAUSR=mail:ipsita.chinky@gmail.com; Path=/accounts;secure"
    LOCATION = "Location: https://accounts.google.co.in/SetSID?sidt=AlWU&Passwd=abc*%21123&rmShown=1"

    def test_cookie_supplies_username(self):
        findings = scan((700, self.COOKIE), (800, self.LOCATION))
        ff = [f for f in findings if f.app_id == "gmail-ff"]
        assert len(ff) == 1
        f = ff[0]
        assert f.username == "ipsita.chinky@gmail.com"
        assert f.password_decoded == "abc*!123"
        assert f.confidence == HIGH
        assert f.username_offset == 700 + self.COOKIE.index("ipsita")

    def test_unclaimed_cookie_becomes_username_only_finding(self):
        findings = scan((700, self.COOKIE))
        ff = [f for f in findings if f.app_id == "gmail-ff"]
        assert len(ff) == 1
        assert ff[0].username == "ipsita.chinky@gmail.com"
        assert ff[0].password_raw is None
        # "Path=/accounts" is not the context URL
        assert ff[0].confidence == LOW

    def test_cookie_outside_window_not_claimed(self):
        findings = scan((700, self.COOKIE), (4000, self.LOCATION))
        with_pw = [f for f in findings if f.app_id == "gmail-ff" and f.password_raw]
        assert len(with_pw) == 1
        assert with_pw[0].username is None


class TestArbitration:
    def test_shared_pass_key_resolves_to_one_finding(self):
        # sonicwall and facebook both key on `pass`; the full sonicwall
        # body with its context URL must yield exactly one finding
        body = (
            "param1=&sessId=5&uName=306110003&pass=Nitt500&digest="
        )
        findings = scan((300, "http://192.168.20.1/userLogin.html"), (400, body))
        assert len(findings) == 1
        assert findings[0].app_id == "sonicwall"
        assert findings[0].username == "306110003"

    def test_shared_passwd_key_gmail_variants(self):
        findings = scan(
            (700, TestCookieUsername.COOKIE),
            (800, TestCookieUsername.LOCATION),
        )
        passworded = [f for f in findings if f.password_raw]
        assert [f.app_id for f in passworded] == ["gmail-ff"]

    def test_isolated_username_reported_under_both_apps(self):
        findings = scan((900, "userName=ipsitasbi"))
        assert [(f.app_id, f.username, f.password_raw, f.confidence) for f in findings] == [
            ("irctc", "ipsitasbi", None, LOW),
            ("sbi", "ipsitasbi", None, LOW),
        ]

    def test_nearby_url_breaks_the_tie(self):
        findings = scan(
            (800, "https://www.onlinesbi.com/"),
            (900, "userName=ipsitasbi"),
        )
        assert [(f.app_id, f.confidence) for f in findings] == [("sbi", HIGH)]

    def test_full_match_beats_username_only(self):
        body = "userName=ipsita689&password=durga21"
        findings = scan((600, "irctc.co.in"), (700, body))
        assert len(findings) == 1
        assert findings[0].app_id == "irctc"


class TestAttributions:
    PMAP = ProcessMap((
        ProcessMapEntry(1532, "firefox.exe", 0x0000, 0x2000, 0x00400000),
        ProcessMapEntry(2210, "chrome.exe", 0x2000, 0x4000, 0x01000000),
    ))

    def test_finding_carries_owner(self):
        body = "userName=ipsita689&password=durga21"
        findings = scan((0xF00, "irctc.co.in"), (0x1000, body), pmap=self.PMAP)
        assert len(findings) == 1
        a = findings[0].attributions
        assert len(a) == 1
        assert a[0].process_name == "firefox.exe"
        anchor = 0x1000 + body.index("password")
        assert a[0].virtual_address == 0x00400000 + anchor

    def test_unmapped_offset_scans_clean(self):
        body = "userName=ipsita689&password=durga21"
        findings = scan(
            (0x4F00, "irctc.co.in"), (0x5000, body), size=0x8000, pmap=self.PMAP
        )
        assert findings[0].attributions == ()


class TestScanOptions:
    @pytest.mark.parametrize("bad", [
        dict(window=-1), dict(delta=-1), dict(min_len=0), dict(chunk_size=0),
        dict(min_len=8, cap=7),
    ])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidOptionError):
            ScanOptions(**bad)

    def test_boundary_values_accepted(self):
        ScanOptions(window=0, delta=0, min_len=1, cap=1, chunk_size=1)


class TestFindingInvariants:
    def _kw(self, **over):
        base = dict(
            app_id="irctc", image_label="t", username="u",
            password_raw="p", password_decoded="p", encrypted=False,
            match_mode=MatchMode.INLINE, offset=0, confidence=LOW,
            context_snippet="", attributions=(), username_offset=None,
            password_offset=None,
        )
        base.update(over)
        return base

    def test_requires_some_credential(self):
        with pytest.raises(ValueError):
            CredentialFinding(**self._kw(username=None, password_raw=None,
                                         password_decoded=None))

    def test_encrypted_forbids_decoded(self):
        with pytest.raises(ValueError):
            CredentialFinding(**self._kw(encrypted=True))

    def test_frozen(self):
        f = CredentialFinding(**self._kw())
        with pytest.raises(AttributeError):
            f.app_id = "x"


def _finding(label, app, *, pw="x", attributions=(), conf=HIGH):
    return CredentialFinding(
        app_id=app, image_label=label, username="u",
        password_raw=pw, password_decoded=pw, encrypted=False,
        match_mode=MatchMode.INLINE, offset=0, confidence=conf,
        context_snippet="", attributions=attributions,
    )


def _userals(label, app):
    return CredentialFinding(
        app_id=app, image_label=label, username="u",
        password_raw=None, password_decoded=None, encrypted=False,
        match_mode=MatchMode.INLINE, offset=0, confidence=LOW,
        context_snippet="", attributions=(),
    )


FF = (Attribution(1532, "firefox.exe", 0x400000),)
GC = (Attribution(2210, "chrome.exe", 0x1000000),)


class TestPresenceMatrix:
    def test_browser_tag_normalization(self):
        assert browser_tag("firefox.exe") == "MF"
        assert browser_tag("Mozilla Firefox") == "MF"
        assert browser_tag("chrome.exe") == "GC"
        assert browser_tag("Google Chrome") == "GC"
        assert browser_tag("svchost.exe") is None
        assert browser_tag(None) is None

    def test_attribution_decides_column(self):
        m = build_presence_matrix(
            ["I1"], {"I1": [_finding("I1", "irctc", attributions=FF)]}
        )
        assert m.cell("I1", "irctc", "MF") == "Yes"
        assert m.cell("I1", "irctc", "GC") == "No"

    def test_session_meta_fallback(self):
        m = build_presence_matrix(
            ["I1"], {"I1": [_finding("I1", "irctc")]}, session_browser="GC"
        )
        assert m.cell("I1", "irctc", "GC") == "Yes"
        assert m.cell("I1", "irctc", "MF") == "No"

    def test_no_tag_information_marks_all_columns(self):
        m = build_presence_matrix(["I1"], {"I1": [_finding("I1", "irctc")]})
        assert m.cell("I1", "irctc", "MF") == "Yes"
        assert m.cell("I1", "irctc", "GC") == "Yes"

    def test_username_only_findings_never_flip_cells(self):
        m = build_presence_matrix(["I1"], {"I1": [_userals("I1", "sbi")]})
        assert m.cell("I1", "sbi", "MF") == "No"
        assert m.cell("I1", "sbi", "GC") == "No"

    def test_ten_standard_columns(self):
        m = build_presence_matrix(["I1"], {})
        assert len(m.columns) == 10
        assert m.columns[0] == ("sonicwall", "MF")
        assert m.cell("I1", "sonicwall", "MF") == "No"

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            build_presence_matrix(["I1"], {"I2": [_finding("I2", "irctc")]})

    def test_rows_keep_manifest_order(self):
        m = build_presence_matrix(["B", "A"], {})
        assert m.rows == ("B", "A")



# --- Region matching against the linear reference -------------------------
#
# Login items sit in fixed-width slots, so key offsets fall on a grid and a
# password often has two usernames (or two GAUSR cookies) at equal distance:
# the tie-breaks are exercised, not just the nearest-neighbour path.

_SLOT = 96
_URLS = (
    "userLogin.html", "auth1.html", "https://www.facebook.com/login.php",
    "accounts.google.com", "www.irctc.co.in", "https://www.onlinesbi.com/",
)
_INLINE = (
    "uName={u}&pass={p}", "email={u}&pass={p}", "userName={u}&password={p}",
    "Email={u}&Passwd={p}", "Passwd={p}&rmShown=1", "pass={p}", "userName={u}",
    "UNAME={u}&Pass={p}", "EMAIL={u}&PASSWORD={p}",
)
_KEYS = (
    "uName", "pass", "email", "Email", "Passwd", "userName", "password",
    "PASS", "EMAIL", "Password",
)
_value = st.text("0123456789abcdef", min_size=3, max_size=8).map(lambda t: "v" + t)
_item = st.one_of(
    st.tuples(st.just("url"), st.sampled_from(_URLS)),
    st.tuples(st.just("inline"), st.sampled_from(_INLINE), _value, _value),
    st.tuples(st.just("adjacent"), st.sampled_from(_KEYS), _value),
    st.tuples(st.just("cookie"), _value),
    st.tuples(st.just("gap"), st.integers(1, 16)),
)
_slot = st.tuples(_item, st.booleans(), st.sampled_from((0, 0, 0, 1)))
# Three slots in a row whose middle password sits equally far from two
# usernames (adjacent keys) or two GAUSR cookies (inline Passwd).
_tie = st.one_of(
    st.builds(
        lambda keys, u1, p, u2: [
            ("adjacent", keys[0], u1), ("adjacent", keys[1], p),
            ("adjacent", keys[0], u2),
        ],
        st.sampled_from((("uName", "pass"), ("Email", "Passwd"), ("userName", "password"))),
        _value, _value, _value,
    ),
    st.builds(
        lambda u1, p, u2: [
            ("cookie", u1), ("inline", "Passwd={p}&rmShown=1", "", p), ("cookie", u2),
        ],
        _value, _value, _value,
    ),
)
_slots = st.lists(
    st.one_of(
        _slot.map(lambda slot: [slot]),
        st.tuples(_tie, st.booleans()).map(
            lambda t: [(item, t[1], 0) for item in t[0]]
        ),
    ),
    min_size=1,
    max_size=30,
).map(lambda groups: [slot for group in groups for slot in group])


def _slot_bytes(item, wide):
    kind = item[0]
    if kind == "url":
        text = item[1]
    elif kind == "inline":
        text = item[1].format(u=item[2], p=item[3])
    elif kind == "adjacent":
        text = item[1] + "\0\0" + item[2]
    else:
        text = f"GAUSR=mail:{item[1]};"
    return text.encode("utf-16-le" if wide else "ascii")


def _slotted_image(slots):
    planted, at = [], 0
    for item, wide, shift in slots:
        if item[0] == "gap":
            at += item[1] * _SLOT
            continue
        planted.append((at + shift, _slot_bytes(item, wide)))
        at += _SLOT
    return _image(*planted, size=at + _SLOT)


def _reference_scan(image, options):
    with mock.patch.object(scanner, "_match_region", match_region_linear):
        return scan_image(image, options=options)


class TestRegionMatchingOracle:
    @pytest.mark.parametrize("case_sensitive", [True, False])
    @pytest.mark.parametrize("window", [0, 1024])
    @settings(max_examples=120, deadline=None)
    @given(slots=_slots)
    def test_findings_equal_linear_reference(self, slots, window, case_sensitive):
        image = _slotted_image(slots)
        opts = ScanOptions(window=window, case_sensitive=case_sensitive)
        assert scan_image(image, options=opts) == _reference_scan(image, opts)

    def test_context_urls_exactly_at_window_edges(self):
        body = "userName=ipsita689&password=durga21"
        w = 200
        at = 1000
        anchor = at + body.index("password")
        inside = _image(
            (anchor - w, "irctc.co.in"), (at, body), (anchor + w, "onlinesbi.com"),
        )
        outside = _image(
            (anchor - w - 1, "irctc.co.in"), (at, body), (anchor + w + 1, "onlinesbi.com"),
        )
        opts = ScanOptions(window=w)
        got_in = scan_image(inside, options=opts)
        got_out = scan_image(outside, options=opts)
        assert [(f.app_id, f.confidence) for f in got_in] == [
            ("irctc", HIGH), ("sbi", HIGH),
        ]
        assert [(f.app_id, f.confidence) for f in got_out] == [
            ("irctc", LOW), ("sbi", LOW),
        ]
        assert got_in == _reference_scan(inside, opts)
        assert got_out == _reference_scan(outside, opts)


def _hit_re(case_sensitive=True):
    return scanner._prefilter(builtin_catalog(), case_sensitive)


class TestRegionsOracle:
    @settings(max_examples=150, deadline=None)
    @given(slots=_slots, case_sensitive=st.booleans(), data=st.data())
    def test_regions_equal_linear_reference(self, slots, case_sensitive, data):
        strings = list(carve_strings(_slotted_image(slots)))
        # Give some strings a partner of the other encoding at the same
        # offset, a keyword or not; the stream puts ASCII first on a tie.
        twins = data.draw(
            st.lists(
                st.sampled_from((None, "pass", "zzzz")),
                min_size=len(strings),
                max_size=len(strings),
            )
        )
        other = {Encoding.ASCII: Encoding.UTF16LE, Encoding.UTF16LE: Encoding.ASCII}
        for s, text in zip(list(strings), twins):
            if text is not None:
                strings.append(_s(s.offset, text, other[s.encoding]))
        strings.sort(key=lambda s: (s.offset, s.encoding is not Encoding.ASCII))
        hit_re = _hit_re(case_sensitive)
        # Reaches at which two neighbouring hits' claims touch (even gap) or
        # miss by one byte (odd gap), besides arbitrary ones.
        hits = [s for s in strings if hit_re.search(s.text)]
        edges = sorted({
            (b.offset - a.offset - a.byte_length) // 2
            for a, b in zip(hits, hits[1:])
            if b.offset >= a.offset + a.byte_length
        })
        any_reach = st.integers(0, 400)
        reach = data.draw(
            st.sampled_from(edges) | any_reach if edges else any_reach
        )
        assert list(scanner._regions(iter(strings), hit_re, reach)) == regions_linear(
            strings, hit_re, reach
        )

    @pytest.mark.parametrize("apart, expected", [
        (0, [["yyyy", "uName", "xxxx", "wwww", "pass", "vvvv"]]),
        (1, [["yyyy", "uName", "xxxx"], ["wwww", "pass", "vvvv"]]),
    ])
    def test_touching_claims_merge(self, apart, expected):
        reach = 40
        # uName at 100 claims [60, 145]; pass claims from 145 + apart.
        image = _image(
            (40, "zzzz"), (60, "yyyy"), (100, "uName"), (145, "xxxx"),
            (150, "wwww"), (185 + apart, "pass"), (229 + apart, "vvvv"),
            (240 + apart, "tttt"),
        )
        strings = list(carve_strings(image))
        got = list(scanner._regions(iter(strings), _hit_re(), reach))
        assert got == regions_linear(strings, _hit_re(), reach)
        assert [[s.text for s in region] for region in got] == expected
