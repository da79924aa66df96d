"""Credential scanning over raw buffers, dedup, confidence, matrix."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsift import (
    DEFAULT_CAP,
    DEFAULT_DELTA,
    DEFAULT_WINDOW,
    HIGH,
    LOW,
    Attribution,
    CredentialFinding,
    CredentialSignature,
    Encoding,
    ExtractedString,
    GAUSR_MARKER,
    KeyValuePair,
    MatchMode,
    MemoryImage,
    ProcessMap,
    ProcessMapEntry,
    STANDARD_COLUMNS,
    ScanOptions,
    SignatureMatch,
    assign_confidence,
    browser_tag,
    build_presence_matrix,
    builtin_catalog,
    scan_image,
)
from memsift import scanner
from memsift.errors import InvalidOptionError
from oracles import (
    assign_confidence_linear,
    match_region_linear,
    random_buffer,
    scan_full_carve,
    values_at_offsets,
)
from seams import at_seams


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


def _url_offsets(ctx, sig):
    """What the scan gives ``assign_confidence``: the offsets of the
    strings that hold one of the signature's context URLs."""
    return [s.offset for s in ctx if any(u in s.text for u in sig.context_urls)]


# Strings holding IRCTC's URL, SBI's, both or neither, ascending by offset.
_url_texts = st.sampled_from([
    "Referer: https://www.irctc.co.in/", "https://www.onlinesbi.com/",
    "irctc.co.in onlinesbi.com", "Host: example.org",
])
_url_context = st.lists(
    st.tuples(st.integers(0, 5000), _url_texts), max_size=12, unique_by=lambda t: t[0]
).map(lambda items: [_s(at, text) for at, text in sorted(items)])


class TestAssignConfidence:
    def test_context_url_raises_confidence(self):
        assert assign_confidence(200, [100]) == HIGH

    def test_no_context_is_low(self):
        assert assign_confidence(200, []) == LOW

    def test_window_boundary_inclusive(self):
        w = 1024
        assert assign_confidence(200, [200 + w], window=w) == HIGH
        assert assign_confidence(200, [200 + w + 1], window=w) == LOW
        assert assign_confidence(200, [200 - w], window=w) == HIGH
        assert assign_confidence(200, [200 - w - 1, 200 + w + 1], window=w) == LOW

    @settings(max_examples=60)
    @given(
        st.integers(0, 5000), st.integers(0, 5000),
        st.integers(0, 2000), st.integers(0, 2000),
    )
    def test_monotonic_in_window(self, anchor, ctx_off, w1, w2):
        lo, hi = sorted((w1, w2))
        narrow = assign_confidence(anchor, [ctx_off], window=lo)
        wide = assign_confidence(anchor, [ctx_off], window=hi)
        if narrow == HIGH:
            assert wide == HIGH

    @settings(max_examples=300)
    @given(
        anchor=st.integers(0, 5000), ctx=_url_context, window=st.integers(0, 2000),
        app=st.sampled_from(["irctc", "sbi"]),
    )
    def test_offsets_equal_linear_reference(self, anchor, ctx, window, app):
        sig = _sig(app)
        assert assign_confidence(anchor, _url_offsets(ctx, sig), window) == (
            assign_confidence_linear(anchor, ctx, sig, window)
        )


def _nearest_linear(offsets, at, window):
    """Reference for ``scanner._nearest``, by value: the offset nearest
    ``at`` within ``window``, the lower on a tie, from a look at each."""
    near = [o for o in offsets if abs(o - at) <= window]
    return min(near, key=lambda o: (abs(o - at), o), default=None)


class TestNearest:
    # Offsets from a narrow range repeat and tie often.
    @settings(max_examples=400)
    @given(
        offsets=st.lists(st.integers(0, 40), max_size=10).map(sorted),
        at=st.integers(-10, 50), window=st.integers(0, 20),
    )
    @example(offsets=[], at=5, window=20)
    @example(offsets=[10, 10, 20, 20], at=15, window=5)  # a tie
    @example(offsets=[10, 20], at=15, window=4)  # both just outside
    @example(offsets=[10], at=15, window=5)  # the lower edge
    @example(offsets=[20], at=15, window=5)  # the upper edge
    def test_equals_linear_reference(self, offsets, at, window):
        want = _nearest_linear(offsets, at, window)
        i = scanner._nearest(offsets, at, window)
        assert (None if i is None else offsets[i]) == want
        assert assign_confidence(at, offsets, window) == (LOW if want is None else HIGH)


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

    def test_another_applications_url_confirms_only_that_application(self):
        # onlinesbi.com within the window makes SBI's candidate HIGH; IRCTC's
        # is dominated and dropped, not raised by the other site's URL
        findings = scan((600, "https://www.onlinesbi.com/"), (700, self.BODY))
        assert [(f.app_id, f.confidence) for f in findings] == [("sbi", HIGH)]

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

    def test_plus_decodes_to_space_without_other_escapes(self):
        for body, decoded in (("uName=306110003&pass=my+pass", "my pass"),
                              ("uName=306110003&pass=my+pass%21", "my pass!")):
            (f,) = scan((400, body))
            assert (f.app_id, f.password_raw, f.password_decoded) == (
                "sonicwall", body[body.index("my"):], decoded,
            )

    @pytest.mark.parametrize("line", [
        "GET /userLogin.html?pass=Nitt500&uName=306110003 HTTP/1.1",
        "GET /userLogin.html?uName=306110003&pass=Nitt500 HTTP/1.1",
    ])
    def test_request_line_gives_query_values(self, line):
        (f,) = scan((400, line))
        assert (f.app_id, f.username, f.password_raw) == ("sonicwall", "306110003", "Nitt500")
        assert f.confidence == HIGH  # userLogin.html sits in the same string
        assert f.offset == 400 + line.index("pass=")
        assert f.username_offset == 400 + line.index("306110003")
        assert f.password_offset == 400 + line.index("Nitt500")

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

    def test_equidistant_cookies_bind_the_lower_one(self):
        image = _image(
            (700, "GAUSR=mail:low@x.y"), (800, "Passwd"), (810, "pw123"),
            (900, "GAUSR=mail:high@x.y"),
        )
        findings = scan_image(image)
        with_pw = [(f.app_id, f.match_mode, f.username, f.password_raw)
                   for f in findings if f.password_raw]
        assert with_pw == [("gmail-ff", MatchMode.ADJACENT, "low@x.y", "pw123")]
        assert ("high@x.y", None) in [(f.username, f.password_raw) for f in findings]
        assert findings == _reference_scan(image, ScanOptions())

    def test_cookie_in_a_form_body_gives_only_the_account_name(self):
        """No login form posts a ``GAUSR`` key, so a cookie at the start of a
        form fragment, or the bare word, gives no username of its own."""
        findings = scan(
            (100, "https://accounts.google.com/ServiceLogin"),
            (300, "GAUSR=mail:erin@gmail.com; Email=bob@gmail.com&Passwd=hunter2"),
            (500, "GAUSR"), (510, "mail:frank@gmail.com;"),
        )
        ff = [(f.username, f.password_raw) for f in findings if f.app_id == "gmail-ff"]
        assert ff == [("erin@gmail.com", "hunter2")]

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
        dict(min_len=4097), dict(window=(1 << 32) + 1), dict(delta=(1 << 32) + 1),
        dict(chunk_size=(1 << 30) + 1), dict(window=1 << 63),
        dict(chunk_size=100.5), dict(window=2.5), dict(delta=True), dict(min_len="4"),
    ])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(InvalidOptionError):
            ScanOptions(**bad)

    def test_boundary_values_accepted(self):
        ScanOptions(window=0, delta=0, min_len=1, chunk_size=1)
        ScanOptions(min_len=4096)
        ScanOptions(window=1 << 32, delta=1 << 32, chunk_size=1 << 30)


class TestCatalogAppIds:
    PLANTED = ((0, "pass=p1"), (7 + 32, "GAUSR=mail:bob@b.example;"))

    def _catalog(self, second_id):
        return [
            CredentialSignature("x", ("uName",), ("pass",), ("a.example",)),
            CredentialSignature(
                second_id, (), ("Passwd",), ("b.example",), username_marker=GAUSR_MARKER
            ),
        ]

    def test_a_repeated_app_id_is_refused(self):
        # Scanned, the two signatures would pair one's password with the
        # other's cookie name, as one finding.
        with pytest.raises(InvalidOptionError, match="'x'"):
            scan_image(_image(*self.PLANTED, size=128), self._catalog("x"))

    def test_distinct_app_ids_keep_their_candidates_apart(self):
        findings = scan_image(_image(*self.PLANTED, size=128), self._catalog("y"))
        assert [(f.app_id, f.username, f.password_raw) for f in findings] == [
            ("x", None, "p1"), ("y", "bob@b.example", None),
        ]


class TestFindingInvariants:
    def _kw(self, **over):
        base = dict(
            app_id="irctc", username="u",
            password_raw="p", password_decoded="p",
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

    @pytest.mark.parametrize("raw, decoded, encrypted", [
        ("p", "p", False), ("p", None, True), (None, None, False),
    ])
    def test_encrypted_is_a_password_kept_undecoded(self, raw, decoded, encrypted):
        f = CredentialFinding(**self._kw(password_raw=raw, password_decoded=decoded))
        assert f.encrypted is encrypted


class TestToFinding:
    """The one step from a match to a finding, which the scan and the
    fabricator's ground truth share."""

    @staticmethod
    def _match(app, mode=MatchMode.INLINE, pw="p", context="c"):
        return SignatureMatch(
            signature=_sig(app), mode=mode,
            username=KeyValuePair("uName", "u", 130, 140),
            password=KeyValuePair("pass", pw, 100, 110),
            context_text=context,
        )

    @pytest.mark.parametrize("mode, raw, decoded", [
        (MatchMode.INLINE, "a+b%21c", "a b!c"),
        (MatchMode.ADJACENT, "a+b%21c", "a+b!c"),
        (MatchMode.INLINE, "a+b", "a b"),
        (MatchMode.ADJACENT, "a+b", "a+b"),
    ])
    def test_plus_is_a_space_in_inline_mode_only(self, mode, raw, decoded):
        f = scanner._to_finding(self._match("sonicwall", mode, raw), HIGH, None)
        assert (f.password_raw, f.password_decoded, f.encrypted) == (raw, decoded, False)

    @pytest.mark.parametrize("length", [255, 256, 257])
    def test_snippet_is_cut_at_256_characters(self, length):
        context = "x" * (length - 1) + "y"
        f = scanner._to_finding(self._match("irctc", context=context), HIGH, None)
        assert f.context_snippet == context[:256]
        assert len(f.context_snippet) == min(length, 256)

    def test_suspected_encrypted_value_is_not_decoded(self):
        digest = "37f08c5d00de89cb3c26e50200ee7242"
        f = scanner._to_finding(self._match("sbi", pw=digest), HIGH, None)
        assert (f.password_raw, f.password_decoded, f.encrypted) == (digest, None, True)

    def test_attributions_are_looked_up_at_the_anchor(self):
        # The password key (100) lies in firefox alone; every other offset
        # of the match, the username key (130) included, in chrome alone.
        pmap = ProcessMap([
            ProcessMapEntry(1, "firefox.exe", 100, 101, 0x400000),
            ProcessMapEntry(2, "chrome.exe", 101, 0x1000, 0x1000000),
        ])
        f = scanner._to_finding(self._match("irctc"), HIGH, pmap)
        assert (f.offset, f.attributions) == (100, (Attribution(1, "firefox.exe", 0x400000),))
        user_only = self._match("irctc")._replace(password=None)
        f = scanner._to_finding(user_only, LOW, pmap)
        assert (f.offset, f.attributions) == (130, (Attribution(2, "chrome.exe", 0x100001D),))
        assert (f.password_decoded, f.encrypted) == (None, False)
        assert scanner._to_finding(self._match("irctc"), HIGH, None).attributions == ()


def _finding(app, *, pw="x", attributions=(), conf=HIGH):
    return CredentialFinding(
        app_id=app, username="u",
        password_raw=pw, password_decoded=pw,
        match_mode=MatchMode.INLINE, offset=0, confidence=conf,
        context_snippet="", attributions=attributions,
    )


def _userals(app):
    return CredentialFinding(
        app_id=app, username="u",
        password_raw=None, password_decoded=None,
        match_mode=MatchMode.INLINE, offset=0, confidence=LOW,
        context_snippet="", attributions=(),
    )


FF = (Attribution(1532, "firefox.exe", 0x400000),)
GC = (Attribution(2210, "chrome.exe", 0x1000000),)


def _cell(m: dict, label: str, app_id: str, browser: str) -> str:
    return m["cells"][label][m["columns"].index([app_id, browser])]


class TestPresenceMatrix:
    def test_browser_tag_normalization(self):
        assert browser_tag("firefox.exe") == "MF"
        assert browser_tag("Mozilla Firefox") == "MF"
        assert browser_tag("chrome.exe") == "GC"
        assert browser_tag("Google Chrome") == "GC"
        assert browser_tag("MF") == "MF"
        assert browser_tag("gc") == "GC"
        assert browser_tag("svchost.exe") is None
        assert browser_tag(None) is None

    def test_attribution_decides_column(self):
        m = build_presence_matrix({"I1": [_finding("irctc", attributions=FF)]})
        assert _cell(m, "I1", "irctc", "MF") == "Yes"
        assert _cell(m, "I1", "irctc", "GC") == "No"

    def test_session_meta_fallback(self):
        m = build_presence_matrix({"I1": [_finding("irctc")]}, ("Google Chrome", "irctc"))
        assert _cell(m, "I1", "irctc", "GC") == "Yes"
        assert _cell(m, "I1", "irctc", "MF") == "No"

    def test_no_tag_information_marks_all_columns(self):
        m = build_presence_matrix({"I1": [_finding("irctc")]})
        assert _cell(m, "I1", "irctc", "MF") == "Yes"
        assert _cell(m, "I1", "irctc", "GC") == "Yes"

    def test_username_only_findings_never_flip_cells(self):
        m = build_presence_matrix({"I1": [_userals("sbi")]})
        assert _cell(m, "I1", "sbi", "MF") == "No"
        assert _cell(m, "I1", "sbi", "GC") == "No"

    def test_ten_standard_columns(self):
        m = build_presence_matrix({"I1": []})
        assert len(m["columns"]) == 10
        assert m["columns"][0] == ["sonicwall", "MF"]
        assert _cell(m, "I1", "sonicwall", "MF") == "No"

    def test_rows_keep_manifest_order(self):
        m = build_presence_matrix({"B": [], "A": []})
        assert m["rows"] == ["B", "A"]

    @given(
        findings_by_image=st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.lists(st.builds(
                _finding,
                st.sampled_from([sig.app_id for sig in builtin_catalog()]),
                pw=st.sampled_from(["x", None]),
                attributions=st.lists(st.builds(
                    Attribution, st.integers(0, 9),
                    st.sampled_from(["firefox.exe", "chrome.exe", "Chrome.EXE", "svchost.exe"]),
                    st.just(0),
                ), max_size=2).map(tuple),
            ), max_size=3),
            max_size=4,
        ),
        session_meta=st.none() | st.tuples(
            st.sampled_from(["Mozilla Firefox", "Google Chrome", "Opera"]), st.just("Gmail")
        ),
    )
    @settings(max_examples=200)
    def test_every_cell_follows_the_documented_rule(self, findings_by_image, session_meta):
        """Per cell, as the docstring states it: Yes iff a finding of the
        column's application carries a password and feeds the column's
        browser, which is the browsers its attributions name, else the
        session's browser, else every browser."""
        session = {"Mozilla Firefox": "MF", "Google Chrome": "GC"}.get(
            session_meta[0] if session_meta else None
        )

        def feeds(f):
            named = {{"firefox.exe": "MF", "chrome.exe": "GC"}.get(a.process_name.lower())
                     for a in f.attributions} - {None}
            return named or ({session} if session else {"MF", "GC"})

        m = build_presence_matrix(findings_by_image, session_meta)
        assert m["rows"] == list(findings_by_image)
        assert m["columns"] == [list(c) for c in STANDARD_COLUMNS]
        assert list(m["cells"]) == list(findings_by_image)
        for label, findings in findings_by_image.items():
            for app, browser in STANDARD_COLUMNS:
                want = any(f.app_id == app and f.password_raw is not None
                           and browser in feeds(f) for f in findings)
                assert _cell(m, label, app, browser) == ("Yes" if want else "No")



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


def _reference_scan(image, options, catalog=None):
    # The linear oracle reads its strings more than once.
    linear = lambda strings, catalog, opts: match_region_linear(list(strings), catalog, opts)
    with mock.patch.object(scanner, "_match_region", linear):
        return scan_image(image, catalog, options)


# A catalog other than the built-in one: portal and social share a context
# URL but not their URL lists, and rail names accounts from cookies by a
# marker of its own, which the planted cookies hold as gmail-ff's does.
_OTHER_CATALOG = [
    CredentialSignature("portal", ("uName",), ("pass",), ("userLogin.html", "auth1.html")),
    CredentialSignature(
        "social", ("email",), ("pass",), ("auth1.html", "https://www.facebook.com/login.php")
    ),
    _sig("gmail-ff"),
    CredentialSignature(
        "rail", ("userName",), ("password",), ("www.irctc.co.in",), username_marker="GAUSR="
    ),
    CredentialSignature(
        "bank", ("userName", "Email"), ("password",), ("https://www.onlinesbi.com/",), opaque=True
    ),
]


class TestRegionMatchingOracle:
    @pytest.mark.parametrize("window", [0, 1024])
    @settings(max_examples=120, deadline=None)
    @given(slots=_slots)
    def test_findings_equal_linear_reference(self, slots, window):
        image = _slotted_image(slots)
        opts = ScanOptions(window=window)
        for catalog in (None, _OTHER_CATALOG):
            assert scan_image(image, catalog, opts) == _reference_scan(image, opts, catalog)

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


_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=30)
_part = st.one_of(
    st.sampled_from(_KEYS + ("GAUSR=mail:", "=", "&")),
    st.sampled_from(_URLS),
    st.builds(
        lambda form, u, p: form.format(u=u, p=p), st.sampled_from(_INLINE), _value, _value
    ),
    _text,
    st.integers(1, 1500).map(lambda n: "\0" * n),
)


def _seam_login(login, wide):
    """Every context URL, then a login; and where its last two strings
    meet: the URLs and an inline form, or a key and its value."""
    urls = "\0".join(_URLS)
    text = f"\0{urls}\0{login}\0"
    at = text.rindex("\0", 0, -1) + 1
    return text.encode("utf-16-le" if wide else "ascii"), at * (1 + wide)


def _seam_value(key, gap, value, split, wide):
    """A key, NULs, then its value; and a byte of the value, so that the
    key's next string, or the gap before it, may cross the seam."""
    text = f"\0{key}" + "\0" * gap + f"{value}\0"
    return text.encode("utf-16-le" if wide else "ascii"), (len(key) + 1 + gap + split) * (1 + wide)


_SEAM_LOGINS = st.builds(
    _seam_login,
    st.one_of(
        st.builds(lambda form, u, p: form.format(u=u, p=p), st.sampled_from(_INLINE), _value, _value),
        st.builds(lambda key, value: f"{key}\0{value}", st.sampled_from(_KEYS), _value),
    ),
    st.booleans(),
) | st.builds(
    _seam_value, st.sampled_from(_KEYS), st.integers(1, 250), _value, st.integers(0, 8),
    st.booleans(),
)


def _reach(window=DEFAULT_WINDOW, delta=DEFAULT_DELTA):
    """More than the longest interaction, ``max(window, delta)``: the width
    of the seam zones planted below."""
    return window + delta + 256


class TestKeywordFirstScan:
    """The scan builds strings only near keyword hits; its findings must be
    those of the scan that carves every string."""

    @settings(max_examples=60, deadline=None)
    @given(
        draw=st.data(),
        parts=st.lists(st.tuples(_part, st.booleans()), max_size=40),
        # Half the chunks are longer than any reach, so that a piece near
        # one seam is out of reach of the next.
        chunk_size=st.integers(16, 4096)
        | st.integers(_reach(window=1000, delta=200) + 1, 4096),
        delta=st.integers(0, 200),
        window=st.integers(0, 1000),
        min_len=st.integers(4, 8),
    )
    def test_scan_equals_full_carve_reference(
        self, draw, parts, chunk_size, delta, window, min_len
    ):
        """Logins are planted near chunk seams too, where a context URL or
        a value on one side is claimed by a keyword on the other.  A
        min_len above a key's length makes that key no string at all."""
        data = b"".join(
            text.encode("utf-16-le" if wide else "ascii") for text, wide in parts
        )
        opts = ScanOptions(
            min_len=min_len, delta=delta, window=window, chunk_size=chunk_size
        )
        data = draw.draw(at_seams(data, chunk_size, _reach(window, delta) + DEFAULT_CAP, _SEAM_LOGINS))
        image = MemoryImage.from_bytes(data, label="t")
        findings = scan_image(image, options=opts)
        assert findings == scan_full_carve(image, opts)
        values_at_offsets(data, findings)

    @pytest.mark.parametrize("codec", ["ascii", "utf-16-le"])
    def test_one_long_run_full_of_hits_scans_in_linear_time(self, codec):
        """One 4 MiB printable run with a ``pass`` form every 3 KiB: every
        cap piece is a hit, and every run lookup lands in the one run,
        which spans every buffer.  The findings equal the full carve's on
        a 256 KiB prefix, and the whole image stays under a CPU gate that a
        lookup reading the run again per hit breaks (at most 0.09 s measured
        on a shared 2-core host; the gate is about 3x that)."""
        unit = 2 if codec == "utf-16-le" else 1
        block = ("word " * 700)[: 3072 // unit - 12] + "&pass=v1234&"
        data = (block * ((4 << 20) // (len(block) * unit) + 1)).encode(codec)[: 4 << 20]
        prefix = MemoryImage.from_bytes(data[: 256 << 10], label="p")
        assert scan_image(prefix) == scan_full_carve(prefix)
        image = MemoryImage.from_bytes(data, label="r")
        t0 = time.process_time()
        findings = scan_image(image)
        cpu = time.process_time() - t0
        # Forms cut by a cap seam are lost, as in the full carve.
        assert len(findings) > 1000 // unit
        assert {f.password_raw for f in findings} == {"v1234"}
        assert cpu < 0.3, f"{cpu:.2f} s CPU"

    @pytest.mark.parametrize("chunk_size", [4096, 1 << 20])
    @pytest.mark.parametrize("lead, unit", [
        (b"", b"a"), (b"", b"pass"), (b"", b"pass="), (b"", b"&pass=x"),
        (b"", b"GAUSR=mail:x;"), (b"", b"pass\0"), (b"", b"pass\0xxxx\0"),
        (b"", b"pass\0pass\0v1234\0"), (b"", "pass=".encode("utf-16-le")),
        (b"\x01", "pass".encode("utf-16-le")),
    ], ids=repr)
    def test_keys_with_nothing_between_equal_full_carve(self, lead, unit, chunk_size):
        """24 KiB of one unit repeated, after ``lead``: one run of anchors,
        one long run of keys or forms, or keys and values with nothing
        else between them.  The findings equal the full carve's, and each
        value sits at its offset."""
        data = (lead + unit * (24 * 1024 // len(unit) + 1))[: 24 * 1024]
        image = MemoryImage.from_bytes(data, label="k")
        opts = ScanOptions(chunk_size=chunk_size)
        findings = scan_image(image, options=opts)
        assert findings == scan_full_carve(image, opts)
        values_at_offsets(data, findings)

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.7])
    def test_scan_equals_full_carve_with_hits_at_seams(self, density):
        """Forms, keys, cookies and URLs planted in random filler, half of
        them within reach of a 4096-byte chunk boundary: the findings equal
        the full carve's at chunk sizes below reach, above it and at the
        default."""
        seed = [5152, round(density * 10)]
        rng = np.random.default_rng(seed)
        size = 64 * 1024
        buf = bytearray(random_buffer(seed, size, density))
        texts = [form.format(u="v1a2", p="vb3c4") for form in _INLINE]
        texts += [f"{key}\0vq5r6" for key in _KEYS] + list(_URLS) + ["GAUSR=mail:vs7t8"]
        texts += [f"{key}\0{key}\0vq5r6" for key in _KEYS]
        for i in range(48):
            text = texts[rng.integers(len(texts))]
            codec = "utf-16-le" if rng.random() < 0.3 else "ascii"
            data = ("\0" + text + "\0").encode(codec)
            if i % 2:
                at = int(rng.integers(1, size // 4096)) * 4096 + int(rng.integers(-1500, 1500))
            else:
                at = int(rng.integers(0, size - len(data)))
            buf[at : at + len(data)] = data
        image = MemoryImage.from_bytes(bytes(buf), label="t")
        for chunk_size in (_reach() // 3, 4096, 1 << 20):
            opts = ScanOptions(chunk_size=chunk_size)
            want = scan_full_carve(image, opts)
            assert len(want) >= 10
            assert scan_image(image, options=opts) == want

    def test_matching_memory_does_not_grow_with_the_image(self):
        """``pass`` then 100 NULs, repeated: every string is a key too far
        from the next to bind it, so matching keeps none of them.  At a
        16 KiB chunk the traced peak of a 512 KiB scan stays under 1.5x
        that of a 128 KiB one; a scan that held every string read it near
        3x (0.28 against 0.89 MiB measured)."""
        opts = ScanOptions(chunk_size=16 << 10)
        unit = b"pass" + b"\0" * 100
        scan_image(MemoryImage.from_bytes(unit * 8, label="warm"), options=opts)
        peaks = []
        for size in (128 << 10, 512 << 10):
            image = MemoryImage.from_bytes((unit * (size // len(unit) + 1))[:size], label="m")
            tracemalloc.start()
            try:
                assert scan_image(image, options=opts) == []
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], [f"{p / 2**20:.3f} MiB" for p in peaks]
