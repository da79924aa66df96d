"""Signature catalog, form parsing, inline and adjacent matching."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsift import (
    CredentialSignature,
    Encoding,
    ExtractedString,
    MatchMode,
    builtin_catalog,
    key_owners,
    load_catalog_file,
    match_inline,
    merge_catalogs,
    parse_form_pairs,
)
from memsift.errors import LineError
from memsift.signatures import (
    DEFAULT_DELTA,
    DEFAULT_WINDOW,
    GAUSR_MARKER,
    AdjacentBinder,
    KeyValuePair,
    SignatureMatch,
    combine_bindings,
    cookie_username,
)
from oracles import bind_adjacent_linear, combine_bindings_linear, match_inline_linear


def _s(offset, text, encoding=Encoding.ASCII):
    unit = 2 if encoding is Encoding.UTF16LE else 1
    return ExtractedString(offset, text, encoding, unit * len(text))


def _sig(app="irctc"):
    return next(s for s in builtin_catalog() if s.app_id == app)


# A catalog whose key ownership the built-in one never exercises: "pass"
# is SonicWall's and Facebook's password key and acme's username key, and
# coil lists "token" as a username key and as a password key.
_USER_CATALOG = merge_catalogs(builtin_catalog(), [
    CredentialSignature("acme", ("pass", "login"), ("secret",), ("acme.example",)),
    CredentialSignature("coil", ("token",), ("token", "pin"), ("coil.example",)),
])


def _inline(string, app="irctc"):
    """The inline match of one built-in signature, or None."""
    matches = match_inline(string, key_owners(builtin_catalog()))
    return next((m for m in matches if m.signature.app_id == app), None)


def _match_adjacent(strings, sig, delta=DEFAULT_DELTA, window=DEFAULT_WINDOW):
    """Adjacent matching of one signature over in-order strings, as the
    scan does it over an image's strings."""
    binder = AdjacentBinder([sig], delta)
    return combine_bindings([b for s in strings for b in binder.push(s)], sig, window)


class TestCatalog:
    def test_six_builtin_signatures(self):
        assert [s.app_id for s in builtin_catalog()] == [
            "sonicwall", "facebook", "gmail-ff", "gmail-gc", "irctc", "sbi",
        ]

    def test_keyword_case_matters(self):
        owners = key_owners(builtin_catalog())
        assert [sig.app_id for sig, _ in owners["Email"]] == ["gmail-gc"]
        assert [sig.app_id for sig, _ in owners["email"]] == ["facebook"]
        assert "EMAIL" not in owners

    def test_key_owners_list_every_owner_in_catalog_order(self):
        owners = {
            key: [(sig.app_id, kind) for sig, kind in listings]
            for key, listings in key_owners(_USER_CATALOG).items()
        }
        assert owners["pass"] == [
            ("sonicwall", "password"), ("facebook", "password"), ("acme", "username"),
        ]
        assert owners["userName"] == [("irctc", "username"), ("sbi", "username")]
        assert owners["token"] == [("coil", "username"), ("coil", "password")]
        # gmail-ff has no username key: its account name is the cookie's
        assert list(owners) == [
            "uName", "pass", "email", "Passwd", "Email", "userName",
            "password", "login", "secret", "token", "pin",
        ]

    def test_value_encodings(self):
        # only SBI's values are encrypted in the browser
        assert [s.app_id for s in builtin_catalog() if s.opaque] == ["sbi"]

    def test_only_gmail_firefox_has_cookie_marker(self):
        markers = {s.app_id: s.username_marker for s in builtin_catalog()}
        assert markers.pop("gmail-ff") == "GAUSR=mail:"
        assert all(m is None for m in markers.values())

    def test_load_catalog_file(self):
        body = "acme\tlogin_user\tlogin_pw\tacme.example\tplaintext\n"
        sigs = load_catalog_file(io.StringIO(body))
        assert len(sigs) == 1
        assert sigs[0].app_id == "acme"
        assert sigs[0].username_keys == ("login_user",)
        assert sigs[0].password_keys == ("login_pw",)

    def test_load_catalog_file_with_a_byte_order_mark(self, tmp_path):
        body = "acme\tlogin_user\tlogin_pw\tacme.example\tplaintext\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_bytes(body.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        assert load_catalog_file(marked) == load_catalog_file(plain)

    def test_load_catalog_rejects_bad_lines(self):
        with pytest.raises(LineError) as err:
            load_catalog_file(io.StringIO("only\tthree\tfields\n"))
        assert err.value.lineno == 1

    def test_signature_needs_a_username_key_or_marker(self):
        """A catalog file has no marker column, so a row must name a
        username key."""
        with pytest.raises(LineError, match="username key or marker") as err:
            load_catalog_file(io.StringIO("# header\nacme\t\tap\tacme.example\tplaintext\n"))
        assert err.value.lineno == 2
        with pytest.raises(ValueError, match="username key or marker"):
            CredentialSignature("acme", (), ("ap",), ("acme.example",))
        marked = CredentialSignature("acme", (), ("ap",), (), username_marker="ID=")
        assert marked.username_keys == ()

    def test_plaintext_and_percent_encoded_read_alike(self):
        row = "acme\tau\tap\tacme.example\t{}\n"
        plain, percent, opaque = load_catalog_file(io.StringIO("".join(
            row.format(word) for word in ("plaintext", "percent-encoded", "opaque")
        )))
        assert plain == percent
        assert not plain.opaque
        assert opaque == CredentialSignature(
            "acme", ("au",), ("ap",), ("acme.example",), opaque=True
        )

    @pytest.mark.parametrize("word", ["encrypted", "Opaque", "PLAINTEXT", ""])
    def test_unknown_value_encoding_names_its_line(self, word):
        body = f"# header\nacme\tau\tap\tacme.example\t{word}\n"
        with pytest.raises(LineError, match="unknown value encoding") as err:
            load_catalog_file(io.StringIO(body))
        assert err.value.lineno == 2

    @pytest.mark.parametrize("field, token", [
        ("username_keys", ("pässwort",)),
        ("password_keys", ("pass\x01x",)),
        ("password_keys", ("",)),
        ("context_urls", ("bank.de\n",)),
        ("username_marker", ""),
        ("username_marker", "GAUSR=mail:\x7f"),
    ])
    def test_tokens_must_be_printable_ascii(self, field, token):
        fields = dict(username_keys=("u",), password_keys=("p",), context_urls=("x",))
        with pytest.raises(ValueError, match="printable ASCII"):
            CredentialSignature("bank", **{**fields, field: token})

    def test_printable_tokens_are_accepted(self):
        sig = CredentialSignature(
            "bank", (" ~",), ("p w",), (), username_marker="a=b:"
        )
        assert key_owners([sig]) == {" ~": [(sig, "username")], "p w": [(sig, "password")]}

    def test_merge_replaces_matching_app_id(self):
        override = CredentialSignature("irctc", ("u",), ("p",), ("x",))
        fresh = CredentialSignature("acme", ("au",), ("ap",), ("acme.example",))
        merged = merge_catalogs(builtin_catalog(), [override, fresh])
        assert len(merged) == 7
        assert next(s for s in merged if s.app_id == "irctc").username_keys == ("u",)
        assert merged[-1].app_id == "acme"


class TestParseFormPairs:
    def test_published_irctc_body(self):
        s = _s(0, "n=home&userName=ipsita689&password=durga21&button=Login")
        pairs = {p.key: p.value for p in parse_form_pairs(s)}
        assert pairs == {
            "n": "home", "userName": "ipsita689",
            "password": "durga21", "button": "Login",
        }

    def test_offsets_point_into_the_image(self):
        s = _s(100, "a=1&bb=22")
        pairs = parse_form_pairs(s)
        assert [(p.key, p.key_offset, p.value_offset) for p in pairs] == [
            ("a", 100, 102), ("bb", 104, 107),
        ]

    def test_utf16_offsets_use_two_byte_units(self):
        s = _s(100, "a=1&bb=22", Encoding.UTF16LE)
        pairs = parse_form_pairs(s)
        assert [(p.key_offset, p.value_offset) for p in pairs] == [(100, 104), (108, 114)]

    def test_empty_values_survive_parsing(self):
        # the match layer decides what an empty value means, not the parser
        s = _s(0, "param1=&param2=93BF&digest=")
        assert [(p.key, p.value) for p in parse_form_pairs(s)] == [
            ("param1", ""), ("param2", "93BF"), ("digest", ""),
        ]

    def test_only_first_equals_splits(self):
        s = _s(0, "k=a=b&x=1")
        pairs = parse_form_pairs(s)
        assert pairs[0].key == "k"
        assert pairs[0].value == "a=b"

    @pytest.mark.parametrize("line, expected", [
        ("GET /userLogin.html?pass=Nitt500&uName=306110003 HTTP/1.1",
         [("pass", 20, 25, "Nitt500"), ("uName", 33, 39, "306110003")]),
        ("GET /userLogin.html?uName=306110003&pass=Nitt500 HTTP/1.1",
         [("uName", 20, 26, "306110003"), ("pass", 36, 41, "Nitt500")]),
    ])
    def test_request_line_reads_as_its_query(self, line, expected):
        # the first key starts after the "?", the last value ends at the space
        pairs = parse_form_pairs(_s(100, line))
        assert [(p.key, p.key_offset, p.value_offset, p.value) for p in pairs] == [
            (k, 100 + ko, 100 + vo, v) for k, ko, vo, v in expected
        ]
        for p in pairs:
            assert line[p.key_offset - 100 :].startswith(p.key + "=" + p.value)

    def test_request_line_offsets_in_utf16(self):
        s = _s(100, "GET /a?k=v HTTP/1.1", Encoding.UTF16LE)
        assert [(p.key, p.key_offset, p.value_offset, p.value)
                for p in parse_form_pairs(s)] == [("k", 114, 118, "v")]

    def test_segments_without_equals_skipped(self):
        s = _s(0, "justtext&k=v&&more")
        assert [(p.key, p.value) for p in parse_form_pairs(s)] == [("k", "v")]

    @given(st.lists(
        st.tuples(
            st.text(alphabet="abcXYZ09_", min_size=1, max_size=8),
            st.text(alphabet="abcXYZ09_.!*", min_size=1, max_size=8),
        ),
        min_size=1, max_size=6,
    ))
    def test_reconstruction(self, kvs):
        body = "&".join(f"{k}={v}" for k, v in kvs)
        got = [(p.key, p.value) for p in parse_form_pairs(_s(0, body))]
        assert got == kvs


class TestMatchInline:
    def test_full_credential_pair(self):
        s = _s(50, "n=home&userName=ipsita689&password=durga21&button=Login")
        m = _inline(s)
        assert m is not None
        assert m.mode is MatchMode.INLINE
        assert (m.username.value, m.password.value) == ("ipsita689", "durga21")
        assert m.username.value_offset == 50 + len("n=home&userName=")
        assert m.password.value_offset == 50 + len("n=home&userName=ipsita689&password=")
        assert m.context_text == s.text

    def test_username_only(self):
        m = _inline(_s(0, "userName=ipsitasbi"), "sbi")
        assert m is not None
        assert m.username.value == "ipsitasbi"
        assert m.password is None

    def test_no_keys_no_match(self):
        assert _inline(_s(0, "a=1&b=2")) is None

    def test_empty_credential_values_do_not_count(self):
        m = _inline(_s(0, "userName=&password=x"))
        assert m is not None
        assert m.username is None
        assert m.password.value == "x"
        assert _inline(_s(0, "userName=&password=")) is None

    def test_password_key_is_exact(self):
        # Passwd must not satisfy the facebook `pass` key
        m = _inline(_s(0, "email=x@y.z&Passwd=nope"), "facebook")
        assert m is not None and m.password is None
        assert _inline(_s(0, "Passwd=nope"), "facebook") is None

    def test_keys_match_exact_case(self):
        assert _inline(_s(0, "USERNAME=A&PASSWORD=B")) is None

    def test_a_match_needs_a_username_or_a_password(self):
        with pytest.raises(ValueError):
            SignatureMatch(_sig("irctc"), MatchMode.INLINE)

    def test_anchor_prefers_password_key(self):
        s = _s(10, "userName=u&password=p")
        m = _inline(s)
        assert m.anchor_offset == 10 + s.text.index("password")
        only_user = _inline(_s(10, "userName=u"))
        assert only_user.anchor_offset == 10

    def test_one_match_per_owning_signature_in_first_key_order(self):
        s = _s(0, "email=e&uName=u&pass=p&Passwd=")
        matches = match_inline(s, key_owners(builtin_catalog()))
        assert [(m.signature.app_id, m.username.value, m.password.value)
                for m in matches] == [("facebook", "e", "p"), ("sonicwall", "u", "p")]


# Keys of both catalogs, their case variants and keys no signature owns.
_FORM_KEYS = sorted(
    {k for sig in _USER_CATALOG for k in (*sig.username_keys, *sig.password_keys)}
    | {"n", "button", "Pass", "USERNAME", "digest"}
)
_form_fragment = st.just("junk") | st.tuples(
    st.sampled_from(_FORM_KEYS), st.sampled_from(["", "v", "x1", "a%40b"])
).map("=".join)
_form_body = st.tuples(
    st.sampled_from(["", "GET /p?"]), st.lists(_form_fragment, min_size=1, max_size=8)
).map(lambda parts: parts[0] + "&".join(parts[1]))


class TestKeyDispatch:
    @pytest.mark.parametrize("catalog", [builtin_catalog(), _USER_CATALOG],
                             ids=["builtin", "user"])
    @settings(max_examples=300, deadline=None)
    @given(body=_form_body, offset=st.integers(0, 64), wide=st.booleans())
    def test_match_inline_equals_per_signature_reference(self, catalog, body, offset, wide):
        s = _s(offset, body, Encoding.UTF16LE if wide else Encoding.ASCII)
        got = match_inline(s, key_owners(catalog))
        want = match_inline_linear(s, catalog)
        assert len(got) == len({m.signature.app_id for m in got})
        assert {m.signature.app_id: m for m in got} == {m.signature.app_id: m for m in want}


class TestAdjacentMatching:
    def test_chrome_style_key_value_strings(self):
        strings = [
            _s(481, "email"),
            _s(497, "ipsita.chinky@gmail.com"),
            _s(549, "pass"),
            _s(561, "berham!19"),
        ]
        matches = _match_adjacent(strings, _sig("facebook"))
        assert len(matches) == 1
        m = matches[0]
        assert m.mode is MatchMode.ADJACENT
        assert (m.username.value, m.password.value) == ("ipsita.chinky@gmail.com", "berham!19")
        assert (m.username.value_offset, m.password.value_offset) == (497, 561)
        assert m.context_text == "email ipsita.chinky@gmail.com pass berham!19"

    def test_value_must_fall_within_delta(self):
        key = _s(100, "pass")
        near = _s(100 + 4 + 64, "justfits")
        far = _s(100 + 4 + 65, "toolate")
        assert len(_match_adjacent([key, near], _sig("facebook"), delta=64)) == 1
        assert len(_match_adjacent([key, far], _sig("facebook"), delta=64)) == 0

    def test_next_key_never_serves_as_value(self):
        # two keyword strings in a row: second one is not a value
        strings = [_s(0, "pass"), _s(10, "pass"), _s(20, "hunter2")]
        matches = _match_adjacent(strings, _sig("facebook"))
        values = {m.password.value for m in matches if m.password}
        assert "pass" not in values
        assert "hunter2" in values

    def test_unpaired_username_reported_alone(self):
        strings = [_s(0, "Email"), _s(10, "someone@example.com")]
        matches = _match_adjacent(strings, _sig("gmail-gc"))
        assert len(matches) == 1
        assert matches[0].username.value == "someone@example.com"
        assert matches[0].password is None

    def test_password_takes_nearest_username_within_window(self):
        strings = [
            _s(0, "Email"), _s(8, "far@x.y"),
            _s(500, "Email"), _s(508, "near@x.y"),
            _s(600, "Passwd"), _s(610, "pw"),
        ]
        matches = _match_adjacent(strings, _sig("gmail-gc"))
        full = [m for m in matches if m.password]
        assert len(full) == 1
        assert full[0].username.value == "near@x.y"
        leftovers = [m for m in matches if m.password is None]
        assert [m.username.value for m in leftovers] == ["far@x.y"]

    def test_username_beyond_window_not_combined(self):
        strings = [
            _s(0, "Email"), _s(8, "u@x.y"),
            _s(2000, "Passwd"), _s(2010, "pw"),
        ]
        matches = _match_adjacent(strings, _sig("gmail-gc"), window=1024)
        full = [m for m in matches if m.password and m.username]
        assert not full

    def test_binder_incremental_equals_batch(self):
        strings = [
            _s(0, "Email"), _s(8, "a@b.c"), _s(60, "Passwd"), _s(70, "s3cret"),
            _s(400, "noise"), _s(900, "Email"), _s(910, "d@e.f"),
        ]
        binder = AdjacentBinder(builtin_catalog())
        bindings = []
        for s in strings:
            bindings.extend(binder.push(s))
        gc = [b for b in bindings if b.sig.app_id == "gmail-gc"]
        incremental = combine_bindings(gc, _sig("gmail-gc"))
        batch = _match_adjacent(strings, _sig("gmail-gc"))
        assert incremental == batch

    def test_combining_leaves_bindings_reusable(self):
        strings = [_s(0, "Email"), _s(8, "a@b.c"), _s(60, "Passwd"), _s(70, "s3cret")]
        binder = AdjacentBinder([_sig("gmail-gc")])
        bindings = [b for s in strings for b in binder.push(s)]
        first = combine_bindings(bindings, _sig("gmail-gc"))
        assert [(m.username.value, m.password.value) for m in first] == [("a@b.c", "s3cret")]
        assert combine_bindings(bindings, _sig("gmail-gc")) == first

    def test_trailing_bare_key_yields_nothing(self):
        # a keyword with no following string can't bind a value
        strings = [_s(0, "Email"), _s(8, "a@b.c"), _s(60, "Passwd")]
        matches = _match_adjacent(strings, _sig("gmail-gc"))
        assert all(m.password is None for m in matches)


_PAIR_TEXTS = (
    "uName", "pass", "email", "Email", "Passwd", "userName", "password",
    "GAUSR", "login", "secret", "token", "pin", "v1", "v22", "v333",
)
_PAIR_KEYS = (("Email", "Passwd"), ("email", "pass"), ("uName", "pass"),
              ("userName", "password"), ("pass", "secret"), ("token", "token"),
              ("token", "pin"))
# A slot is a key-sized string at a multiple of 16 bytes and the string 8
# bytes on, which may be a key itself.  A tie is a password slot with a
# username slot equally far on either side.
_pair_slot = st.tuples(
    st.integers(0, 24), st.sampled_from(_PAIR_TEXTS), st.sampled_from(_PAIR_TEXTS)
)
_pair_tie = st.builds(
    lambda keys, at, k: [
        (at - k, keys[0], "v1"), (at, keys[1], "v22"), (at + k, keys[0], "v333"),
    ],
    st.sampled_from(_PAIR_KEYS), st.integers(3, 21), st.integers(1, 3),
)
_pair_slots = st.lists(_pair_slot.map(lambda slot: [slot]) | _pair_tie, max_size=8).map(
    lambda groups: [
        s
        for at, (key, value) in sorted(
            {at: (key, value) for group in groups for at, key, value in group}.items()
        )
        for s in (_s(16 * at, key), _s(16 * at + 8, value))
    ]
)
_pair_window = st.integers(0, 16 * 25) | st.integers(0, 25).map(lambda n: 16 * n)


class TestAdjacentPairingOracle:
    @pytest.mark.parametrize("catalog", [builtin_catalog(), _USER_CATALOG],
                             ids=["builtin", "user"])
    @settings(max_examples=300, deadline=None)
    @given(strings=_pair_slots, delta=st.integers(0, 24), window=_pair_window)
    def test_binder_and_pairing_equal_linear_references(
        self, catalog, strings, delta, window
    ):
        binder = AdjacentBinder(catalog, delta)
        bindings = [b for s in strings for b in binder.push(s)]
        assert bindings == bind_adjacent_linear(strings, catalog, delta)
        for sig in catalog:
            assert combine_bindings(bindings, sig, window) == combine_bindings_linear(
                bindings, sig, window
            )

    @settings(max_examples=200, deadline=None)
    @given(strings=_pair_slots, window=_pair_window, data=st.data())
    def test_shuffled_bindings_pair_as_sorted(self, strings, window, data):
        catalog = builtin_catalog()
        bindings = bind_adjacent_linear(strings, catalog, DEFAULT_DELTA)
        shuffled = data.draw(st.permutations(bindings))
        for sig in catalog:
            assert combine_bindings(shuffled, sig, window) == combine_bindings(
                bindings, sig, window
            )


class TestCookieUsername:
    def test_published_cookie_line(self):
        text = "Set-Cookie: GAUSR=mail:ipsita.chinky@gmail.com; Path=/accounts;secure"
        assert cookie_username(_s(0, text)) == KeyValuePair(
            GAUSR_MARKER, "ipsita.chinky@gmail.com", 12, 12 + len(GAUSR_MARKER)
        )

    def test_terminates_at_whitespace(self):
        assert cookie_username(_s(0, "GAUSR=mail:user@x.y rest")).value == "user@x.y"

    def test_absent_marker(self):
        assert cookie_username(_s(0, "Set-Cookie: other=1")) is None

    def test_empty_username_rejected(self):
        assert cookie_username(_s(0, "GAUSR=mail:; Path=/")) is None

    def test_marker_offset_accounts_for_encoding(self):
        text = "xGAUSR=mail:me@x.y;"
        assert cookie_username(_s(40, text)).key_offset == 40 + 1
        assert cookie_username(_s(40, text, Encoding.UTF16LE)).key_offset == 40 + 2 * 1

    def test_name_offset_counts_two_bytes_per_utf16le_character(self):
        """The name starts two bytes per character of the marker past it."""
        text = "xGAUSR=mail:me@x.y;"
        name_at = 1 + len(GAUSR_MARKER)
        assert cookie_username(_s(40, text)) == KeyValuePair(
            GAUSR_MARKER, "me@x.y", 40 + 1, 40 + name_at
        )
        assert cookie_username(_s(40, text, Encoding.UTF16LE)) == KeyValuePair(
            GAUSR_MARKER, "me@x.y", 40 + 2 * 1, 40 + 2 * name_at
        )
