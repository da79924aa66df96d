"""Percent decoding and value classification."""

from urllib.parse import quote_plus

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memsift import Classification, ValueEncoding, classify_value, percent_decode
from memsift.decoding import has_percent_escape

from oracles import percent_encode

# every character UTF-8 can encode
_text = st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=64)


class TestPercentDecode:
    def test_published_facebook_value(self):
        assert percent_decode("who678%2C%3B") == "who678,;"

    def test_published_gmail_value(self):
        assert percent_decode("abc*%21123") == "abc*!123"

    def test_lowercase_hex(self):
        assert percent_decode("%2c%3b") == ",;"

    def test_plus_only_in_form_context(self):
        assert percent_decode("Sign+in") == "Sign+in"
        assert percent_decode("Sign+in", plus_as_space=True) == "Sign in"

    @pytest.mark.parametrize("raw", ["100%", "%", "%2", "%zz", "50%%off", "%g1"])
    def test_malformed_escape_is_literal(self, raw):
        assert percent_decode(raw) == raw

    def test_mixed_literal_and_escape(self):
        assert percent_decode("a%2Gb%2Fc") == "a%2Gb/c"

    @given(_text)
    def test_round_trip(self, text):
        assert percent_decode(percent_encode(text)) == text

    @given(_text)
    def test_round_trip_with_plus(self, text):
        assert percent_decode(percent_encode(text, True), plus_as_space=True) == text

    @given(_text)
    def test_round_trip_through_quote_plus(self, text):
        assert percent_decode(quote_plus(text), plus_as_space=True) == text

    def test_utf8_escapes_decode_as_one_character(self):
        assert percent_decode("p%C3%A9ss") == "péss"
        assert classify_value("p%C3%A9ss").decoded == "péss"

    @pytest.mark.parametrize("raw, decoded", [
        ("%E9t%E9", "été"),  # a lone Latin-1 byte is no UTF-8 sequence
        ("%C3%A9%FF", "Ã©ÿ"),  # the whole run must be valid UTF-8
        ("%C3", "Ã"),  # a cut sequence
        ("%C3%A9x%E9", "éxé"),  # each run is decoded alone
    ])
    def test_run_that_is_not_utf8_keeps_one_character_per_escape(self, raw, decoded):
        assert percent_decode(raw) == decoded

    @given(st.binary(max_size=16))
    def test_every_escaped_byte_string_decodes(self, data):
        try:
            expected = data.decode("utf-8")
        except UnicodeDecodeError:
            expected = data.decode("latin-1")
        assert percent_decode("".join(f"%{b:02x}" for b in data)) == expected

    @given(st.text(max_size=64).filter(lambda s: "%" not in s and "+" not in s))
    def test_identity_without_escapes(self, text):
        assert percent_decode(text) == text

    @given(_text)
    def test_decode_is_idempotent_on_escape_free_output(self, text):
        once = percent_decode(text)
        if "%" not in once:
            assert percent_decode(once) == once


class TestClassify:
    def test_percent_encoded_value(self):
        dv = classify_value("who678%2C%3B", ValueEncoding.PERCENT)
        assert dv.classification is Classification.PERCENT_ENCODED
        assert dv.decoded == "who678,;"
        assert not dv.encrypted

    def test_plaintext_value(self):
        dv = classify_value("durga21", ValueEncoding.PLAINTEXT)
        assert dv.classification is Classification.PLAINTEXT
        assert dv.decoded == "durga21"

    def test_opaque_signature_always_suspected_encrypted(self):
        dv = classify_value("anything-at-all", ValueEncoding.OPAQUE)
        assert dv.encrypted
        assert dv.decoded == dv.raw == "anything-at-all"

    def test_md5_like_value_flagged_regardless_of_expectation(self):
        raw = "37f08c5d00de89cb3c26e50200ee7242"
        dv = classify_value(raw, ValueEncoding.PLAINTEXT)
        assert dv.classification is Classification.SUSPECTED_ENCRYPTED
        assert dv.decoded == raw

    def test_31_hex_chars_is_not_md5_like(self):
        dv = classify_value("37f08c5d00de89cb3c26e50200ee724", ValueEncoding.PLAINTEXT)
        assert not dv.encrypted

    def test_uppercase_hex_is_not_md5_like(self):
        dv = classify_value("37F08C5D00DE89CB3C26E50200EE7242", ValueEncoding.PLAINTEXT)
        assert not dv.encrypted

    def test_percent_expected_but_no_escape_present(self):
        # nothing to decode: the stored value was already plain
        dv = classify_value("Nitt500", ValueEncoding.PERCENT)
        assert dv.classification is Classification.PLAINTEXT
        assert dv.decoded == "Nitt500"

    def test_plus_flag_passes_through(self):
        dv = classify_value("Sign+in%21", ValueEncoding.PERCENT, plus_as_space=True)
        assert dv.decoded == "Sign in!"

    def test_plus_alone_decodes_to_space(self):
        # a + needs no %XX escape beside it to be read as a space
        dv = classify_value("my+pass", ValueEncoding.PERCENT, plus_as_space=True)
        assert dv.classification is Classification.PERCENT_ENCODED
        assert dv.decoded == "my pass"
        assert classify_value("my+pass", ValueEncoding.PERCENT).decoded == "my+pass"


@given(st.text(alphabet="0123456789abcdef", min_size=32, max_size=32))
def test_every_32_lowercase_hex_string_flags(value):
    assert classify_value(value).encrypted


def test_has_percent_escape():
    assert has_percent_escape("a%41b")
    assert not has_percent_escape("a%4")
    assert not has_percent_escape("100%")
