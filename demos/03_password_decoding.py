"""
Decoding recovered password values
==================================

What a browser leaves in memory is not always the literal password.
Form-urlencoded submissions percent-escape punctuation, and some sites
encrypt the password client-side before it ever reaches the wire.  The
decoder layer keeps a suspected-encrypted value verbatim and decodes any
other.
"""

from memsift import classify_value, percent_decode

# percent-escapes: %2C is a comma, %3B a semicolon, %21 a bang
print(percent_decode("who678%2C%3B"), "<- who678%2C%3B")
print(percent_decode("abc*%21123"), "<- abc*%21123")

# in form bodies a '+' means space; outside them it is a literal plus
print(percent_decode("new+delhi", plus_as_space=True), "<- form body")
print(percent_decode("new+delhi"), "<- bare value")

# malformed escapes survive untouched rather than raising
print(percent_decode("50%off"), "<- '%of' is not a valid escape")

# classify_value keeps a value verbatim (returns None) when the catalog
# marks its signature opaque, as SBI's is, or when it looks like ciphertext
# (32 lowercase hex chars) whatever the catalog says; it decodes any other
for raw, opaque in [
    ("who678%2C%3B", False),
    ("durga21", False),
    ("37f08c5d00de89cb3c26e50200ee7242", False),
    ("anything", True),
]:
    decoded = classify_value(raw, opaque)
    tag = "ENCRYPTED, kept verbatim" if decoded is None else f"decoded={decoded!r}"
    print(f"{raw:35s} -> {tag}")
