"""The public names each module exports."""

import pytest

import memsift
import memsift.signatures


@pytest.mark.parametrize("module", [memsift, memsift.signatures], ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == []


def test_match_records_are_exported():
    """``SignatureMatch`` holds ``KeyValuePair`` records, so both are public."""
    assert memsift.KeyValuePair is memsift.signatures.KeyValuePair
    assert memsift.SignatureMatch is memsift.signatures.SignatureMatch
