"""The package's records: frozen NamedTuples whose checks run on every
instance, those ``_replace`` builds included."""

import pickle
from pathlib import Path

import pytest

import memsift
from memsift import (
    ArtifactTemplate,
    Attribution,
    CredentialFinding,
    Encoding,
    ExtractedString,
    FabricationPlan,
    FabricationResult,
    InvalidOptionError,
    KeyValuePair,
    ManifestEntry,
    MatchMode,
    PlannedImage,
    ProcessMapEntry,
    ScanOptions,
    SignatureMatch,
    builtin_catalog,
)

_SIG = builtin_catalog()[0]
_PAIR = KeyValuePair("pass", "p", 10, 15)

RECORDS = [
    ExtractedString(0, "abcd", Encoding.ASCII, 4),
    _PAIR,
    _SIG,
    SignatureMatch(_SIG, MatchMode.INLINE, password=_PAIR, context_text="pass=p"),
    Attribution(1, "firefox.exe", 0x400000),
    ProcessMapEntry(1, "firefox.exe", 0x1000, 0x2000, 0x400000),
    ScanOptions(),
    CredentialFinding("sonicwall", None, "p", "p", MatchMode.INLINE, 10, "LOW", ""),
    ManifestEntry("Img1", 1, "system started", Path("img1.raw")),
    ArtifactTemplate("t", ((1, "pass=p"),), ()),
    PlannedImage("Img1", 1, "system started", ()),
    FabricationPlan(1 << 20, 1, ()),
    FabricationResult(Path("out"), Path("m.tsv"), (), None, Path("truth.json"), {}),
]


def test_every_exported_record_is_listed():
    exported = {getattr(memsift, name) for name in memsift.__all__}
    records = {v for v in exported if isinstance(v, type) and issubclass(v, tuple)}
    assert records == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_frozen(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_pickles_as_itself(record):
    assert pickle.loads(pickle.dumps(record)) == record


def test_replace_runs_the_check():
    match = RECORDS[3]
    with pytest.raises(ValueError, match="username or a password"):
        match._replace(username=None, password=None)
    with pytest.raises(InvalidOptionError, match="min_len must be at least 1"):
        ScanOptions()._replace(min_len=0)
    assert ScanOptions()._replace(min_len=8).min_len == 8
