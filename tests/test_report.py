"""Report document assembly and rendering."""

import json

from memsift import (
    HIGH,
    Attribution,
    CredentialFinding,
    MatchMode,
    ProcessMap,
    ScanOptions,
    build_presence_matrix,
    build_report,
    finding_to_doc,
    load_manifest,
    load_process_map,
    render_json,
    render_matrix_table,
    render_text,
    scan_manifest,
)
from memsift.report import report_matrix


def _finding(**over):
    base = dict(
        app_id="irctc", image_label="I1", username="ipsita689",
        password_raw="durga21", password_decoded="durga21",
        match_mode=MatchMode.INLINE, offset=0x1234, confidence=HIGH,
        context_snippet="userName=ipsita689&password=durga21",
        attributions=(Attribution(1532, "firefox.exe", 0x00401234),),
        username_offset=0x1210, password_offset=0x1240,
    )
    base.update(over)
    return CredentialFinding(**base)


def test_finding_doc_values():
    fd = finding_to_doc(_finding())
    assert fd["attributions"] == [
        {"pid": 1532, "process_name": "firefox.exe", "virtual_address": 0x00401234},
    ]
    assert (fd["username_offset"], fd["password_offset"]) == (0x1210, 0x1240)


def test_finding_doc_key_order():
    keys = list(finding_to_doc(_finding()).keys())
    assert keys[:9] == [
        "app_id", "username", "password_raw", "password_decoded", "encrypted",
        "match_mode", "offset", "confidence", "context_snippet",
    ]


def test_report_skeleton_and_key_order():
    f = _finding()
    matrix = build_presence_matrix(["I1"], {"I1": [f]})
    doc = build_report(["I1"], {"I1": [f]}, options=ScanOptions(),
                       matrix=matrix, deterministic=True)
    assert list(doc.keys()) == ["version", "options", "images", "matrix"]
    assert doc["images"][0]["label"] == "I1"
    assert doc["matrix"]["cells"]["I1"][6] == "Yes"  # irctc/MF via attribution


def test_built_matrix_is_the_matrix_a_report_reads_back(small_corpus):
    """The matrix a scan builds is the one its report stores: it passes the
    check for matrices read from files, and a JSON round trip keeps it."""
    _plan, result = small_corpus
    manifest = load_manifest(result.manifest_path)
    pmap = ProcessMap(load_process_map(result.process_map_path))
    findings = scan_manifest(manifest, process_map=pmap)
    matrix = build_presence_matrix(manifest, findings)
    doc = build_report(manifest.labels(), findings, options=ScanOptions(),
                       matrix=matrix, deterministic=True, manifest=manifest)
    assert report_matrix(json.loads(render_json(doc))) == matrix
    assert any("Yes" in cells for cells in matrix["cells"].values())


def test_deterministic_omits_timestamp():
    with_ts = build_report([], {})
    without = build_report([], {}, deterministic=True)
    assert "generated_at" in with_ts
    assert "generated_at" not in without


def test_render_json_is_stable():
    doc = build_report(["I1"], {"I1": [_finding()]}, deterministic=True)
    assert render_json(doc) == render_json(json.loads(render_json(doc)))


def test_text_and_json_carry_the_same_findings():
    doc = build_report(
        ["I1"], {"I1": [_finding(), _finding(offset=0x2000, app_id="sbi",
                                             password_raw="37f08c5d00de89cb3c26e50200ee7242",
                                             password_decoded=None)]},
        deterministic=True,
    )
    text = render_text(doc)
    n_json = sum(len(img["findings"]) for img in doc["images"])
    body = [ln for ln in text.splitlines() if ln.startswith("I1")]
    assert len(body) == n_json == 2
    assert "total: 2 findings" in text


def test_text_marks_encrypted_values():
    doc = build_report(
        ["I1"],
        {"I1": [_finding(password_raw="37f08c5d00de89cb3c26e50200ee7242",
                         password_decoded=None)]},
        deterministic=True,
    )
    assert "ENCRYPTED(37f08c5d00de89cb3c26e50200ee7242)" in render_text(doc)


def test_text_shows_attribution():
    text = render_text(build_report(["I1"], {"I1": [_finding()]}, deterministic=True))
    assert "firefox.exe[1532]" in text


def test_matrix_table_shape():
    matrix = build_presence_matrix(["I1", "I2"], {"I1": [_finding()]})
    table = render_matrix_table(matrix)
    lines = table.splitlines()
    assert lines[0].split()[0] == "image"
    assert len(lines) == 2 + 2  # header, rule, two rows
    assert "irctc/MF" in lines[0]
    i1 = lines[2].split()
    assert i1[0] == "I1" and "Yes" in i1


def test_empty_matrix_renders_header_only():
    matrix = build_presence_matrix([], {})
    lines = render_matrix_table(matrix).splitlines()
    assert len(lines) == 2


def test_text_escapes_every_value_it_cannot_print():
    f = _finding(
        image_label="I\n1", username="u\x1b[2J", password_raw="p%0A\\",
        password_decoded="p\n\\", attributions=(Attribution(1, "fire\rfox", 0),),
    )
    doc = build_report(["I\n1"], {"I\n1": [f]},
                       matrix=build_presence_matrix(["I\n1"], {"I\n1": [f]}),
                       deterministic=True)
    lines = render_text(doc).splitlines()
    assert lines[0] == (
        "I\\n1  app=irctc  user=u\\x1b[2J  password=p\\n\\\\  confidence=HIGH"
        "  mode=inline  offset=0x00001234  proc=fire\\rfox[1]@0x00000000"
    )
    assert lines[1] == "total: 1 finding"
    # the matrix row is one line too, its width taken from the escaped label
    assert lines[5].startswith("I\\n1   No")
    assert len(lines) == 6
    assert all(c.isprintable() for line in lines for c in line)
