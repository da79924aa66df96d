"""Report document assembly and rendering."""

import json

from memsift import (
    HIGH,
    Attribution,
    CredentialFinding,
    MatchMode,
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
        app_id="irctc", username="ipsita689",
        password_raw="durga21", password_decoded="durga21",
        match_mode=MatchMode.INLINE, offset=0x1234, confidence=HIGH,
        context_snippet="userName=ipsita689&password=durga21",
        attributions=(Attribution(1532, "firefox.exe", 0x00401234),),
        username_offset=0x1210, password_offset=0x1240,
    )
    base.update(over)
    return CredentialFinding(**base)


def _report(findings_by_image, deterministic=True):
    """The report ``memsift scan`` builds for a ``{label: findings}`` mapping."""
    matrix = build_presence_matrix(findings_by_image)
    return build_report(findings_by_image, matrix, ScanOptions(), deterministic=deterministic)


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
    doc = _report({"I1": [_finding()]})
    assert list(doc.keys()) == ["version", "options", "images", "matrix"]
    assert doc["images"][0]["label"] == "I1"
    assert doc["matrix"]["cells"]["I1"][6] == "Yes"  # irctc/MF via attribution


def test_built_matrix_is_the_matrix_a_report_reads_back(small_corpus):
    """The matrix a scan builds is the one its report stores: it passes the
    check for matrices read from files, and a JSON round trip keeps it."""
    _plan, result = small_corpus
    manifest = load_manifest(result.manifest_path)
    pmap = load_process_map(result.process_map_path)
    findings = scan_manifest(manifest, process_map=pmap)
    matrix = build_presence_matrix(findings, manifest.session_meta)
    doc = build_report(findings, matrix, ScanOptions(), manifest=manifest, deterministic=True)
    assert report_matrix(json.loads(render_json(doc))) == matrix
    assert any("Yes" in cells for cells in matrix["cells"].values())


def test_deterministic_omits_timestamp():
    with_ts = _report({}, deterministic=False)
    without = _report({})
    assert "generated_at" in with_ts
    assert "generated_at" not in without


def test_render_json_is_stable():
    doc = _report({"I1": [_finding()]})
    assert render_json(doc) == render_json(json.loads(render_json(doc)))


def test_text_and_json_carry_the_same_findings():
    doc = _report(
        {"I1": [_finding(), _finding(offset=0x2000, app_id="sbi",
                                     password_raw="37f08c5d00de89cb3c26e50200ee7242",
                                     password_decoded=None)]},
    )
    text = render_text(doc)
    n_json = sum(len(img["findings"]) for img in doc["images"])
    body = [ln for ln in text.splitlines() if ln.startswith("I1  app=")]
    assert len(body) == n_json == 2
    assert "total: 2 findings" in text


def test_text_marks_encrypted_values():
    doc = _report(
        {"I1": [_finding(password_raw="37f08c5d00de89cb3c26e50200ee7242",
                         password_decoded=None)]},
    )
    assert "ENCRYPTED(37f08c5d00de89cb3c26e50200ee7242)" in render_text(doc)


def test_text_shows_attribution():
    text = render_text(_report({"I1": [_finding()]}))
    assert "firefox.exe[1532]" in text


def test_matrix_table_shape():
    matrix = build_presence_matrix({"I1": [_finding()], "I2": []})
    table = render_matrix_table(matrix)
    lines = table.splitlines()
    assert lines[0].split()[0] == "image"
    assert len(lines) == 2 + 2  # header, rule, two rows
    assert "irctc/MF" in lines[0]
    i1 = lines[2].split()
    assert i1[0] == "I1" and "Yes" in i1


def test_empty_matrix_renders_header_only():
    matrix = build_presence_matrix({})
    lines = render_matrix_table(matrix).splitlines()
    assert len(lines) == 2


def test_text_escapes_every_value_it_cannot_print():
    f = _finding(
        username="u\x1b[2J", password_raw="p%0A\\",
        password_decoded="p\n\\", attributions=(Attribution(1, "fire\rfox", 0),),
    )
    doc = _report({"I\n1": [f]})
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
