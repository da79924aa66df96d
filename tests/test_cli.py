"""Command line behavior, argument by argument."""

import json

import pytest

from memsift import load_report
from memsift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    code = main(["fabricate", "--preset", "table1", "--image-size", "2M",
                 "--out", str(out)])
    assert code == 0
    return out


class TestStrings:
    def test_offset_colon_text_lines(self, capsys, tmp_path):
        p = tmp_path / "img.raw"
        p.write_bytes(b"\x00\x01hello=world\x02\x03wide".encode() if False else
                      b"\x00\x01hello=world\x02\x03" + "wide".encode("utf-16-le"))
        code, out, err = run(capsys, "strings", str(p))
        assert code == 0
        assert "2:hello=world" in out.splitlines()
        assert "15:wide" in out.splitlines()

    def test_min_len_flag(self, capsys, tmp_path):
        p = tmp_path / "img.raw"
        p.write_bytes(b"\x00abcd\x00abcdefgh\x00")
        code, out, _ = run(capsys, "strings", str(p), "--min-len", "8")
        assert code == 0
        assert out.splitlines() == ["6:abcdefgh"]

    def test_zero_length_file_fails_with_name(self, capsys, tmp_path):
        p = tmp_path / "empty.raw"
        p.write_bytes(b"")
        code, _out, err = run(capsys, "strings", str(p))
        assert code == 1
        assert "empty.raw" in err

    def test_out_file(self, capsys, tmp_path):
        p = tmp_path / "img.raw"
        p.write_bytes(b"\x00stashed\x00")
        dest = tmp_path / "strings.txt"
        code, out, _ = run(capsys, "strings", str(p), "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text() == "1:stashed\n"


class TestScan:
    def test_manifest_scan_report(self, capsys, corpus_dir, tmp_path):
        dest = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "scan", str(corpus_dir / "manifest.tsv"),
            "--process-map", str(corpus_dir / "process_map.tsv"),
            "--deterministic", "--out", str(dest),
        )
        assert code == 0
        doc = load_report(dest.read_text())
        assert [img["label"] for img in doc["images"]] == [f"Img{n}" for n in range(1, 14)]
        assert doc["matrix"]["cells"]["Img4"] == [
            "Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "Yes", "No", "Yes",
        ]
        assert "generated_at" not in doc

    def test_single_image_scan(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "scan", str(corpus_dir / "Img4.img"), "--deterministic"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["images"][0]["label"] == "Img4"
        apps = {f["app_id"] for f in doc["images"][0]["findings"]}
        assert "sonicwall" in apps and "facebook" in apps

    def test_zero_findings_still_exit_zero(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "scan", str(corpus_dir / "Img1.img"), "--deterministic"
        )
        assert code == 0
        assert json.loads(out)["images"][0]["findings"] == []

    def test_text_format_matches_json_count(self, capsys, corpus_dir):
        code, text_out, _ = run(
            capsys, "scan", str(corpus_dir / "Img5.img"), "--deterministic",
            "--format", "text",
        )
        assert code == 0
        code, json_out, _ = run(
            capsys, "scan", str(corpus_dir / "Img5.img"), "--deterministic"
        )
        doc = json.loads(json_out)
        n = len(doc["images"][0]["findings"])
        assert f"total: {n} findings" in text_out

    def test_deterministic_runs_byte_identical(self, capsys, corpus_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for dest in (a, b):
            code, _, _ = run(
                capsys, "scan", str(corpus_dir / "manifest.tsv"),
                "--deterministic", "--out", str(dest),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_target_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", str(tmp_path / "nope.tsv"))
        assert code == 1
        assert "nope.tsv" in err

    @pytest.mark.parametrize("name, data", [
        ("text.img", b"uName=u1&pass=p1\tjunk\n" + b"\x00" * 64),
        # a manifest is told by its name, never by its content
        ("corpus.txt", b"Img4\t4\tlogged in\tImg4.img\n"),
    ], ids=["text-image", "manifest-named-txt"])
    def test_any_other_name_scans_as_an_image(self, capsys, tmp_path, name, data):
        target = tmp_path / name
        target.write_bytes(data)
        code, out, err = run(capsys, "scan", str(target), "--deterministic")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert "manifest" not in doc
        assert [img["label"] for img in doc["images"]] == [target.stem]

    def test_broken_manifest_reports_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.tsv"
        bad.write_text("A\tnot-a-number\tx\tmissing.raw\n")
        code, _, err = run(capsys, "scan", str(bad))
        assert code == 1
        assert "not-a-number" in err or "line 1" in err


    @pytest.mark.parametrize("flag", [None, "--process-map", "--catalog"])
    def test_input_that_is_not_utf8_is_named(self, capsys, corpus_dir, tmp_path, flag):
        bad = tmp_path / "X.tsv"
        bad.write_bytes(b"abc\xff\xfe\0def")
        argv = [str(bad)] if flag is None else [str(corpus_dir / "Img4.img"), flag, str(bad)]
        code, out, err = run(capsys, "scan", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}:1: ")

    @pytest.mark.parametrize("flag", ["--process-map", "--catalog"])
    def test_malformed_line_names_its_own_file(self, capsys, corpus_dir, tmp_path, flag):
        good_map = corpus_dir / "process_map.tsv"
        bad = tmp_path / "bad.tsv"
        bad.write_text("# header\n1\tx\t0x10\n")
        code, out, err = run(capsys, "scan", str(corpus_dir / "Img4.img"),
                             "--process-map", str(good_map), flag, str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}:2: expected 5 fields, got 3\n"


class TestOptionRanges:
    @pytest.mark.parametrize("argv, message", [
        (["scan", "--window", "-5"], "window must be at least 0"),
        (["scan", "--min-len", "0"], "min_len must be at least 1"),
        (["strings", "--cap", "0"], "cap must be >= min_len"),
        (["scan", "--min-len", "5000"], "min_len must be at most 4096"),
        (["strings", "--min-len", "0"], "min_len must be at least 1"),
    ])
    def test_out_of_range_option_is_a_usage_error(
        self, capsys, corpus_dir, tmp_path, argv, message
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(corpus_dir / "Img4.img"), *argv[1:], "--out", str(out)])
        assert exc.value.code == 2
        _out, err = capsys.readouterr()
        assert f"usage: memsift {argv[0]}" in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--preset", "table1", "--density", "1.0"], "printable_density must be in [0, 1)"),
        (["--preset", "table1", "--density", "-0.2"], "printable_density must be in [0, 1)"),
        (["--preset", "table1", "--image-size", "512K"], "at least a 1 MiB image"),
        (["--plan", "PLAN", "--image-size", "1M"], "apply only to --preset"),
        (["--plan", "PLAN", "--seed", "3"], "apply only to --preset"),
        (["--plan", "PLAN", "--density", "0.3"], "apply only to --preset"),
        (["--preset", "table1", "--image-size", "1M", "--seed", "-1"],
         "seed must be non-negative"),
    ])
    def test_fabricate_option_is_a_usage_error(self, capsys, tmp_path, argv, message):
        from memsift import FabricationPlan, save_plan

        plan = tmp_path / "plan.json"
        save_plan(FabricationPlan(image_size=64 * 1024, seed=1, images=()), plan)
        out = tmp_path / "out"
        argv = [str(plan) if a == "PLAN" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(["fabricate", *argv, "--out", str(out)])
        assert exc.value.code == 2
        _out, err = capsys.readouterr()
        assert "usage: memsift fabricate" in err
        assert message in err
        assert not out.exists()


class TestMatrix:
    def test_rendered_from_report(self, capsys, corpus_dir, tmp_path):
        dest = tmp_path / "report.json"
        run(
            capsys, "scan", str(corpus_dir / "manifest.tsv"),
            "--process-map", str(corpus_dir / "process_map.tsv"),
            "--deterministic", "--out", str(dest),
        )
        code, out, _ = run(capsys, "matrix", str(dest))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("image")
        img3 = next(ln for ln in lines if ln.startswith("Img3 "))
        assert img3.split()[1:] == ["Yes", "Yes"] + ["No"] * 8

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "no matrix"),
        ({"images": [{"label": "A"}]}, "no matrix"),
        ({"matrix": {"rows": ["A"], "columns": [["irctc", "MF"], ["irctc", "GC"]],
                     "cells": {"A": ["Yes"]}}},
         "matrix cells for 'A' must be one Yes or No per column"),
        ({"matrix": {"rows": ["A"], "columns": [["irctc"]], "cells": {"A": ["No"]}}},
         "matrix columns must be [app, browser] string pairs"),
    ])
    def test_malformed_report_is_an_error_naming_the_file(
        self, capsys, tmp_path, doc, message
    ):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "matrix", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert message in err


class TestAttribute:
    def test_lookup_and_miss(self, capsys, corpus_dir):
        pmap = corpus_dir / "process_map.tsv"
        code, out, _ = run(capsys, "attribute", str(pmap), "0x30000", "0x5000")
        assert code == 0
        lines = out.splitlines()
        assert "firefox.exe[1532]" in lines[0]
        assert lines[1].endswith("no owner")

    @pytest.mark.parametrize("offset, message", [
        ("-16", "offset must be non-negative: '-16'"),
        ("-0x10", "offset must be non-negative: '-0x10'"),
        ("zz", "not an offset: 'zz'"),
        ("1.5", "not an offset: '1.5'"),
    ])
    def test_bad_offset_is_a_usage_error(self, capsys, corpus_dir, offset, message):
        pmap = corpus_dir / "process_map.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["attribute", str(pmap), "0x30000", "--", offset])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage: memsift attribute" in err
        assert message in err

    def test_decimal_and_zero_offsets(self, capsys, corpus_dir):
        pmap = corpus_dir / "process_map.tsv"
        code, out, _ = run(capsys, "attribute", str(pmap), str(0x30000), "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("0x00030000: firefox.exe[1532]")
        assert lines[-1].startswith("0x00000000: ")


class TestFabricate:
    def test_preset_writes_everything(self, corpus_dir):
        assert (corpus_dir / "manifest.tsv").is_file()
        assert (corpus_dir / "process_map.tsv").is_file()
        assert (corpus_dir / "ground_truth.json").is_file()
        assert len(list(corpus_dir.glob("*.img"))) == 13

    def test_overlapping_plan_fails_naming_both(self, capsys, tmp_path):
        from memsift import FabricationPlan, PlannedImage, save_plan

        plan = FabricationPlan(
            image_size=64 * 1024, seed=1,
            images=(PlannedImage("X", 2, "bad", (
                ("sonicwall-inline", 0x1000), ("irctc-inline", 0x1800),
            )),),
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        code, _, err = run(capsys, "fabricate", "--plan", str(path),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert "sonicwall-inline" in err and "irctc-inline" in err

    @pytest.mark.parametrize("doc, message", [
        ({"image_size": 65536, "seed": 1}, "lacks key 'images'"),
        ({"image_size": 65536, "seed": 1, "images": [{"label": "A"}]}, "lacks key"),
        ({"image_size": 65536, "seed": 1, "images": 3}, "malformed plan"),
        ({"image_size": "big", "seed": 1, "images": []}, "malformed plan"),
        ([], "malformed plan"),
        # a bad value inside a plan file is the file's fault, not a usage error
        ({"image_size": 65536, "seed": 1, "printable_density": 1.5, "images": []},
         "printable_density must be in [0, 1)"),
        # numbers must be JSON integers, as save_plan writes them
        ({"image_size": 65536.9, "seed": 1, "images": []},
         "malformed plan: 65536.9 is not an integer"),
        ({"image_size": 65536, "seed": True, "images": []},
         "malformed plan: True is not an integer"),
        ({"image_size": 65536, "seed": 1,
          "images": [{"label": "A", "step_index": "2", "placements": []}]},
         "malformed plan: '2' is not an integer"),
        ({"image_size": 65536, "seed": 1, "images": [
            {"label": "A", "step_index": 2, "placements": [["sonicwall-inline", 4096.5]]}]},
         "malformed plan: 4096.5 is not an integer"),
        ({"image_size": 65536, "seed": 1, "process_map": [[1, "a", 0, 256.0, 0]], "images": []},
         "malformed plan: 256.0 is not an integer"),
    ])
    def test_malformed_plan_is_an_error_naming_the_file(self, capsys, tmp_path, doc, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "fabricate", "--plan", str(path),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert message in err

    @pytest.mark.parametrize("change, message", [
        ({"seed": -5}, "seed must be non-negative"),
        ({"process_map": [[1, "a\tb", 0, 0x100, 0]]}, "process name 'a\\tb' holds a tab"),
        ({"process_map": [[1, "a", 0x200, 0x100, 0]]}, "range 0x200..0x100 is inverted"),
        ({"process_map": [[-1, "a", 0, 0x100, 0]]}, "negative pid -1"),
        ({"session_meta": ["Firefox", "Gmail", "extra"]}, "not a (browser, application) pair"),
        ({"session_meta": "FG"}, "'FG' is not a (browser, application) pair"),
        ({"session_meta": [" Firefox ", "Gmail "]}, "' Firefox ' has space at an end"),
    ], ids=["negative-seed", "tab-in-name", "inverted-range", "negative-pid",
            "three-session-fields", "session-string", "session-padded"])
    def test_bad_plan_value_writes_nothing(self, capsys, tmp_path, change, message):
        doc = {"image_size": 65536, "seed": 1,
               "images": [{"label": "A", "step_index": 2,
                           "placements": [["irctc-inline", 4096]]}]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**doc, **change}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "fabricate", "--plan", str(path), "--out", str(out))
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("labels, message", [
        (("../evil",), "label '../evil'"),
        (("A", "A"), "duplicate label 'A'"),
        (("a\tb",), "label 'a\\tb'"),
        (("",), "label ''"),
    ])
    def test_plan_that_breaks_the_corpus_writes_nothing(self, capsys, tmp_path, labels, message):
        from memsift import FabricationPlan, PlannedImage, save_plan

        plan = FabricationPlan(
            image_size=64 * 1024, seed=1,
            images=tuple(PlannedImage(lb, 2 * (i + 1), "", ()) for i, lb in enumerate(labels)),
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        out = tmp_path / "sub" / "out"
        code, _, err = run(capsys, "fabricate", "--plan", str(path), "--out", str(out))
        assert code == 1
        assert message in err
        assert not (tmp_path / "sub").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("memsift ")


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
