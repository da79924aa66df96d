"""Command line behavior, argument by argument."""

import inspect
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from memsift import ScanOptions, save_plan
from memsift.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def memsift_child(*argv, env_extra=(), **kwargs):
    """Run ``python -m memsift`` on the sources under src/, with the
    environment variables ``env_extra`` set too."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **dict(env_extra))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, timeout=120, **kwargs
    )


# Runs `python -m memsift` with the arguments after -c, then prints every
# loaded module's name.
_RUN_THEN_LIST_MODULES = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('memsift', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as done:\n"
    "    assert not done.code, done.code\n"
    "print(*sys.modules)\n"
)


def modules_loaded_by(*argv):
    """The modules a fresh `python -m memsift` process loads for ``argv``."""
    child = memsift_child("-c", _RUN_THEN_LIST_MODULES, *argv)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.decode().split())


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _image(label, step=2, description="", placements=()):
    """One image of a plan file, as ``save_plan`` writes it."""
    return {"label": label, "step_index": step, "step_description": description,
            "placements": list(placements)}


def _plan_doc(images):
    """A plan file's fields, as ``save_plan`` writes them, written by hand
    so that a plan no ``FabricationPlan`` would accept can be saved."""
    return {"image_size": 65536, "seed": 1, "printable_density": 0.3,
            "session_meta": None, "process_map": None, "images": images}


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

    def test_stdout_and_file_get_the_same_bytes(self, capsys, tmp_path):
        p = tmp_path / "img.raw"
        p.write_bytes(b"\x00" * 9 + b"first\x00" + "wide=1".encode("utf-16-le") + b"x" * 300)
        dest = tmp_path / "strings.txt"
        argv = ["strings", str(p), "--chunk-size", "64", "--cap", "100"]
        assert run(capsys, *argv, "--out", str(dest)) == (0, "", "")
        want = dest.read_bytes()
        assert want.count(b"\n") == 5
        assert run(capsys, *argv, "--out", "-") == (0, want.decode(), "")
        child = memsift_child("-m", "memsift", *argv, "--out", "-")
        assert (child.returncode, child.stdout) == (0, want)

    def test_text_only_stdout_takes_the_lines_as_text(self, tmp_path):
        """A stdout with no byte buffer under it, such as an io.StringIO,
        gets the text of the --out file's bytes, written buffer by buffer
        as they are carved."""
        p = tmp_path / "img.raw"
        p.write_bytes(b"\x00" * 9 + b"first\x00" + "wide=1".encode("utf-16-le") + b"x" * 300)
        dest = tmp_path / "strings.txt"
        argv = ["strings", str(p), "--chunk-size", "64", "--cap", "100"]
        assert main([*argv, "--out", str(dest)]) == 0
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        captured = Recording()
        with redirect_stdout(captured):
            assert main(argv) == 0
        assert captured.getvalue() == dest.read_bytes().decode()
        assert len(writes) > 1

    def test_loads_only_the_carver(self, tmp_path):
        """`python -m memsift strings` imports none of the scan, report or
        fabricate modules."""
        p = tmp_path / "img.raw"
        p.write_bytes(b"\x00uName=a&pass=b\x00")
        loaded = modules_loaded_by("strings", str(p), "--out", str(tmp_path / "s"))
        assert (tmp_path / "s").read_bytes() == b"1:uName=a&pass=b\n"
        assert {"memsift.cli", "memsift.carver"} <= loaded
        heavy = {"scanner", "signatures", "report", "fabricator", "procmap", "decoding"}
        assert loaded.isdisjoint(f"memsift.{name}" for name in heavy)


def test_only_strings_and_fabricate_load_numpy(small_corpus, tmp_path):
    """Scanning a fabricated corpus, rendering its matrix, looking offsets
    up and printing the version leave numpy unloaded; the full carve
    behind `memsift strings` and the fabricator load it.  No command loads
    dataclasses, a deterministic scan leaves datetime unloaded too, and
    `memsift strings` loads neither json nor the report module."""
    plan, result = small_corpus
    report = tmp_path / "report.json"
    save_plan(plan, tmp_path / "plan.json")
    scan = ("scan", str(result.manifest_path), "--process-map", str(result.process_map_path))
    for argv, numpy in (
        ((*scan, "--out", str(report)), False),
        ((*scan, "--deterministic", "--out", str(tmp_path / "det.json")), False),
        (("matrix", str(report)), False),
        (("attribute", str(result.process_map_path), "0x30000"), False),
        (("--version",), False),
        (("strings", str(result.image_paths[0]), "--out", str(tmp_path / "s")), True),
        (("fabricate", "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path / "f")), True),
    ):
        loaded = modules_loaded_by(*argv)
        assert ("numpy" in loaded) is numpy, argv
        assert "dataclasses" not in loaded, argv
        if "--deterministic" in argv:
            assert "datetime" not in loaded, argv
        if argv[0] == "strings":
            assert loaded.isdisjoint({"json", "memsift.report"}), argv
    assert json.loads(report.read_text())["images"]


class TestClosedPipe:
    """A reader that stops early (`| head`) is no failure of the command:
    exit 0 and nothing on stderr."""

    @pytest.fixture
    def image(self, tmp_path):
        # Its strings run to 3.4 MB, far more than a pipe holds.
        p = tmp_path / "rep.img"
        p.write_bytes(b"abcdefgh\0" * 250_000)
        return p

    @staticmethod
    def _child(*argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.Popen(
            [sys.executable, "-m", "memsift", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    def test_strings_into_head_1(self, image):
        child = self._child("strings", str(image))
        assert child.stdout.readline() == b"0:abcdefgh\n"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=120), err) == (0, b"")

    def test_scan_text_into_head_0(self, image):
        child = self._child("scan", str(image), "--format", "text")
        child.stdout.close()  # before the report is written
        err = child.stderr.read()
        assert (child.wait(timeout=120), err) == (0, b"")


class TestScan:
    def test_manifest_scan_report(self, capsys, corpus_dir, tmp_path):
        dest = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "scan", str(corpus_dir / "manifest.tsv"),
            "--process-map", str(corpus_dir / "process_map.tsv"),
            "--deterministic", "--out", str(dest),
        )
        assert code == 0
        doc = json.loads(dest.read_text())
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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_stdout_gets_the_file_bytes_whatever_its_encoding(self, tmp_path, fmt):
        """A decoded password stdout's encoding cannot spell is still
        written, as the same UTF-8 bytes ``--out`` writes."""
        image = tmp_path / "euro.img"
        image.write_bytes(b"\x00" * 16 + b"uName=bob&pass=%E2%82%ACuro&digest=" + b"\x00" * 16)
        dest = tmp_path / "report"
        argv = ["-m", "memsift", "scan", str(image), "--deterministic", "--format", fmt]
        to_file = memsift_child(*argv, "--out", str(dest))
        assert (to_file.returncode, to_file.stderr) == (0, b"")
        assert "\u20acuro" in dest.read_text(encoding="utf-8")
        child = memsift_child(*argv, env_extra={"PYTHONIOENCODING": "latin-1"})
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout == dest.read_bytes()

    def test_missing_target_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", str(tmp_path / "nope.tsv"))
        assert code == 1
        assert "nope.tsv" in err

    @pytest.mark.parametrize("target, message", [
        ("DIR", "image file is not a regular file"),
        ("d.tsv", "manifest is not a regular file"),
        ("m.tsv", "image file is not a regular file"),
    ], ids=["image", "manifest", "manifest-row"])
    def test_directory_is_not_called_missing(self, capsys, tmp_path, target, message):
        for name in ("DIR", "d.tsv"):
            (tmp_path / name).mkdir()
        (tmp_path / "m.tsv").write_text("A\t2\tx\tDIR\n")
        code, out, err = run(capsys, "scan", str(tmp_path / target))
        assert (code, out) == (1, "")
        assert message in err and "not found" not in err

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

    @pytest.mark.parametrize("key", ["pässwort", "pass\x01x"])
    def test_catalog_key_outside_printable_ascii_names_its_line(
        self, capsys, corpus_dir, tmp_path, key
    ):
        bad = tmp_path / "c.tsv"
        bad.write_text(f"bank\tbenutzer\t{key}\tbank.de\tplaintext\n", encoding="utf-8")
        code, out, err = run(capsys, "scan", str(corpus_dir / "Img4.img"),
                             "--catalog", str(bad))
        assert (code, out) == (1, "")
        assert err == f"error: {bad}:1: bank: {key!r} is not non-empty printable ASCII\n"

    def test_text_report_escapes_what_it_cannot_print(self, capsys, tmp_path):
        # A decoded password that would colour the terminal and forge a
        # second report line.
        img = tmp_path / "forge.img"
        img.write_bytes(
            b"http://x/userLogin.html\0\0uName=bob&pass=a%1B%5B31mRED%0Afake"
            b"  app=x&digest=\0"
        )
        code, out, err = run(capsys, "scan", str(img), "--format", "text",
                             "--deterministic")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line.startswith("forge  app=sonicwall") for line in lines[:2]] == [True, False]
        assert "  password=a\\x1b[31mRED\\nfake  confidence=HIGH  " in lines[0]
        assert lines[1] == "total: 1 finding"
        assert all(c.isprintable() for c in out.replace("\n", ""))


class TestNumbers:
    """Numbers on the command line are ASCII digits: no underscore, no
    sign but a leading minus, no space, no other script's digits."""

    @pytest.mark.parametrize("argv, flag", [
        (["attribute", "MAP", "0x1_000"], "offset"),
        (["attribute", "MAP", "\u0664\u0660\u0669\u0666"], "offset"),
        (["strings", "IMG", "--chunk-size", "1_0K"], "--chunk-size"),
        (["scan", "IMG", "--chunk-size", "\u0661M"], "--chunk-size"),
        (["fabricate", "--preset", "table1", "--image-size", " 2M"], "--image-size"),
        (["strings", "IMG", "--min-len", "\u0664"], "--min-len"),
        (["scan", "IMG", "--min-len", "+4"], "--min-len"),
        (["strings", "IMG", "--cap", "4_096"], "--cap"),
        (["scan", "IMG", "--delta", " 64"], "--delta"),
        (["scan", "IMG", "--window", "1_000"], "--window"),
        (["fabricate", "--preset", "table1", "--seed", "\uff11"], "--seed"),
        (["fabricate", "--preset", "table1", "--density", "\u0660.\u0663"], "--density"),
        (["fabricate", "--preset", "table1", "--density", "+0.3"], "--density"),
        (["fabricate", "--preset", "table1", "--density", " 0.3"], "--density"),
        (["fabricate", "--preset", "table1", "--density", "3e-1"], "--density"),
        (["fabricate", "--preset", "table1", "--density", ".3"], "--density"),
    ])
    def test_is_a_usage_error_naming_the_flag(self, capsys, corpus_dir, tmp_path, argv, flag):
        paths = {"MAP": corpus_dir / "process_map.tsv", "IMG": corpus_dir / "Img4.img"}
        argv = [str(paths.get(a, a)) for a in argv]
        out = tmp_path / "out"
        if argv[0] != "attribute":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert f"usage: memsift {argv[0]}" in err
        assert f"argument {flag}: " in err
        assert not out.exists()

    def test_scan_help_states_the_scan_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        options = ScanOptions()
        assert f"bytes (default {options.delta})" in help_text
        assert f"window in bytes (default {options.window})" in help_text

    def test_fabricate_help_states_the_preset_defaults(self, capsys):
        from memsift import table1_preset
        from memsift.cli import _parse_size

        with pytest.raises(SystemExit):
            main(["fabricate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        defaults = {name: p.default
                    for name, p in inspect.signature(table1_preset).parameters.items()}
        size = re.search(r"preset image size \(default (\w+)\)", help_text)
        assert size and _parse_size(size[1]) == defaults["image_size"]
        assert f"preset RNG seed (default {defaults['seed']})" in help_text
        assert f"density in [0, 1) (default {defaults['printable_density']})" in help_text


class TestOptionRanges:
    @pytest.mark.parametrize("argv, message", [
        (["scan", "--window", "-5"], "window must be at least 0"),
        (["scan", "--min-len", "0"], "min_len must be at least 1"),
        (["strings", "--cap", "0"], "cap must be >= min_len"),
        (["scan", "--min-len", "5000"], "min_len must be at most 4096"),
        (["strings", "--min-len", "0"], "min_len must be at least 1"),
        # Past int64 these used to overflow in the carver.
        (["scan", "--window", "9223372036854775808"], "window must be at most 4294967296"),
        (["scan", "--delta", "99999999999999999999999"], "delta must be at most 4294967296"),
        (["scan", "--window", "4294967297"], "window must be at most 4294967296"),
        (["scan", "--chunk-size", "99999999999G"], "chunk_size must be at most 1073741824"),
        (["strings", "--chunk-size", "99999999999G"], "chunk_size must be at most 1073741824"),
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

    def test_prints_the_matrix_lines_of_the_text_report(self, capsys, small_corpus, tmp_path):
        _plan, result = small_corpus
        argv = ["scan", str(result.manifest_path), "--process-map",
                str(result.process_map_path), "--deterministic"]
        report = tmp_path / "report.json"
        assert run(capsys, *argv, "--out", str(report)) == (0, "", "")
        code, text, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        # the text report's findings end at a blank line, before its matrix
        findings, _, matrix_lines = text.partition("\n\n")
        assert findings.splitlines()[-1].startswith("total: ")
        assert run(capsys, "matrix", str(report)) == (0, matrix_lines, "")

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

    def test_process_name_is_escaped(self, capsys, tmp_path):
        """A name's control characters are printed as escapes, as in the
        text report, so a map cannot send escape sequences to the
        terminal."""
        pmap = tmp_path / "process_map.tsv"
        pmap.write_text("7\tev\x1b[31mil.exe\t0x1000\t0x2000\t0x400000\n")
        code, out, _ = run(capsys, "attribute", str(pmap), "0x1800")
        assert code == 0
        assert out == "0x00001800: ev\\x1b[31mil.exe[7] virt=0x00400800\n"

    def test_name_stdout_cannot_encode_is_written_as_utf8(self, tmp_path):
        pmap = tmp_path / "process_map.tsv"
        pmap.write_text("7\tcaf\u00e9\u20ac.exe\t0x1000\t0x2000\t0x400000\n",
                        encoding="utf-8")
        child = memsift_child("-m", "memsift", "attribute", str(pmap), "0x1800",
                              env_extra={"PYTHONIOENCODING": "latin-1"})
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout == "0x00001800: caf\u00e9\u20ac.exe[7] virt=0x00400800\n".encode()

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

    def test_summary_stdout_cannot_encode_is_written_as_utf8(self, tmp_path):
        out = tmp_path / "caf\u20ac"
        child = memsift_child("-m", "memsift", "fabricate", "--preset", "table1",
                              "--image-size", "1M", "--out", str(out),
                              env_extra={"PYTHONIOENCODING": "latin-1"})
        assert (child.returncode, child.stderr) == (0, b"")
        assert f"wrote 13 images under {out}\n".encode() in child.stdout

    def test_summary_goes_to_a_text_only_stdout(self, tmp_path):
        """A stdout with no byte buffer under it takes the summary as text."""
        captured = io.StringIO()
        with redirect_stdout(captured):
            code = main(["fabricate", "--preset", "table1", "--image-size", "1M",
                         "--out", str(tmp_path / "corpus")])
        assert code == 0
        assert captured.getvalue().startswith("wrote 13 images under ")
        assert captured.getvalue().endswith("ground_truth.json\n")

    def test_overlapping_plan_fails_naming_both(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_plan_doc(
            [_image("X", 2, "bad", [["sonicwall-inline", 0x1000], ["irctc-inline", 0x1800]])]
        )))
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
        # text fields must be JSON strings and the density a JSON number
        ({"images": [{"label": 5, "step_index": 2, "placements": []}]},
         "malformed plan: 5 is not a string"),
        ({"images": [{"label": "A", "step_index": 2, "step_description": ["x"],
                      "placements": []}]},
         "malformed plan: ['x'] is not a string"),
        ({"images": [{"label": "A", "step_index": 2, "placements": [[7, 4096]]}]},
         "malformed plan: 7 is not a string"),
        ({"process_map": [[1, 5, 0, 0x100, 0]]}, "malformed plan: 5 is not a string"),
        ({"printable_density": False}, "malformed plan: False is not a number"),
        ({"printable_density": "0.5"}, "malformed plan: '0.5' is not a number"),
    ], ids=["negative-seed", "tab-in-name", "inverted-range", "negative-pid",
            "three-session-fields", "session-string", "session-padded",
            "number-label", "list-description", "number-template", "number-process",
            "bool-density", "string-density"])
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
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_plan_doc(
            [_image(lb, 2 * (i + 1)) for i, lb in enumerate(labels)]
        )))
        out = tmp_path / "sub" / "out"
        code, _, err = run(capsys, "fabricate", "--plan", str(path), "--out", str(out))
        assert code == 1
        assert message in err
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("change, message", [
        ({"images": [_image("../evil")]}, "malformed plan: label '../evil' cannot name"),
        ({"images": [_image("a\tb")]}, "malformed plan: label 'a\\tb' holds a tab"),
        ({"images": [_image("A", 2), _image("A", 4)]}, "duplicate label 'A'"),
        ({"images": [_image("A", 2), _image("B", 2)]}, "step 2 does not increase past 2"),
        ({"images": [_image("A", 2, "a\tb")]},
         "malformed plan: step description 'a\\tb' holds a tab"),
        ({"images": [_image("A", 2, "", [["irctc-inline", 65000]])]},
         "A: irctc-inline at 65000 exceeds image size 65536"),
        ({"images": [_image("A", 2, "", [["irctc-inline", 4096], ["sbi-gc-inline", 6000]])]},
         "A: irctc-inline and sbi-gc-inline collide"),
        ({"images": [_image("A", 2, "", [["no-such-template", 4096]])]},
         "malformed plan: unknown template_id 'no-such-template'"),
        ({"session_meta": "FG"}, "malformed plan: session_meta 'FG' is not a (browser, application) pair"),
        ({"process_map": [[-1, "a", 0, 0x100, 0]]}, "negative pid -1"),
        # a misspelt key is refused, not read as a field left out
        ({"printable_densty": 0.9}, "malformed plan: unknown key 'printable_densty'"),
        ({"images": [{**_image("A", 2), "placement": [["irctc-inline", 4096]]}]},
         "malformed plan: unknown key 'placement'"),
    ], ids=["label-path", "label-tab", "repeated-label", "step-not-increasing",
            "description-tab", "out-of-bounds", "too-close", "unknown-template",
            "session-string", "negative-pid", "misspelt-density", "misspelt-placements"])
    def test_every_plan_defect_names_the_file(self, capsys, tmp_path, change, message):
        """Each defect is the plan file's fault: exit 1, not a usage
        error, with the file's name on stderr and nothing written."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**_plan_doc([_image("A", 2)]), **change}))
        out = tmp_path / "out"
        code, stdout, err = run(capsys, "fabricate", "--plan", str(path), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert not out.exists()


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
