"""Synthetic corpus generation: determinism, token freedom, ground truth."""

import json

import pytest

from memsift import (
    FabricationPlan,
    MemoryImage,
    PlannedImage,
    ProcessMap,
    builtin_templates,
    fabricate,
    load_manifest,
    load_plan,
    save_plan,
    scan_image,
    table1_preset,
    template_by_id,
)
from memsift.errors import (
    DuplicateLabelError,
    NonMonotonicStepError,
    OverlapError,
    PlacementOutOfBoundsError,
)
from memsift.fabricator import BLOCK_SIZE, MIN_PLACEMENT_GAP, _EXCLUDED, _filler_block

from oracles import FORBIDDEN_TOKENS, has_token
from plans import SMALL_PMAP, small_plan


def _plan_of(*images: PlannedImage) -> FabricationPlan:
    return FabricationPlan(image_size=64 * 1024, seed=1, images=images)


class TestTemplates:
    def test_eight_templates_exist(self):
        ids = [t.template_id for t in builtin_templates()]
        assert ids == [
            "sonicwall-inline", "facebook-ff-inline", "facebook-gc-adjacent",
            "gmail-ff-cookie-inline", "gmail-gc-adjacent", "irctc-inline",
            "sbi-gc-inline", "sbi-ff-isolated",
        ]

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            template_by_id("no-such-template")

    def test_render_has_nul_guards(self):
        for t in builtin_templates():
            data = t.render()
            assert data[0] == 0 and data[-1] == 0
            assert len(data) == t.byte_length

    def test_every_template_scans_to_its_expectation(self, tmp_path):
        # the whole point of a template: planted bytes produce exactly
        # the declared findings, whole (decoded value, snippet and value
        # offsets included), amid filler
        for t in builtin_templates():
            plan = FabricationPlan(
                image_size=16384, seed=1,
                images=(PlannedImage("x", 2, "", ((t.template_id, 4096),)),),
            )
            result = fabricate(plan, tmp_path / t.template_id)
            truth = result.ground_truth["x"]
            assert len(truth) == len(t.expected), t.template_id
            image = MemoryImage.from_file(result.image_paths[0], label="x")
            assert tuple(scan_image(image)) == truth, t.template_id


class TestPlanValidation:
    def test_placement_must_fit(self):
        plan = FabricationPlan(
            image_size=4096, seed=1,
            images=(PlannedImage("A", 2, "", (("irctc-inline", 3000),)),),
        )
        with pytest.raises(PlacementOutOfBoundsError):
            plan.validate()

    def test_placements_too_close_rejected(self):
        t = template_by_id("sonicwall-inline")
        second = 100 + t.byte_length + MIN_PLACEMENT_GAP - 1
        plan = FabricationPlan(
            image_size=1 << 20, seed=1,
            images=(PlannedImage("A", 2, "", (
                ("sonicwall-inline", 100),
                ("sonicwall-inline", second),
            )),),
        )
        with pytest.raises(OverlapError) as err:
            plan.validate()
        assert "sonicwall-inline" in str(err.value)

    def test_gap_exactly_at_minimum_accepted(self):
        t = template_by_id("sonicwall-inline")
        second = 100 + t.byte_length + MIN_PLACEMENT_GAP
        plan = FabricationPlan(
            image_size=1 << 20, seed=1,
            images=(PlannedImage("A", 2, "", (
                ("sonicwall-inline", 100),
                ("sonicwall-inline", second),
            )),),
        )
        plan.validate()

    def test_bad_density_rejected(self):
        with pytest.raises(ValueError):
            FabricationPlan(image_size=4096, seed=1, images=(), printable_density=1.0)

    @pytest.mark.parametrize("label", [
        "", ".", "..", "../evil", "sub/A", "/abs/A",
        "a\tb", "a\nb", "a\rb", "# A", "a\0b",
    ])
    def test_label_must_be_a_plain_file_name(self, label):
        # each would write outside the output directory, or leave a
        # manifest that does not load back with the same rows
        plan = _plan_of(PlannedImage(label, 2, "", ()))
        with pytest.raises(ValueError, match="label"):
            plan.validate()

    @pytest.mark.parametrize("description", ["a\tb", "a\nb", "a\r\nb", "end\n"])
    def test_step_description_must_fit_one_field(self, description):
        plan = _plan_of(PlannedImage("A", 2, description, ()))
        with pytest.raises(ValueError, match="step description"):
            plan.validate()

    @pytest.mark.parametrize("session", [("Mozilla\nFirefox", "Gmail"), ("Chrome", "a\tb")])
    def test_session_meta_must_fit_the_directive_line(self, session):
        plan = FabricationPlan(image_size=4096, seed=1, images=(), session_meta=session)
        with pytest.raises(ValueError, match="session_meta"):
            plan.validate()

    def test_repeated_label_rejected(self):
        plan = _plan_of(
            PlannedImage("A", 2, "", ()), PlannedImage("A", 4, "", ())
        )
        with pytest.raises(DuplicateLabelError):
            plan.validate()

    @pytest.mark.parametrize("second_step", [2, 1])
    def test_step_index_must_increase(self, second_step):
        plan = _plan_of(
            PlannedImage("A", 2, "", ()), PlannedImage("B", second_step, "", ())
        )
        with pytest.raises(NonMonotonicStepError):
            plan.validate()

    def test_plain_labels_and_free_text_accepted(self):
        _plan_of(
            PlannedImage("Img 1", -3, "", ()),
            PlannedImage("a.b-c_#", 0, "step two: # not a comment", ()),
        ).validate()


def test_plan_save_load_round_trip(tmp_path):
    plan = small_plan()
    p = tmp_path / "plan.json"
    save_plan(plan, p)
    assert load_plan(p) == plan


class TestFiller:
    def test_deterministic(self):
        a = _filler_block(1, 2, 3, 8192, 0.3)
        b = _filler_block(1, 2, 3, 8192, 0.3)
        assert a == b
        assert _filler_block(1, 2, 4, 8192, 0.3) != a

    def test_density_controls_printable_fraction(self):
        for density in (0.1, 0.7):
            block = _filler_block(9, 0, 0, 1 << 16, density)
            frac = sum(0x20 <= b <= 0x7E for b in block) / len(block)
            assert abs(frac - density) < 0.02

    def test_token_check_both_encodings(self):
        assert has_token(b"xx irctc.co.in yy")
        assert has_token(b"\x00" + "pass".encode("utf-16-le"))
        assert not has_token(b"nothing of note")

    def test_every_token_holds_an_excluded_byte(self):
        # why filler needs no screen: a token anywhere outside the
        # templates would need a byte that only filler could supply
        assert FORBIDDEN_TOKENS
        for token in FORBIDDEN_TOKENS:
            assert set(token) & set(_EXCLUDED), token

    def test_filler_never_draws_an_excluded_byte(self):
        block = _filler_block(9, 0, 0, 1 << 20, 0.7)
        assert not set(block) & set(_EXCLUDED)


class TestFabricate(object):
    def test_outputs_exist(self, small_corpus):
        plan, result = small_corpus
        assert result.manifest_path.is_file()
        assert result.process_map_path.is_file()
        assert result.ground_truth_path.is_file()
        for p in result.image_paths:
            assert p.stat().st_size == plan.image_size

    def test_manifest_loads_with_session(self, small_corpus):
        plan, result = small_corpus
        man = load_manifest(result.manifest_path)
        assert man.labels() == ["A", "B", "C"]
        assert man.session_meta == plan.session_meta

    def test_ground_truth_file_mirrors_memory(self, small_corpus):
        _plan, result = small_corpus
        doc = json.loads(result.ground_truth_path.read_text())
        by_label = {img["label"]: img["findings"] for img in doc["images"]}
        for label, findings in result.ground_truth.items():
            assert len(by_label[label]) == len(findings)
            for fd, f in zip(by_label[label], findings):
                assert fd["app_id"] == f.app_id
                assert fd["offset"] == f.offset
                assert fd["password_raw"] == f.password_raw

    def test_byte_deterministic(self, tmp_path):
        plan = small_plan(seed=77)
        r1 = fabricate(plan, tmp_path / "one")
        r2 = fabricate(plan, tmp_path / "two")
        for p1, p2 in zip(r1.image_paths, r2.image_paths):
            assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_filler_but_not_truth(self, tmp_path):
        r1 = fabricate(small_plan(seed=1), tmp_path / "one")
        r2 = fabricate(small_plan(seed=2), tmp_path / "two")
        assert r1.image_paths[0].read_bytes() != r2.image_paths[0].read_bytes()
        assert r1.ground_truth == r2.ground_truth

    def test_filler_is_token_free_outside_placements(self, small_corpus):
        plan, result = small_corpus
        by_label = {img.label: img for img in plan.images}
        for path in result.image_paths:
            img = by_label[path.stem]
            data = bytearray(path.read_bytes())
            for tid, off in img.placements:
                t = template_by_id(tid)
                data[off : off + t.byte_length] = bytes(t.byte_length)
            assert not has_token(bytes(data) + b"\x00")

    def test_scan_equals_ground_truth(self, small_corpus):
        plan, result = small_corpus
        pmap = ProcessMap(SMALL_PMAP)
        for path in result.image_paths:
            img = MemoryImage.from_file(path, label=path.stem)
            assert tuple(scan_image(img, process_map=pmap)) == result.ground_truth[path.stem]

    def test_template_across_block_seam(self, tmp_path):
        # The first block seam falls inside "pass" of the form body, so the
        # template is written half by one block and half by the next.
        t = template_by_id("sonicwall-inline")
        data = t.render()
        off = BLOCK_SIZE - data.index(b"&pass=") - 3
        plan = FabricationPlan(
            image_size=2 * BLOCK_SIZE + 4096, seed=5, printable_density=0.7,
            images=(PlannedImage("S", 2, "seam", (("sonicwall-inline", off),)),),
        )
        result = fabricate(plan, tmp_path)
        path = result.image_paths[0]
        image = bytearray(path.read_bytes())
        assert image[off : off + len(data)] == data
        findings = scan_image(MemoryImage.from_file(path, label="S"))
        assert tuple(findings) == result.ground_truth["S"]
        assert len(findings) == 1
        image[off : off + len(data)] = bytes(len(data))
        assert not has_token(bytes(image) + b"\x00")


class TestPreset:
    def test_thirteen_images_even_steps(self):
        plan = table1_preset(image_size=1 << 20)
        assert [img.label for img in plan.images] == [f"Img{n}" for n in range(1, 14)]
        assert [img.step_index for img in plan.images] == list(range(2, 27, 2))
        plan.validate()

    def test_browser_processes_present(self):
        plan = table1_preset(image_size=1 << 20)
        names = {e.name for e in plan.process_map}
        assert {"firefox.exe", "chrome.exe"} <= names

    def test_placements_fall_inside_browser_ranges(self):
        plan = table1_preset(image_size=1 << 20)
        pmap = ProcessMap(plan.process_map)
        for img in plan.images:
            for _tid, off in img.placements:
                owners = {a.process_name for a in pmap.lookup(off)}
                assert owners & {"firefox.exe", "chrome.exe"}

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            table1_preset(image_size=1 << 19)

    def test_empty_and_loaded_images(self):
        plan = table1_preset(image_size=1 << 20)
        n_placed = {img.label: len(img.placements) for img in plan.images}
        assert n_placed["Img1"] == 0
        assert n_placed["Img2"] == 0
        assert n_placed["Img4"] == 10
        assert n_placed["Img10"] == 0
