"""Synthetic corpus generation: determinism, token freedom, ground truth."""

import json
import pickle
from hashlib import sha256

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
    InvalidOptionError,
    NonMonotonicStepError,
    OverlapError,
    PlacementOutOfBoundsError,
)
from memsift.fabricator import (
    BLOCK_SIZE, MIN_PLACEMENT_GAP, _EXCLUDED, _filler_block, _template,
)
from memsift.scanner import HIGH
from memsift.signatures import MatchMode

from oracles import FORBIDDEN_TOKENS, has_token
from plans import SMALL_PMAP, small_plan


# SHA-256 of the fabricator's outputs that draw no random numbers.
_PINNED_DIGESTS = {
    "sonicwall-inline":
        "89a7216941afdb925cac373ac0998c06ebf7b5db5f25408a5dca481991ae31d0",
    "facebook-ff-inline":
        "83cc36d5ed938f17962cdb49076ae35c6c2c183b689415698380ad5c7af5016c",
    "facebook-gc-adjacent":
        "e33943a1ae8c779af4eb42a0eab4a8e00474b5edacf1112f7cdf30239033744e",
    "gmail-ff-cookie-inline":
        "794b40ffd15ab4f89166e41dc87cd49dc7891d35e3e9f986c60b89196f9ecda8",
    "gmail-gc-adjacent":
        "ab530884182d4cee686702f93a9de3b612b20a08de08a79371511679e0b0b163",
    "irctc-inline":
        "f5d219468a8193bfc237e37dab3774153e2f2633d38957efa7a446c047241124",
    "sbi-gc-inline":
        "3b6d2b5bd718353f98d329052baf6d002ff8f740c166fbea1fa6d01f47af93a5",
    "sbi-ff-isolated":
        "0488509291a5d2e546c89e2817cfb12463617a9eb5e1df1641b75ec8b486ab48",
    "table1/ground_truth.json":
        "7101d152ae6b190fc2a6742b0887aadb50db7889e19640eb5a8e60d7ce957d05",
    "table1/manifest.tsv":
        "94a712fbd61bd2b7500791a788508927e6f2200720843a2e09e949829e10bfc2",
    "table1/process_map.tsv":
        "9a40c654d1dab13b306d6421c7efc518e730fa9856e03da3473a31c7d9c239fa",
    "small/ground_truth.json":
        "74c2ea3573fb9907b8900686feed86969056136b49c574b87470cbb0112ca481",
    "small/manifest.tsv":
        "0b2c45db731249f49f14ba04bc486ed2f6816e584e3d56dac53457ca78be9239",
    "small/process_map.tsv":
        "250e8984c22334cc4a3aead7c1eb6a5f48953bfa56930326e34f9398592dfb93",
}


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

    def test_expected_pairs_sit_at_their_offsets(self):
        """The ground truth read off the blocks, checked against the rendered
        bytes with no scan: each expected key and value is where it says,
        the byte after each value ends it, and each key is one its
        signature owns on that side."""
        for t in builtin_templates():
            data = t.render()
            assert t.expected, t.template_id
            for _, m in t.expected:
                sig = m.signature
                # A value block is followed by its NUL guard; a value inside
                # a block ends at the next field, cookie attribute or guard.
                ends = b"\0" if m.mode == MatchMode.ADJACENT else b"&;\0"
                for p, keys in (
                    (m.username, (*sig.username_keys, sig.username_marker)),
                    (m.password, sig.password_keys),
                ):
                    if p is None:
                        continue
                    assert p.key in keys, (t.template_id, p)
                    for text, at in ((p.key, p.key_offset), (p.value, p.value_offset)):
                        assert data.startswith(text.encode("ascii"), at), (t.template_id, p)
                    end = p.value_offset + len(p.value)
                    assert data[end : end + 1] in ends, (t.template_id, p)

    def test_locator_rejects_a_key_in_no_block(self):
        blocks = ((1, "uName=u&pwd=p"),)
        with pytest.raises(ValueError, match="'pass' sits in 0 places"):
            _template("t", blocks, ((HIGH, "sonicwall", "uName", "pass"),))

    @pytest.mark.parametrize("blocks", [
        ((1, "uName=u&pass=p"), (20, "pass=q")),  # two form bodies
        ((1, "uName=u&pass=p"), (20, "pass"), (30, "q")),  # a body and a key block
    ])
    def test_locator_rejects_a_key_in_two_places(self, blocks):
        with pytest.raises(ValueError, match="'pass' sits in 2 places"):
            _template("t", blocks, ((HIGH, "sonicwall", "uName", "pass"),))

    def test_outputs_match_pinned_digests(self, tmp_path):
        """What the fabricator makes without its random generator (each
        template's bytes, and each corpus's ground truth, manifest and
        process map) is pinned by SHA-256; the filler images are covered
        by ``test_byte_deterministic``."""
        got = {t.template_id: sha256(t.render()).hexdigest() for t in builtin_templates()}
        for name, plan in (
            ("table1", table1_preset(image_size=1 << 20, seed=7)),
            ("small", small_plan()),
        ):
            fabricate(plan, tmp_path / name)
            for f in ("ground_truth.json", "manifest.tsv", "process_map.tsv"):
                got[f"{name}/{f}"] = sha256((tmp_path / name / f).read_bytes()).hexdigest()
        assert got == _PINNED_DIGESTS

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
    """A plan is checked as it is built: no invalid plan exists."""

    def test_placement_must_fit(self):
        with pytest.raises(PlacementOutOfBoundsError):
            FabricationPlan(
                image_size=4096, seed=1,
                images=(PlannedImage("A", 2, "", (("irctc-inline", 3000),)),),
            )

    def test_placements_too_close_rejected(self):
        t = template_by_id("sonicwall-inline")
        second = 100 + t.byte_length + MIN_PLACEMENT_GAP - 1
        with pytest.raises(OverlapError) as err:
            FabricationPlan(
                image_size=1 << 20, seed=1,
                images=(PlannedImage("A", 2, "", (
                    ("sonicwall-inline", 100),
                    ("sonicwall-inline", second),
                )),),
            )
        assert "sonicwall-inline" in str(err.value)

    def test_gap_exactly_at_minimum_accepted(self):
        t = template_by_id("sonicwall-inline")
        second = 100 + t.byte_length + MIN_PLACEMENT_GAP
        FabricationPlan(
            image_size=1 << 20, seed=1,
            images=(PlannedImage("A", 2, "", (
                ("sonicwall-inline", 100),
                ("sonicwall-inline", second),
            )),),
        )

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
        with pytest.raises(ValueError, match="label"):
            _plan_of(PlannedImage(label, 2, "", ()))

    @pytest.mark.parametrize("description", ["a\tb", "a\nb", "a\r\nb", "end\n"])
    def test_step_description_must_fit_one_field(self, description):
        with pytest.raises(ValueError, match="step description"):
            _plan_of(PlannedImage("A", 2, description, ()))

    @pytest.mark.parametrize("session", [("Mozilla\nFirefox", "Gmail"), ("Chrome", "a\tb")])
    def test_session_meta_must_fit_the_directive_line(self, session):
        with pytest.raises(ValueError, match="session_meta"):
            FabricationPlan(image_size=4096, seed=1, images=(), session_meta=session)

    def test_repeated_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            _plan_of(PlannedImage("A", 2, "", ()), PlannedImage("A", 4, "", ()))

    @pytest.mark.parametrize("second_step", [2, 1])
    def test_step_index_must_increase(self, second_step):
        with pytest.raises(NonMonotonicStepError):
            _plan_of(PlannedImage("A", 2, "", ()), PlannedImage("B", second_step, "", ()))

    def test_every_way_of_building_runs_the_whole_check(self):
        plan = _plan_of(PlannedImage("A", 2, "", ()))
        twice = (PlannedImage("A", 2, "", ()), PlannedImage("A", 4, "", ()))
        # a pickle of a plan that no check let through
        unchecked = tuple.__new__(FabricationPlan, (64 * 1024, 1, twice, 0.3, None, None))
        pickled = pickle.dumps(unchecked)
        for build in (
            lambda: plan._replace(images=twice),
            lambda: FabricationPlan._make((64 * 1024, 1, twice)),
            lambda: pickle.loads(pickled),
        ):
            with pytest.raises(DuplicateLabelError):
                build()

    def test_range_checks_come_first(self):
        twice = (PlannedImage("A", 2, "", ()), PlannedImage("A", 4, "", ()))
        with pytest.raises(InvalidOptionError, match="seed must be non-negative"):
            FabricationPlan(image_size=4096, seed=-1, images=twice)

    @pytest.mark.parametrize("images, error, message", [
        ((("A", 2, []), ("A", 4, [])), DuplicateLabelError, "duplicate label 'A'"),
        ((("A", 2, []), ("B", 1, [])), NonMonotonicStepError, "step 1 does not increase past 2"),
        ((("A", 2, [["irctc-inline", 65000]]),),
         PlacementOutOfBoundsError, "A: irctc-inline at 65000 exceeds"),
        ((("A", 2, [["irctc-inline", 4096], ["irctc-inline", 6000]]),),
         OverlapError, "A: irctc-inline and irctc-inline collide"),
    ])
    def test_load_plan_keeps_the_type_and_names_the_file(self, tmp_path, images, error, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"image_size": 64 * 1024, "seed": 1, "images": [
            {"label": label, "step_index": step, "placements": placements}
            for label, step, placements in images
        ]}))
        with pytest.raises(error) as err:
            load_plan(path)
        assert str(err.value).startswith(f"{path}: {message}")

    def test_plain_labels_and_free_text_accepted(self):
        _plan_of(
            PlannedImage("Img 1", -3, "", ()),
            PlannedImage("a.b-c_#", 0, "step two: # not a comment", ()),
        )


def test_plan_save_load_round_trip(tmp_path):
    plan = small_plan()
    p = tmp_path / "plan.json"
    save_plan(plan, p)
    assert load_plan(p) == plan


@pytest.mark.parametrize("misspell", ["top-level", "image"])
def test_load_plan_refuses_an_unknown_key(tmp_path, misspell):
    """A misspelt key names no field: read as a field left out, it would
    fabricate at the default density or plant nothing in Img4."""
    path = tmp_path / "plan.json"
    save_plan(table1_preset(image_size=1 << 20, seed=3), path)
    doc = json.loads(path.read_text())
    if misspell == "top-level":
        key = "printable_densty"
        doc[key] = 0.9
    else:
        key = "placement"
        image = next(img for img in doc["images"] if img["label"] == "Img4")
        image[key], image["placements"] = image["placements"], []
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_plan(path)
    assert str(err.value) == f"{path}: malformed plan: unknown key {key!r}"


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
        assert [e.label for e in man] == ["A", "B", "C"]
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
