"""Manifest parsing, image access and their failure modes."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from memsift import (
    ImageManifest,
    ManifestEntry,
    MemoryImage,
    load_manifest,
    open_image,
    write_manifest,
)
from memsift.errors import (
    DuplicateLabelError,
    LineError,
    MemsiftError,
    MissingFileError,
    NonMonotonicStepError,
    ZeroSizeError,
)


def _img(tmp_path, name, payload=b"\x00" * 64):
    p = tmp_path / name
    p.write_bytes(payload)
    return p


def _manifest(tmp_path, body):
    p = tmp_path / "manifest.tsv"
    p.write_text(body, encoding="utf-8")
    return p


class TestLoadManifest:
    def test_thirteen_entry_timeline(self, tmp_path):
        lines = []
        for n in range(1, 14):
            _img(tmp_path, f"img{n}.raw")
            lines.append(f"Img{n}\t{2 * n}\tstep {2 * n}\timg{n}.raw")
        man = load_manifest(_manifest(tmp_path, "\n".join(lines) + "\n"))
        assert man.labels() == [f"Img{n}" for n in range(1, 14)]
        assert [e.step_index for e in man] == list(range(2, 27, 2))

    def test_empty_manifest_is_valid(self, tmp_path):
        man = load_manifest(_manifest(tmp_path, "# nothing here\n"))
        assert len(man) == 0
        assert man.session_meta is None

    def test_paths_resolve_relative_to_manifest(self, tmp_path, monkeypatch):
        sub = tmp_path / "deep"
        sub.mkdir()
        _img(sub, "a.raw")
        mpath = sub / "manifest.tsv"
        mpath.write_text("A\t2\tx\ta.raw\n")
        monkeypatch.chdir(tmp_path)  # cwd must not matter
        man = load_manifest(mpath)
        assert man.entry("A").path.is_file()

    def test_session_directive(self, tmp_path):
        _img(tmp_path, "a.raw")
        body = "# session: Google Chrome\tGmail\nA\t2\tx\ta.raw\n"
        man = load_manifest(_manifest(tmp_path, body))
        assert man.session_meta == ("Google Chrome", "Gmail")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_manifest(tmp_path / "absent.tsv")

    def test_missing_image_file(self, tmp_path):
        with pytest.raises(MissingFileError) as err:
            load_manifest(_manifest(tmp_path, "A\t2\tx\tno-such.raw\n"))
        assert "no-such.raw" in str(err.value)

    def test_zero_size_image(self, tmp_path):
        _img(tmp_path, "empty.raw", b"")
        with pytest.raises(ZeroSizeError):
            load_manifest(_manifest(tmp_path, "A\t2\tx\tempty.raw\n"))

    def test_duplicate_label(self, tmp_path):
        _img(tmp_path, "a.raw")
        body = "A\t2\tx\ta.raw\nA\t4\ty\ta.raw\n"
        with pytest.raises(DuplicateLabelError):
            load_manifest(_manifest(tmp_path, body))

    def test_non_monotonic_steps(self, tmp_path):
        _img(tmp_path, "a.raw")
        body = "A\t4\tx\ta.raw\nB\t4\ty\ta.raw\n"
        with pytest.raises(NonMonotonicStepError):
            load_manifest(_manifest(tmp_path, body))

    @pytest.mark.parametrize("bad", [
        "A\t2\tx",                    # three fields
        "A\t2\tx\ta.raw\textra",      # five fields
        "A\ttwo\tx\ta.raw",           # step not an integer
        "A\t٢\tx\ta.raw",             # step in another script's digits
        "A\t1_0\tx\ta.raw",           # step with an underscore
        "A\t+2\tx\ta.raw",            # step with a plus sign
        "\t2\tx\ta.raw",              # empty label
    ])
    def test_malformed_lines(self, tmp_path, bad):
        _img(tmp_path, "a.raw")
        with pytest.raises(LineError) as err:
            load_manifest(_manifest(tmp_path, bad + "\n"))
        assert err.value.lineno == 1

    def test_pure_function_of_bytes(self, tmp_path):
        _img(tmp_path, "a.raw")
        p = _manifest(tmp_path, "A\t2\tx\ta.raw\n")
        assert load_manifest(p) == load_manifest(p)


def test_write_then_load_round_trip(tmp_path):
    _img(tmp_path, "one.raw")
    _img(tmp_path, "two.raw")
    entries = [
        ManifestEntry("One", 2, "first", tmp_path / "one.raw"),
        ManifestEntry("Two", 4, "second", tmp_path / "two.raw"),
    ]
    dest = tmp_path / "manifest.tsv"
    write_manifest(entries, dest, session_meta=("Mozilla Firefox", "SBI"))
    man = load_manifest(dest)
    assert man.labels() == ["One", "Two"]
    assert man.session_meta == ("Mozilla Firefox", "SBI")
    assert man.entry("Two").step_description == "second"
    # written paths are relative so the directory can be moved wholesale
    assert "\t" + str(tmp_path) not in dest.read_text().splitlines()[-1]


def test_negative_step_index_round_trips(tmp_path):
    _img(tmp_path, "a.raw")
    dest = tmp_path / "manifest.tsv"
    entries = (ManifestEntry("A", -3, "", tmp_path / "a.raw"),)
    write_manifest(list(entries), dest)
    assert load_manifest(dest).entries == entries


# Tab, both line breaks, the comment mark and leading spaces: everything
# that could split a manifest row or hide it as a comment.
_FIELD = st.text(alphabet="ab #\t\n\r", max_size=6)


@given(st.lists(st.tuples(_FIELD, _FIELD), max_size=3))
@example([("#x", "")])
@example([(" #x", "")])
@example([("a\tb", "")])
@example([("a", "b\tc")])
@example([("a", "b\rc")])
@example([("a", " b# ")])
def test_write_manifest_writes_only_what_loads_back(tmp_path_factory, rows):
    base = tmp_path_factory.mktemp("rt")
    _img(base, "a.raw")
    dest = base / "manifest.tsv"
    try:
        entries = [
            ManifestEntry(label, 2 * i, description, base / "a.raw")
            for i, (label, description) in enumerate(rows)
        ]
        write_manifest(entries, dest)
    except (ValueError, MemsiftError):
        assert not dest.exists()
        return
    assert load_manifest(dest).entries == tuple(entries)


@given(st.tuples(_FIELD, _FIELD))
@example(("a", " b"))
def test_write_manifest_writes_only_the_session_it_loads_back(tmp_path_factory, session):
    base = tmp_path_factory.mktemp("rt")
    _img(base, "a.raw")
    dest = base / "manifest.tsv"
    try:
        write_manifest([ManifestEntry("A", 2, "", base / "a.raw")], dest, session_meta=session)
    except ValueError:
        assert not dest.exists()
        return
    assert load_manifest(dest).session_meta == session


@pytest.mark.parametrize(
    "session",
    [("Firefox", "Gmail", "extra"), "FG", (" Firefox ", "Gmail ")],
    ids=["three-fields", "string", "padded"],
)
def test_write_manifest_refuses_a_session_it_cannot_read_back(tmp_path, session):
    _img(tmp_path, "a.raw")
    dest = tmp_path / "manifest.tsv"
    with pytest.raises(ValueError, match="session_meta"):
        write_manifest([ManifestEntry("A", 2, "", tmp_path / "a.raw")], dest, session_meta=session)
    assert not dest.exists()


class TestMemoryImage:
    def test_size_matches_file_length(self, tmp_path):
        p = _img(tmp_path, "a.raw", b"x" * 1234)
        img = MemoryImage.from_file(p)
        assert img.size == 1234 == p.stat().st_size

    def test_zero_length_file_rejected(self, tmp_path):
        p = _img(tmp_path, "z.raw", b"")
        with pytest.raises(ZeroSizeError) as err:
            MemoryImage.from_file(p)
        assert "z.raw" in str(err.value)

    def test_chunks_partition_the_file(self, tmp_path):
        payload = bytes(range(256)) * 10
        p = _img(tmp_path, "a.raw", payload)
        img = MemoryImage.from_file(p)
        chunks = list(img.chunks(chunk_size=700))
        assert b"".join(chunks) == payload
        assert all(len(c) == 700 for c in chunks[:-1])

    def test_read_at(self, tmp_path):
        p = _img(tmp_path, "a.raw", b"0123456789abcdef")
        img = MemoryImage.from_file(p)
        assert img.read_at(10, 3) == b"abc"

    @pytest.mark.parametrize("offset, length, name", [(3, -1, "length"), (-2, 3, "offset")])
    def test_read_at_rejects_negative_arguments(self, tmp_path, offset, length, name):
        # A negative length would read the rest of the image, a negative
        # offset fail in seek with a message naming neither.
        for img in (
            MemoryImage.from_file(_img(tmp_path, "a.raw", b"0123456789")),
            MemoryImage.from_bytes(b"0123456789"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be at least 0"):
                img.read_at(offset, length)

    def test_from_bytes(self):
        img = MemoryImage.from_bytes(b"hello", label="mem")
        assert img.size == 5
        assert img.label == "mem"
        assert list(img.chunks(chunk_size=2)) == [b"he", b"ll", b"o"]

    def test_open_image_uses_entry_label(self, tmp_path):
        p = _img(tmp_path, "a.raw")
        entry = ManifestEntry("Img7", 14, "x", p)
        img = open_image(entry)
        assert img.label == "Img7"
        assert img.size == p.stat().st_size


def test_manifest_iteration_and_lookup(tmp_path):
    _img(tmp_path, "a.raw")
    man = load_manifest(_manifest(tmp_path, "A\t2\tx\ta.raw\nB\t4\ty\ta.raw\n"))
    assert isinstance(man, ImageManifest)
    assert [e.label for e in man] == ["A", "B"]
    assert man.entry("B").step_index == 4
    with pytest.raises(KeyError):
        man.entry("missing")
