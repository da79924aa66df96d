"""Physical-offset to process attribution."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memsift import (
    Attribution,
    ProcessMap,
    ProcessMapEntry,
    load_process_map,
    write_process_map,
)
from memsift.errors import LineError

ENTRIES = (
    ProcessMapEntry(0, "System", 0x00000000, 0x00010000, 0x80000000),
    ProcessMapEntry(1532, "firefox.exe", 0x0F5C0000, 0x0F600000, 0x00400000),
    ProcessMapEntry(2210, "chrome.exe", 0x0F600000, 0x0F700000, 0x01000000),
)


def test_lookup_inside_range():
    pm = ProcessMap(ENTRIES)
    hits = pm.lookup(0x0F5C1234)
    assert len(hits) == 1
    a = hits[0]
    assert (a.pid, a.process_name) == (1532, "firefox.exe")
    assert a.virtual_address == 0x00400000 + 0x1234


def test_range_is_half_open():
    pm = ProcessMap(ENTRIES)
    assert pm.lookup(0x0F5C0000)[0].pid == 1532       # start inclusive
    assert pm.lookup(0x0F5FFFFF)[0].pid == 1532       # last byte
    assert pm.lookup(0x0F600000)[0].pid == 2210       # end exclusive


def test_unmapped_offset():
    assert ProcessMap(ENTRIES).lookup(0x20000000) == []


def test_overlapping_ranges_return_all_owners():
    shared = ENTRIES + (
        ProcessMapEntry(999, "shared.dll", 0x0F5F0000, 0x0F610000, 0x70000000),
    )
    hits = ProcessMap(shared).lookup(0x0F5F8000)
    assert sorted(a.pid for a in hits) == [999, 1532]


@given(st.integers(min_value=0, max_value=0x10000000))
def test_lookup_agrees_with_linear_scan(offset):
    pm = ProcessMap(ENTRIES)
    expected = [
        Attribution(e.pid, e.name, e.virt_base + offset - e.phys_start)
        for e in ENTRIES
        if e.phys_start <= offset < e.phys_end
    ]
    assert pm.lookup(offset) == expected


@given(
    st.lists(
        st.tuples(
            st.integers(1, 99), st.integers(0, 2000), st.integers(1, 300)
        ),
        max_size=8,
    ),
    st.integers(0, 2500),
)
def test_random_maps_agree_with_linear_scan(raw, offset):
    entries = [
        ProcessMapEntry(pid, f"p{pid}.exe", start, start + length, 0x1000 * pid)
        for pid, start, length in raw
    ]
    pm = ProcessMap(entries)
    expected = [
        Attribution(e.pid, e.name, e.virt_base + offset - e.phys_start)
        for e in sorted(entries, key=lambda e: (e.phys_start, e.phys_end, e.pid))
        if e.phys_start <= offset < e.phys_end
    ]
    got = sorted(pm.lookup(offset), key=lambda a: (a.pid, a.virtual_address))
    assert got == sorted(expected, key=lambda a: (a.pid, a.virtual_address))


def test_load_fixture_line():
    body = "1532\tfirefox.exe\t0x0F5C0000\t0x0F600000\t0x00400000\n"
    entries = load_process_map(io.StringIO(body))
    assert entries == [ProcessMapEntry(1532, "firefox.exe", 0x0F5C0000, 0x0F600000, 0x00400000)]


def test_load_sorts_by_phys_start():
    body = (
        "2\tb.exe\t0x2000\t0x3000\t0x0\n"
        "1\ta.exe\t0x1000\t0x2000\t0x0\n"
    )
    entries = load_process_map(io.StringIO(body))
    assert [e.pid for e in entries] == [1, 2]


@pytest.mark.parametrize("bad", [
    "1532\tfirefox.exe\t0x10\t0x20",            # four fields
    "pid\tfirefox.exe\t0x10\t0x20\t0x30",       # pid not an integer
    "1\tx.exe\tzz\t0x20\t0x30",                 # bad hex
])
def test_malformed_entries(bad):
    with pytest.raises(LineError):
        load_process_map(io.StringIO(bad + "\n"))


@pytest.mark.parametrize("bad, message", [
    ("1_0\tx.exe\t0x10\t0x20\t0x30", "pid '1_0' is not a decimal integer"),
    (" +7 \tx.exe\t0x10\t0x20\t0x30", "pid ' \\+7 ' is not a decimal integer"),
    ("1\tx.exe\t0x٢0\t0x40\t0x30", "address '٢0' is not a hex integer"),
    ("1\tx.exe\t0x_10\t0x40\t0x30", "address '_10' is not a hex integer"),
])
def test_integer_fields_are_ascii_digits(bad, message):
    with pytest.raises(LineError, match=message):
        load_process_map(io.StringIO(bad + "\n"))


def test_inverted_range_rejected():
    body = "1\tx.exe\t0x2000\t0x1000\t0x0\n"
    with pytest.raises(LineError):
        load_process_map(io.StringIO(body))


def test_write_then_load_round_trip(tmp_path):
    path = tmp_path / "map.tsv"
    write_process_map(ENTRIES, path)
    assert load_process_map(path) == sorted(
        ENTRIES, key=lambda e: (e.phys_start, e.phys_end, e.pid)
    )


def test_comments_and_blank_lines_ignored():
    body = "# pid name start end virt\n\n1\tx.exe\t0x0\t0x10\t0x100\n"
    assert len(load_process_map(io.StringIO(body))) == 1
