"""Command line front end.

Subcommands cover the whole workflow: carve strings from an image, scan a
corpus for credentials, render presence matrices from saved reports, look
offsets up in a process map, and fabricate synthetic test corpora.

Exit codes: 0 on success (a scan with zero findings is a successful scan,
and so is output cut short by a reader that closed the pipe), 1 on
operational failure with a diagnostic on stderr, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .carver import BOTH_ENCODINGS, DEFAULT_CAP, DEFAULT_MIN_LEN
from .corpus import DEFAULT_CHUNK_SIZE, MemoryImage, _parse_digits, load_manifest
from .errors import InvalidOptionError, MemsiftError

# The other commands' functions are the package's lazy exports, imported
# on first use (PEP 562), so `memsift strings` loads none of the scan,
# report or fabricate modules.  Handlers take them through this module
# (``from .cli import ...``), so a wrapper set on it, as bench/tracing.py
# sets, is the one called.
def __getattr__(name: str):
    package = import_module(__package__)
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


_SIZE_FACTORS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _parse_size(text: str) -> int:
    """Sizes like 512, 64K, 16M, 1G: ASCII digits, then an optional unit."""
    factor = _SIZE_FACTORS.get(text[-1:].upper(), 1)
    try:
        value = _parse_digits(text[:-1] if factor > 1 else text, "size")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return value * factor


def _parse_offset(text: str) -> int:
    """Non-negative offsets: ASCII decimal digits, or 0x and hex digits."""
    digits = text.removeprefix("-")
    hexadecimal = digits[:2] in ("0x", "0X")
    try:
        value = _parse_digits(digits[2:] if hexadecimal else digits, "offset",
                              16 if hexadecimal else 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an offset: {text!r}") from None
    if digits != text:
        raise argparse.ArgumentTypeError(f"offset must be non-negative: {text!r}")
    return value


def _parse_int(text: str) -> int:
    """An integer option: ASCII decimal digits, after an optional ``-`` so
    that the option's own range check names a negative value."""
    try:
        return _parse_digits(text, "value", signed=True)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def _parse_decimal(text: str) -> float:
    """A fraction like 0.3: ASCII digits, then an optional ``.`` and more
    ASCII digits, after an optional ``-`` so that the option's own range
    check names a negative value.  ``float`` would also take a ``+``,
    spaces, an exponent and the digits of other scripts."""
    if _DECIMAL.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")
    return float(text)


def _load_catalog(path: str | None):
    from .cli import builtin_catalog, load_catalog_file, merge_catalogs

    if path is None:
        return builtin_catalog()
    return merge_catalogs(builtin_catalog(), load_catalog_file(path))


def _stdout_sink():
    """Stdout as a byte sink whatever its encoding, flushed first so that
    what is written keeps its order.  A stdout with no byte buffer under
    it, such as an ``io.StringIO``, takes each bytes-like write as text."""
    sys.stdout.flush()
    if (buffer := getattr(sys.stdout, "buffer", None)) is None:
        return SimpleNamespace(write=lambda data: sys.stdout.write(str(data, "utf-8")))
    return buffer


def _write_output(text: str, out: str | None) -> None:
    """Write ``text`` as UTF-8 to the file ``out``, or to stdout, so that
    both get the same bytes."""
    if out not in (None, "-"):
        Path(out).write_bytes(text.encode("utf-8"))
    else:
        _stdout_sink().write(text.encode("utf-8"))


def _add_scan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", metavar="TSV", help="extra signature catalog file")
    p.add_argument("--process-map", metavar="TSV", help="physical-to-process map file")
    p.add_argument("--min-len", type=_parse_int, default=DEFAULT_MIN_LEN,
                   help="minimum carved string length (default %(default)s)")
    # Left out, these take ScanOptions' defaults, which live with the
    # matcher; naming them here would load it for every command.
    p.add_argument("--delta", type=_parse_int,
                   help="adjacent key-to-value reach in bytes (default 64)")
    p.add_argument("--window", type=_parse_int,
                   help="context/combination window in bytes (default 1024)")
    p.add_argument("--chunk-size", type=_parse_size, default=DEFAULT_CHUNK_SIZE,
                   metavar="SIZE", help="read granularity (default 1M)")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps so identical inputs give identical bytes")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   dest="fmt", help="report format (default %(default)s)")
    p.add_argument("--out", metavar="FILE", help="write report here instead of stdout")


def cmd_strings(args: argparse.Namespace) -> int:
    # The full carve is numpy's; no other command loads it.
    from .cli import dump_strings

    sink = _stdout_sink() if args.out in (None, "-") else args.out
    # dump_strings rejects out-of-range options before the output opens.
    dump_strings(
        MemoryImage.from_file(args.image),
        sink,
        args.min_len,
        args.encoding or BOTH_ENCODINGS,
        chunk_size=args.chunk_size,
        cap=args.cap,
    )
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from .cli import (
        ScanOptions,
        build_presence_matrix,
        build_report,
        load_process_map,
        render_json,
        render_text,
        scan_image,
        scan_manifest,
    )

    given = {"delta": args.delta, "window": args.window}
    options = ScanOptions(
        min_len=args.min_len,
        chunk_size=args.chunk_size,
        **{name: value for name, value in given.items() if value is not None},
    )
    catalog = _load_catalog(args.catalog)
    pmap = load_process_map(args.process_map) if args.process_map else None
    target = Path(args.target)
    # The name alone tells a manifest from an image, whatever the content.
    is_manifest = target.suffix.lower() in (".tsv", ".manifest")
    manifest = load_manifest(target) if is_manifest else None
    if manifest is not None:
        findings = scan_manifest(manifest, catalog, options, pmap)
    else:
        image = MemoryImage.from_file(target)
        findings = {image.label: scan_image(image, catalog, options, pmap)}
    session_meta = manifest.session_meta if manifest is not None else None
    matrix = build_presence_matrix(findings, session_meta)
    doc = build_report(
        findings, matrix, options, manifest=manifest, deterministic=args.deterministic
    )
    text = render_json(doc) if args.fmt == "json" else render_text(doc)
    _write_output(text, args.out)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    # Imported here so that `memsift strings` loads no json.
    import json

    from .cli import render_matrix_table
    from .report import report_matrix

    blocks: list[str] = []
    for path in args.report:
        try:
            matrix = report_matrix(json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as exc:  # malformed JSON is a ValueError too
            raise ValueError(f"{path}: {exc}") from None
        blocks.append(render_matrix_table(matrix))
    _write_output("\n\n".join(blocks) + "\n", args.out)
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    from .cli import load_process_map
    from .report import _shown

    pmap = load_process_map(args.map)
    lines = []
    for offset in args.offset:
        owners = pmap.lookup(offset)
        if not owners:
            lines.append(f"0x{offset:08x}: no owner\n")
        for a in owners:
            lines.append(
                f"0x{offset:08x}: {_shown(a.process_name)}[{a.pid}] "
                f"virt=0x{a.virtual_address:08x}\n"
            )
    _write_output("".join(lines), None)
    return 0


def cmd_fabricate(args: argparse.Namespace) -> int:
    from .cli import fabricate, load_plan, table1_preset

    preset = {
        "image_size": args.image_size,
        "seed": args.seed,
        "printable_density": args.density,
    }
    preset = {k: v for k, v in preset.items() if v is not None}
    if args.plan is not None:
        if preset:
            raise InvalidOptionError("--image-size, --seed and --density apply only to --preset")
        plan = load_plan(args.plan)
    else:
        plan = table1_preset(**preset)
    result = fabricate(plan, args.out)
    n = len(result.image_paths)
    lines = [
        f"wrote {n} image{'s' if n != 1 else ''} under {result.out_dir}",
        f"manifest: {result.manifest_path}",
    ]
    if result.process_map_path is not None:
        lines.append(f"process map: {result.process_map_path}")
    lines.append(f"ground truth: {result.ground_truth_path}")
    _write_output("".join(line + "\n" for line in lines), None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsift",
        description="Recover application login credentials from raw memory images.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strings", help="carve printable strings from an image")
    p.add_argument("image", help="raw memory image file")
    p.add_argument("--min-len", type=_parse_int, default=DEFAULT_MIN_LEN,
                   help="minimum run length (default %(default)s)")
    p.add_argument("--encoding", action="append", choices=("ascii", "utf16le"),
                   help="restrict to one encoding (repeatable; default both)")
    p.add_argument("--chunk-size", type=_parse_size, default=DEFAULT_CHUNK_SIZE,
                   metavar="SIZE", help="read granularity (default 1M)")
    p.add_argument("--cap", type=_parse_int, default=DEFAULT_CAP,
                   help="split runs longer than this (default %(default)s)")
    p.add_argument("--out", metavar="FILE", help="write strings here instead of stdout")
    p.set_defaults(func=cmd_strings)

    p = sub.add_parser("scan", help="scan a manifest or single image for credentials")
    p.add_argument("target", help="manifest (.tsv or .manifest) or raw image file")
    _add_scan_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("matrix", help="render presence matrices from scan reports")
    p.add_argument("report", nargs="+", help="JSON report file(s) from `scan`")
    p.add_argument("--out", metavar="FILE", help="write table here instead of stdout")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("attribute", help="look up offsets in a process map")
    p.add_argument("map", help="process map TSV")
    p.add_argument("offset", nargs="+", type=_parse_offset,
                   help="physical offsets (decimal or 0x hex)")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("fabricate", help="build a synthetic corpus with ground truth")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--plan", metavar="JSON", help="fabrication plan file")
    group.add_argument("--preset", choices=("table1",),
                       help="use a built-in corpus layout")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    # The preset's own defaults apply to what is left out.
    p.add_argument("--image-size", type=_parse_size, metavar="SIZE",
                   help="preset image size (default 16M)")
    p.add_argument("--seed", type=_parse_int, help="preset RNG seed (default 2011)")
    p.add_argument("--density", type=_parse_decimal,
                   help="preset printable byte density in [0, 1) (default 0.3)")
    p.set_defaults(func=cmd_fabricate)

    # Lets main report an out-of-range option with the subcommand's usage.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except InvalidOptionError as exc:
        args.parser.error(str(exc))  # exits 2
    except BrokenPipeError:
        # The reader stopped early (`| head`), which is no failure.  What is
        # still buffered goes to the null device, so the flush at exit
        # cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (MemsiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
