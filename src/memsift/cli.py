"""Command line front end.

Subcommands cover the whole workflow: carve strings from an image, scan a
corpus for credentials, render presence matrices from saved reports, look
offsets up in a process map, and fabricate synthetic test corpora.

Exit codes: 0 on success (a scan with zero findings is a successful scan),
1 on operational failure with a diagnostic on stderr, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .carver import (
    BOTH_ENCODINGS,
    DEFAULT_CAP,
    DEFAULT_MIN_LEN,
    carve_strings,
    write_strings_file,
)
from .corpus import DEFAULT_CHUNK_SIZE, ImageManifest, MemoryImage, load_manifest
from .errors import InvalidOptionError, MemsiftError, UnknownLabelError
from .fabricator import fabricate, load_plan, table1_preset
from .procmap import ProcessMap, load_process_map
from .report import (
    build_report,
    doc_to_finding,
    load_report,
    render_json,
    render_matrix_table,
    render_text,
)
from .scanner import (
    ScanOptions,
    browser_tag,
    build_presence_matrix,
    scan_image,
    scan_manifest,
)
from .signatures import (
    DEFAULT_DELTA,
    DEFAULT_WINDOW,
    builtin_catalog,
    load_catalog_file,
    merge_catalogs,
)

# Manifests are small text files; anything bigger is assumed to be an image.
_MANIFEST_SNIFF_LIMIT = 4 << 20


def _parse_size(text: str) -> int:
    """Sizes like 512, 64K, 16M, 1G."""
    s = text.strip().upper()
    factor = 1
    if s and s[-1] in "KMG":
        factor = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[s[-1]]
        s = s[:-1]
    try:
        value = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return value * factor


def _parse_offset(text: str) -> int:
    """Non-negative offsets, decimal or 0x-prefixed hex."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an offset: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"offset must be non-negative: {text!r}")
    return value


def _sniff_manifest(path: Path) -> ImageManifest | None:
    """Decide whether the scan target is a manifest or a raw image.

    Files with a manifest-style suffix are parsed strictly so defects
    surface instead of being mistaken for image bytes.  Anything else is
    treated as a manifest only when it is small, decodes as text and has
    tab-separated data lines.
    """
    if path.suffix.lower() in (".tsv", ".manifest"):
        return load_manifest(path)
    if path.stat().st_size > _MANIFEST_SNIFF_LIMIT:
        return None
    try:
        text = path.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError):
        return None
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            return None
        return load_manifest(path)
    return None


def _load_catalog(path: str | None):
    if path is None:
        return builtin_catalog()
    return merge_catalogs(builtin_catalog(), load_catalog_file(path))


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _add_scan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", metavar="TSV", help="extra signature catalog file")
    p.add_argument("--process-map", metavar="TSV", help="physical-to-process map file")
    p.add_argument("--min-len", type=int, default=DEFAULT_MIN_LEN,
                   help="minimum carved string length (default %(default)s)")
    p.add_argument("--delta", type=int, default=DEFAULT_DELTA,
                   help="adjacent key-to-value reach in bytes (default %(default)s)")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="context/combination window in bytes (default %(default)s)")
    p.add_argument("--chunk-size", type=_parse_size, default=DEFAULT_CHUNK_SIZE,
                   metavar="SIZE", help="read granularity (default 1M)")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timestamps so identical inputs give identical bytes")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   dest="fmt", help="report format (default %(default)s)")
    p.add_argument("--out", metavar="FILE", help="write report here instead of stdout")


def cmd_strings(args: argparse.Namespace) -> int:
    # Reject out-of-range carve options before touching the image.
    ScanOptions(min_len=args.min_len, chunk_size=args.chunk_size, cap=args.cap)
    image = MemoryImage.from_file(args.image)
    strings = carve_strings(
        image,
        args.min_len,
        args.encoding or BOTH_ENCODINGS,
        chunk_size=args.chunk_size,
        cap=args.cap,
    )
    write_strings_file(strings, sys.stdout if args.out in (None, "-") else args.out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    options = ScanOptions(
        min_len=args.min_len,
        delta=args.delta,
        window=args.window,
        chunk_size=args.chunk_size,
    )
    catalog = _load_catalog(args.catalog)
    pmap = (
        ProcessMap(load_process_map(args.process_map))
        if args.process_map
        else None
    )
    target = Path(args.target)
    manifest = _sniff_manifest(target)
    if manifest is not None:
        findings = scan_manifest(manifest, catalog, options, pmap)
        labels = manifest.labels()
        matrix = build_presence_matrix(manifest, findings)
    else:
        image = MemoryImage.from_file(target)
        findings = {image.label: scan_image(image, catalog, options, pmap)}
        labels = [image.label]
        matrix = build_presence_matrix(labels, findings)
    doc = build_report(
        labels,
        findings,
        options=options,
        matrix=matrix,
        deterministic=args.deterministic,
        manifest=manifest,
    )
    text = render_json(doc) if args.fmt == "json" else render_text(doc)
    _write_output(text, args.out)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    blocks: list[str] = []
    for path in args.report:
        doc = load_report(Path(path).read_text(encoding="utf-8"))
        labels: list[str] = []
        findings: dict[str, list] = {}
        for image in doc.get("images", ()):
            label = image["label"]
            if label in findings:
                raise UnknownLabelError(f"label {label!r} appears twice in {path}")
            labels.append(label)
            findings[label] = [
                doc_to_finding(fd, label) for fd in image["findings"]
            ]
        session = doc.get("session")
        matrix = build_presence_matrix(
            labels,
            findings,
            session_browser=browser_tag(session[0]) if session else None,
        )
        blocks.append(render_matrix_table(matrix))
    _write_output("\n\n".join(blocks) + "\n", args.out)
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    pmap = ProcessMap(load_process_map(args.map))
    for offset in args.offset:
        owners = pmap.lookup(offset)
        if not owners:
            print(f"0x{offset:08x}: no owner")
        for a in owners:
            print(
                f"0x{offset:08x}: {a.process_name}[{a.pid}] "
                f"virt=0x{a.virtual_address:08x}"
            )
    return 0


def cmd_fabricate(args: argparse.Namespace) -> int:
    if args.preset:
        if args.preset != "table1":
            raise MemsiftError(f"unknown preset {args.preset!r}")
        plan = table1_preset(
            image_size=args.image_size,
            seed=args.seed,
            printable_density=args.density,
        )
    else:
        plan = load_plan(args.plan)
    result = fabricate(plan, args.out)
    n = len(result.image_paths)
    print(f"wrote {n} image{'s' if n != 1 else ''} under {result.out_dir}")
    print(f"manifest: {result.manifest_path}")
    if result.process_map_path is not None:
        print(f"process map: {result.process_map_path}")
    print(f"ground truth: {result.ground_truth_path}")
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
    p.add_argument("--min-len", type=int, default=DEFAULT_MIN_LEN,
                   help="minimum run length (default %(default)s)")
    p.add_argument("--encoding", action="append", choices=("ascii", "utf16le"),
                   help="restrict to one encoding (repeatable; default both)")
    p.add_argument("--chunk-size", type=_parse_size, default=DEFAULT_CHUNK_SIZE,
                   metavar="SIZE", help="read granularity (default 1M)")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="split runs longer than this (default %(default)s)")
    p.add_argument("--out", metavar="FILE", help="write strings here instead of stdout")
    p.set_defaults(func=cmd_strings)

    p = sub.add_parser("scan", help="scan a manifest or single image for credentials")
    p.add_argument("target", help="manifest TSV or raw image file")
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
    p.add_argument("--image-size", type=_parse_size, default=16 << 20,
                   metavar="SIZE", help="preset image size (default 16M)")
    p.add_argument("--seed", type=int, default=2011, help="preset RNG seed")
    p.add_argument("--density", type=float, default=0.3,
                   help="preset printable byte density (default %(default)s)")
    p.set_defaults(func=cmd_fabricate)

    # Lets main report an out-of-range option with the subcommand's usage.
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidOptionError as exc:
        args.parser.error(str(exc))  # exits 2
    except (MemsiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
