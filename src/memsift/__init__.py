"""memsift: pull login credentials out of raw memory images.

The package carves printable strings (ASCII and UTF-16LE) from physical
memory dumps, matches them against a catalog of web application login
signatures, decodes what it finds, maps hits back to owning processes and
tracks credential presence across acquisition timelines.  A fabricator
builds synthetic images with known planted artifacts for validation.

Each exported name is imported from its module on first use, so a
process that needs only the carver never loads the scanner.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "carver": """BOTH_ENCODINGS DEFAULT_CAP DEFAULT_MIN_LEN Encoding
            ExtractedString carve_strings dump_strings""",
        "corpus": """DEFAULT_CHUNK_SIZE ImageManifest ManifestEntry MemoryImage
            load_manifest write_manifest""",
        "decoding": "classify_value percent_decode",
        "errors": """DuplicateLabelError InvalidOptionError LineError MemsiftError
            MissingFileError NonMonotonicStepError OverlapError
            PlacementOutOfBoundsError ZeroSizeError""",
        "fabricator": """ArtifactTemplate FabricationPlan
            FabricationResult PlannedImage builtin_templates fabricate load_plan
            save_plan table1_preset template_by_id""",
        "procmap": """Attribution ProcessMap ProcessMapEntry load_process_map
            write_process_map""",
        "report": """build_report finding_to_doc render_json render_matrix_table
            render_text""",
        "scanner": """GC HIGH LOW MF STANDARD_COLUMNS CredentialFinding
            ScanOptions assign_confidence browser_tag build_presence_matrix
            scan_image scan_manifest""",
        "signatures": """DEFAULT_DELTA DEFAULT_WINDOW GAUSR_MARKER
            CredentialSignature KeyValuePair MatchMode SignatureMatch builtin_catalog
            key_owners load_catalog_file match_inline merge_catalogs parse_form_pairs""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
