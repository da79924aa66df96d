"""Serialize scan results as JSON documents or readable text.

The JSON layout is stable: keys appear in a fixed order and lists keep
scan order, so two runs over the same input produce byte-identical output
when the timestamp is suppressed.
"""

from __future__ import annotations

import datetime as _dt
import json
from typing import Mapping, Sequence

from .carver import BOTH_ENCODINGS, DEFAULT_CAP
from .corpus import ImageManifest
from .scanner import CredentialFinding, PresenceMatrix, ScanOptions


def finding_to_doc(f: CredentialFinding) -> dict:
    """One finding as a plain dict, fixed key order."""
    return {
        "app_id": f.app_id,
        "username": f.username,
        "password_raw": f.password_raw,
        "password_decoded": f.password_decoded,
        "encrypted": f.encrypted,
        "match_mode": f.match_mode,
        "offset": f.offset,
        "confidence": f.confidence,
        "context_snippet": f.context_snippet,
        "attributions": [
            {
                "pid": a.pid,
                "process_name": a.process_name,
                "virtual_address": a.virtual_address,
            }
            for a in f.attributions
        ],
        "username_offset": f.username_offset,
        "password_offset": f.password_offset,
    }


def _options_doc(options: ScanOptions) -> dict:
    # encodings, cap and case_sensitive are fixed; the keys stay so that
    # reports keep their layout.
    return {
        "min_len": options.min_len,
        "encodings": [e.value for e in BOTH_ENCODINGS],
        "delta": options.delta,
        "window": options.window,
        "chunk_size": options.chunk_size,
        "cap": DEFAULT_CAP,
        "case_sensitive": True,
    }


def matrix_to_doc(matrix: PresenceMatrix) -> dict:
    return {
        "rows": list(matrix.rows),
        "columns": [[app, browser] for app, browser in matrix.columns],
        "cells": {
            row: [matrix.cell(row, app, br) for app, br in matrix.columns]
            for row in matrix.rows
        },
    }


def build_report(
    labels: Sequence[str],
    findings_by_image: Mapping[str, Sequence[CredentialFinding]],
    options: ScanOptions | None = None,
    matrix: PresenceMatrix | None = None,
    deterministic: bool = False,
    manifest: ImageManifest | None = None,
) -> dict:
    """Assemble the full report document for a set of scanned images."""
    from . import __version__

    doc: dict = {"version": __version__}
    if not deterministic:
        doc["generated_at"] = (
            _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
        )
    if options is not None:
        doc["options"] = _options_doc(options)
    if manifest is not None:
        doc["manifest"] = [
            {
                "label": e.label,
                "step_index": e.step_index,
                "step_description": e.step_description,
                "path": str(e.path),
            }
            for e in manifest
        ]
        if manifest.session_meta is not None:
            doc["session"] = list(manifest.session_meta)
    doc["images"] = [
        {
            "label": label,
            "findings": [finding_to_doc(f) for f in findings_by_image.get(label, ())],
        }
        for label in labels
    ]
    if matrix is not None:
        doc["matrix"] = matrix_to_doc(matrix)
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def render_text(doc: dict) -> str:
    """Line-per-finding text form of a report document."""
    lines: list[str] = []
    total = 0
    for image in doc.get("images", ()):
        label = image["label"]
        for fd in image["findings"]:
            total += 1
            if fd["encrypted"]:
                password = f"ENCRYPTED({fd['password_raw']})"
            elif fd["password_decoded"] is not None:
                password = fd["password_decoded"]
            else:
                password = "-"
            parts = [
                label,
                f"app={fd['app_id']}",
                f"user={fd['username'] if fd['username'] is not None else '-'}",
                f"password={password}",
                f"confidence={fd['confidence']}",
                f"mode={fd['match_mode']}",
                f"offset=0x{fd['offset']:08x}",
            ]
            if fd["attributions"]:
                owners = ",".join(
                    f"{a['process_name']}[{a['pid']}]@0x{a['virtual_address']:08x}"
                    for a in fd["attributions"]
                )
                parts.append(f"proc={owners}")
            lines.append("  ".join(parts))
    lines.append(f"total: {total} finding{'s' if total != 1 else ''}")
    if "matrix" in doc:
        lines.append("")
        lines.extend(render_matrix_table(doc["matrix"]).splitlines())
    return "\n".join(lines) + "\n"


def render_matrix_table(matrix: PresenceMatrix | dict) -> str:
    """The presence timeline as an aligned text table."""
    if isinstance(matrix, PresenceMatrix):
        matrix = matrix_to_doc(matrix)
    rows = matrix["rows"]
    columns = [tuple(c) for c in matrix["columns"]]
    headers = ["image"] + [f"{app}/{br}" for app, br in columns]
    table = [headers]
    for row in rows:
        table.append([row] + list(matrix["cells"][row]))
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    out = []
    for i, r in enumerate(table):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def load_report(text: str) -> dict:
    return json.loads(text)


def report_matrix(doc: object) -> dict:
    """The matrix a ``scan`` report carries, checked for the shape
    ``matrix_to_doc`` writes.  Anything else raises ``ValueError``."""
    matrix = doc.get("matrix") if isinstance(doc, dict) else None
    if not isinstance(matrix, dict):
        raise ValueError("not a scan report: no matrix object")
    rows, columns, cells = (matrix.get(k) for k in ("rows", "columns", "cells"))
    if not _strings(rows):
        raise ValueError("matrix rows must be a list of strings")
    if not (isinstance(columns, list) and all(_strings(c) and len(c) == 2 for c in columns)):
        raise ValueError("matrix columns must be [app, browser] string pairs")
    if not isinstance(cells, dict):
        raise ValueError("matrix cells must be an object keyed by row")
    for row in rows:
        values = cells.get(row)
        if not (_strings(values) and len(values) == len(columns)
                and set(values) <= {"Yes", "No"}):
            raise ValueError(f"matrix cells for {row!r} must be one Yes or No per column")
    return matrix


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)
