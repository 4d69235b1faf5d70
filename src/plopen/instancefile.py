"""Instance file format: JSON with rationals as exact strings.

Rationals are never JSON numbers — exactness must survive every consumer —
and the canonical serialization (sorted keys, no whitespace) is what the
instance digest hashes, so identical instances hash identically everywhere.
A file carries either `vertex_images` (canonical) or `pieces` (one matrix and
offset per cell). Both forms validate the file's own vertices and cells, so
reports name the file's vertex ids. The pieces form is checked at the
vertices (`plmap.ingest_pieces`): each vertex takes the image of the first
cell that lists it, and every other cell that lists it must give the same
point.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from .complexes import validate_complex
from .linalg import Matrix, format_rational, parse_rational
from .plmap import PLMap, build_plmap, ingest_pieces

FORMAT_VERSION = 1


class ParseError(ValueError):
    pass


def _point_to_strings(point) -> list[str]:
    return [format_rational(c) for c in point]


def _parse_point(raw, context: str, dim: Optional[int]) -> list:
    """Rationals from a list of strings; unless dim is None, exactly dim of them."""
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ParseError(f"{context}: expected a list of rational strings")
    if dim is not None and len(raw) != dim:
        raise ParseError(f"{context}: expected {dim} entries, got {len(raw)}")
    try:
        return [parse_rational(c) for c in raw]
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from exc


def plmap_to_document(f: PLMap, metadata: Optional[dict] = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "ambient_dim": f.ambient_dim,
        "vertices": [_point_to_strings(v) for v in f.domain.vertices],
        "cells": [list(c.vertex_ids) for c in f.domain.cells],
        "vertex_images": [_point_to_strings(v) for v in f.vertex_images],
        "metadata": metadata or {},
    }


def document_to_plmap(doc: dict) -> tuple[PLMap, dict]:
    """Parse and validate a document; violations surface as exceptions."""
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"format_version: expected {FORMAT_VERSION}, got {doc.get('format_version')}")
    for key in ("ambient_dim", "vertices", "cells"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    n = doc["ambient_dim"]
    if type(n) is not int or n < 1:
        raise ParseError("ambient_dim: expected a positive integer")
    if not isinstance(doc["vertices"], list):
        raise ParseError("vertices: expected a list of points")
    # a vertex of the wrong dimension is a validation violation, not a parse error
    vertices = [_parse_point(v, f"vertices[{i}]", None) for i, v in enumerate(doc["vertices"])]
    cells = doc["cells"]
    if not isinstance(cells, list) or not all(
        isinstance(c, list) and all(type(i) is int for i in c) for c in cells
    ):
        raise ParseError("cells: expected lists of vertex indices")
    metadata = doc.get("metadata") or {}

    if "vertex_images" in doc:
        raw_images = doc["vertex_images"]
        if not isinstance(raw_images, list) or len(raw_images) != len(vertices):
            raise ParseError("vertex_images: need exactly one image per vertex")
        images = [_parse_point(v, f"vertex_images[{i}]", n) for i, v in enumerate(raw_images)]
        complex_ = validate_complex(vertices, cells, n)
        return build_plmap(complex_, images), metadata
    if "pieces" in doc:
        raw_pieces = doc["pieces"]
        if not isinstance(raw_pieces, list) or len(raw_pieces) != len(cells):
            raise ParseError("pieces: need exactly one piece per cell")
        pieces = []
        for ci, piece in enumerate(raw_pieces):
            if not isinstance(piece, dict) or not {"matrix", "offset"} <= piece.keys():
                raise ParseError(f"pieces[{ci}]: expected an object with matrix and offset")
            if not isinstance(piece["matrix"], list) or len(piece["matrix"]) != n:
                raise ParseError(f"pieces[{ci}].matrix: expected {n} rows")
            matrix_rows = [
                _parse_point(row, f"pieces[{ci}].matrix", n) for row in piece["matrix"]
            ]
            offset = _parse_point(piece["offset"], f"pieces[{ci}].offset", n)
            pieces.append((Matrix.from_rows(matrix_rows), offset))
        return ingest_pieces(vertices, cells, pieces, n), metadata
    raise ParseError("missing vertex_images (or pieces)")


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:  # missing, unreadable, or a directory
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode the text: {exc.reason}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def save_document(path: str | Path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
