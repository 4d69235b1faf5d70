"""The generated corpus of each workload, a pure function of the workload seed.

Instances come from plopen's own `GenSpec` generators; the benchmark derives
every spec seed and query point from the workload seed. Two document forms
are made by the benchmark itself from a generated map: mirrored boxes (the
first image coordinate negated, degree -1) and `pieces` documents (one
matrix and offset per cell, solved exactly in `exact.py`).

Only calls into plopen count as set-up time: `generate`, `plmap_to_document`
and `save_document` for every workload, plus `load_document` and
`document_to_plmap` on `query`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from plopen import generators, instancefile
from plopen.generators import GenSpec

import exact
import pace

# The lru_cache of box complexes, captured before tracing wraps it.
_BOX_COMPLEX_CACHE = generators.box_complex


def clear_caches() -> None:
    """Start a set-up repetition cold, as a fresh process would."""
    _BOX_COMPLEX_CACHE.cache_clear()

OP = "random_orientation_preserving"
MIXED = "random_mixed_signs"
SINGULAR = "singular_cell"


@dataclass(frozen=True)
class Item:
    """One instance file: a generator spec and the form it is written in."""

    name: str
    spec: GenSpec
    form: str = "vertex_images"  # or "mirror" or "pieces"

    @property
    def kind(self) -> str:
        return "mirror" if self.form == "mirror" else self.spec.kind


def _specs(rng: random.Random, kind: str, dim: int, resolution: int, count: int) -> list[GenSpec]:
    return [GenSpec(kind, dim, resolution, rng.randrange(1 << 32)) for _ in range(count)]


def _fixed(kind: str, dim: int, resolution: int = 0) -> GenSpec:
    return GenSpec(kind, dim, resolution)


def _name(index: int, item_spec: GenSpec, form: str) -> str:
    return f"{index:03d}-{item_spec.kind}-d{item_spec.dim}r{item_spec.effective_resolution}-{form}.json"


def _items(specs_and_forms) -> list[Item]:
    return [Item(_name(i, spec, form), spec, form) for i, (spec, form) in enumerate(specs_and_forms)]


# The latency percentiles fall inside groups of maps of like cost, not at the
# edge between two groups, where one map more or less on either side would
# move them: in `certify` the median lies among the 2-D resolution-2 maps
# (ranks 20-28 of 50) and p80 among the 2-D resolution-3 certified maps
# (ranks 33-46); in `check` the median lies among the 2-D resolution-2
# batches and p75 among the 2-D resolution-3 ones.


def certify_items(seed: int) -> list[Item]:
    """50 ball maps in dimensions 1-3; see the README for the make-up."""
    rng = random.Random(f"certify:{seed}")
    plain = (
        _specs(rng, OP, 1, 4, 6)
        + _specs(rng, OP, 1, 8, 5)
        + [_fixed("identity", 1, 4)]
        + _specs(rng, MIXED, 1, 4, 4)
        + _specs(rng, SINGULAR, 1, 4, 3)
        + [_fixed("doubling2d", 2), _fixed("identity", 2, 2)]
        + _specs(rng, OP, 2, 2, 6)
        + _specs(rng, MIXED, 2, 3, 2)
        + _specs(rng, SINGULAR, 2, 3, 1)
        + _specs(rng, OP, 2, 3, 13)
        + [_fixed("identity", 2, 3)]
        + _specs(rng, OP, 2, 4, 2)
        + _specs(rng, OP, 3, 2, 1)
    )
    mirrors = [_fixed("identity", 1, 4), _fixed("identity", 2, 2), _fixed("identity", 2, 3)]
    return _items([(s, "vertex_images") for s in plain] + [(s, "mirror") for s in mirrors])


def check_batches(seed: int) -> list[list[Item]]:
    """40 directories for `check-open --all`, each of a fixed make-up.

    Only the generator seeds come from the workload seed, so a batch costs
    about the same on every seed. The forms are fixed per slot: 44 of the 104
    files are in `pieces` form. The percentile groups hold orientation-
    preserving maps only, whose cost varies least from seed to seed.
    """
    rng = random.Random(f"check:{seed}")
    v, p = "vertex_images", "pieces"

    def batch(*slots):
        return [(spec if isinstance(spec, GenSpec) else _specs(rng, *spec, 1)[0], form) for spec, form in slots]

    batches = (
        [batch(((OP, 1, 4), v), ((MIXED, 1, 4), p), ((SINGULAR, 1, 4), v)) for _ in range(13)]
        + [batch((_fixed("identity", 1, 4), v), (_fixed("fold1d", 1), p), (_fixed("interior_fold1d", 1), v))]
        + [batch((_fixed("identity", 2, 2), v), (_fixed("shear", 2), p), (_fixed("doubling2d", 2), v))]
        + [batch(((OP, 2, 2), v), ((OP, 2, 2), p)) for _ in range(11)]
        + [batch(((OP, 2, 3), p), ((OP, 2, 2), v)) for _ in range(8)]
        + [
            batch(((MIXED, 2, 3), v), ((MIXED, 2, 2), p), ((SINGULAR, 2, 3), v), ((SINGULAR, 2, 2), p))
            for _ in range(5)
        ]
        + [batch(((OP, 3, 2), v))]
    )
    out = []
    index = 0
    for slots in batches:
        items = []
        for spec, form in slots:
            items.append(Item(_name(index, spec, form), spec, form))
            index += 1
        out.append(items)
    return out


# Query points per map, by kind: generic values, values on the image of a
# face of dimension <= n-1 (the perturbation path), and boundary-image
# values. The counts place the median among the generic queries on the two
# 2-D orientation-preserving maps (ranks about 121-180 of 300 by latency)
# and p96 among the face-image queries on the 3-D maps (the top 32).
QUERY_KINDS = ("generic", "lowface", "boundary")


def query_items(seed: int) -> list[tuple[Item, tuple[int, int, int]]]:
    """The 10 maps that `query` loads once, each with its point counts per kind."""
    rng = random.Random(f"query-maps:{seed}")
    plan = [
        ((OP, 1, 8), (16, 20, 8)),
        ((MIXED, 1, 8), (16, 20, 8)),
        (_fixed("doubling2d", 2), (9, 8, 4)),
        ((MIXED, 2, 3), (5, 8, 4)),
        ((SINGULAR, 2, 3), (5, 8, 4)),
        ("mirror", (5, 8, 4)),
        ((OP, 2, 3), (30, 8, 4)),
        ((OP, 2, 3), (30, 8, 4)),
        ((OP, 3, 2), (8, 16, 4)),
        ((OP, 3, 2), (8, 16, 4)),
    ]
    out = []
    for index, (spec, counts) in enumerate(plan):
        form = "vertex_images"
        if spec == "mirror":
            spec, form = _fixed("identity", 2, 3), "mirror"
        elif not isinstance(spec, GenSpec):
            spec = _specs(rng, *spec, 1)[0]
        out.append((Item(_name(index, spec, form), spec, form), counts))
    return out


def mirrored(doc: dict) -> dict:
    out = dict(doc)
    out["vertex_images"] = [[str(-Fraction(v[0])), *v[1:]] for v in doc["vertex_images"]]
    return out


def to_pieces(doc: dict, geom: exact.Geometry) -> dict:
    """The same map as one (matrix, offset) per cell: A (p_i - p_0) = q_i - q_0."""
    pieces = []
    n = geom.n
    for ci in range(len(geom.cells)):
        pts, imgs = geom.cell_points(ci), geom.cell_images(ci)
        dirs = [[p[c] - pts[0][c] for c in range(n)] for p in pts[1:]]
        matrix = []
        for r in range(n):
            # Row r of A solves dirs . a = (q_i - q_0)[r] over the cell's edges.
            row = exact.unique_solution(dirs, [q[r] - imgs[0][r] for q in imgs[1:]])
            matrix.append(row)
        offset = [imgs[0][r] - sum(a * x for a, x in zip(matrix[r], pts[0])) for r in range(n)]
        pieces.append(
            {"matrix": [[str(a) for a in row] for row in matrix], "offset": [str(b) for b in offset]}
        )
    out = {k: v for k, v in doc.items() if k != "vertex_images"}
    out["pieces"] = pieces
    return out


@dataclass
class Written:
    item: Item
    path: Path
    doc: dict  # the document as written
    geom: exact.Geometry  # the map in vertex form, for the checks


def write_items(items: list[Item], directory: Path, meter: pace.Meter) -> list[Written]:
    """Generate and write the items, adding the time spent in plopen to `meter`."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for item in items:
        start = time.perf_counter()
        instance = generators.generate(item.spec)
        doc = instancefile.plmap_to_document(
            instance.plmap, metadata={"generator": item.spec.to_metadata()}
        )
        program_s = time.perf_counter() - start
        if item.form == "mirror":
            doc = mirrored(doc)
        geom = exact.Geometry.from_document(doc)
        if item.form == "pieces":
            doc = to_pieces(doc, geom)
        path = directory / item.name
        start = time.perf_counter()
        instancefile.save_document(path, doc)
        meter.add(program_s + time.perf_counter() - start)
        written.append(Written(item, path, doc, geom))
    return written


def query_points(seed: int, written: list[Written], counts) -> list[tuple[int, str, tuple]]:
    """(map index, kind, point) for every query, drawn from the maps' own geometry."""
    rng = random.Random(f"query-points:{seed}")
    out = []
    for mi, w in enumerate(written):
        geom = w.geom
        faces = _interior_low_faces(geom)
        for kind, count in zip(QUERY_KINDS, counts[mi]):
            for j in range(count):
                if kind == "generic":
                    ci = rng.randrange(len(geom.cells))
                    if j == 0 and 0 in geom.signs:
                        # A collapsed cell's interior: an infinite fiber on every seed.
                        ci = geom.signs.index(0)
                    face = geom.cells[ci]
                elif kind == "lowface":
                    # Face dimensions 0 .. n-1 in turn, so every seed asks alike.
                    face = rng.choice([f for f in faces if len(f) == j % geom.n + 1])
                    ci = next(c for c, cell in enumerate(geom.cells) if set(face) <= set(cell))
                else:
                    face = rng.choice(geom.boundary)
                    ci = next(c for c, cell in enumerate(geom.cells) if set(face) <= set(cell))
                weights = [Fraction(rng.randint(1, 97)) for _ in face]
                total = sum(weights)
                x = exact.combine([w_ / total for w_ in weights], [geom.vertices[i] for i in face])
                out.append((mi, kind, geom.image_in_cell(ci, x)))
    return out


def _interior_low_faces(geom: exact.Geometry) -> list[tuple]:
    """Faces of dimension <= n-1 whose relative interior is inside the support."""
    boundary_sets = [set(f) for f in geom.boundary]
    faces = set()
    for cell in geom.cells:
        for mask in range(1, (1 << len(cell)) - 1):
            face = tuple(v for i, v in enumerate(cell) if mask >> i & 1)
            if not any(set(face) <= b for b in boundary_sets):
                faces.add(face)
    return sorted(faces)
