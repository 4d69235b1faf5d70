"""Simplicial complexes over rational coordinates.

A complex is a set of full-dimensional simplices ("cells") in R^n given by
vertex indices, together with the derived lattice of all faces. Validation
enforces the textbook conditions exactly: cells are nondegenerate, any two
cells meet in a common face or not at all, and no (n-1)-face is shared by
three or more cells. The support's topological boundary is then precisely the
set of (n-1)-faces incident to a single cell.

Point location reads the signs of barycentric weights in each cell's integer
frame (`cell_frame`, kept for the complex's lifetime and seeded by
validation): each query is classified as interior to a unique cell, on the
relative interior of a unique smallest face, or outside the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import feasible
from .linalg import (
    DimensionError,
    Matrix,
    Vector,
    det_sign,
    vec_sub,
    vector,
)

Face = tuple[int, ...]  # sorted vertex ids


@dataclass(frozen=True)
class Simplex:
    """A simplex named by its (distinct, sorted) vertex ids."""

    vertex_ids: Face

    def __post_init__(self) -> None:
        ids = self.vertex_ids
        if list(ids) != sorted(set(ids)):
            raise ValueError(f"vertex ids must be distinct and sorted, got {ids}")

    @property
    def dim(self) -> int:
        return len(self.vertex_ids) - 1


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    subjects: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class InvalidComplexError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in violations))


class NonManifoldError(InvalidComplexError):
    pass


@dataclass(frozen=True)
class FaceInfo:
    ids: Face
    dim: int
    cells: tuple[int, ...]  # incident cell indices, sorted
    on_boundary: bool  # contained in some boundary (n-1)-face


@dataclass(frozen=True)
class Located:
    kind: str  # "interior" | "face" | "outside"
    cell: Optional[int] = None
    face: Optional[Face] = None


def _subsets(ids: Face) -> Iterable[Face]:
    n = len(ids)
    for mask in range(1, 1 << n):
        yield tuple(ids[i] for i in range(n) if mask >> i & 1)


@dataclass
class SimplicialComplex:
    """A validated pure n-dimensional simplicial complex in R^n."""

    vertices: tuple[Vector, ...]
    cells: tuple[Simplex, ...]
    ambient_dim: int
    faces: dict[Face, FaceInfo] = field(repr=False)
    boundary: tuple[Face, ...]  # (n-1)-faces incident to exactly one cell
    _cell_frames: dict[int, feasible.SimplexFrame] = field(default_factory=dict, repr=False)
    _cell_boxes: dict[int, tuple[Vector, Vector]] = field(default_factory=dict, repr=False)

    # -- basic geometry ----------------------------------------------------

    def cell_points(self, cell_index: int) -> tuple[Vector, ...]:
        return tuple(self.vertices[i] for i in self.cells[cell_index].vertex_ids)

    def face_points(self, face: Face) -> tuple[Vector, ...]:
        return tuple(self.vertices[i] for i in face)

    def barycenter(self, face: Face) -> Vector:
        pts = self.face_points(face)
        k = Fraction(1, len(pts))
        acc = [Fraction(0)] * self.ambient_dim
        for p in pts:
            for c in range(self.ambient_dim):
                acc[c] += p[c] * k
        return tuple(acc)

    def cell_box(self, cell_index: int) -> tuple[Vector, Vector]:
        box = self._cell_boxes.get(cell_index)
        if box is None:
            box = feasible.bounding_box(self.cell_points(cell_index))
            self._cell_boxes[cell_index] = box
        return box

    def star(self, face: Face) -> tuple[int, ...]:
        """Indices of the cells containing the face."""
        return self.faces[face].cells

    def interior_faces(self, max_dim: Optional[int] = None) -> list[Face]:
        """Faces whose relative interior lies in the open support."""
        out = [
            ids
            for ids, info in self.faces.items()
            if not info.on_boundary and (max_dim is None or info.dim <= max_dim)
        ]
        out.sort(key=lambda ids: (len(ids), ids))
        return out

    def faces_of_dim(self, dim: int) -> list[Face]:
        out = [ids for ids, info in self.faces.items() if info.dim == dim]
        out.sort()
        return out

    def cell_frame(self, cell_index: int) -> feasible.SimplexFrame:
        frame = self._cell_frames.get(cell_index)
        if frame is None:
            frame = feasible.simplex_frame(self.cell_points(cell_index))
            self._cell_frames[cell_index] = frame
        return frame

    def locate(self, point: Vector) -> Located:
        """Exact classification of a point against the support.

        Exactly one of the outcomes holds: interior to one cell, on the
        relative interior of one smallest face, or outside.
        """
        if len(point) != self.ambient_dim:
            raise DimensionError(
                f"point has dimension {len(point)}, complex is in R^{self.ambient_dim}"
            )
        column = feasible.homogeneous_column(point)
        for ci in range(len(self.cells)):
            low, high = self.cell_box(ci)
            if any(p < l or p > h for p, l, h in zip(point, low, high)):
                continue
            weights = self.cell_frame(ci).weights(column)
            if min(weights) >= 0:
                ids = self.cells[ci].vertex_ids
                support = tuple(v for v, w in zip(ids, weights) if w > 0)
                if len(support) == len(ids):
                    return Located("interior", cell=ci)
                return Located("face", face=support)
        return Located("outside")


def boundary_faces(complex_: SimplicialComplex) -> tuple[Face, ...]:
    """The (n-1)-faces on the topological boundary of the support."""
    return complex_.boundary


def collect_violations(
    vertices: Sequence[Sequence[int | str | Fraction]],
    cells: Sequence[Sequence[int]],
    ambient_dim: Optional[int] = None,
) -> tuple[list[Violation], Optional[SimplicialComplex]]:
    """All invariant violations, and the complex when there are none."""
    violations: list[Violation] = []
    verts = tuple(vector(v) for v in vertices)
    if not verts:
        return [Violation("empty", "complex has no vertices")], None
    if not cells:
        return [Violation("empty", "complex has no cells")], None
    n = ambient_dim if ambient_dim is not None else len(verts[0])
    bad_vertices = {i for i, v in enumerate(verts) if len(v) != n}
    for i in sorted(bad_vertices):
        violations.append(
            Violation("bad_vertex", f"vertex {i} has dimension {len(verts[i])}, expected {n}", (i,))
        )
    seen: dict[Vector, int] = {}
    for i, v in enumerate(verts):
        if v in seen:
            violations.append(
                Violation("duplicate_vertex", f"vertices {seen[v]} and {i} coincide", (seen[v], i))
            )
        else:
            seen[v] = i

    simplices: list[Simplex] = []
    for idx, raw in enumerate(cells):
        ids = tuple(sorted(raw))
        if len(set(ids)) != len(raw) or len(ids) != n + 1:
            violations.append(
                Violation(
                    "bad_cell",
                    f"cell {idx} must list {n + 1} distinct vertices, got {tuple(raw)}",
                    (idx,),
                )
            )
            continue
        if any(v < 0 or v >= len(verts) for v in ids):
            violations.append(Violation("bad_cell", f"cell {idx} references unknown vertices", (idx,)))
            continue
        if bad_vertices.intersection(ids):
            continue  # already a bad_vertex violation; its shape admits no geometry
        pts = [verts[i] for i in ids]
        dirs = [vec_sub(p, pts[0]) for p in pts[1:]]
        if det_sign(Matrix(tuple(dirs))) == 0:
            violations.append(
                Violation("degenerate_cell", f"cell {idx} has affinely dependent vertices", (idx,))
            )
            continue
        simplices.append(Simplex(ids))
    if violations:
        return violations, None

    dup_cells = {}
    for idx, s in enumerate(simplices):
        if s.vertex_ids in dup_cells:
            violations.append(
                Violation("duplicate_cell", f"cells {dup_cells[s.vertex_ids]} and {idx} coincide")
            )
        dup_cells.setdefault(s.vertex_ids, idx)

    # Pairwise properness: two cells must meet exactly in the simplex spanned
    # by their shared vertices. For simplices, conv(P) ∩ aff(shared) equals
    # the shared face, so the intersection is proper iff it stays inside that
    # affine hull (iff it is empty when no vertices are shared): one strict
    # probe per pair, in cell a's frame, which the complex then keeps.
    boxes = [feasible.bounding_box([verts[i] for i in s.vertex_ids]) for s in simplices]
    frames: dict[int, feasible.SimplexFrame] = {}
    for a in range(len(simplices)):
        for b in range(a + 1, len(simplices)):
            if not feasible.boxes_overlap(boxes[a], boxes[b]):
                continue
            if a not in frames:
                frames[a] = feasible.simplex_frame([verts[i] for i in simplices[a].vertex_ids])
            pb = [verts[i] for i in simplices[b].vertex_ids]
            shared = tuple(sorted(set(simplices[a].vertex_ids) & set(simplices[b].vertex_ids)))
            if feasible.hull_leaves_affine_span(frames[a], pb, [verts[i] for i in shared]):
                if shared:
                    message = f"cells {a} and {b} overlap beyond their common face {shared}"
                else:
                    message = f"cells {a} and {b} intersect but share no face"
                violations.append(Violation("improper_intersection", message, (a, b)))

    # Face lattice and manifold condition on (n-1)-faces.
    face_cells: dict[Face, set[int]] = {}
    for idx, s in enumerate(simplices):
        for sub in _subsets(s.vertex_ids):
            face_cells.setdefault(sub, set()).add(idx)
    for ids, incident in sorted(face_cells.items()):
        if len(ids) == n and len(incident) > 2:
            violations.append(
                Violation(
                    "nonmanifold_face",
                    f"(n-1)-face {ids} is incident to {len(incident)} cells",
                    tuple(sorted(incident)),
                )
            )
    if violations:
        return violations, None

    boundary = tuple(
        sorted(ids for ids, inc in face_cells.items() if len(ids) == n and len(inc) == 1)
    )
    boundary_sets = [set(b) for b in boundary]
    faces = {
        ids: FaceInfo(
            ids,
            len(ids) - 1,
            tuple(sorted(inc)),
            any(set(ids) <= bs for bs in boundary_sets),
        )
        for ids, inc in face_cells.items()
    }
    complex_ = SimplicialComplex(
        vertices=verts,
        cells=tuple(simplices),
        ambient_dim=n,
        faces=faces,
        boundary=boundary,
        _cell_frames=frames,
    )
    return [], complex_


def validate_complex(
    vertices: Sequence[Sequence[int | str | Fraction]],
    cells: Sequence[Sequence[int]],
    ambient_dim: Optional[int] = None,
) -> SimplicialComplex:
    """The validated complex; raises InvalidComplexError listing all violations."""
    violations, complex_ = collect_violations(vertices, cells, ambient_dim)
    if violations:
        if any(v.kind == "nonmanifold_face" for v in violations):
            raise NonManifoldError(violations)
        raise InvalidComplexError(violations)
    assert complex_ is not None
    return complex_


def graph_connected(count: int, edges: Iterable[Sequence[int]]) -> bool:
    """Whether the graph on nodes 0..count-1 with these (a, b) edges is connected."""
    if count <= 1:
        return True
    adjacency: dict[int, set[int]] = {i: set() for i in range(count)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == count


def cells_connected(complex_: SimplicialComplex) -> bool:
    """Whether the cells are chained through shared interior (n-1)-faces."""
    n = complex_.ambient_dim
    edges = [
        info.cells for ids, info in complex_.faces.items() if len(ids) == n and len(info.cells) == 2
    ]
    return graph_connected(len(complex_.cells), edges)


def scaled_star(
    complex_: SimplicialComplex, center: Vector, carrier: Face, factor: Fraction
) -> tuple[tuple[Vector, ...], list[list[int]], dict[int, int]]:
    """Vertices and cells of the star of a face, scaled toward a point.

    Returns (vertices, cells, cell_map) where cell_map sends new cell indices
    back to the original cell indices. Scaling about a point of the carrier is
    a homeomorphism, so the scaled star is again a valid complex.
    """
    star_cells = complex_.star(carrier)
    new_vertices: list[Vector] = []
    index_of: dict[Vector, int] = {}
    cells_out: list[list[int]] = []
    cell_map: dict[int, int] = {}
    for new_index, ci in enumerate(star_cells):
        ids = []
        for vid in complex_.cells[ci].vertex_ids:
            scaled = tuple(
                c + factor * (v - c) for v, c in zip(complex_.vertices[vid], center)
            )
            if scaled not in index_of:
                index_of[scaled] = len(new_vertices)
                new_vertices.append(scaled)
            ids.append(index_of[scaled])
        cells_out.append(ids)
        cell_map[new_index] = ci
    return tuple(new_vertices), cells_out, cell_map
