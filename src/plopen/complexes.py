"""Simplicial complexes over rational coordinates.

A complex is a set of full-dimensional simplices ("cells") in R^n given by
vertex indices, together with the derived lattice of all faces. Validation
enforces the textbook conditions exactly: cells are nondegenerate, any two
cells meet in a common face or not at all, and no (n-1)-face is shared by
three or more cells. The support's topological boundary is then precisely the
set of (n-1)-faces incident to a single cell.

The complex keeps the integer form of its vertices in one
`feasible.IntegerPoints` (`points`), which builds each cell's integer box
and frame at first use and keeps them for the complex's lifetime.
Validation decides each cell's degeneracy by whether its frame exists.
Properness is first decided by the degree argument (`_proper_by_degree`,
Lipman's injectivity theorem for meshes with the identity as the map): when
the two cells of every interior facet lie on opposite sides of it, the
cells are connected, the boundary is one embedded cycle and one cell holds
cell 0's barycentre, no two cells meet improperly. That costs one sign per
interior facet and one probe per pair of boundary facets whose boxes meet.
Only when a premise fails does the all-pairs sweep run
(`improper_intersections`), over the pairs of the grid over the cell boxes
(`IntegerPoints.grid`), and it alone reports improper intersections. Both
walk their pairs with one loop, `improper_pairs`, as `whyburn`'s
boundary-injectivity stage does. Point location asks that cell grid, built
at its first query (or by the sweep) and kept, which cell boxes hold the
point's integer homogeneous column, then reads the signs of barycentric
weights in those cells' frames, in cell order: each query is classified as
interior to a unique cell, on the relative interior of a unique smallest
face, or outside the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from . import feasible
from .linalg import DimensionError, Vector, vector

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

    points: feasible.IntegerPoints  # the vertices and their integer form
    cells: tuple[Simplex, ...]
    ambient_dim: int
    faces: dict[Face, FaceInfo] = field(repr=False)
    boundary: tuple[Face, ...]  # (n-1)-faces incident to exactly one cell
    # each cell's vertex ids; the key of the kept cell grid (`IntegerPoints.grid`)
    cell_ids: tuple[Face, ...] = field(repr=False)

    # -- basic geometry ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return self.points.points

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

    def star(self, face: Face) -> tuple[int, ...]:
        """Indices of the cells containing the face."""
        return self.faces[face].cells

    def interior_faces(self) -> list[Face]:
        """Faces whose relative interior lies in the open support, by size
        and then by ids."""
        return sorted(
            (ids for ids, info in self.faces.items() if not info.on_boundary),
            key=lambda ids: (len(ids), ids),
        )

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
        points, cells = self.points, self.cell_ids
        for ci in points.grid(cells, cells).holders(column):
            ids = cells[ci]
            weights = points.frame(ids).weights(column)
            if min(weights) >= 0:
                support = tuple(v for v, w in zip(ids, weights) if w > 0)
                if len(support) == len(ids):
                    return Located("interior", cell=ci)
                return Located("face", face=support)
        return Located("outside")


def improper_pairs(
    points: feasible.IntegerPoints,
    faces: Sequence[Face],
    cells: Sequence[Face],
    frames: Sequence[feasible.SimplexFrame],
) -> Iterator[tuple[int, int, Face]]:
    """The pairs of simplices that meet improperly: (i, k, shared face).

    Two simplices must meet exactly in the simplex spanned by their shared
    vertices. For simplices, conv(P) ∩ aff(shared) equals the shared face,
    so the intersection is proper iff it stays inside that affine hull (iff
    it is empty when no vertices are shared): one strict probe per pair
    whose integer boxes overlap, in the frame of faces[i] (frames[i]). The
    pairs come from the grid over the boxes of faces (`IntegerPoints.grid`,
    stepped by the cells' boxes), in `BoxGrid.pairs` order, and the grid
    finds each simplex's partners only when it is reached, so a caller that
    takes the first pair probes no further.
    """
    for i, k in points.grid(faces, cells).pairs():
        face_i, face_k = faces[i], faces[k]
        span = [j for j, v in enumerate(face_i) if v in face_k]
        if feasible.hull_leaves_affine_span(frames[i], points.cols(face_k), span):
            yield i, k, tuple(face_i[j] for j in span)


def improper_intersections(
    points: feasible.IntegerPoints, cell_ids: Sequence[Face]
) -> list[Violation]:
    """The improper_intersection violations of the all-pairs properness sweep
    (`improper_pairs` over the cells, whose grid the points keep for `locate`)."""
    violations = []
    frames = [points.frame(ids) for ids in cell_ids]
    for a, b, shared in improper_pairs(points, cell_ids, cell_ids, frames):
        if shared:
            message = f"cells {a} and {b} overlap beyond their common face {shared}"
        else:
            message = f"cells {a} and {b} intersect but share no face"
        violations.append(Violation("improper_intersection", message, (a, b)))
    return violations


def _proper_by_degree(
    points: feasible.IntegerPoints,
    cell_ids: Sequence[Face],
    face_cells: dict[Face, set[int]],
    boundary: Sequence[Face],
) -> bool:
    """Whether the degree argument proves that every two cells meet properly.

    The caller has checked that every cell has a frame, that no cell is
    listed twice and that every (n-1)-face has at most two cells. The
    premises:
    - the two cells of each interior facet lie strictly on opposite sides of
      it (one sign in a cell frame), so the number of cells over a generic
      point is constant off the boundary;
    - the cells are connected through interior facets;
    - the boundary is one strongly connected cycle (`boundary_cycle_defects`);
    - exactly one closed cell holds the barycentre of cell 0;
    - the boundary facets meet properly: one probe per pair whose boxes
      meet, in a facet frame read off its cell's frame
      (`IntegerPoints.facet_frame`).
    The boundary is then an embedded connected closed pseudomanifold, whose
    complement has one bounded component (Alexander duality mod 2; in 1-D
    the outer two intervals count 0 cells). The count there is the count
    over cell 0's barycentre, 1, so no generic point lies in two cells. Two
    cells meeting improperly would give two points of the complex one
    position, and then the cells around the two would both cover generic
    points near it. This is Lipman's injectivity theorem for meshes, with
    the identity as the map; `whyburn` certifies a ball map by the same
    argument with the map in its place (its module docstring). False means
    "not proved": the sweep decides.
    """
    n = len(cell_ids[0]) - 1
    frames = [points.frame(ids) for ids in cell_ids]
    columns = points.columns
    edges = []
    for ids, incident in face_cells.items():
        if len(ids) == n and len(incident) == 2:
            a, b = incident
            j = next(k for k, v in enumerate(cell_ids[a]) if v not in ids)
            (far,) = (v for v in cell_ids[b] if v not in ids)
            if sum(map(mul, frames[a].bary[j], columns[far])) >= 0:
                return False
            edges.append((a, b))
    if not graph_connected(len(cell_ids), edges) or boundary_cycle_defects(n, boundary):
        return False
    scaled, denominator = points.scaled, points.denominator
    centre = (*map(sum, zip(*(scaled[v] for v in cell_ids[0]))), (n + 1) * denominator)
    holders = 0
    for ids, frame in zip(cell_ids, frames):
        if feasible.box_holds(points.box(ids), denominator, centre) and frame.contains(centre):
            holders += 1
    if holders != 1:
        return False
    facet_frames = []
    for face in boundary:
        (owner,) = face_cells[face]
        facet_frames.append(points.facet_frame(cell_ids[owner], face))
    return next(improper_pairs(points, boundary, cell_ids, facet_frames), None) is None


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

    points = feasible.IntegerPoints(verts)
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
        if points.frame(ids) is None:
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

    # Face lattice and manifold condition on (n-1)-faces. Properness comes
    # first: by the degree argument (`_proper_by_degree`) when its premises
    # hold, else by the all-pairs sweep, whose violations come before the
    # nonmanifold ones.
    cell_ids = tuple(s.vertex_ids for s in simplices)
    face_cells: dict[Face, set[int]] = {}
    for idx, ids in enumerate(cell_ids):
        for sub in _subsets(ids):
            face_cells.setdefault(sub, set()).add(idx)
    nonmanifold = [
        Violation(
            "nonmanifold_face",
            f"(n-1)-face {ids} is incident to {len(incident)} cells",
            tuple(sorted(incident)),
        )
        for ids, incident in sorted(
            (ids, inc) for ids, inc in face_cells.items() if len(ids) == n and len(inc) > 2
        )
    ]
    boundary = tuple(
        sorted(ids for ids, inc in face_cells.items() if len(ids) == n and len(inc) == 1)
    )
    if violations or nonmanifold or not _proper_by_degree(points, cell_ids, face_cells, boundary):
        violations += improper_intersections(points, cell_ids)
    violations += nonmanifold
    if violations:
        return violations, None

    on_boundary = {sub for ids in boundary for sub in _subsets(ids)}
    faces = {
        ids: FaceInfo(ids, len(ids) - 1, tuple(sorted(inc)), ids in on_boundary)
        for ids, inc in face_cells.items()
    }
    complex_ = SimplicialComplex(
        points=points,
        cells=tuple(simplices),
        ambient_dim=n,
        faces=faces,
        boundary=boundary,
        cell_ids=cell_ids,
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


def boundary_cycle_defects(n: int, boundary: Sequence[Face]) -> list[str]:
    """The reasons the boundary (n-1)-faces are not one strongly connected
    cycle, [] when they are.

    The boundary must not be empty. An n = 1 boundary is exactly two
    vertices. For n >= 2 every boundary (n-2)-face must bound exactly two
    boundary faces, and the boundary faces must be connected through them.
    """
    reasons = []
    if not boundary:
        reasons.append("support has no boundary")
    if n == 1:
        if len(boundary) != 2:
            reasons.append(f"an interval has 2 boundary vertices, found {len(boundary)}")
    elif boundary:
        ridge_count: dict[Face, list[int]] = {}
        for bi, face in enumerate(boundary):
            for drop in range(len(face)):
                ridge = face[:drop] + face[drop + 1 :]
                ridge_count.setdefault(ridge, []).append(bi)
        bad = {r: inc for r, inc in ridge_count.items() if len(inc) != 2}
        if bad:
            sample = next(iter(sorted(bad)))
            reasons.append(
                f"boundary (n-2)-face {sample} bounds {len(bad[sample])} boundary faces, expected 2"
            )
        elif not graph_connected(len(boundary), ridge_count.values()):
            reasons.append("boundary faces are not a single connected cycle")
    return reasons


def cells_connected(complex_: SimplicialComplex) -> bool:
    """Whether the cells are chained through shared interior (n-1)-faces."""
    n = complex_.ambient_dim
    edges = [
        info.cells for ids, info in complex_.faces.items() if len(ids) == n and len(info.cells) == 2
    ]
    return graph_connected(len(complex_.cells), edges)
