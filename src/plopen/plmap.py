"""Piecewise-affine maps in vertex-image form.

A map is a validated simplicial complex plus one image point per vertex; the
affine piece of each cell is the unique affine map interpolating the images of
its n+1 vertices, so continuity across shared faces holds by construction.
The triple form (cell, matrix, offset) is a derived view: `ingest_pieces`
keeps the given pieces and reads the vertex images off them after checking
continuity exactly. The map owns the integer frame of each image simplex and
the vertex images' homogeneous columns, built at first use and kept for its
lifetime; fibers, the branch set, the oracle and the certifier read them.

The ingredients of every openness verdict live here: determinant-sign
profiles, fibers (with exact witness segments through collapsed cells), the
component graph of the nonsingular locus, and image dimensions of
subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import feasible
from .complexes import (
    Face,
    SimplicialComplex,
    Violation,
    graph_connected,
    validate_complex,
)
from .linalg import (
    DimensionError,
    Matrix,
    Vector,
    inverse,
    rank,
    vec_add,
    vec_sub,
    vector,
)
from .linalg import det_sign as matrix_det_sign

ALL_POSITIVE = "AllPositive"
ALL_NEGATIVE = "AllNegative"
MIXED = "Mixed"
ZERO_ONLY = "ZeroOnly"
POSITIVE_WITH_ZEROS = "PositiveWithZeros"
NEGATIVE_WITH_ZEROS = "NegativeWithZeros"


class DiscontinuityError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece x -> matrix x + offset with its orientation sign."""

    matrix: Matrix
    offset: Vector
    det_sign: int

    def apply(self, x: Vector) -> Vector:
        return vec_add(self.matrix.mul_vec(x), self.offset)


@dataclass
class PLMap:
    domain: SimplicialComplex
    vertex_images: tuple[Vector, ...]
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self) -> None:
        self._image_boxes: dict[int, tuple[Vector, Vector]] = {}
        self._image_frames: dict[Face, Optional[feasible.SimplexFrame]] = {}
        self._columns: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def ambient_dim(self) -> int:
        return self.domain.ambient_dim

    def image_of_face(self, face: Face) -> tuple[Vector, ...]:
        return tuple(self.vertex_images[i] for i in face)

    def cell_image_points(self, cell_index: int) -> tuple[Vector, ...]:
        return self.image_of_face(self.domain.cells[cell_index].vertex_ids)

    def image_box(self, cell_index: int) -> tuple[Vector, Vector]:
        box = self._image_boxes.get(cell_index)
        if box is None:
            box = feasible.bounding_box(self.cell_image_points(cell_index))
            self._image_boxes[cell_index] = box
        return box

    def image_frame(self, face: Face) -> Optional[feasible.SimplexFrame]:
        """The integer frame of the face's image simplex; None when it is affinely dependent."""
        if face not in self._image_frames:
            try:
                self._image_frames[face] = feasible.simplex_frame(self.image_of_face(face))
            except ValueError:
                self._image_frames[face] = None
        return self._image_frames[face]

    def image_columns(self, face: Face) -> tuple[tuple[int, ...], ...]:
        """The integer homogeneous columns of the face's vertex images."""
        if self._columns is None:
            self._columns = tuple(feasible.homogeneous_column(q) for q in self.vertex_images)
        return tuple(self._columns[i] for i in face)

    def evaluate(self, x: Vector) -> Vector:
        located = self.domain.locate(x)
        if located.kind == "outside":
            raise ValueError(f"point {x} is outside the support")
        if located.kind == "interior":
            return self.pieces[located.cell].apply(x)
        cell = self.domain.faces[located.face].cells[0]
        return self.pieces[cell].apply(x)


@dataclass(frozen=True)
class SignProfile:
    num_pos: int
    num_neg: int
    num_zero: int
    classification: str

    @property
    def sign_not_mixed(self) -> bool:
        return self.classification != MIXED


@dataclass(frozen=True)
class FiberPoint:
    point: Vector
    cells: tuple[int, ...]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class FiniteFiber:
    points: tuple[FiberPoint, ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class InfiniteFiber:
    """A certified non-finite fiber: a whole segment maps to the query point."""

    segment: tuple[Vector, Vector]
    cell: int


@dataclass(frozen=True)
class ComponentGraph:
    """Components of the nonsingular locus, adjacent across interior faces."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    is_connected: bool


def derive_piece(cell_points: Sequence[Vector], image_points: Sequence[Vector]) -> AffinePiece:
    """The unique affine map sending each cell vertex to its image."""
    base, image_base = cell_points[0], image_points[0]
    domain_dirs = Matrix.from_columns([vec_sub(p, base) for p in cell_points[1:]])
    image_dirs = Matrix.from_columns([vec_sub(q, image_base) for q in image_points[1:]])
    domain_inverse = inverse(domain_dirs)
    assert domain_inverse is not None  # cell nondegeneracy is validated
    matrix = image_dirs.mul_mat(domain_inverse)
    offset = vec_sub(image_base, matrix.mul_vec(base))
    return AffinePiece(matrix, offset, matrix_det_sign(matrix))


def build_plmap(
    complex_: SimplicialComplex, vertex_images: Sequence[Sequence[int | str | Fraction]]
) -> PLMap:
    images = tuple(vector(v) for v in vertex_images)
    if len(images) != len(complex_.vertices):
        raise ValueError(
            f"{len(images)} images for {len(complex_.vertices)} vertices"
        )
    n = complex_.ambient_dim
    for i, img in enumerate(images):
        if len(img) != n:
            raise ValueError(f"image of vertex {i} has dimension {len(img)}, expected {n}")
    pieces = tuple(
        derive_piece(
            complex_.cell_points(ci), tuple(images[i] for i in complex_.cells[ci].vertex_ids)
        )
        for ci in range(len(complex_.cells))
    )
    return PLMap(complex_, images, pieces)


def export_pieces(f: PLMap) -> list[tuple[tuple[Vector, ...], Matrix, Vector]]:
    """The derived (cell points, matrix, offset) triple view."""
    return [
        (f.domain.cell_points(ci), f.pieces[ci].matrix, f.pieces[ci].offset)
        for ci in range(len(f.domain.cells))
    ]


def ingest_pieces(
    triples: Sequence[tuple[Sequence[Sequence[int | str | Fraction]], Matrix, Sequence[int | str | Fraction]]],
) -> PLMap:
    """Build a map from (simplex points, matrix, offset) triples.

    The simplices must form a valid complex; adjacent pieces must agree on
    shared faces, which for affine pieces is equivalent to agreeing on shared
    vertices. Disagreements raise DiscontinuityError naming each face.
    """
    vertex_index: dict[Vector, int] = {}
    vertices: list[Vector] = []
    cells: list[list[int]] = []
    for points, _, _ in triples:
        ids = []
        for p in points:
            pv = vector(p)
            if pv not in vertex_index:
                vertex_index[pv] = len(vertices)
                vertices.append(pv)
            ids.append(vertex_index[pv])
        cells.append(ids)
    complex_ = validate_complex(vertices, cells)

    pieces: list[AffinePiece] = []
    assigned: dict[int, tuple[Vector, int]] = {}
    violations: list[Violation] = []
    for ci, (points, matrix, offset) in enumerate(triples):
        piece = AffinePiece(matrix, vector(offset), matrix_det_sign(matrix))
        pieces.append(piece)
        for p in points:
            vid = vertex_index[vector(p)]
            image = piece.apply(vertices[vid])
            if vid in assigned:
                prior_image, prior_cell = assigned[vid]
                if prior_image != image:
                    shared = tuple(
                        sorted(
                            set(complex_.cells[prior_cell].vertex_ids)
                            & set(complex_.cells[ci].vertex_ids)
                        )
                    )
                    violations.append(
                        Violation(
                            "discontinuous",
                            f"discontinuous across face {shared}: cells {prior_cell} and {ci} "
                            f"disagree at vertex {vid}",
                            (prior_cell, ci, shared),
                        )
                    )
            else:
                assigned[vid] = (image, ci)
    if violations:
        raise DiscontinuityError(violations)
    # On a valid complex each piece is the unique affine map through its
    # vertices' images, so the given pieces are kept as they are.
    images = tuple(assigned[i][0] for i in range(len(vertices)))
    return PLMap(complex_, images, tuple(pieces))


def sign_profile(f: PLMap) -> SignProfile:
    num_pos = sum(1 for p in f.pieces if p.det_sign > 0)
    num_neg = sum(1 for p in f.pieces if p.det_sign < 0)
    num_zero = sum(1 for p in f.pieces if p.det_sign == 0)
    if num_pos and num_neg:
        classification = MIXED
    elif num_pos:
        classification = ALL_POSITIVE if not num_zero else POSITIVE_WITH_ZEROS
    elif num_neg:
        classification = ALL_NEGATIVE if not num_zero else NEGATIVE_WITH_ZEROS
    else:
        classification = ZERO_ONLY
    return SignProfile(num_pos, num_neg, num_zero, classification)


def finite_fibers(f: PLMap) -> bool:
    """True iff every piece is nonsingular.

    A singular full-dimensional piece maps its cell onto a lower-dimensional
    set, so some fiber contains a whole segment; conversely a nonsingular
    piece contributes at most one preimage per cell to any fiber.
    """
    return all(p.det_sign != 0 for p in f.pieces)


def fiber(f: PLMap, query: Vector) -> FiniteFiber | InfiniteFiber:
    """Exact preimage of a point, or a witness segment through a collapsed cell.

    In a nonsingular cell's image frame, w_j = (bary_j·ŷ)·m_j (ŷ the query's
    homogeneous column, m_j the last entry of image column j) is the query's
    weight on image vertex j times one positive factor per cell: the cell
    counts iff min w ≥ 0, at the point Σ w_j v_j / Σ w_j.
    """
    if len(query) != f.ambient_dim:
        raise DimensionError(f"query has dimension {len(query)}, map is on R^{f.ambient_dim}")
    found: dict[Vector, tuple[list[int], list[int]]] = {}
    column = feasible.homogeneous_column(query)
    for ci, piece in enumerate(f.pieces):
        if piece.det_sign != 0:
            low, high = f.image_box(ci)
            if any(q < l or q > h for q, l, h in zip(query, low, high)):
                continue
            ids = f.domain.cells[ci].vertex_ids
            weights = [
                w * image[-1]
                for w, image in zip(f.image_frame(ids).weights(column), f.image_columns(ids))
            ]
            if min(weights) < 0:
                continue
            total = sum(weights)
            points = f.domain.cell_points(ci)
            candidate = tuple(
                sum(w * p[c] for w, p in zip(weights, points) if w) / total
                for c in range(f.ambient_dim)
            )
            cells, signs = found.setdefault(candidate, ([], []))
            cells.append(ci)
            signs.append(piece.det_sign)
        else:
            dim, points = feasible.constrained_hull_dim(
                f.domain.cell_points(ci), piece.matrix, vec_sub(query, piece.offset)
            )
            if dim is None:
                continue
            if dim >= 1:
                return InfiniteFiber(segment=(points[0], points[1]), cell=ci)
            cells, signs = found.setdefault(points[0], ([], []))
            cells.append(ci)
            signs.append(0)
    points_out = tuple(
        FiberPoint(pt, tuple(cells), tuple(signs))
        for pt, (cells, signs) in sorted(found.items())
    )
    return FiniteFiber(points_out)


def component_graph(f: PLMap) -> ComponentGraph:
    """The graph of connected components of the nonsingular locus.

    Two nonsingular cells lie in one component when a chain of interior
    (n-1)-faces with coinciding pieces connects them (the map is affine, hence
    C^1, through such a face). Components whose closures share an interior
    (n-1)-face (the pieces then differ across it) are joined by an edge.
    """
    n = f.ambient_dim
    nonsingular = [ci for ci, p in enumerate(f.pieces) if p.det_sign != 0]
    parent = {ci: ci for ci in nonsingular}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    shared_faces: list[tuple[int, int]] = []
    for ids, info in f.domain.faces.items():
        if len(ids) != n or len(info.cells) != 2:
            continue
        a, b = info.cells
        if f.pieces[a].det_sign == 0 or f.pieces[b].det_sign == 0:
            continue
        if f.pieces[a].matrix == f.pieces[b].matrix and f.pieces[a].offset == f.pieces[b].offset:
            parent[find(a)] = find(b)
        else:
            shared_faces.append((a, b))

    groups: dict[int, list[int]] = {}
    for ci in nonsingular:
        groups.setdefault(find(ci), []).append(ci)
    nodes = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    node_of = {ci: idx for idx, node in enumerate(nodes) for ci in node}
    edges = set()
    for a, b in shared_faces:
        na, nb = node_of[a], node_of[b]
        if na != nb:
            edges.add((min(na, nb), max(na, nb)))
    edge_tuple = tuple(sorted(edges))
    return ComponentGraph(nodes, edge_tuple, graph_connected(len(nodes), edge_tuple))


def image_dimension(f: PLMap, subcomplex_faces: Sequence[Face]) -> int:
    """Dimension of the image of a union of faces of the domain complex."""
    best = -1
    for face in subcomplex_faces:
        if tuple(face) not in f.domain.faces:
            raise ValueError(f"{face} is not a face of the domain complex")
        images = f.image_of_face(tuple(face))
        dirs = [vec_sub(q, images[0]) for q in images[1:]]
        dim = rank(Matrix(tuple(dirs))) if dirs else 0
        best = max(best, dim)
    return best
