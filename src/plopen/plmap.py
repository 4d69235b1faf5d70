"""Piecewise-affine maps in vertex-image form.

A map is a validated simplicial complex plus one image point per vertex; the
affine piece of each cell is the unique affine map interpolating the images of
its n+1 vertices, so continuity across shared faces holds by construction.
Every map is made by `build_plmap`, in integers only: each piece's
determinant sign is the product of two integer orientations, the cell's and
its image's. Its matrix and offset are an output: `AffinePiece` builds them
from the cell's integer frame only when something reads them, and nothing
here decides with them. A piece is fixed by its vertices' images, so every
question about pieces is asked at the vertices. The pieces form (one matrix
and offset per cell) enters through `ingest_pieces`: it validates the
caller's own vertices and cells, reads each given piece at its cell's
vertices in integers, checks that every cell listing a vertex gives it the
same image, and builds the map from those images. Two pieces across a facet
coincide when the far vertex of one cell has the same weights in the other
cell's frame as its image has in that cell's image frame
(`component_graph`).

The map keeps the integer form of its vertex images in one
`feasible.IntegerPoints` (`images`), the same kind of owner the domain keeps
for its vertices: per face, the integer bounding box, the homogeneous
columns and the integer frame of the face's image simplex, each built at
first use and kept for the map's lifetime, and the grids over the image
boxes of the domain's face lists (`image_grid`). Fibers, degree queries,
the branch set, the oracle and the certifier read them. A point query asks
the cell grid which cell images' boxes hold the point and reads the point's
weights in those cells' image frames only (`image_weights`); `fiber` and
`degree`'s scan share that arithmetic. Each face's image lies in the image
of every cell that has the face, so no point query needs a grid over faces.

The ingredients of every openness verdict live here: determinant-sign
profiles, fibers (with exact witness segments through collapsed cells), the
local degree at a face as one signed count of its star's image cones
(`cone_count`, which the branch set and `degree.local_degree` share), the
component graph of the nonsingular locus, and image dimensions of
subcomplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Sequence

from . import feasible
from .complexes import (
    Face,
    InvalidComplexError,
    SimplicialComplex,
    Violation,
    graph_connected,
    validate_complex,
)
from .linalg import (
    DimensionError,
    Matrix,
    Vector,
    integer_determinant,
    rank,
    vec_add,
    vec_sub,
    vector,
)

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


class AffinePiece:
    """One affine piece x -> matrix x + offset with its orientation sign.

    `build_plmap` sets `det_sign` from two integer orientations and hands
    the piece its cell's frame rows and columns; `matrix` and `offset` are
    built from those (`_frame_piece`) the first time either is read, and
    kept. This is the one place that builds a piece's `Fraction` form, for
    `PLMap.evaluate`, callers and tests: no decision of the library reads
    it. Two pieces are equal when their matrices, offsets and signs are.
    """

    __slots__ = ("det_sign", "_source", "_affine")

    def __init__(
        self,
        det_sign: int,
        bary: Sequence[Sequence[int]],
        vertex_columns: Sequence[tuple[int, ...]],
        image_columns: Sequence[tuple[int, ...]],
    ) -> None:
        self.det_sign = det_sign
        self._source = (bary, vertex_columns, image_columns)
        self._affine: tuple[Matrix, Vector] | None = None

    def _built(self) -> tuple[Matrix, Vector]:
        if self._affine is None:
            self._affine = _frame_piece(*self._source)
        return self._affine

    @property
    def matrix(self) -> Matrix:
        return self._built()[0]

    @property
    def offset(self) -> Vector:
        return self._built()[1]

    def _key(self) -> tuple[Matrix, Vector, int]:
        return (*self._built(), self.det_sign)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        matrix, offset = self._built()
        return f"AffinePiece(matrix={matrix!r}, offset={offset!r}, det_sign={self.det_sign})"

    def apply(self, x: Vector) -> Vector:
        return vec_add(self.matrix.mul_vec(x), self.offset)


@dataclass
class PLMap:
    domain: SimplicialComplex
    images: feasible.IntegerPoints  # the vertex images and their integer form
    pieces: tuple[AffinePiece, ...]

    @property
    def vertex_images(self) -> tuple[Vector, ...]:
        return self.images.points

    @property
    def ambient_dim(self) -> int:
        return self.domain.ambient_dim

    def image_grid(self, faces: Sequence[Face]) -> feasible.BoxGrid:
        """The grid over the image boxes of a face list the domain keeps
        (`IntegerPoints.grid`), stepped by the cell images' boxes."""
        return self.images.grid(faces, self.domain.cell_ids)

    def image_of_face(self, face: Face) -> tuple[Vector, ...]:
        return tuple(self.vertex_images[i] for i in face)

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


def _frame_piece(
    bary: Sequence[Sequence[int]],
    vertex_columns: Sequence[tuple[int, ...]],
    image_columns: Sequence[tuple[int, ...]],
) -> tuple[Matrix, Vector]:
    """The matrix and offset of the unique affine map sending each vertex
    of a cell to its image.

    bary is the cell's frame (`IntegerPoints.frame` of the domain), and the
    vertices and their images enter as integer homogeneous columns
    v̂_j = (m_j·v_j, m_j) and (a_j, s_j). For x̂ = (x, 1),
    bary_j·x̂ = D·λ_j(x)/m_j for x's barycentric weights λ, where
    D = bary_0·v̂_0 > 0. So f(x) = Σ_j f(v_j)·m_j·(bary_j·x̂)/D: entry (r, c)
    of the matrix is Σ_j f(v_j)[r]·m_j·bary_j[c]/D, and the offset is the
    same sum over the last column. Over the images' common denominator each
    entry is one integer sum and one Fraction, with no inverse matrix.
    """
    n = len(image_columns) - 1
    common = lcm(*(col[-1] for col in image_columns))
    factors = [v[-1] * (common // col[-1]) for v, col in zip(vertex_columns, image_columns)]
    denominator = sum(map(mul, bary[0], vertex_columns[0])) * common
    numerators = [
        [
            sum(col[r] * g * row[c] for col, g, row in zip(image_columns, factors, bary))
            for c in range(n + 1)
        ]
        for r in range(n)
    ]
    matrix = Matrix(tuple(tuple(Fraction(x, denominator) for x in row[:n]) for row in numerators))
    return matrix, tuple(Fraction(row[n], denominator) for row in numerators)


def build_plmap(
    complex_: SimplicialComplex, vertex_images: Sequence[Sequence[int | str | Fraction]]
) -> PLMap:
    """The map with these vertex images on a validated complex.

    The homogeneous form of a piece sends each vertex column
    v̂_j = (m_j·v_j, m_j) to its image column (a_j, s_j) times m_j/s_j > 0,
    so the piece's determinant sign is the cell's orientation
    (`SimplexFrame.orientation`, from the frame validation built) times the
    sign of the integer determinant of the image columns. No Fraction is
    made here; each piece builds its matrix and offset when first read.
    """
    images = tuple(vector(v) for v in vertex_images)
    if len(images) != len(complex_.vertices):
        raise ValueError(
            f"{len(images)} images for {len(complex_.vertices)} vertices"
        )
    n = complex_.ambient_dim
    for i, img in enumerate(images):
        if len(img) != n:
            raise ValueError(f"image of vertex {i} has dimension {len(img)}, expected {n}")
    points, image_points = complex_.points, feasible.IntegerPoints(images)
    pieces = []
    for ids in complex_.cell_ids:
        frame, image_cols = points.frame(ids), image_points.cols(ids)
        d = integer_determinant([list(col) for col in image_cols])
        sign = frame.orientation * ((d > 0) - (d < 0))
        pieces.append(AffinePiece(sign, frame.bary, points.cols(ids), image_cols))
    return PLMap(complex_, image_points, tuple(pieces))


def ingest_pieces(
    vertices: Sequence[Sequence[int | str | Fraction]],
    cells: Sequence[Sequence[int]],
    pieces: Sequence[tuple[Matrix, Sequence[int | str | Fraction]]],
    ambient_dim: int | None = None,
) -> PLMap:
    """Build a map from one (matrix, offset) piece per cell.

    The vertices and cells are validated as the vertex-image form validates
    them (`validate_complex`), so every violation names the caller's vertex
    ids. On a valid complex a piece is fixed by its vertices' images, so the
    pieces are checked at the vertices, in one pass and in integers: each
    piece's rows (M_r, b_r) are scaled once by the lcm k_r of their
    denominators, and the scaled row read on a vertex's homogeneous column
    (m·v, m) is k_r·m times coordinate r of the vertex's image. The first
    cell that lists a vertex gives its image, and every later cell must give
    the same point (compared by cross-multiplying). Each that does not, by
    cell and then in the cell's listed vertex order, is a violation of the
    DiscontinuityError raised; a vertex no cell lists has no image and is an
    `unused_vertex` violation. A piece that is not an affine map of R^n
    raises DimensionError. `build_plmap` builds the map from the images.
    """
    if len(pieces) != len(cells):
        raise ValueError(f"{len(pieces)} pieces for {len(cells)} cells")
    complex_ = validate_complex(vertices, cells, ambient_dim)
    n, columns = complex_.ambient_dim, complex_.points.columns
    # per vertex: the first cell that lists it, and its image as one
    # (numerator, denominator) pair per coordinate
    first: list[tuple[int, list[tuple[int, int]]] | None] = [None] * len(columns)
    violations: list[Violation] = []
    for ci, (cell, (matrix, offset)) in enumerate(zip(cells, pieces)):
        rows = _integer_rows(matrix, vector(offset), n)
        for vid in cell:
            col = columns[vid]
            image = [(sum(map(mul, row, col)), scale * col[-1]) for row, scale in rows]
            kept = first[vid]
            if kept is None:
                first[vid] = (ci, image)
            elif any(a * e != b * d for (a, d), (b, e) in zip(image, kept[1])):
                prior = kept[0]
                shared = tuple(sorted(set(cells[prior]) & set(cell)))
                violations.append(
                    Violation(
                        "discontinuous",
                        f"discontinuous across face {shared}: cells {prior} and {ci} "
                        f"disagree at vertex {vid}",
                        (prior, ci, shared),
                    )
                )
    unused = [
        Violation("unused_vertex", f"vertex {i} is in no cell, so no piece gives its image", (i,))
        for i, kept in enumerate(first)
        if kept is None
    ]
    if unused:
        raise InvalidComplexError(unused)
    if violations:
        raise DiscontinuityError(violations)
    return build_plmap(complex_, [[Fraction(a, d) for a, d in image] for _, image in first])


def _integer_rows(matrix: Matrix, offset: Vector, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Each row (M_r, b_r) of a piece x -> Mx + b of R^n, times the lcm k_r
    of its denominators, with k_r."""
    if matrix.rows != n or matrix.cols != n or len(offset) != n:
        raise DimensionError(
            f"a piece of R^{n} needs an {n}x{n} matrix and {n} offsets, "
            f"got {matrix.rows}x{matrix.cols} and {len(offset)}"
        )
    rows = []
    for row, b in zip(matrix.entries, offset):
        k = lcm(*(x.denominator for x in row), b.denominator)
        rows.append((tuple(x.numerator * (k // x.denominator) for x in (*row, b)), k))
    return rows


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


def image_weights(f: PLMap, ids: Face, column: Sequence[int]) -> list[int]:
    """A point's weights on the image vertices of a nonsingular cell, all
    times one positive factor.

    In the cell's image frame, w_j = (bary_j·ŷ)·m_j (ŷ the point's
    homogeneous column, m_j the last entry of image column j) is the point's
    barycentric weight on image vertex j times a factor shared by every j:
    the point lies in the cell's image iff min w ≥ 0, and when min w = 0 in
    the relative interior of the image of the face whose vertices have
    positive weights.
    """
    return _cell_weights(f.images, ids, column)


def _cell_weights(points: feasible.IntegerPoints, ids: Face, column: Sequence[int]) -> list[int]:
    """A point's barycentric weights on the simplex of points ids, all times
    the point's last homogeneous entry and the frame's positive factor D:
    bary_j·ŷ reads D·λ_j/m_j, times m_j."""
    return [w * col[-1] for w, col in zip(points.frame(ids).weights(column), points.cols(ids))]


def preimage(f: PLMap, ids: Face, weights: Sequence[int]) -> Vector:
    """The point of a cell with the given `image_weights`: Σ w_j v_j / Σ w_j,
    one Fraction per coordinate over the domain's scaled integer vertices."""
    vertices = f.domain.points
    denominator = vertices.denominator * sum(weights)
    return tuple(
        Fraction(sum(map(mul, weights, axis)), denominator)
        for axis in zip(*(vertices.scaled[i] for i in ids))
    )


def cone_count(f: PLMap, face: Face) -> int:
    """The signed count of the star cells of a face whose image cones hold
    one generic direction; every star cell must be nonsingular.

    Each star piece is an affine bijection, so near the image of a point x
    in the face's relative interior a star cell's image is f(x) plus the cone
    of directions on which the cell's image frame weights off the face do
    not decrease: their slopes are the first n entries of those
    `SimplexFrame.bary` rows, dotted with the direction. The direction
    d = (1, t, …, t^{n−1}) is taken for the first t = 1, 2, … on which no
    slope is zero (each slope row is nonzero, so it vanishes for at most n−1
    values of t); then d lies on the boundary of no cone, and the sum of the
    determinant signs of the cells whose slopes are all positive is the
    local degree at x. One face's count; `cone_counter` counts many.
    """
    return cone_counter(f)(face)


def cone_counter(f: PLMap) -> Callable[[Face], int]:
    """`cone_count` of f for many faces. Each cell's slopes along d_t, one
    per bary row, are computed the first time a star asks for them at that
    t and kept for the counter's lifetime, so a cell in many stars costs one
    dot product per row and t; the map keeps none of them."""
    n, cells, pieces = f.ambient_dim, f.domain.cell_ids, f.pieces
    slopes_at: dict[int, dict[int, tuple[int, ...]]] = {}

    def count(face: Face) -> int:
        star = f.domain.faces[face].cells
        t = 1
        while True:
            slopes = slopes_at.setdefault(t, {})
            direction = [t**k for k in range(n)]
            total = 0
            for ci in star:
                cell_slopes = slopes.get(ci)
                if cell_slopes is None:
                    cell_slopes = slopes[ci] = tuple(
                        sum(map(mul, row, direction)) for row in f.images.frame(cells[ci]).bary
                    )
                off_face = [s for v, s in zip(cells[ci], cell_slopes) if v not in face]
                if not all(off_face):
                    break
                if all(s > 0 for s in off_face):
                    total += pieces[ci].det_sign
            else:
                return total
            t += 1

    return count


def fiber(f: PLMap, query: Vector) -> FiniteFiber | InfiniteFiber:
    """Exact preimage of a point, or a witness segment through a collapsed cell.

    Only the cells whose image boxes hold the query can hold a preimage, and
    the grid over the cell image boxes (`PLMap.image_grid`) names them, in
    cell order. A nonsingular cell counts iff the query's `image_weights`
    are all ≥ 0, at their `preimage`. A singular cell is decided on its
    vertex images by `feasible.constrained_hull_dim`.
    """
    if len(query) != f.ambient_dim:
        raise DimensionError(f"query has dimension {len(query)}, map is on R^{f.ambient_dim}")
    found: dict[Vector, tuple[list[int], list[int]]] = {}
    column = feasible.homogeneous_column(query)
    cell_ids = f.domain.cell_ids
    for ci in f.image_grid(cell_ids).holders(column):
        piece, ids = f.pieces[ci], cell_ids[ci]
        if piece.det_sign != 0:
            weights = image_weights(f, ids, column)
            if min(weights) < 0:
                continue
            cells, signs = found.setdefault(preimage(f, ids, weights), ([], []))
            cells.append(ci)
            signs.append(piece.det_sign)
        else:
            dim, points = feasible.constrained_hull_dim(
                f.domain.cell_points(ci), f.image_of_face(ids), query
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

    The pieces of cells a and b agree on their shared facet, so they
    coincide iff they agree at b's far vertex v: iff v's barycentric
    weights in a's domain frame are f(v)'s in a's image frame. Each side is
    read in integers (`_cell_weights`), times a positive factor of its own
    that is the sum of its entries, so the two are compared by
    cross-multiplying with the sums.
    """
    points, cell_ids = f.domain.points, f.domain.cell_ids
    nonsingular = [ci for ci, p in enumerate(f.pieces) if p.det_sign != 0]
    parent = {ci: ci for ci in nonsingular}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    shared_faces: list[tuple[int, int]] = []
    for ids, incident in f.domain.facets.items():
        if len(incident) != 2:
            continue
        a, b = incident
        if f.pieces[a].det_sign == 0 or f.pieces[b].det_sign == 0:
            continue
        (far,) = (v for v in cell_ids[b] if v not in ids)
        domain = _cell_weights(points, cell_ids[a], points.columns[far])
        image = image_weights(f, cell_ids[a], f.images.columns[far])
        domain_sum, image_sum = sum(domain), sum(image)
        if all(x * image_sum == y * domain_sum for x, y in zip(domain, image)):
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
