"""Exact rational geometry written apart from plopen, for checking its answers.

Nothing here imports plopen: every check in the benchmark recomputes what it
needs from the instance document (vertices, cells, vertex images) with plain
Fraction Gauss-Jordan elimination. The fiber of a point inside one cell is the
polytope {l >= 0, sum l = 1, sum l_i q_i = y} of barycentric weights (q_i the
images of the cell's vertices); its vertices are the basic feasible solutions,
found by trying every subset of the cell's vertices. One basic solution means
a single preimage, two or more mean a segment of preimages, none means none.
The same enumeration decides membership of a point in the hull of any point
set, degenerate or not (Caratheodory).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

Point = tuple  # of Fractions


def unique_solution(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[tuple]:
    """The unique x with rows . x = rhs, or None when it is inconsistent or not unique."""
    width = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_row = 0
    for col in range(width):
        pick = next((i for i in range(pivot_row, len(aug)) if aug[i][col] != 0), None)
        if pick is None:
            return None  # a free column: the solution is not unique
        aug[pivot_row], aug[pick] = aug[pick], aug[pivot_row]
        pivot = aug[pivot_row][col]
        aug[pivot_row] = [v / pivot for v in aug[pivot_row]]
        for i in range(len(aug)):
            if i != pivot_row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[pivot_row])]
        pivot_row += 1
    if any(aug[i][width] != 0 for i in range(pivot_row, len(aug))):
        return None
    return tuple(aug[i][width] for i in range(width))


def det_sign(rows: Sequence[Sequence[Fraction]]) -> int:
    """Sign of the determinant of a square matrix, by elimination."""
    a = [list(r) for r in rows]
    size = len(a)
    sign = 1
    for col in range(size):
        pick = next((i for i in range(col, size) if a[i][col] != 0), None)
        if pick is None:
            return 0
        if pick != col:
            a[col], a[pick] = a[pick], a[col]
            sign = -sign
        if a[col][col] < 0:
            sign = -sign
        for i in range(col + 1, size):
            if a[i][col] != 0:
                factor = a[i][col] / a[col][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return sign


def orientation(points: Sequence[Point]) -> int:
    """Sign of det[p_1 - p_0, ..., p_n - p_0]."""
    base = points[0]
    return det_sign([[p[c] - base[c] for p in points[1:]] for c in range(len(base))])


def combine(weights: Sequence[Fraction], points: Sequence[Point]) -> Point:
    return tuple(
        sum((w * p[c] for w, p in zip(weights, points)), Fraction(0)) for c in range(len(points[0]))
    )


def _barycentric_rows(points: Sequence[Point]) -> list[list[Fraction]]:
    rows = [[Fraction(1)] * len(points)]
    rows += [[p[c] for p in points] for c in range(len(points[0]))]
    return rows


def affine_weights(points: Sequence[Point], y: Point) -> Optional[tuple]:
    """Weights l with sum l = 1 and sum l_i p_i = y, when they are unique."""
    return unique_solution(_barycentric_rows(points), (Fraction(1), *y))


def basic_solutions(points: Sequence[Point], y: Point) -> list[tuple]:
    """Vertices of the polytope {l >= 0 : sum l = 1, sum l_i p_i = y}."""
    n = len(y)
    full = affine_weights(points, y) if len(points) == n + 1 else None
    if full is not None:
        # An affinely independent full set has at most this one solution.
        return [full] if min(full) >= 0 else []
    out = []
    seen = set()
    for size in range(1, min(len(points), n + 1) + 1):
        for support in combinations(range(len(points)), size):
            sub = affine_weights([points[i] for i in support], y)
            if sub is None or min(sub) < 0:
                continue
            weights = [Fraction(0)] * len(points)
            for i, w in zip(support, sub):
                weights[i] = w
            key = tuple(weights)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def in_hull(points: Sequence[Point], y: Point) -> bool:
    return bool(basic_solutions(points, y))


def box(points: Sequence[Point]) -> tuple[Point, Point]:
    n = len(points[0])
    return (
        tuple(min(p[c] for p in points) for c in range(n)),
        tuple(max(p[c] for p in points) for c in range(n)),
    )


def in_box(b: tuple[Point, Point], y: Point) -> bool:
    return all(lo <= v <= hi for v, lo, hi in zip(y, b[0], b[1]))


def parse_point(raw: Sequence[str]) -> Point:
    return tuple(Fraction(c) for c in raw)


class Geometry:
    """A map in vertex-image form, read from an instance document's vertex form."""

    def __init__(self, vertices, cells, images):
        self.vertices = tuple(tuple(Fraction(c) for c in v) for v in vertices)
        self.cells = tuple(tuple(sorted(c)) for c in cells)
        self.images = tuple(tuple(Fraction(c) for c in v) for v in images)
        self.n = len(self.vertices[0])
        self.signs = tuple(
            orientation(self.cell_images(ci)) * orientation(self.cell_points(ci))
            for ci in range(len(self.cells))
        )
        facet_count: dict[tuple, int] = {}
        for cell in self.cells:
            for drop in range(len(cell)):
                facet = cell[:drop] + cell[drop + 1 :]
                facet_count[facet] = facet_count.get(facet, 0) + 1
        self.boundary = tuple(sorted(f for f, k in facet_count.items() if k == 1))
        self.boundary_boxes = tuple(box([self.images[i] for i in f]) for f in self.boundary)
        self.image_boxes = tuple(box(self.cell_images(ci)) for ci in range(len(self.cells)))

    @staticmethod
    def from_document(doc: dict) -> "Geometry":
        return Geometry(
            [parse_point(v) for v in doc["vertices"]],
            doc["cells"],
            [parse_point(v) for v in doc["vertex_images"]],
        )

    def cell_points(self, ci: int) -> list[Point]:
        return [self.vertices[i] for i in self.cells[ci]]

    def cell_images(self, ci: int) -> list[Point]:
        return [self.images[i] for i in self.cells[ci]]

    def sign_counts(self) -> tuple[int, int, int]:
        return (
            sum(1 for s in self.signs if s > 0),
            sum(1 for s in self.signs if s < 0),
            sum(1 for s in self.signs if s == 0),
        )

    def cell_weights(self, ci: int, x: Point) -> Optional[tuple]:
        """Barycentric weights of x in cell ci when x lies in the closed cell."""
        weights = affine_weights(self.cell_points(ci), x)
        if weights is None or min(weights) < 0:
            return None
        return weights

    def image_in_cell(self, ci: int, x: Point) -> Optional[Point]:
        weights = self.cell_weights(ci, x)
        return None if weights is None else combine(weights, self.cell_images(ci))

    def on_boundary_image(self, y: Point) -> bool:
        return any(
            in_box(b, y) and in_hull([self.images[i] for i in face], y)
            for face, b in zip(self.boundary, self.boundary_boxes)
        )

    def on_boundary(self, x: Point) -> bool:
        """Whether a point of the support lies on a boundary face."""
        for face in self.boundary:
            if in_hull([self.vertices[i] for i in face], x):
                return True
        return False

    def brute_fiber(self, y: Point) -> tuple[dict[Point, set[int]], set[int]]:
        """Preimages of y with their cells, and the cells whose preimage is a segment."""
        points: dict[Point, set[int]] = {}
        segment_cells: set[int] = set()
        for ci in range(len(self.cells)):
            if not in_box(self.image_boxes[ci], y):
                continue
            found = basic_solutions(self.cell_images(ci), y)
            if len(found) >= 2:
                segment_cells.add(ci)
            for weights in found:
                points.setdefault(combine(weights, self.cell_points(ci)), set()).add(ci)
        return points, segment_cells

    def regular_sign_sum(self, y: Point) -> Optional[int]:
        """Degree as the sign sum over the fiber of y, or None if y is not regular.

        y is regular when every preimage lies strictly inside one cell whose
        piece is nonsingular and no singular cell's image contains y.
        """
        points, segment_cells = self.brute_fiber(y)
        if segment_cells:
            return None
        total = 0
        for x, cells in points.items():
            if len(cells) != 1:
                return None
            (ci,) = cells
            weights = self.cell_weights(ci, x)
            if self.signs[ci] == 0 or weights is None or min(weights) <= 0:
                return None
            total += self.signs[ci]
        return total
