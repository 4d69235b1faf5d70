"""Independent brute-force oracles used to compute expected test values.

These deliberately avoid the library's algorithmic paths: determinants are
expanded over permutations (not Bareiss), fibers and sign sums are per-cell
solves with generic Gaussian elimination, memberships are barycentric
re-solves. Expected values in the tests are computed (or re-checked) with
these, never copied from the implementation under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        current = start
        while current not in seen:
            seen.add(current)
            current = perm[current]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_by_permutation_expansion(rows) -> Fraction:
    """Leibniz-formula determinant; exponential but independent of elimination."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
        total += perm_sign(perm) * term
    return total


def solve_gauss(rows, rhs):
    """Plain rational Gaussian elimination; None when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def solve_overdetermined(rows, rhs):
    """Unique solution of a (possibly tall) consistent system, else None."""
    m, k = len(rows), len(rows[0])
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        p = aug[r][col]
        aug[r] = [x / p for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if len(pivots) < k:
        return None  # not uniquely determined
    for i in range(r, m):
        if aug[i][k] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        solution[col] = aug[i][k]
    return tuple(solution)


def barycentric_of(point, cell_points):
    """Barycentric coordinates w.r.t. an affinely independent point set."""
    n = len(point)
    rows = [[Fraction(1)] * len(cell_points)]
    rows += [[p[c] for p in cell_points] for c in range(n)]
    return solve_overdetermined(rows, (Fraction(1), *point))


def point_in_simplex(point, cell_points) -> bool:
    coords = barycentric_of(point, cell_points)
    return coords is not None and all(c >= 0 for c in coords)


def affine_piece_of(cell_points, image_points):
    """(matrix rows, offset) of the interpolating affine map, by plain solving."""
    n = len(cell_points[0])
    matrix_rows = []
    # Row i of the matrix solves <row, v_j> + b_i = w_j[i] for all vertices.
    for i in range(n):
        system = [[*cp, Fraction(1)] for cp in cell_points]
        rhs = [ip[i] for ip in image_points]
        solution = solve_gauss(system, rhs)
        matrix_rows.append(solution)
    offset = tuple(row[n] for row in matrix_rows)
    matrix = [tuple(row[:n]) for row in matrix_rows]
    return matrix, offset


def brute_force_fiber(f, query):
    """Sorted (point, cells) pairs by per-cell solves with no shortcuts; exact
    dedup. Nonsingular cells only."""
    cells_at: dict = {}
    for ci in range(len(f.domain.cells)):
        cell_points = f.domain.cell_points(ci)
        images = f.cell_image_points(ci)
        matrix, offset = affine_piece_of(cell_points, images)
        shifted = [q - o for q, o in zip(query, offset)]
        candidate = solve_gauss(matrix, shifted)
        if candidate is None:
            continue
        if point_in_simplex(candidate, cell_points):
            cells_at.setdefault(candidate, []).append(ci)
    return [(point, tuple(cells)) for point, cells in sorted(cells_at.items())]


def brute_force_sign_sum(f, query) -> int:
    """Sign-sum over the brute-force fiber at a regular value."""
    total = 0
    for ci in range(len(f.domain.cells)):
        cell_points = f.domain.cell_points(ci)
        images = f.cell_image_points(ci)
        matrix, offset = affine_piece_of(cell_points, images)
        d = det_by_permutation_expansion(matrix)
        if d == 0:
            continue
        shifted = [q - o for q, o in zip(query, offset)]
        candidate = solve_gauss(matrix, shifted)
        coords = barycentric_of(candidate, cell_points)
        if all(c > 0 for c in coords):  # interior: exactly one cell counts it
            total += 1 if d > 0 else -1
    return total
