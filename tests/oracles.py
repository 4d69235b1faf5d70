"""Independent brute-force oracles used to compute expected test values.

These deliberately avoid the library's algorithmic paths: determinants are
expanded over permutations (not Bareiss), fibers and sign sums are per-cell
solves with generic Gaussian elimination, memberships are barycentric
re-solves. Expected values in the tests are computed (or re-checked) with
these, never copied from the implementation under test.

The last seven sections are different. `certify_in_stage_order` runs the
library's own whyburn stages and degree, with the stage-4 sweep
(`global_collision`, on the library's probe), each unconditionally and in
their numbered order, as the reference for the certifier's shortcuts;
`face_frame_boundary_injective` is stage 2 with each boundary face image in
its own frame, the reference for the frames read off the cell images.
`grid_degree` and its parts are the degree's point queries as they were
before its one image scan, on the library's grids and frames, with every
image that has no frame probed in vertex form (`vertex_form_hull_contains`
and `vertex_form_segment_hits_hull`, the library's `hull_contains` and
`segment_hits_hull` before they were asked in the point's or segment's
frame): the reference for that scan.
`star_local_degree` is the local degree as it was before the cone count:
the degree of the map restricted to the carrier's star, rescaled toward
the point until the star holds no other point of its fiber.
`pair_loop_branch_set` is the branch set as it was before the cone count:
every nonsingular star probed pair by pair in the library's frames.
`reference_oracle` is the openness oracle sample by sample, with one
rational inverse per shrunk star image; `compress_mask` is a covering mask
as `_image_table` built it before the packed lanes, one slope per base
direction; `fraction_parse_rational` is `parse_rational` as it was before
it matched its text once.
`build_and_compare_ingest`, `matrix_component_graph` and
`matrix_constrained_hull_dim` decide with the pieces' `Fraction` matrices,
as the library did before it asked those questions at the vertices.
`lp_feasible`, `hull_dim` and `intersection_dim` are the tests' own entry
points into the library's engine, which no library code calls.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, permutations
from math import lcm
from typing import Optional

from plopen import feasible, whyburn
from plopen.complexes import (
    InvalidComplexError,
    Violation,
    graph_connected,
    improper_pairs,
    validate_complex,
)
from plopen.feasible import (
    REL_EQ,
    REL_LE,
    REL_LT,
    _affine_dim_loop,
    _feasible_int,
    _from_fractions,
    _Infeasible,
    _meet,
    _meet_system,
    hull_leaves_affine_span,
)
from plopen.linalg import (
    _RATIONAL_PATTERN,
    Matrix,
    Vector,
    inverse,
    null_space,
    rank,
    vec_add,
    vec_dot,
    vec_sub,
    vector,
)
from plopen.openness import (
    REASON_INJECTIVITY,
    REASON_SIGN_MISMATCH,
    REASON_SINGULAR,
    BranchFace,
    BranchReport,
    OracleFailure,
    OracleResult,
    _base_directions,
    _SplitMix64,
    seeded_directions,
)
from plopen.plmap import (
    ComponentGraph,
    DiscontinuityError,
    FiniteFiber,
    build_plmap,
    fiber,
    finite_fibers,
    sign_profile,
)

# the module: the package exports the function `degree` under the same name
degree_module = importlib.import_module("plopen.degree")


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


def piece_by_inverse(cell_points, image_points):
    """(matrix rows, offset, det sign) of the interpolating affine map: the
    image directions times the inverse of the cell directions, the inverse
    column by column with plain Gaussian elimination."""
    n = len(cell_points[0])
    base, image_base = cell_points[0], image_points[0]
    domain_dirs = [[p[r] - base[r] for p in cell_points[1:]] for r in range(n)]
    image_dirs = [[q[r] - image_base[r] for q in image_points[1:]] for r in range(n)]
    inverse_cols = [solve_gauss(domain_dirs, [int(r == c) for r in range(n)]) for c in range(n)]
    matrix = [
        tuple(sum(image_dirs[r][k] * inverse_cols[c][k] for k in range(n)) for c in range(n))
        for r in range(n)
    ]
    offset = tuple(image_base[r] - sum(matrix[r][c] * base[c] for c in range(n)) for r in range(n))
    d = det_by_permutation_expansion(matrix)
    return matrix, offset, (d > 0) - (d < 0)


def brute_force_fiber(f, query):
    """Sorted (point, cells) pairs by per-cell solves with no shortcuts; exact
    dedup. Nonsingular cells only."""
    cells_at: dict = {}
    for ci in range(len(f.domain.cells)):
        cell_points = f.domain.cell_points(ci)
        images = f.image_of_face(f.domain.cell_ids[ci])
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
        images = f.image_of_face(f.domain.cell_ids[ci])
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


def shrunk_star_images(f, x, carrier):
    """(cell, shrunk cell points, their images) for the star of the carrier.

    Each star cell is shrunk by 1/2 toward x and mapped by its own piece:
    the reference the oracle's unshrunk image tables are checked against.
    """
    half = Fraction(1, 2)
    out = []
    for ci in f.domain.faces[carrier].cells:
        pts = tuple(
            tuple(c + half * (v - c) for v, c in zip(p, x)) for p in f.domain.cell_points(ci)
        )
        out.append((ci, pts, tuple(f.pieces[ci].apply(p) for p in pts)))
    return out


def _face_image_holds(f, face, point) -> bool:
    """Membership in a face's image by a barycentric re-solve; the image must
    be affinely independent, as on a map whose cells are all nonsingular."""
    images = [f.vertex_images[i] for i in face]
    assert barycentric_of(images[0], images) is not None, "image is affinely dependent"
    return point_in_simplex(point, images)


def scan_regular_value(f, point):
    """is_regular_value's (verdict, diagnosis) by a linear scan of every face
    of dimension <= n-1, by size and then by ids, on a map whose cells are
    all nonsingular."""
    n = len(point)
    faces = sorted((ids for ids in f.domain.faces if len(ids) <= n), key=lambda ids: (len(ids), ids))
    for ids in faces:
        if _face_image_holds(f, ids, point):
            return False, f"point lies in the image of face {ids} (dim {len(ids) - 1})"
    return True, None


def scan_boundary_face(f, point):
    """The first boundary face, in sorted order, whose image holds the point,
    by a linear scan; None when there is none."""
    n = len(point)
    boundary = sorted(
        ids for ids, info in f.domain.faces.items() if len(ids) == n and len(info.cells) == 1
    )
    return next((ids for ids in boundary if _face_image_holds(f, ids, point)), None)


def face_normal_directions(f, face):
    """Both primitive integer normals of an (n-1)-face's image hyperplane,
    from the rational null space of the image's edge vectors, scaled by the
    lcm of its denominators; none in 1-D, where that matrix has no columns.

    It uses `linalg.null_space`, which the oracle does not call: the oracle
    reads its normals off the image frames, and this is the check on them."""
    images = f.image_of_face(face)
    dirs = [vec_sub(q, images[0]) for q in images[1:]]
    normals = []
    for normal in null_space(Matrix(tuple(dirs))):
        scale = lcm(*(c.denominator for c in normal))
        scaled = tuple(int(c * scale) for c in normal)
        normals.append(scaled)
        normals.append(tuple(-c for c in scaled))
    return normals


# ---------------------------------------------------------------------------
# The whyburn certifier with every stage run in its numbered order, and
# stage 2 in per-face frames.
# ---------------------------------------------------------------------------


def global_collision(f):
    """Stage 4, the reference sweep: the lexicographically smallest cell pair
    whose images overlap improperly, or None.

    Runs after coherent orientation is established, so every cell image is a
    nondegenerate simplex. Pairs adjacent across an (n-1)-face with equal
    determinant signs are skipped: their images lie strictly on opposite
    sides of the shared image hyperplane, so the overlap equals the shared
    image face exactly. For the rest, conv(image) ∩ aff(shared image) equals
    the shared image face, so an improper overlap is exactly one that leaves
    that affine hull (or any overlap at all for disjoint cells). The pairs
    whose image boxes overlap come from the map's cell grid
    (`PLMap.image_grid`) by `BoxGrid.pairs`.
    """
    n = f.ambient_dim
    cells = f.domain.cell_ids
    for a, b in f.image_grid(cells).pairs():
        ids = cells[a]
        span = [k for k, v in enumerate(ids) if v in cells[b]]
        if len(span) == n and f.pieces[a].det_sign == f.pieces[b].det_sign:
            continue
        if hull_leaves_affine_span(f.images.frame(ids), f.images.cols(cells[b]), span):
            return a, b
    return None


def certify_in_stage_order(inst):
    """Stages 1 to 5 unconditionally, in their numbered order.

    The certifier skips stage 1 when stages 2 and 3 hold, and stages 4 and 5
    follow from stages 1-3; this runs every stage, so comparing the two
    checks that no shortcut changes a verdict, stage or witness.
    """
    f = inst.map
    ok, witness = whyburn.boundary_preimage_ok(inst)
    if not ok:
        return whyburn.Rejected(1, "an interior point maps onto the boundary image", witness)
    ok, pair = whyburn.boundary_restriction_injective(inst)
    if not ok:
        return whyburn.Rejected(2, "boundary restriction is not injective", pair)
    if not whyburn.coherently_oriented(f):
        profile = sign_profile(f)
        return whyburn.Rejected(
            3,
            "map is not open: determinant signs are not coherently oriented",
            (profile.num_pos, profile.num_neg, profile.num_zero),
        )
    collision = global_collision(f)
    if collision is not None:
        return whyburn.Rejected(4, "global injectivity failure between cell images", collision)
    center = f.domain.barycenter(f.domain.cells[0].vertex_ids)
    certificate = whyburn.degree(f, f.pieces[0].apply(center))
    if certificate.degree not in (1, -1):
        return whyburn.Rejected(
            5, f"interior degree is {certificate.degree}, expected plus or minus 1", certificate
        )
    return whyburn.Certified(degree=certificate.degree, certificate=certificate)


def face_frame_boundary_injective(inst):
    """Stage 2 as it was before it read each boundary face's image frame off
    its cell's image frame: every face image in its own frame, built by its
    own adjugate. The reference for `whyburn.boundary_restriction_injective`.
    """
    f = inst.map
    boundary = inst.boundary
    frames = [f.images.frame(face) for face in boundary]
    for face, frame in zip(boundary, frames):
        if frame is None:
            return False, (face, face)
    pair = next(improper_pairs(f.images, boundary, f.domain.cell_ids, frames), None)
    if pair is not None:
        return False, (boundary[pair[0]], boundary[pair[1]])
    return True, None


# ---------------------------------------------------------------------------
# The degree's point queries over one grid per face list, before the one
# image scan: the boundary grid, the grid over every proper face, the cell
# grid and the fiber, and the obstacle test in vertex form.
# ---------------------------------------------------------------------------

_PROPER_FACES: dict = {}


def proper_faces(complex_):
    """The faces of dimension <= n-1, by size and then by ids. One tuple per
    complex, kept with the complex, so the map's grid over it (looked up by
    the list's identity) is built once."""
    kept = _PROPER_FACES.get(id(complex_))
    if kept is None:
        faces = tuple(
            sorted(
                (ids for ids, info in complex_.faces.items() if info.dim < complex_.ambient_dim),
                key=lambda ids: (len(ids), ids),
            )
        )
        kept = _PROPER_FACES[id(complex_)] = (complex_, faces)
    return kept[1]


def vertex_form_hull_contains(verts, point) -> bool:
    """`feasible.hull_contains` as it was: one probe over convex weights on
    the vertices that sum to the point (`feasible._meet`)."""
    return _meet(verts, REL_LE, [point], REL_LE) is not None


def vertex_form_segment_hits_hull(start, end, verts) -> bool:
    """`feasible.segment_hits_hull` as it was: convex weights on the
    vertices and on the segment's two ends with equal sums."""
    return _meet(verts, REL_LE, [start, end], REL_LE) is not None


def _grid_image_holds(f, face, point, column) -> bool:
    """Whether the point lies in a face's image: the sign test in the
    image's frame, or a vertex-form probe when the image has no frame."""
    frame = f.images.frame(face)
    if frame is None:
        return vertex_form_hull_contains(f.image_of_face(face), point)
    return frame.contains(column)


def grid_boundary_face(f, point):
    """The first boundary face whose image holds the point, or None, from
    the map's grid over the boundary images."""
    column = degree_module._query_column(f, point)
    boundary = f.domain.boundary
    for k in f.image_grid(boundary).holders(column):
        if _grid_image_holds(f, boundary[k], point, column):
            return boundary[k]
    return None


def grid_regular_value(f, point):
    """is_regular_value's (verdict, diagnosis) from the map's grid over every
    proper face, then its cell grid for the singular cells."""
    column = degree_module._query_column(f, point)
    faces = proper_faces(f.domain)
    for k in f.image_grid(faces).holders(column):
        ids = faces[k]
        if _grid_image_holds(f, ids, point, column):
            return False, f"point lies in the image of face {ids} (dim {len(ids) - 1})"
    cells = f.domain.cell_ids
    for ci in f.image_grid(cells).holders(column):
        if f.pieces[ci].det_sign == 0 and _grid_image_holds(f, cells[ci], point, column):
            return False, f"point lies in the image of singular cell {ci}"
    return True, None


def vertex_form_segment_checks(f, start_point, end_point, start, end):
    """Per boundary face, in order, whether the segment between two points
    meets the face's image, each box candidate probed in vertex form."""
    images, boundary = f.images, f.domain.boundary
    box = feasible.segment_box(images.denominator, start, end)
    candidates = set(f.image_grid(boundary).meeting(box))
    return tuple(
        (
            face,
            k in candidates
            and feasible.segment_meets_box(images.box(face), images.denominator, start, end)
            and vertex_form_segment_hits_hull(start_point, end_point, f.image_of_face(face)),
        )
        for k, face in enumerate(boundary)
    )


def _grid_certificate(f, query, regular, evidence):
    fib = fiber(f, regular)
    assert isinstance(fib, FiniteFiber)
    entries = []
    for fp in fib.points:
        assert len(fp.cells) == 1 and fp.signs[0] != 0  # regularity
        entries.append((fp.point, fp.signs[0]))
    return degree_module.DegreeCertificate(
        degree=sum(s for _, s in entries),
        query_point=query,
        regular_point_used=regular,
        fiber=tuple(entries),
        path_evidence=evidence,
    )


def grid_degree(f, point, max_attempts=64):
    """`degree` by the grid queries above, the fiber from `plmap.fiber` and
    the obstacles in vertex form: the same schedule, certificate and errors."""
    point = tuple(point)
    offending = grid_boundary_face(f, point)
    if offending is not None:
        raise degree_module.BoundaryImageError(offending)
    if grid_regular_value(f, point)[0]:
        evidence = degree_module.PathEvidence(
            "query point is regular; membership in every boundary-face image was refuted",
            tuple((face, False) for face in f.domain.boundary),
        )
        return _grid_certificate(f, point, point, evidence)
    start = feasible.homogeneous_column(point)
    images = f.images
    spread = max(max(axis) - min(axis) for axis in zip(*images.scaled))
    epsilon = Fraction(spread, 4 * images.denominator) if spread > 0 else Fraction(1)
    directions = degree_module._perturbation_directions(f.ambient_dim)
    attempts = []
    while len(attempts) < max_attempts:
        for direction in directions:
            if len(attempts) >= max_attempts:
                break
            candidate = tuple(p + epsilon * d for p, d in zip(point, direction))
            attempts.append(candidate)
            if grid_boundary_face(f, candidate) is not None:
                continue
            if not grid_regular_value(f, candidate)[0]:
                continue
            end = feasible.homogeneous_column(candidate)
            checks = vertex_form_segment_checks(f, point, candidate, start, end)
            if any(hit for _, hit in checks):
                continue
            evidence = degree_module.PathEvidence(
                "query point was irregular; the segment to the regular point below "
                "avoids every boundary-face image (per-obstacle outcomes listed)",
                checks,
            )
            return _grid_certificate(f, point, candidate, evidence)
        epsilon = epsilon / 2
    raise degree_module.PerturbationExhausted(point, attempts)


# ---------------------------------------------------------------------------
# The local degree by restriction to a rescaled star, before the cone count.
# ---------------------------------------------------------------------------


def scaled_star(complex_, center, carrier, factor):
    """Vertices and cells of the star of a face, scaled toward a point.

    Returns (vertices, cells, cell_map) where cell_map sends new cell indices
    back to the original cell indices. Scaling about a point of the carrier is
    a homeomorphism, so the scaled star is again a valid complex.
    """
    new_vertices = []
    index_of = {}
    cells_out = []
    cell_map = {}
    for new_index, ci in enumerate(complex_.star(carrier)):
        ids = []
        for vid in complex_.cells[ci].vertex_ids:
            scaled = tuple(c + factor * (v - c) for v, c in zip(complex_.vertices[vid], center))
            if scaled not in index_of:
                index_of[scaled] = len(new_vertices)
                new_vertices.append(scaled)
            ids.append(index_of[scaled])
        cells_out.append(ids)
        cell_map[new_index] = ci
    return tuple(new_vertices), cells_out, cell_map


def star_restriction(f, x, carrier, factor):
    """The map restricted to the closed star of the carrier, scaled toward x."""
    verts, cells, cell_map = scaled_star(f.domain, tuple(x), carrier, factor)
    star_complex = validate_complex(verts, cells, f.ambient_dim)
    images = [None] * len(verts)
    for new_ci, ids in enumerate(cells):
        piece = f.pieces[cell_map[new_ci]]
        for vid in ids:
            if images[vid] is None:
                images[vid] = piece.apply(verts[vid])
    return build_plmap(star_complex, images), star_complex


def star_local_degree(f, x):
    """`local_degree` as the degree of the restriction to the carrier's star,
    halved toward x until no other point of the fiber of f(x) lies in it: the
    same values and errors."""
    if not finite_fibers(f):
        raise degree_module.InfiniteFiberError(
            "local degree needs finite fibers (no singular pieces)"
        )
    x = tuple(x)
    carrier = degree_module._carrier_face(f, x)
    if f.domain.faces[carrier].on_boundary:
        raise ValueError(f"point {x} is not in the open support")
    value = f.pieces[f.domain.faces[carrier].cells[0]].apply(x)
    fib = fiber(f, value)
    assert isinstance(fib, FiniteFiber)
    other_points = [fp.point for fp in fib.points if fp.point != x]
    factor = Fraction(1, 2)
    for _ in range(64):
        star_map, star_complex = star_restriction(f, x, carrier, factor)
        if not any(star_complex.locate(z).kind != "outside" for z in other_points):
            return degree_module.degree(star_map, value).degree
        factor = factor / 2
    raise RuntimeError("fiber isolation did not terminate; fiber finiteness is violated")


# ---------------------------------------------------------------------------
# The branch set by star-cell pairs, before the cone count.
# ---------------------------------------------------------------------------


def pair_loop_branch_set(f):
    """`branch_set` with every nonsingular star of a face of dimension <= n-2
    decided pair by pair in the image frames: across a shared facet by the
    two determinant signs, otherwise by one `relint_meets_simplex` probe on
    the unshrunk images whose boxes meet; the first hit is the witness."""
    n = f.ambient_dim
    cells = f.domain.cells
    out = []
    for ids in f.domain.interior_faces():
        info = f.domain.faces[ids]
        if info.dim == n - 1:
            a, b = info.cells
            sa, sb = f.pieces[a].det_sign, f.pieces[b].det_sign
            if sa == 0 or sb == 0:
                singular = tuple(c for c in (a, b) if f.pieces[c].det_sign == 0)
                out.append(BranchFace(ids, info.dim, REASON_SINGULAR, singular))
            elif sa != sb:
                out.append(BranchFace(ids, info.dim, REASON_SIGN_MISMATCH, (a, b)))
            continue
        if info.dim > n - 1:
            continue
        star = info.cells
        singular = tuple(c for c in star if f.pieces[c].det_sign == 0)
        if singular:
            out.append(BranchFace(ids, info.dim, REASON_SINGULAR, singular))
            continue
        witness = None
        for i, a in enumerate(star):
            if witness:
                break
            for b in star[i + 1 :]:
                ids_a, ids_b = cells[a].vertex_ids, cells[b].vertex_ids
                if len(set(ids_a) & set(ids_b)) == n:
                    if f.pieces[a].det_sign != f.pieces[b].det_sign:
                        witness = (a, b)
                        break
                    continue
                if feasible.boxes_overlap(
                    f.images.box(ids_a), f.images.box(ids_b)
                ) and feasible.relint_meets_simplex(f.images.frame(ids_a), f.images.cols(ids_b)):
                    witness = (a, b)
                    break
        if witness:
            out.append(BranchFace(ids, info.dim, REASON_INJECTIVITY, witness))
    for ci, piece in enumerate(f.pieces):
        if piece.det_sign == 0:
            out.append(BranchFace(cells[ci].vertex_ids, n, REASON_SINGULAR, (ci,)))
    out.sort(key=lambda bf: (len(bf.face), bf.face))
    return BranchReport(tuple(out), max((bf.dim for bf in out), default=None))


# ---------------------------------------------------------------------------
# The openness oracle sample by sample, its covering masks direction by
# direction, and the rational parser before it matched its text once.
# ---------------------------------------------------------------------------


def reference_oracle(f, num_points, num_directions, rng_seed):
    """The oracle computed sample by sample on the shrunk star images.

    One inverse per (sample, star cell) of the shrunk image simplex, a
    rational covering test per direction, and the epsilon from the crossings
    of the ray in the shrunk simplices.
    """
    singular = [ci for ci, p in enumerate(f.pieces) if p.det_sign == 0]
    if singular:
        collapsed = tuple(
            OracleFailure(
                f.domain.barycenter(f.domain.cells[ci].vertex_ids),
                f.domain.cells[ci].vertex_ids,
                (),
                Fraction(0),
                (),
            )
            for ci in singular
        )
        return OracleResult(False, len(collapsed), 0, lambda: collapsed)
    n = f.ambient_dim
    base_directions = seeded_directions(n, num_directions, rng_seed)
    rng = _SplitMix64(rng_seed ^ 0xD1B54A32D192ED03)
    samples = [(f.domain.barycenter(ids), ids) for ids in f.domain.interior_faces()]
    for _ in range(num_points):
        ci = rng.below(len(f.domain.cells))
        weights = [Fraction(rng.int_range(1, 64)) for _ in f.domain.cells[ci].vertex_ids]
        pts = f.domain.cell_points(ci)
        x = tuple(
            sum((w * p[c] for w, p in zip(weights, pts)), Fraction(0)) / sum(weights)
            for c in range(n)
        )
        samples.append((x, f.domain.cells[ci].vertex_ids))

    failures = []
    for x, carrier in samples:
        star = shrunk_star_images(f, x, carrier)
        y0 = f.pieces[star[0][0]].apply(x)
        inverses = []
        for _, _, images in star:
            rows = [tuple(Fraction(1) for _ in images)]
            rows += [tuple(q[c] for q in images) for c in range(n)]
            inverses.append(inverse(Matrix(tuple(rows))))
        bases = [inv.mul_vec((Fraction(1), *y0)) for inv in inverses]
        directions = list(base_directions)
        if len(carrier) == n:
            directions += face_normal_directions(f, carrier)
        for direction in directions:
            slopes = [inv.mul_vec((Fraction(0), *map(Fraction, direction))) for inv in inverses]
            if any(
                all(b != 0 or s >= 0 for b, s in zip(base, slope))
                for base, slope in zip(bases, slopes)
            ):
                continue
            crossings = [
                -b / s
                for base, slope in zip(bases, slopes)
                for b, s in zip(base, slope)
                if s != 0 and -b / s > 0
            ]
            epsilon = min(crossings) / 2 if crossings else Fraction(1)
            target = tuple(a + epsilon * d for a, d in zip(y0, direction))
            failures.append(
                OracleFailure(x, carrier, tuple(map(Fraction, direction)), epsilon, target)
            )
    return OracleResult(not failures, len(failures), len(samples), lambda: tuple(failures))


def compress_mask(row, n, num_directions, rng_seed):
    """The mask of the base directions on which a frame row's slope row is
    >= 0, one Python slope per direction summed over the axis columns:
    `_image_table`'s mask before the packed lanes."""
    _, axis_columns = _base_directions(n, num_directions, rng_seed)
    slopes = [row[0] * a for a in axis_columns[0]]
    for r, column in zip(row[1:], axis_columns[1:]):
        slopes = [s + r * a for s, a in zip(slopes, column)]
    bits = [1 << j for j in range(num_directions)]
    return sum(compress(bits, [s >= 0 for s in slopes]))


def fraction_parse_rational(text):
    """`parse_rational` as it was: the pattern accepts the text, then
    `Fraction` parses it again with its own regular expression."""
    text = text.strip()
    if not _RATIONAL_PATTERN.fullmatch(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(text)


# ---------------------------------------------------------------------------
# Decisions by the pieces' Fraction matrices, before they were asked at the
# vertices in integers.
# ---------------------------------------------------------------------------


def build_and_compare_ingest(vertices, cells, pieces, ambient_dim=None):
    """`ingest_pieces` in two passes: apply the first cell's piece to each
    vertex in Fractions, build the map from those images, and then, for
    each given piece that is not the built one, apply it again at each of
    its vertices to find the disagreements."""
    if len(pieces) != len(cells):
        raise ValueError(f"{len(pieces)} pieces for {len(cells)} cells")
    complex_ = validate_complex(vertices, cells, ambient_dim)
    first_cell: dict[int, int] = {}
    for ci, cell in enumerate(cells):
        for vid in cell:
            first_cell.setdefault(vid, ci)
    points = complex_.vertices
    unused = [
        Violation("unused_vertex", f"vertex {i} is in no cell, so no piece gives its image", (i,))
        for i in range(len(points))
        if i not in first_cell
    ]
    if unused:
        raise InvalidComplexError(unused)

    def apply(ci: int, vid: int) -> Vector:
        matrix, offset = pieces[ci]
        return vec_add(matrix.mul_vec(points[vid]), vector(offset))

    f = build_plmap(complex_, [apply(first_cell[i], i) for i in range(len(points))])
    violations = []
    for ci, ((matrix, offset), built) in enumerate(zip(pieces, f.pieces)):
        if matrix == built.matrix and vector(offset) == built.offset:
            continue
        for vid in cells[ci]:
            prior = first_cell[vid]
            if apply(ci, vid) != f.vertex_images[vid]:
                shared = tuple(sorted(set(cells[prior]) & set(cells[ci])))
                violations.append(
                    Violation(
                        "discontinuous",
                        f"discontinuous across face {shared}: cells {prior} and {ci} "
                        f"disagree at vertex {vid}",
                        (prior, ci, shared),
                    )
                )
    if violations:
        raise DiscontinuityError(violations)
    return f


def matrix_component_graph(f) -> ComponentGraph:
    """`component_graph` with two nonsingular cells across an interior facet
    joined when their pieces' matrices and offsets are equal."""
    n = f.ambient_dim
    nonsingular = [ci for ci, p in enumerate(f.pieces) if p.det_sign != 0]
    parent = {ci: ci for ci in nonsingular}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    shared_faces = []
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
    edges = {
        (min(node_of[a], node_of[b]), max(node_of[a], node_of[b]))
        for a, b in shared_faces
        if node_of[a] != node_of[b]
    }
    edge_tuple = tuple(sorted(edges))
    return ComponentGraph(nodes, edge_tuple, graph_connected(len(nodes), edge_tuple))


def matrix_constrained_hull_dim(verts, matrix, rhs):
    """`constrained_hull_dim` of {x in conv(verts) : M x = rhs}: the rows
    Σλ·(M v) = rhs, one per row of M, on the convex weights λ of verts."""
    if not verts:
        return None, []
    num_vars, rows = _meet_system(verts, REL_LE, (), REL_LE)
    try:
        equations = [
            _from_fractions([vec_dot(matrix.row(r), v) for v in verts], REL_EQ, rhs[r])
            for r in range(matrix.rows)
        ]
    except _Infeasible:
        return None, []
    return _affine_dim_loop(verts, num_vars, rows + [row for row in equations if row is not None])


# ---------------------------------------------------------------------------
# Test entry points into the library's Fourier–Motzkin engine. No library code
# calls them: rational rows in, a checked witness out, and the dimension of a
# hull or of an intersection of two hulls.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinRow:
    coeffs: Vector
    rel: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.rel not in (REL_EQ, REL_LE, REL_LT):
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class LinearSystem:
    """Rational rows over a fixed number of unknowns."""

    num_vars: int
    rows: tuple[LinRow, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row.coeffs) != self.num_vars:
                raise ValueError(
                    f"row arity {len(row.coeffs)} != system arity {self.num_vars}"
                )

    def satisfies(self, point: Vector) -> bool:
        for row in self.rows:
            value = vec_dot(row.coeffs, point)
            if row.rel == REL_EQ and value != row.rhs:
                return False
            if row.rel == REL_LE and not value <= row.rhs:
                return False
            if row.rel == REL_LT and not value < row.rhs:
                return False
        return True


def lp_feasible(system: LinearSystem) -> Optional[Vector]:
    """Exact feasibility: a witness satisfying every row (strict included), or None."""
    try:
        raw = []
        for row in system.rows:
            norm = _from_fractions(row.coeffs, row.rel, row.rhs)
            if norm is not None:
                raw.append(norm)
    except _Infeasible:
        return None
    witness = _feasible_int(system.num_vars, raw)
    if witness is None:
        return None
    assert system.satisfies(witness)
    return witness


def hull_dim(verts) -> Optional[int]:
    """Dimension of conv(verts); None for the empty hull."""
    if not verts:
        return None
    dirs = [vec_sub(v, verts[0]) for v in verts[1:]]
    if not dirs:
        return 0
    return rank(Matrix(tuple(dirs)))


def intersection_dim(p_verts, q_verts) -> Optional[int]:
    """Exact dimension of conv(P) ∩ conv(Q); None when the intersection is empty."""
    if not p_verts or not q_verts:
        return None
    system = _meet_system(p_verts, REL_LE, q_verts, REL_LE)
    if system is None:
        return None
    dim, _ = _affine_dim_loop(p_verts, *system)
    return dim
