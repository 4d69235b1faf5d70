"""Brouwer degree of piecewise-affine maps, with exact certificates.

At a regular value the degree is the sum of the determinant signs over the
fiber. An arbitrary admissible value (one outside the boundary image) is
reduced to a regular one by perturbing along a fixed schedule of rational
directions with halving magnitudes; a candidate is accepted only if it is
exactly regular and the straight segment from the query point provably avoids
every boundary-face image (the obstacles whose image box meets the segment's
box are probed up to the first hit; a box miss is a miss). The segment test
replaces a metric closeness bound: both are licensed by local constancy, and
segment avoidance needs no square roots.

Every face's image lies in the image of each cell that has the face, so
one scan of the cell images that hold a point decides whether the point is
on the boundary image, whether it is regular, and its fiber (`_scan`). The
map's cell grid (`PLMap.image_grid`, built at the first query and kept)
names the cells whose image boxes hold the point's homogeneous column, and
the point's weights in each such cell's integer image frame are read once:
a negative weight is a miss, all positive a fiber point, and a zero weight
names the faces whose images hold the point. An image with no frame, such
as a singular cell's, is probed in the point's own frame, on its columns.
On the perturbation path, the segment's obstacles come from the map's grid
over the boundary images, asked for the boxes that meet the segment's, and
each is probed in its image's frame, or in the segment's when it has none.

Local degree is one signed count over the star of the point's carrier
face (`plmap.cone_count`). Each star piece is an affine bijection, so near
f(x) the image of a star cell is f(x) plus a cone. A direction d on the
boundary of no cone gives, for small ε > 0, a value f(x) + εd that is
regular near f(x) and has one preimage near x in each star cell whose cone
holds d, and no other: the local degree is the sum of those cells'
determinant signs. No restricted map is built and no fiber is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count, islice, product
from typing import Optional, Sequence

from . import feasible
from .complexes import Face
from .linalg import DimensionError
from .plmap import PLMap, build_plmap, cone_count, finite_fibers, image_weights, preimage


class BoundaryImageError(ValueError):
    """The query point lies in the image of the boundary: degree undefined."""

    def __init__(self, face: Face):
        self.face = face
        super().__init__(f"degree undefined: point lies in the image of boundary face {face}")


class IrregularValueError(ValueError):
    """degree_at_regular was called at an irregular value; use degree()."""


class InfiniteFiberError(ValueError):
    pass


class PerturbationExhausted(RuntimeError):
    def __init__(self, query: tuple, attempts: list):
        self.query = query
        self.attempts = attempts
        super().__init__(
            f"no regular value found near {query} after {len(attempts)} exact attempts"
        )


class DomainMismatchError(ValueError):
    """The two ends of a homotopy are maps on different complexes."""


class HomotopyHypothesisViolation(ValueError):
    def __init__(self, t: Fraction, face: Face):
        self.t = t
        self.face = face
        super().__init__(
            f"path point at t={t} lies in the homotopy's boundary image (face {face})"
        )


@dataclass(frozen=True)
class PathEvidence:
    statement: str
    # per boundary face: whether the segment from query to regular point hits
    # it; a certificate exists only when none does, so every entry is a miss
    obstacle_checks: tuple[tuple[Face, bool], ...]


@dataclass(frozen=True)
class DegreeCertificate:
    degree: int
    query_point: tuple
    regular_point_used: tuple
    fiber: tuple[tuple[tuple, int], ...]  # (point, sign), sorted by point
    path_evidence: PathEvidence


@dataclass(frozen=True)
class HomotopyVerdict:
    constant: bool
    samples: tuple[Fraction, ...]
    degrees: tuple[int, ...]
    note: str


def _query_column(f: PLMap, point) -> tuple[int, ...]:
    if len(point) != f.ambient_dim:
        raise DimensionError(f"point has dimension {len(point)}, map is on R^{f.ambient_dim}")
    return feasible.homogeneous_column(point)


def _image_holds(f: PLMap, face: Face, column: tuple[int, ...]) -> bool:
    """Whether the point of a homogeneous column lies in a face's image.

    The sign test in the image's frame decides. An affinely dependent image
    has no frame; it is probed in the point's (`feasible.hull_meets_segment`).
    """
    frame = f.images.frame(face)
    if frame is None:
        return feasible.hull_meets_segment(f.images.cols(face), column, column)
    return frame.contains(column)


def _size_order(face: Face) -> tuple[int, Face]:
    return len(face), face


def _proper_subfaces(cell: Face) -> list[Face]:
    """The proper faces of a cell, by size and then by ids."""
    k = len(cell)
    subsets = (
        tuple(v for i, v in enumerate(cell) if mask >> i & 1) for mask in range(1, (1 << k) - 1)
    )
    return sorted(subsets, key=_size_order)


@dataclass(frozen=True)
class _Scan:
    """What one pass over the cell images that hold a point decides."""

    boundary: Optional[Face]  # the least boundary face whose image holds the point
    diagnosis: Optional[str]  # why the point is irregular; None when it is regular
    fiber: tuple[tuple[tuple, int], ...]  # (point, sign) by point; complete when regular


def _scan(f: PLMap, column: tuple[int, ...]) -> _Scan:
    """The boundary test, regularity and the fiber of the point of a column,
    from the cells whose image boxes hold it (one `BoxGrid.holders` call).

    A face's image lies in the image of every cell that has the face, so
    every face image that holds the point lies in a cell image that holds
    it. In a nonsingular cell the point's `image_weights` w decide: min w < 0
    is a miss; min w > 0 is a fiber point; min w = 0 puts the point in the
    image of the face of the positive weights, the least face of the cell
    whose image holds it, and in the image of each facet opposite a zero
    weight. A singular cell's image is probed as a whole, and on a hit its
    proper faces one by one, skipping those that could not be named. The
    boundary face reported is the least one found and the diagnosis names
    the least face found by size and then by ids, else the first singular
    cell: the first offenders of a scan over every face in those orders.
    """
    facets, cells = f.domain.facets, f.domain.cell_ids
    n = f.ambient_dim
    boundary: Optional[Face] = None
    offender: Optional[Face] = None
    singular: Optional[int] = None
    entries = []

    def names_boundary(face: Face) -> bool:
        on_boundary = len(face) == n and len(facets[face]) == 1
        return on_boundary and (boundary is None or face < boundary)

    def names_offender(face: Face) -> bool:
        return offender is None or _size_order(face) < _size_order(offender)

    def record(face: Face) -> None:
        nonlocal boundary, offender
        if names_boundary(face):
            boundary = face
        if names_offender(face):
            offender = face

    for ci in f.image_grid(cells).holders(column):
        ids, sign = cells[ci], f.pieces[ci].det_sign
        if sign:
            weights = image_weights(f, ids, column)
            low = min(weights)
            if low > 0:
                entries.append((preimage(f, ids, weights), sign))
            elif low == 0:
                record(tuple(v for v, w in zip(ids, weights) if w))
                for j, w in enumerate(weights):
                    if not w:
                        record(ids[:j] + ids[j + 1 :])
        elif _image_holds(f, ids, column):
            if singular is None:
                singular = ci
            for face in _proper_subfaces(ids):
                if (names_offender(face) or names_boundary(face)) and _image_holds(f, face, column):
                    record(face)
    if offender is not None:
        diagnosis = f"point lies in the image of face {offender} (dim {len(offender) - 1})"
    elif singular is not None:
        diagnosis = f"point lies in the image of singular cell {singular}"
    else:
        diagnosis = None
    return _Scan(boundary, diagnosis, tuple(sorted(entries)))


def point_on_boundary_image(f: PLMap, point) -> Optional[Face]:
    """The first boundary face, in sorted order, whose image holds the point,
    or None: the boundary test of the point's one image scan (`_scan`)."""
    return _scan(f, _query_column(f, point)).boundary


def is_regular_value(f: PLMap, point) -> tuple[bool, Optional[str]]:
    """Whether every preimage of the point has a nonsingular derivative.

    Exactly: the point avoids the image of every face of dimension <= n-1 and
    the image of every singular cell. One scan of the cell images whose
    boxes hold the point decides it (`_scan`); the diagnosis names the first
    offender, faces taken by size and then by vertex ids, then singular
    cells in order.
    """
    diagnosis = _scan(f, _query_column(f, point)).diagnosis
    return diagnosis is None, diagnosis


def _refuse_boundary_image(scan: _Scan) -> None:
    if scan.boundary is not None:
        raise BoundaryImageError(scan.boundary)


def _certificate(
    query: tuple, regular: tuple, scan: _Scan, evidence: PathEvidence
) -> DegreeCertificate:
    """The certificate at a regular point off the boundary image, from its scan."""
    return DegreeCertificate(
        degree=sum(s for _, s in scan.fiber),
        query_point=query,
        regular_point_used=regular,
        fiber=scan.fiber,
        path_evidence=evidence,
    )


def _refuted(f: PLMap, statement: str) -> PathEvidence:
    """The evidence of a certificate: every boundary face a miss."""
    return PathEvidence(statement, tuple((face, False) for face in f.domain.boundary))


_REGULAR = "query point is regular; membership in every boundary-face image was refuted"
_PERTURBED = (
    "query point was irregular; the segment to the regular point below "
    "avoids every boundary-face image (per-obstacle outcomes listed)"
)


def degree_at_regular(f: PLMap, point) -> DegreeCertificate:
    """Sign-sum degree at an exactly regular value outside the boundary image."""
    point = tuple(point)
    scan = _scan(f, _query_column(f, point))
    _refuse_boundary_image(scan)
    if scan.diagnosis is not None:
        raise IrregularValueError(f"{scan.diagnosis}; call degree() to perturb exactly")
    return _certificate(point, point, scan, _refuted(f, _REGULAR))


@cache
def _perturbation_directions(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The schedule's directions on R^n: ±e_i, the ±1 diagonals and, for
    n ≥ 2, ±(1, 2, …, 2^{n−1}), which lies in no plane x_i = x_j."""
    dirs = []
    for axis in range(n):
        for sign in (1, -1):
            dirs.append(tuple(Fraction(sign if c == axis else 0) for c in range(n)))
    if n > 1:
        for combo in product((1, -1), repeat=n):
            dirs.append(tuple(Fraction(c) for c in combo))
        for sign in (1, -1):
            dirs.append(tuple(Fraction(sign << c) for c in range(n)))
    return tuple(dirs)


_MAX_ATTEMPTS = 64  # candidates tried before PerturbationExhausted


def degree(f: PLMap, point) -> DegreeCertificate:
    """Degree at any point outside the boundary image.

    Irregular points are replaced by an exactly regular point reached along a
    segment that provably misses every boundary-face image; the degree there
    equals the degree at the query point by local constancy. Failure of the
    perturbation schedule raises PerturbationExhausted with every attempt.
    """
    point = tuple(point)
    start = _query_column(f, point)
    scan = _scan(f, start)
    _refuse_boundary_image(scan)
    if scan.diagnosis is None:
        return _certificate(point, point, scan, _refuted(f, _REGULAR))

    images = f.images
    spread = max(max(axis) - min(axis) for axis in zip(*images.scaled))
    epsilon = Fraction(spread, 4 * images.denominator) if spread > 0 else Fraction(1)
    directions = _perturbation_directions(f.ambient_dim)
    schedule = ((epsilon / 2**k, d) for k in count() for d in directions)
    attempts: list[tuple] = []
    for step, direction in islice(schedule, _MAX_ATTEMPTS):
        candidate = tuple(p + step * d for p, d in zip(point, direction))
        attempts.append(candidate)
        end = feasible.homogeneous_column(candidate)
        scan = _scan(f, end)
        if scan.boundary is None and scan.diagnosis is None:
            if not _segment_hits_boundary(f, start, end):
                return _certificate(point, candidate, scan, _refuted(f, _PERTURBED))
    raise PerturbationExhausted(point, attempts)


def _obstacle_hit(f: PLMap, face: Face, start: tuple[int, ...], end: tuple[int, ...]) -> bool:
    """Whether the segment between two columns meets a face's image: one probe
    in the image's frame, or in the segment's when the image has none."""
    frame = f.images.frame(face)
    if frame is None:
        return feasible.hull_meets_segment(f.images.cols(face), start, end)
    return feasible.hull_leaves_affine_span(frame, (), (start, end))


def _segment_hits_boundary(f: PLMap, start: tuple[int, ...], end: tuple[int, ...]) -> bool:
    """Whether the segment between two columns meets a boundary-face image.
    Only the faces whose image boxes the boundary grid finds meeting the
    segment's integer box can; each is tested against the segment's own box,
    then probed (`_obstacle_hit`), in order, up to the first hit."""
    images, boundary = f.images, f.domain.boundary
    box = feasible.segment_box(images.denominator, start, end)
    return any(
        feasible.segment_meets_box(images.box(boundary[k]), images.denominator, start, end)
        and _obstacle_hit(f, boundary[k], start, end)
        for k in f.image_grid(boundary).meeting(box)
    )


def _carrier_face(f: PLMap, x) -> Face:
    located = f.domain.locate(x)
    if located.kind == "outside":
        raise ValueError(f"point {x} is outside the support")
    if located.kind == "interior":
        return f.domain.cells[located.cell].vertex_ids
    return located.face


def local_degree(f: PLMap, x) -> int:
    """Degree of the map on a small neighborhood isolating x in its fiber:
    one signed count of the star cells whose image cones at f(x) hold a
    direction on which no off-carrier frame weight is stationary
    (`plmap.cone_count`)."""
    if not finite_fibers(f):
        raise InfiniteFiberError("local degree needs finite fibers (no singular pieces)")
    x = tuple(x)
    carrier = _carrier_face(f, x)
    if f.domain.faces[carrier].on_boundary:
        raise ValueError(f"point {x} is not in the open support")
    return cone_count(f, carrier)


def homotopy_degree_constant(
    f: PLMap,
    g: PLMap,
    gamma: tuple,
    t_samples: Sequence[Fraction],
) -> HomotopyVerdict:
    """Degrees of the straight-line homotopy at sampled times.

    The homotopy H(., t) = (1-t) f + t g is itself piecewise affine on the
    shared complex, and the path point gamma(t) interpolates the given
    endpoints. Every sampled t is checked exactly against the hypothesis
    gamma(t) not in H(boundary, t); the verdict is a sampled certificate for
    finitely many t, not a proof over the whole interval.
    """
    if f.domain.vertices != g.domain.vertices or f.domain.cells != g.domain.cells:
        raise DomainMismatchError("homotopy endpoints must share one domain complex")
    start, end = tuple(gamma[0]), tuple(gamma[1])
    samples = tuple(Fraction(t) for t in t_samples)
    if any(t < 0 or t > 1 for t in samples):
        raise ValueError("homotopy times must lie in [0, 1]")
    degrees = []
    for t in samples:
        images = [
            tuple((1 - t) * a + t * b for a, b in zip(wf, wg))
            for wf, wg in zip(f.vertex_images, g.vertex_images)
        ]
        stage = build_plmap(f.domain, images)
        target = tuple((1 - t) * a + t * b for a, b in zip(start, end))
        try:
            degrees.append(degree(stage, target).degree)
        except BoundaryImageError as exc:
            raise HomotopyHypothesisViolation(t, exc.face) from None
    return HomotopyVerdict(
        constant=len(set(degrees)) <= 1,
        samples=samples,
        degrees=tuple(degrees),
        note=(
            "sampled certificate: degrees agree at the listed times; "
            "the intermediate-t set is not exhaustively decided"
        ),
    )
