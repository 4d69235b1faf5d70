"""Brouwer degree of piecewise-affine maps, with exact certificates.

At a regular value the degree is the sum of the determinant signs over the
fiber. An arbitrary admissible value (one outside the boundary image) is
reduced to a regular one by perturbing along a fixed schedule of rational
directions with halving magnitudes; a candidate is accepted only if it is
exactly regular and the straight segment from the query point provably avoids
every boundary-face image (one feasibility probe per obstacle). The segment
test replaces a metric closeness bound: both are licensed by local constancy,
and segment avoidance needs no square roots.

Local degree restricts the map to the closed star of the carrier face of a
point, rescaled toward the point until its closure meets the fiber only
there, and evaluates the degree of that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from . import feasible
from .complexes import Face, SimplicialComplex, scaled_star, validate_complex
from .plmap import FiniteFiber, InfiniteFiber, PLMap, build_plmap, fiber, finite_fibers


class BoundaryImageError(ValueError):
    """The query point lies in the image of the boundary: degree undefined."""


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
    # per boundary face: whether the segment from query to regular point hits it
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


def boundary_image_hulls(f: PLMap) -> list[tuple[Face, tuple]]:
    return [(face, f.image_of_face(face)) for face in f.domain.boundary]


def point_on_boundary_image(f: PLMap, point) -> Optional[Face]:
    for face, hull in boundary_image_hulls(f):
        box = feasible.bounding_box(hull)
        if all(l <= p <= h for p, l, h in zip(point, box[0], box[1])):
            if feasible.hull_contains(hull, point):
                return face
    return None


def is_regular_value(f: PLMap, point) -> tuple[bool, Optional[str]]:
    """Whether every preimage of the point has a nonsingular derivative.

    Exactly: the point avoids the image of every face of dimension <= n-1 and
    the image of every singular cell. The diagnosis names the first offender.
    """
    n = f.ambient_dim
    for ids, info in sorted(f.domain.faces.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if info.dim > n - 1:
            continue
        hull = f.image_of_face(ids)
        box = feasible.bounding_box(hull)
        if all(l <= p <= h for p, l, h in zip(point, box[0], box[1])):
            if feasible.hull_contains(hull, point):
                return False, f"point lies in the image of face {ids} (dim {info.dim})"
    for ci, piece in enumerate(f.pieces):
        if piece.det_sign == 0:
            hull = f.cell_image_points(ci)
            if feasible.hull_contains(hull, point):
                return False, f"point lies in the image of singular cell {ci}"
    return True, None


def degree_at_regular(f: PLMap, point) -> DegreeCertificate:
    """Sign-sum degree at an exactly regular value outside the boundary image."""
    offending = point_on_boundary_image(f, point)
    if offending is not None:
        raise BoundaryImageError(
            f"degree undefined: point lies in the image of boundary face {offending}"
        )
    regular, diagnosis = is_regular_value(f, point)
    if not regular:
        raise IrregularValueError(f"{diagnosis}; call degree() to perturb exactly")
    fib = fiber(f, point)
    assert isinstance(fib, FiniteFiber)
    entries = []
    for fp in fib.points:
        assert len(fp.cells) == 1 and fp.signs[0] != 0  # regularity
        entries.append((fp.point, fp.signs[0]))
    checks = tuple((face, False) for face, _ in boundary_image_hulls(f))
    evidence = PathEvidence(
        "query point is regular; membership in every boundary-face image was refuted",
        checks,
    )
    return DegreeCertificate(
        degree=sum(s for _, s in entries),
        query_point=tuple(point),
        regular_point_used=tuple(point),
        fiber=tuple(entries),
        path_evidence=evidence,
    )


def _perturbation_directions(n: int) -> list[tuple[Fraction, ...]]:
    dirs = []
    for axis in range(n):
        for sign in (1, -1):
            dirs.append(tuple(Fraction(sign if c == axis else 0) for c in range(n)))
    if n > 1:
        for combo in product((1, -1), repeat=n):
            dirs.append(tuple(Fraction(c) for c in combo))
    return dirs


def degree(f: PLMap, point, max_attempts: int = 64) -> DegreeCertificate:
    """Degree at any point outside the boundary image.

    Irregular points are replaced by an exactly regular point reached along a
    segment that provably misses every boundary-face image; the degree there
    equals the degree at the query point by local constancy. Failure of the
    perturbation schedule raises PerturbationExhausted with every attempt.
    """
    point = tuple(point)
    offending = point_on_boundary_image(f, point)
    if offending is not None:
        raise BoundaryImageError(
            f"degree undefined: point lies in the image of boundary face {offending}"
        )
    if is_regular_value(f, point)[0]:
        return degree_at_regular(f, point)

    obstacles = boundary_image_hulls(f)
    spread = Fraction(0)
    for c in range(f.ambient_dim):
        values = [img[c] for img in f.vertex_images]
        spread = max(spread, max(values) - min(values))
    epsilon = spread / 4 if spread > 0 else Fraction(1)
    directions = _perturbation_directions(f.ambient_dim)
    attempts: list[tuple] = []
    while len(attempts) < max_attempts:
        for direction in directions:
            if len(attempts) >= max_attempts:
                break
            candidate = tuple(p + epsilon * d for p, d in zip(point, direction))
            attempts.append(candidate)
            if point_on_boundary_image(f, candidate) is not None:
                continue
            if not is_regular_value(f, candidate)[0]:
                continue
            checks = tuple(
                (face, feasible.segment_hits_hull(point, candidate, hull))
                for face, hull in obstacles
            )
            if any(hit for _, hit in checks):
                continue
            base = degree_at_regular(f, candidate)
            evidence = PathEvidence(
                "query point was irregular; the segment to the regular point below "
                "avoids every boundary-face image (per-obstacle outcomes listed)",
                checks,
            )
            return DegreeCertificate(
                degree=base.degree,
                query_point=point,
                regular_point_used=candidate,
                fiber=base.fiber,
                path_evidence=evidence,
            )
        epsilon = epsilon / 2
    raise PerturbationExhausted(point, attempts)


def _carrier_face(f: PLMap, x) -> Face:
    located = f.domain.locate(x)
    if located.kind == "outside":
        raise ValueError(f"point {x} is outside the support")
    if located.kind == "interior":
        return f.domain.cells[located.cell].vertex_ids
    return located.face


def star_restriction(
    f: PLMap, x, carrier: Face, factor: Fraction
) -> tuple[PLMap, SimplicialComplex]:
    """The map restricted to the closed star of the carrier, scaled toward x."""
    verts, cells, cell_map = scaled_star(f.domain, tuple(x), carrier, factor)
    star_complex = validate_complex(verts, cells, f.ambient_dim)
    images = [None] * len(verts)
    for new_ci, ids in enumerate(cells):
        piece = f.pieces[cell_map[new_ci]]
        for vid in ids:
            if images[vid] is None:
                images[vid] = piece.apply(verts[vid])
    star_map = build_plmap(star_complex, images)
    return star_map, star_complex


def local_degree(f: PLMap, x) -> int:
    """Degree of the map on a small neighborhood isolating x in its fiber."""
    if not finite_fibers(f):
        raise InfiniteFiberError("local degree needs finite fibers (no singular pieces)")
    x = tuple(x)
    carrier = _carrier_face(f, x)
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
            return degree(star_map, value).degree
        factor = factor / 2
    raise RuntimeError("fiber isolation did not terminate; fiber finiteness is violated")


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
        raise ValueError("homotopy endpoints must share one domain complex")
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
        offending = point_on_boundary_image(stage, target)
        if offending is not None:
            raise HomotopyHypothesisViolation(t, offending)
        degrees.append(degree(stage, target).degree)
    return HomotopyVerdict(
        constant=len(set(degrees)) <= 1,
        samples=samples,
        degrees=tuple(degrees),
        note=(
            "sampled certificate: degrees agree at the listed times; "
            "the intermediate-t set is not exhaustively decided"
        ),
    )
