"""Certification of boundary-homeomorphism implies global-homeomorphism.

For a piecewise-affine map on a complex whose support is a combinatorial
closed ball, the certifier checks: (1) no interior point maps onto the
boundary image, (2) the boundary restriction is injective, (3) the map is
open (coherent orientation), (4) exact global injectivity pairwise over all
cells, (5) the degree at an interior value is plus or minus one. A map is
rejected at the earliest failing stage, and certified when all five hold.

Stages 1-3 run in that order. Stage 5 then runs before stage 4, because once
stages 1-3 hold, the degree is ±1 exactly when stage 4 holds:
- f(int B) is connected and, by stage 1, misses f(∂B), so the degree is
  constant on f(int B);
- every piece has the same determinant sign (stage 3), so at a regular value
  |degree| counts preimages;
- if f(x) = f(y) for interior x ≠ y, openness maps disjoint neighbourhoods of
  x and y onto open sets whose intersection holds regular values with at
  least two preimages, so |degree| ≥ 2; a pair of equal images with a point
  on the boundary breaks stage 1 or 2;
- conversely, if f is injective, the value used (the image of a cell's
  barycenter) has one nonsingular preimage, so the degree is ±1.
So a degree of ±1 certifies without the O(cells²) stage-4 sweep. The sweep
runs only when the degree is not ±1, or when `degree` raises, and then the
verdict follows the stage order: stage 4 if the sweep finds a pair, else
stage 5 (or the same exception). Every premise of the argument is a stage
already checked exactly; the tests still run the stage-4 sweep on every
certified instance of the acceptance corpus.

Stage 1 implements the witnessed inclusion: no interior face's relative
interior may meet any boundary-face image. The reverse inclusion (the image
boundary is covered by boundary-face images) follows once stage 3 holds,
because an open map sends the open support into the interior of the image;
instances violating only that inclusion are rejected at stage 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import feasible
from .complexes import Face, cells_connected, graph_connected
from .degree import DegreeCertificate, degree
from .openness import coherently_oriented
from .plmap import PLMap, sign_profile


class InvalidBallError(ValueError):
    def __init__(self, reasons: list[str]):
        self.reasons = tuple(reasons)
        super().__init__("; ".join(reasons))


@dataclass(frozen=True)
class BallMapInstance:
    """A map whose domain support is validated as a combinatorial closed ball."""

    map: PLMap
    boundary: tuple[Face, ...]


@dataclass(frozen=True)
class Certified:
    degree: int
    certificate: DegreeCertificate


@dataclass(frozen=True)
class Rejected:
    stage: int
    reason: str
    witness: object


def make_ball_instance(f: PLMap) -> BallMapInstance:
    """Validate the ball structure: one connected boundary (n-1)-cycle.

    For n >= 2 every boundary (n-2)-face must bound exactly two boundary
    faces, the boundary faces must be connected through them, and the
    boundary's Euler characteristic must match a sphere's (this rejects e.g.
    toroidal boundaries that the cycle conditions alone admit). An n = 1 ball
    is a connected interval: exactly two boundary vertices.
    """
    n = f.ambient_dim
    boundary = f.domain.boundary
    reasons: list[str] = []
    if not cells_connected(f.domain):
        reasons.append("support is not connected through interior facets")
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
        boundary_subfaces = set()
        for face in boundary:
            ids = face
            for mask in range(1, 1 << len(ids)):
                boundary_subfaces.add(tuple(ids[i] for i in range(len(ids)) if mask >> i & 1))
        euler = sum((-1) ** (len(sub) - 1) for sub in boundary_subfaces)
        expected = 1 + (-1) ** (n - 1)
        if euler != expected:
            reasons.append(
                f"boundary Euler characteristic {euler} differs from a sphere's {expected}"
            )
    if reasons:
        raise InvalidBallError(reasons)
    return BallMapInstance(map=f, boundary=boundary)


def boundary_preimage_ok(inst: BallMapInstance) -> tuple[bool, Optional[tuple]]:
    """No interior face's relative interior maps into a boundary-face image.

    A failure returns an exact interior witness point whose image lies in the
    boundary image. Relative interiors of interior faces partition the open
    support, so the sweep is exhaustive. Each pair is decided by one probe in
    the boundary-face image's frame (vertex form when that image is
    degenerate); only the first pair that hits rebuilds its witness point.
    The frames stay with the map, so stage 2 reuses them.
    """
    f = inst.map
    targets = []
    for face in inst.boundary:
        hull = f.image_of_face(face)
        targets.append((hull, f.image_frame(face), feasible.bounding_box(hull)))
    for ids in f.domain.interior_faces():
        source_imgs = f.image_of_face(ids)
        source_box = feasible.bounding_box(source_imgs)
        for hull, frame, box in targets:
            if not feasible.boxes_overlap(source_box, box):
                continue
            # a degenerate image (no frame) is decided in vertex form
            if frame is not None and not feasible.relint_meets_simplex(
                frame, f.image_columns(ids)
            ):
                continue
            # the first hit rebuilds its witness in vertex form
            witness = feasible.relint_preimage_witness(
                f.domain.face_points(ids), source_imgs, hull
            )
            if witness is not None:
                return False, witness
    return True, None


def boundary_restriction_injective(
    inst: BallMapInstance,
) -> tuple[bool, Optional[tuple[Face, Face]]]:
    """Exact pairwise injectivity of the boundary restriction.

    Images of two boundary faces may overlap only in the image of their
    shared subface. Each boundary-face image must itself be a nondegenerate
    (n-1)-simplex (a collapsed face is already a collision within itself);
    given that, the overlap is proper iff it stays inside the affine hull of
    the shared subface's image.
    """
    f = inst.map
    boundary = inst.boundary
    hulls = {face: f.image_of_face(face) for face in boundary}
    boxes = {face: feasible.bounding_box(hulls[face]) for face in boundary}
    for face in boundary:
        if f.image_frame(face) is None:
            return False, (face, face)
    for i, face_a in enumerate(boundary):
        for face_b in boundary[i + 1 :]:
            if not feasible.boxes_overlap(boxes[face_a], boxes[face_b]):
                continue
            shared = tuple(sorted(set(face_a) & set(face_b)))
            span = f.image_of_face(shared)
            if feasible.hull_leaves_affine_span(f.image_frame(face_a), hulls[face_b], span):
                return False, (face_a, face_b)
    return True, None


def _global_collision(f: PLMap) -> Optional[tuple[int, int]]:
    """Lexicographically smallest cell pair whose images overlap improperly.

    Runs after coherent orientation is established, so every cell image is a
    nondegenerate simplex. Pairs adjacent across an (n-1)-face with equal
    determinant signs are skipped: their images lie strictly on opposite
    sides of the shared image hyperplane, so the overlap equals the shared
    image face exactly. For the rest, conv(image) ∩ aff(shared image) equals
    the shared image face, so an improper overlap is exactly one that leaves
    that affine hull (or any overlap at all for disjoint cells).
    """
    n = f.ambient_dim
    count = len(f.domain.cells)
    for a in range(count):
        box_a = f.image_box(a)
        ids_a = set(f.domain.cells[a].vertex_ids)
        for b in range(a + 1, count):
            if not feasible.boxes_overlap(box_a, f.image_box(b)):
                continue
            shared = tuple(sorted(ids_a & set(f.domain.cells[b].vertex_ids)))
            if len(shared) == n and f.pieces[a].det_sign == f.pieces[b].det_sign:
                continue
            frame = f.image_frame(f.domain.cells[a].vertex_ids)
            hull_b = f.cell_image_points(b)
            if feasible.hull_leaves_affine_span(frame, hull_b, f.image_of_face(shared)):
                return a, b
    return None


def certify_ball_map(inst: BallMapInstance) -> Union[Certified, Rejected]:
    """Run the five-stage pipeline; reject at the earliest failing stage.

    Stage 4 runs only when the stage-5 degree is not ±1 (module docstring).
    """
    f = inst.map

    ok, witness = boundary_preimage_ok(inst)
    if not ok:
        return Rejected(1, "an interior point maps onto the boundary image", witness)

    ok, pair = boundary_restriction_injective(inst)
    if not ok:
        return Rejected(2, "boundary restriction is not injective", pair)

    if not coherently_oriented(f):
        profile = sign_profile(f)
        return Rejected(
            3,
            "map is not open: determinant signs are not coherently oriented",
            (profile.num_pos, profile.num_neg, profile.num_zero),
        )

    # Given stages 1-3, stage 5 passes exactly when stage 4 does (module
    # docstring), so the O(cells²) sweep runs only when the degree is not ±1.
    center = f.domain.barycenter(f.domain.cells[0].vertex_ids)
    value = f.pieces[0].apply(center)
    try:
        certificate = degree(f, value)
    except (ValueError, RuntimeError):  # the bases of the degree module's errors
        certificate = None
    if certificate is None or certificate.degree not in (1, -1):
        collision = _global_collision(f)
        if collision is not None:
            return Rejected(4, "global injectivity failure between cell images", collision)
        if certificate is None:
            certificate = degree(f, value)  # raises the same error again, after stage 4
        if certificate.degree not in (1, -1):
            return Rejected(
                5,
                f"interior degree is {certificate.degree}, expected plus or minus 1",
                certificate,
            )
    return Certified(degree=certificate.degree, certificate=certificate)
