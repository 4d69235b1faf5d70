"""Certification of boundary-homeomorphism implies global-homeomorphism.

For a piecewise-affine map on a complex whose support is a combinatorial
closed ball, the certifier checks: (1) no interior point maps onto the
boundary image, (2) the boundary restriction is injective, (3) the map is
open (coherent orientation). A map is rejected at the earliest failing
stage. When all three hold, the paper's application (Whyburn's conjecture
for these maps: an open map of a ball that embeds the boundary is a
homeomorphism) gives (4) global injectivity and (5) degree plus or minus
one at every interior value; the degree at the image of cell 0's
barycentre, with its certificate, is the evidence.

Stage 3 (a set of determinant signs) runs first and, when it holds, stage 2
next. When both hold, stage 1 holds as well and its sweep is skipped. Write
B for the support, X = f(∂B) and deg(y) = deg(f, int B, y) for y not in X:
- by stage 2, f embeds ∂B, a strongly connected closed (n-1)-pseudomanifold
  (`make_ball_instance`). For n ≥ 2, Alexander duality gives the complement
  of X exactly two components, and X is orientable because H̃₀ of the
  complement is free; call the bounded one U and the unbounded one W. For
  n = 1, X is two points and W is the two unbounded rays;
- deg depends only on f|∂B: the chain ∂[B] is the sum of the boundary
  facets, because interior facets cancel. It is constant on each component
  of the complement, ±1 on U and 0 on W, where far values have no preimage.
  Across the relative interior of a boundary-facet image, which by stage 2
  meets no other facet image, it jumps by ±1, so the two sides lie in
  different components and one of them is W: X lies in the closure of W;
- by stage 3, every piece has the same nonzero sign, so each regular value
  y has exactly |deg(y)| preimages;
- suppose stage 1 fails: an interior x has f(x) in X. By the paper's
  (ii) ⇒ (i), f is open, so f maps a neighbourhood N of x in int B onto an
  open set around f(x), which meets W because f(x) lies in its closure. A
  regular value in that open part of W has a preimage in N, but |deg| = 0
  on W. That is a contradiction.
When stage 2 or 3 fails, stages 1, 2 and 3 are reported in that order (stage
2's result is reused if it was already computed), so every rejection names
the same stage and witness as running the stages in order would.

Stages 4 and 5 are a corollary of the same argument. By stage 1, f(int B)
misses X. A value y = f(x) in W would have an open set of regular values
around it with preimages near x (openness), but |deg| = 0 on W; so
f(int B) ⊂ U, where every regular value has exactly one preimage. If
f(x) = f(x') for interior x ≠ x', openness maps disjoint neighbourhoods of
the two onto open sets whose intersection holds regular values with two
preimages; a pair with a point on the boundary breaks stage 1 or 2. So f
is injective, and the degree at any value of f(int B) is ±1. The tests run
the stage-4 sweep on every map they certify.

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
from .complexes import (
    Face,
    boundary_cycle_defects,
    boundary_euler_characteristic,
    cells_connected,
    improper_pairs,
)
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

    The cells must be connected through interior facets. For n >= 2 every
    boundary (n-2)-face must bound exactly two boundary faces and the
    boundary faces must be connected through them (`boundary_cycle_defects`,
    the cycle validation reads too), and the boundary's Euler
    characteristic, counted over the subfaces of the boundary facets
    (`boundary_euler_characteristic`), must match a sphere's (this rejects
    e.g. toroidal boundaries that the cycle conditions alone admit). An
    n = 1 ball is a connected interval: exactly two boundary vertices.
    """
    n = f.ambient_dim
    boundary = f.domain.boundary
    reasons: list[str] = []
    if not cells_connected(f.domain):
        reasons.append("support is not connected through interior facets")
    reasons += boundary_cycle_defects(n, boundary)
    if n >= 2 and boundary:
        euler = boundary_euler_characteristic(boundary)
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
    support, so the sweep is exhaustive. `certify_ball_map` runs it only when
    stage 2 or 3 fails; otherwise it holds by the degree argument (module
    docstring). The pairs whose integer image boxes overlap come from the
    map's grid over the boundary images (`PLMap.image_grid`, kept with the
    map), in the order of the nested loop (interior faces by size and ids,
    then boundary faces). Each is decided by one probe in the boundary-face
    image's frame over the images of the interior face's vertices that the
    boundary face lacks (`feasible.relint_meets_sharing`), or in vertex form
    when that image is degenerate; only the first pair that hits rebuilds
    its witness point.
    """
    f = inst.map
    grid = f.image_grid(inst.boundary)
    for ids in f.domain.interior_faces():
        for j in grid.meeting(f.images.box(ids)):
            face = inst.boundary[j]
            frame = f.images.frame(face)
            # a degenerate image (no frame) is decided in vertex form
            if frame is not None and not feasible.relint_meets_sharing(
                frame, *f.images.sharing(face, ids)
            ):
                continue
            # the first hit rebuilds its witness in vertex form
            witness = feasible.relint_preimage_witness(
                f.domain.face_points(ids), f.image_of_face(ids), f.image_of_face(face)
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
    the shared subface's image. Each face's image frame is read off the
    image frame of the one cell that has the face
    (`IntegerPoints.facet_frame`, no adjugate). Only a cell with a collapsed
    image has no frame, and then the face's own frame is built; a
    coherently oriented map collapses no cell, so that happens only when
    stage 3 fails. The pairs whose image boxes overlap come from the map's
    grid over the boundary images (`PLMap.image_grid`, built here at first
    use and kept for stage 1 when it runs), walked by `improper_pairs`. The
    degree reads that grid only on its perturbation path, for the segment's
    obstacles; its point queries read the cell grid.
    """
    f = inst.map
    boundary, facets, cells = inst.boundary, f.domain.facets, f.domain.cell_ids
    frames = [f.images.facet_frame(cells[facets[face][0]], face) for face in boundary]
    for face, frame in zip(boundary, frames):
        if frame is None:
            return False, (face, face)
    pair = next(improper_pairs(f.images, boundary, f.domain.cell_ids, frames), None)
    if pair is not None:
        return False, (boundary[pair[0]], boundary[pair[1]])
    return True, None


def certify_ball_map(inst: BallMapInstance) -> Union[Certified, Rejected]:
    """Reject at the earliest failing stage of 1-3, else certify with the degree.

    Stage 3 runs first, then stage 2; when both hold, stage 1 holds too and
    is not swept. Otherwise stages 1, 2 and 3 are reported in that order,
    with stage 2's result reused if it was already computed. Once all three
    hold, stages 4 and 5 follow (module docstring), and the degree at the
    image of cell 0's barycentre, the mean of its vertex images, is the
    certificate; `degree`'s errors propagate.
    """
    f = inst.map

    oriented = coherently_oriented(f)
    injective = boundary_restriction_injective(inst) if oriented else None
    if not oriented or not injective[0]:
        ok, witness = boundary_preimage_ok(inst)
        if not ok:
            return Rejected(1, "an interior point maps onto the boundary image", witness)
        ok, pair = injective if oriented else boundary_restriction_injective(inst)
        if not ok:
            return Rejected(2, "boundary restriction is not injective", pair)
        profile = sign_profile(f)
        return Rejected(
            3,
            "map is not open: determinant signs are not coherently oriented",
            (profile.num_pos, profile.num_neg, profile.num_zero),
        )

    images = f.image_of_face(f.domain.cell_ids[0])
    certificate = degree(f, tuple(sum(axis) / len(images) for axis in zip(*images)))
    assert certificate.degree in (1, -1), "stages 1-3 hold, so the degree is ±1"
    return Certified(degree=certificate.degree, certificate=certificate)
