"""The openness decision procedure and the branch set.

The exact conditions are decided from the determinant-sign profile, fiber
finiteness, and the branch set's dimension; coherent orientation ties them to
the classical piecewise-affine criterion. All four must agree on every valid
map — a disagreement is an implementation bug, never new mathematics, and the
CLI reserves a dedicated exit code for it.

Branch-set classification works face by face. An interior (n-1)-face lies in
the branch set iff its two incident determinant signs differ or one vanishes
(equal nonzero signs give local injectivity across the face by invariance of
domain). A face of dimension <= n-2 lies in it iff an incident cell is
singular or two star cells, shrunk toward the face, have images overlapping
in full dimension. Every star piece sends the face barycenter c to the same
point f(c), so all star images shrink by one homothety about f(c) and the
shrink cancels: each pair is one strict probe on the unshrunk images, in the
integer frame of one of them (`feasible.relint_meets_simplex`). Singular
cells additionally contribute their own interiors.

The openness oracle is an independent probabilistic check of openness itself:
at face barycenters and seeded random interior points, it tests whether the
image cones of the star cover every sampled direction. A failed direction is
a certified witness of non-openness (one-sided: failures are proofs, passes
are evidence). The star images are shrunk by 1/2 about the sample's image;
that leaves the sample's barycentric coordinates in each image simplex
unchanged and doubles every slope along a ray, so the oracle works on the
unshrunk images. Per cell and per call it reads the image simplex's integer
frame (`PLMap.image_frame`, one fraction-free adjugate) and builds per frame
row the bit mask of base directions of nonnegative slope; a sample then
costs bitwise ANDs and ORs. Only a failing sample reads f(x) as an integer
homogeneous column, compares its boundary crossings as integer pairs, and
builds one rational epsilon per failure.

Both the branch set and the oracle read their frames and columns from the
map, which builds each at first use and keeps it for the map's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional

from . import feasible
from .complexes import Face
from .linalg import Matrix, Vector, null_space, vec_sub
from .plmap import MIXED, PLMap, SignProfile, finite_fibers, sign_profile

REASON_SIGN_MISMATCH = "SignMismatchAcrossFace"
REASON_SINGULAR = "SingularIncidentCell"
REASON_INJECTIVITY = "LocalInjectivityFailure"


@dataclass(frozen=True)
class BranchFace:
    face: Face
    dim: int
    reason: str
    cells: tuple[int, ...]  # the machine-checkable evidence pair / singular cells


@dataclass(frozen=True)
class BranchReport:
    branch_faces: tuple[BranchFace, ...]
    dim_branch_set: Optional[int]  # None encodes dimension -infinity (empty)

    def dim_at_most(self, bound: int) -> bool:
        return self.dim_branch_set is None or self.dim_branch_set <= bound


def coherently_oriented(f: PLMap) -> bool:
    """All piece determinant signs nonzero and equal."""
    signs = {p.det_sign for p in f.pieces}
    return 0 not in signs and len(signs) == 1


def _adjacent_across_facet(f: PLMap, a: int, b: int) -> bool:
    shared = set(f.domain.cells[a].vertex_ids) & set(f.domain.cells[b].vertex_ids)
    return len(shared) == f.ambient_dim


def branch_set(f: PLMap) -> BranchReport:
    """Faces whose relative interiors fail local homeomorphism, with reasons.

    A face F of dimension <= n-2 with nonsingular star is decided pair by
    pair on the star's unshrunk cell images. Every star piece sends F's
    barycenter c to f(c), so shrinking each star cell toward c shrinks its
    image by one homothety h about f(c), and relint(h f(a)) meets
    relint(h f(b)) iff relint f(a) meets relint f(b). As f(a) is a full
    n-simplex, that holds iff int f(b) meets f(a): one strict probe in the
    integer frame of f(a) over the weights of f(b)'s vertices
    (`feasible.relint_meets_simplex`). h maps boxes to boxes, so the image
    boxes prune the same pairs as the shrunk ones. Frames and homogeneous
    columns are the map's own (`PLMap.image_frame`, `PLMap.image_columns`).
    """
    n = f.ambient_dim
    out: list[BranchFace] = []

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
        witness: Optional[tuple[int, int]] = None
        for i, a in enumerate(star):
            if witness:
                break
            for b in star[i + 1 :]:
                if _adjacent_across_facet(f, a, b):
                    if f.pieces[a].det_sign == f.pieces[b].det_sign:
                        # Equal signs across a shared facet: the two images lie
                        # strictly on opposite sides of the shared image
                        # hyperplane, so their overlap has dimension <= n-1.
                        continue
                    # Opposite signs: both images fold onto one side, so the
                    # shrunk images overlap in full dimension.
                    witness = (a, b)
                    break
                if not feasible.boxes_overlap(f.image_box(a), f.image_box(b)):
                    continue
                frame = f.image_frame(f.domain.cells[a].vertex_ids)
                columns = f.image_columns(f.domain.cells[b].vertex_ids)
                if feasible.relint_meets_simplex(frame, columns):
                    witness = (a, b)
                    break
        if witness:
            out.append(BranchFace(ids, info.dim, REASON_INJECTIVITY, witness))

    # A collapsed cell fails local homeomorphism on its whole interior.
    for ci, piece in enumerate(f.pieces):
        if piece.det_sign == 0:
            out.append(BranchFace(f.domain.cells[ci].vertex_ids, n, REASON_SINGULAR, (ci,)))

    out.sort(key=lambda bf: (len(bf.face), bf.face))
    dim_branch = max((bf.dim for bf in out), default=None)
    return BranchReport(tuple(out), dim_branch)


# ---------------------------------------------------------------------------
# Probabilistic openness oracle (condition (i))
# ---------------------------------------------------------------------------


class _SplitMix64:
    """Tiny deterministic generator; stable across runs and Python versions."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def int_range(self, low: int, high: int) -> int:
        return low + self.below(high - low + 1)


@dataclass(frozen=True)
class OracleFailure:
    point: Vector
    carrier: Face
    direction: Vector
    epsilon: Fraction
    target: Vector  # f(point) + epsilon * direction, certified uncovered


@dataclass(frozen=True)
class OracleResult:
    open_at_all_samples: bool
    failures: tuple[OracleFailure, ...]
    samples: int


def seeded_directions(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = _SplitMix64(seed)
    dirs: list[tuple[int, ...]] = []
    while len(dirs) < count:
        candidate = tuple(rng.int_range(-8, 8) for _ in range(n))
        if any(candidate):
            dirs.append(candidate)
    return dirs


def shrunk_star_images(
    f: PLMap, x: Vector, carrier: Face
) -> list[tuple[int, tuple[Vector, ...], tuple[Vector, ...]]]:
    """(cell, shrunk cell points, their images) for the star of the carrier."""
    half = Fraction(1, 2)
    out = []
    for ci in f.domain.faces[carrier].cells:
        pts = tuple(
            tuple(c + half * (v - c) for v, c in zip(p, x))
            for p in f.domain.cell_points(ci)
        )
        out.append((ci, pts, tuple(f.pieces[ci].apply(p) for p in pts)))
    return out


def _face_normal_directions(f: PLMap, face: Face) -> list[tuple[int, ...]]:
    images = f.image_of_face(face)
    dirs = [vec_sub(q, images[0]) for q in images[1:]]
    normals: list[tuple[int, ...]] = []
    for normal in null_space(Matrix(tuple(dirs))):
        scale = lcm(*(c.denominator for c in normal))
        scaled = tuple(int(c * scale) for c in normal)
        normals.append(scaled)
        normals.append(tuple(-c for c in scaled))
    return normals


@dataclass(frozen=True)
class _ImageTable:
    """A star cell's covering tables, built once per oracle call.

    `rows` are the barycentric rows of the cell's image-simplex frame
    (`PLMap.image_frame`, one integer adjugate), one per cell vertex in
    `vertex_ids` order. For the integer homogeneous column ŷ = (m·y, m) of a
    point y, rows[k]·ŷ is m·c_k times y's barycentric coordinate k, with
    c_k > 0 fixed per row. A row's first n entries are its integer slope row
    and its last entry is the constant term, so the slope of coordinate k
    along a direction d is c_k⁻¹ times the dot product of d with the slope
    row. Bit j of `masks[k]` is set iff that slope is >= 0 for the j-th base
    direction.
    """

    vertex_ids: Face
    rows: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]


def _dot(row: tuple[int, ...], vector: tuple[int, ...]) -> int:
    # A frame row dotted with a direction stops at the direction's n entries,
    # so it reads the slope row; with a homogeneous column it reads the whole row.
    return sum(map(mul, row, vector))


def _image_table(f: PLMap, cell_index: int, directions: list[tuple[int, ...]]) -> _ImageTable:
    ids = f.domain.cells[cell_index].vertex_ids
    rows = f.image_frame(ids).bary
    masks = tuple(sum(1 << j for j, d in enumerate(directions) if _dot(row, d) >= 0) for row in rows)
    return _ImageTable(ids, rows, masks)


def openness_oracle(
    f: PLMap, num_points: int = 20, num_directions: int = 64, rng_seed: int = 0
) -> OracleResult:
    """Directional covering test of openness at sampled interior points.

    At a sample x, openness of the map at x is equivalent to the union of the
    shrunk star images covering a neighborhood of f(x); that union is
    star-shaped about f(x), so a direction d is covered iff some star image
    contains f(x) + t d for small positive t. The exact exit parameter of the
    ray in each image simplex decides this, and the recorded epsilon places a
    certified uncovered point strictly inside the first boundary crossing.

    Shrinking an image simplex by 1/2 about f(x) leaves the barycentric
    coordinates of f(x) unchanged and doubles every slope along a ray, so
    each star cell is tested against its unshrunk image through an
    `_ImageTable` built once per call: the barycentric rows of its image
    simplex's integer frame, and per row the mask of base directions of
    nonnegative slope. A direction is covered by a cell iff no row with a
    zero coordinate of f(x) has negative slope; those rows are the cell's
    vertices off the carrier, because x lies in the relative interior of the
    carrier and the piece is an affine bijection. The first crossing of a ray
    in a shrunk image is then -b / (2 s) for each unshrunk coordinate b and
    slope s, and only samples with an uncovered direction evaluate f(x) and
    these crossings, in integers until the least one is found.
    """
    singular = [ci for ci, p in enumerate(f.pieces) if p.det_sign == 0]
    if singular:
        failures = tuple(
            OracleFailure(
                point=f.domain.barycenter(f.domain.cells[ci].vertex_ids),
                carrier=f.domain.cells[ci].vertex_ids,
                direction=(),
                epsilon=Fraction(0),
                target=(),
            )
            for ci in singular
        )
        return OracleResult(False, failures, 0)

    n = f.ambient_dim
    base_directions = seeded_directions(n, num_directions, rng_seed)
    rng = _SplitMix64(rng_seed ^ 0xD1B54A32D192ED03)

    # (carrier, positive weights on the carrier's vertices): every sample lies
    # in the relative interior of its carrier.
    samples: list[tuple[Face, tuple[int, ...]]] = [
        (ids, (1,) * len(ids)) for ids in f.domain.interior_faces()
    ]
    num_cells = len(f.domain.cells)
    for _ in range(num_points):
        ids = f.domain.cells[rng.below(num_cells)].vertex_ids
        samples.append((ids, tuple(rng.int_range(1, 64) for _ in ids)))

    tables: dict[int, _ImageTable] = {}
    all_directions = (1 << len(base_directions)) - 1
    failures: list[OracleFailure] = []
    for carrier, weights in samples:
        star = []
        for ci in f.domain.faces[carrier].cells:
            if ci not in tables:
                tables[ci] = _image_table(f, ci, base_directions)
            table = tables[ci]
            off_carrier = [k for k, v in enumerate(table.vertex_ids) if v not in carrier]
            star.append((table, off_carrier))

        covered = 0
        for table, off_carrier in star:
            cell_covers = all_directions
            for k in off_carrier:
                cell_covers &= table.masks[k]
            covered |= cell_covers
        uncovered = [d for j, d in enumerate(base_directions) if not covered >> j & 1]
        if len(carrier) == n:  # interior (n-1)-face: add the exact fold normals
            uncovered += [
                d
                for d in _face_normal_directions(f, carrier)
                if not any(
                    all(_dot(table.rows[k], d) >= 0 for k in off_carrier)
                    for table, off_carrier in star
                )
            ]
        if not uncovered:
            continue

        total = sum(weights)
        pts = f.domain.face_points(carrier)
        x = tuple(
            sum((w * p[c] for w, p in zip(weights, pts)), Fraction(0)) / total
            for c in range(n)
        )
        y0 = f.pieces[f.domain.faces[carrier].cells[0]].apply(x)
        y0_column = feasible.homogeneous_column(y0)
        m = y0_column[-1]
        bases = [[_dot(row, y0_column) for row in table.rows] for table, _ in star]
        for direction in uncovered:
            # Exact epsilon: half the first positive facet crossing of the ray
            # among all shrunk star image simplices. Coordinate k of f(x) is
            # b / (m c_k) and its slope in the shrunk image is 2 s / c_k, so the
            # crossing is -b / (2 m s): the least positive ratio -b / s, kept
            # as an integer pair (num, den > 0) and compared by cross-products.
            least: Optional[tuple[int, int]] = None
            for (table, _), base in zip(star, bases):
                for b, row in zip(base, table.rows):
                    slope = _dot(row, direction)
                    if slope == 0:
                        continue
                    num, den = (-b, slope) if slope > 0 else (b, -slope)
                    if num > 0 and (least is None or num * least[1] < least[0] * den):
                        least = (num, den)
            epsilon = Fraction(least[0], 4 * m * least[1]) if least else Fraction(1)
            target = tuple(a + epsilon * d for a, d in zip(y0, direction))
            failures.append(
                OracleFailure(x, carrier, tuple(Fraction(d) for d in direction), epsilon, target)
            )
    return OracleResult(not failures, tuple(failures), len(samples))


# ---------------------------------------------------------------------------
# Combined verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    num_points: int = 20
    num_directions: int = 64
    rng_seed: int = 0


@dataclass(frozen=True)
class ConditionPair:
    finite_fibers: bool
    sign_not_mixed: bool

    @property
    def holds(self) -> bool:
        return self.finite_fibers and self.sign_not_mixed


@dataclass(frozen=True)
class ConditionBranch:
    finite_fibers: bool
    dim_branch_ok: bool

    @property
    def holds(self) -> bool:
        return self.finite_fibers and self.dim_branch_ok


@dataclass(frozen=True)
class OpennessVerdict:
    cond_ii: ConditionPair
    cond_iii: ConditionPair
    cond_iv: ConditionBranch
    coherent: bool
    oracle: Optional[OracleResult]
    profile: SignProfile = field(repr=False)
    branch: BranchReport = field(repr=False)

    @property
    def is_open(self) -> bool:
        return self.coherent

    @property
    def all_agree(self) -> bool:
        return (
            self.cond_ii.holds
            == self.cond_iii.holds
            == self.cond_iv.holds
            == self.coherent
        )


def check_conditions(f: PLMap, oracle_config: Optional[OracleConfig] = None) -> OpennessVerdict:
    """Evaluate the exact openness conditions, optionally with the oracle.

    The sign conditions over differentiability points and over the
    nonsingular locus coincide for piecewise-affine maps: the only extra
    differentiability points are faces whose incident pieces agree, and those
    carry an incident cell's determinant. Zeros occur exactly on singular
    cells, which fiber finiteness already excludes. So conditions (ii) and
    (iii) are one predicate, computed once and reported under both keys.
    The checks computed independently of it are condition (iv) through the
    branch set, coherent orientation, and the oracle.
    """
    profile = sign_profile(f)
    finite = finite_fibers(f)
    branch = branch_set(f)
    sign_pair = ConditionPair(finite, profile.classification != MIXED)
    return OpennessVerdict(
        cond_ii=sign_pair,
        cond_iii=sign_pair,
        cond_iv=ConditionBranch(finite, branch.dim_at_most(f.ambient_dim - 2)),
        coherent=coherently_oriented(f),
        oracle=openness_oracle(
            f,
            oracle_config.num_points,
            oracle_config.num_directions,
            oracle_config.rng_seed,
        )
        if oracle_config is not None
        else None,
        profile=profile,
        branch=branch,
    )
