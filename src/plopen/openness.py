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
in full dimension. When every star cell has the same nonzero sign, the
face's barycenter c is alone in its fiber near c, so every regular value
near f(c) has |local degree| preimages near c: two shrunk star images
overlap in full dimension iff that count is at least 2. One count of the
star-cell image cones that hold a generic direction (`plmap.cone_count`)
gives it, in integers, and a count of 1 clears the face with no probe. The
branch set counts with one `plmap.cone_counter` per call, which computes
each cell's slopes along the count's direction once and reads them for
every star that holds the cell.
Mixed signs or a count of 2 or more go to the pair loop, which names the
witness pair. Every star piece sends c to the same point f(c), so all star
images shrink by one homothety about f(c) and the shrink cancels: each pair
is one strict probe on the unshrunk images, in the integer frame of one of
them, over the images of the other's vertices that the two cells do not
share (`feasible.relint_meets_sharing`). Singular cells additionally
contribute their own interiors.

The openness oracle is an independent probabilistic check of openness itself:
at interior face barycenters, it tests whether the image cones of the star
cover every sampled direction. A failed direction is a certified witness of
non-openness (one-sided: failures are proofs, passes are evidence). Samples
inside a cell, where the piece is a local homeomorphism, are counted, not
tested. The star images are shrunk by 1/2 about the sample's image; that
leaves the sample's barycentric coordinates in each image simplex unchanged
and doubles every slope along a ray, so the oracle works on the unshrunk
images, in integers until a sample fails:
- The base directions are drawn once per (n, count, seed), with one column
  of values per axis, and kept in a small bounded cache. Beside them, per
  lane width w, each axis column is packed into one integer, coordinate j
  in the w-bit lane j, with a bias of 2^(w-1) per lane.
- Per cell and per call it reads the image simplex's integer frame
  (`IntegerPoints.frame`, one fraction-free adjugate). A frame row gets the
  bit mask of the base directions on which its slope is nonnegative the
  first time a sample reads it, from one sum of n big-integer products over
  the packed columns, plus the bias: the top bit of each lane is the sign
  test of one direction, and a byte slice reads all of them at once. A
  sample then costs bitwise ANDs and ORs.
- An interior (n-1)-face has two star cells, each with one vertex off the
  face, and the slope rows of those two vertices are both normal to the
  face's image hyperplane, so parallel. When one nonzero entry has opposite
  signs in the two rows, the two image cones are the hyperplane's two
  closed half-spaces, which cover every direction, and the sample is
  cleared with no mask read. This reads only the oracle's own frame rows,
  never the pieces' determinant signs, so the oracle stays a check apart
  from the sign conditions. (The rows point opposite ways exactly when the
  two signs agree.)
- Otherwise, at an interior (n-1)-face the two normals of the face's image
  hyperplane are tested too. They are the slope row of a star cell's vertex
  off the face, divided by its gcd and signed so its last nonzero entry is
  positive, and its negation. A 1-D face is a point and adds none: there
  the base directions alone decide.
- The uncovered directions are counted (`OracleResult.num_failures`), and a
  failing sample keeps only integers: its carrier, the mask of its uncovered
  base directions and its uncovered fold normals. The tables are dropped when
  the call returns. The evidence is built the first time
  `OracleResult.failures` is read, so a caller that prints only the count
  builds none. It reads the star cells' frames again from the map; each
  uncovered direction gets its slopes on their rows there; x and f(x) are the
  barycenters of the scaled integer vertices and vertex images (the piece is
  affine on the carrier), f(x) becomes an integer homogeneous column by one
  gcd, the boundary crossings are compared as integer pairs, and epsilon and
  each target coordinate are one `Fraction` each.

Both the branch set and the oracle read their frames and columns from the
map's `IntegerPoints` (`PLMap.images`), which builds each at first use and
keeps it for the map's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from math import gcd
from operator import mul
from typing import Callable, Optional

from . import feasible
from .complexes import Face
from .linalg import Vector
from .plmap import MIXED, PLMap, SignProfile, cone_counter, finite_fibers, sign_profile

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

    A face F of dimension <= n-2 whose star cells all have one nonzero sign
    and whose star has a cone count (`plmap.cone_count`) of ±1 has local
    degree ±1, so no two shrunk star images overlap in full dimension and F
    is not in the branch set; no probe runs. The counts come from one
    `plmap.cone_counter` for the call, so each cell's slopes are computed
    once, not once per star that holds it, and none is kept on the map.
    Any other face F of dimension <= n-2 with nonsingular star, of mixed
    signs or of a count of 2 or more, is decided pair by pair on the star's
    unshrunk cell images. Every
    star piece sends F's barycenter c to f(c), so shrinking each star cell
    toward c shrinks its image by one homothety h about f(c), and
    relint(h f(a)) meets relint(h f(b)) iff relint f(a) meets relint f(b).
    As f(a) is a full n-simplex, that holds iff int f(b) meets f(a): one
    strict probe in the integer frame of f(a) over the weights of f(b)'s
    vertices; the vertices a and b share cost no arithmetic, so the probe
    reads only the images of b's other vertices
    (`feasible.relint_meets_sharing`). h maps boxes to boxes, so
    the image boxes prune the same pairs as the shrunk ones. Boxes, frames
    and homogeneous columns are the map's own (`PLMap.images`).
    """
    n = f.ambient_dim
    out: list[BranchFace] = []
    cone_count = cone_counter(f)

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
        if len({f.pieces[c].det_sign for c in star}) == 1 and abs(cone_count(ids)) == 1:
            # Local degree ±1 with equal signs: no two shrunk star images
            # overlap in full dimension, so no pair has a witness.
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
                ids_a, ids_b = f.domain.cells[a].vertex_ids, f.domain.cells[b].vertex_ids
                if not feasible.boxes_overlap(f.images.box(ids_a), f.images.box(ids_b)):
                    continue
                if feasible.relint_meets_sharing(
                    f.images.frame(ids_a), *f.images.sharing(ids_a, ids_b)
                ):
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


@dataclass(frozen=True, eq=False)
class OracleResult:
    """The oracle's answer. `num_failures` counts the uncovered (sample,
    direction) pairs, and `failures` is their evidence, one record each,
    which `evidence` builds the first time it is read. Equality compares
    the evidence too."""

    open_at_all_samples: bool
    num_failures: int
    samples: int
    evidence: Callable[[], tuple[OracleFailure, ...]] = field(repr=False)

    @cached_property
    def failures(self) -> tuple[OracleFailure, ...]:
        return self.evidence()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleResult):
            return NotImplemented
        return (self.open_at_all_samples, self.num_failures, self.samples, self.failures) == (
            other.open_at_all_samples,
            other.num_failures,
            other.samples,
            other.failures,
        )


def seeded_directions(n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = _SplitMix64(seed)
    dirs: list[tuple[int, ...]] = []
    while len(dirs) < count:
        candidate = tuple(rng.int_range(-8, 8) for _ in range(n))
        if any(candidate):
            dirs.append(candidate)
    return dirs


@lru_cache(maxsize=8)
def _base_directions(
    n: int, count: int, seed: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The seeded base directions and their per-axis value columns (entry j
    of column c is coordinate c of direction j), drawn once per setting."""
    directions = tuple(seeded_directions(n, count, seed))
    return directions, tuple(tuple(d[c] for d in directions) for c in range(n))


@lru_cache(maxsize=32)
def _lanes(n: int, count: int, seed: int, width: int) -> tuple[tuple[int, ...], int]:
    """The seeded base directions' axis columns packed in `width`-bit lanes
    (`_pack_lanes`), once per setting and width."""
    return _pack_lanes(_base_directions(n, count, seed)[1], width)


def _pack_lanes(
    axis_columns: tuple[tuple[int, ...], ...], width: int
) -> tuple[tuple[int, ...], int]:
    """Each axis column as one integer P_c = Σ_j column[j]·2^(width·j), and
    the bias B that holds 2^(width-1) in each of the columns' lanes."""
    packed = tuple(sum(a << width * j for j, a in enumerate(column)) for column in axis_columns)
    bias = sum(1 << width * j + width - 1 for j in range(len(axis_columns[0])))
    return packed, bias


# byte -> ASCII "1" if its top bit is set, else "0"
_TOP_BIT = bytes(b"01"[b >> 7] for b in range(256))


def _lane_mask(row: tuple[int, ...], lanes: Callable[[int], tuple[tuple[int, ...], int]]) -> int:
    """The mask of the base directions d_j with r·d_j >= 0, r the slope row
    (the first n entries) of a frame row, from the directions' packed lanes.

    Base coordinates lie in [-8, 8], so |r·d_j| <= 8·Σ|r_c|, and the lane
    width w is the least multiple of 8 with 8·Σ|r_c| < 2^(w-1). Lane j of
    B + Σ_c r_c·P_c is then 2^(w-1) + r·d_j, in [1, 2^w): no lane borrows
    from or carries into the next, and its top bit is set iff r·d_j >= 0.
    The big-endian bytes of the sum, read at each lane's top byte from the
    last lane to the first, are the mask's binary digits. With no base
    direction there is no lane, and the mask is 0.
    """
    width = 8 * ((8 * sum(map(abs, row[:-1]))).bit_length() // 8 + 1)
    packed, bias = lanes(width)
    lane_sum = bias + sum(map(mul, row, packed))  # the constant term has no column
    # the bias's top bit is the last lane's, so its length is every lane's
    tops = lane_sum.to_bytes(bias.bit_length() // 8, "big")[:: width // 8]
    return int(tops.translate(_TOP_BIT), 2) if tops else 0


class _ImageTable:
    """A star cell's covering table, built once per oracle call.

    `rows` are the barycentric rows of the cell's image-simplex frame
    (`IntegerPoints.frame`, one integer adjugate), one per cell vertex in
    `vertex_ids` order. For the integer homogeneous column ŷ = (m·y, m) of a
    point y, rows[k]·ŷ is m·c_k times y's barycentric coordinate k, with
    c_k > 0 fixed per row. A row's first n entries are its integer slope row
    and its last entry is the constant term, so the slope of coordinate k
    along a direction d is c_k⁻¹ times the dot product of d with the slope
    row. Bit j of `mask(k)` is set iff that dot product is >= 0 for the
    j-th base direction. Each mask is one sum of n products over the base
    directions' packed lanes (`_lane_mask`), made the first time its row is
    read and kept for the call, so a row that only samples cleared by the
    facet sign test would read is never packed.
    """

    __slots__ = ("vertex_ids", "rows", "_lanes", "_masks")

    def __init__(
        self,
        vertex_ids: Face,
        rows: tuple[tuple[int, ...], ...],
        lanes: Callable[[int], tuple[tuple[int, ...], int]],
    ):
        self.vertex_ids = vertex_ids
        self.rows = rows
        self._lanes = lanes
        self._masks: list[Optional[int]] = [None] * len(rows)

    def mask(self, k: int) -> int:
        mask = self._masks[k]
        if mask is None:
            mask = self._masks[k] = _lane_mask(self.rows[k], self._lanes)
        return mask


def _image_table(f: PLMap, cell_index: int, num_directions: int, rng_seed: int) -> _ImageTable:
    ids = f.domain.cells[cell_index].vertex_ids
    rows = f.images.frame(ids).bary
    return _ImageTable(ids, rows, partial(_lanes, f.ambient_dim, num_directions, rng_seed))


def _fold_normals(table: _ImageTable, off_carrier: list[int]) -> list[tuple[int, ...]]:
    """The two primitive integer normals of an interior (n-1)-face's image,
    read off one star cell's frame: the slope row of the cell's vertex off
    the face is normal to the face's image hyperplane. It is divided by its
    gcd and signed so that its last nonzero entry is positive, then listed
    with its negation. In 1-D the face is a point whose image spans no
    edge, so none is listed and the base directions alone decide there."""
    n = len(table.rows) - 1
    if n == 1:
        return []
    slope_row = table.rows[off_carrier[0]][:n]
    g = gcd(*slope_row)
    if next(c for c in reversed(slope_row) if c) < 0:
        g = -g
    normal = tuple(c // g for c in slope_row)
    return [normal, tuple(-c for c in normal)]


def openness_oracle(
    f: PLMap, num_points: int = 20, num_directions: int = 64, rng_seed: int = 0
) -> OracleResult:
    """Directional covering test of openness at the interior faces' barycenters.

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
    simplex's integer frame and, per row read, the mask of the base
    directions of nonnegative slope. The base directions, their per-axis
    columns and, per lane width, those columns packed into biased integer
    lanes are built once per setting and kept; a row's mask is the top bit
    of each lane of one sum of n products (`_lane_mask`), made the first
    time the row is read. A direction is
    covered by a cell iff no row with a zero coordinate of f(x) has negative
    slope; those rows are the cell's vertices off the carrier, because x lies
    in the relative interior of the carrier and the piece is an affine
    bijection.

    At an interior (n-1)-face each of the two star cells has one such row,
    and both rows' slope parts are normal to the face's image hyperplane,
    so parallel. If the first nonzero entry of one has the opposite sign in
    the other, the two cells' cones are the hyperplane's two closed
    half-spaces: every base direction and both fold normals are covered,
    and the sample is cleared with no mask read. The test reads the frame
    rows only, never a piece's `det_sign`. Otherwise the two normals of the
    face's image hyperplane are tested as well, read off a star cell's frame
    (`_fold_normals`; none in 1-D).

    Samples inside a cell (its barycenter, `num_points` interior points) are
    counted in `samples`, not drawn or tested: the cell covers every direction.

    All of this is integer work, and so is the count of the uncovered
    directions. A sample with an uncovered direction keeps its integer
    record (`_FailingSample`), which holds no table; the rational evidence,
    x, epsilon and the target of each failure, is built from the records and
    the map's frames the first time `OracleResult.failures` is read
    (`_evidence`).
    """
    singular = [ci for ci, p in enumerate(f.pieces) if p.det_sign == 0]
    if singular:

        def collapsed() -> tuple[OracleFailure, ...]:
            return tuple(
                OracleFailure(
                    point=f.domain.barycenter(f.domain.cells[ci].vertex_ids),
                    carrier=f.domain.cells[ci].vertex_ids,
                    direction=(),
                    epsilon=Fraction(0),
                    target=(),
                )
                for ci in singular
            )

        return OracleResult(False, len(singular), 0, collapsed)

    n = f.ambient_dim
    base_directions = _base_directions(n, num_directions, rng_seed)[0]
    interior = f.domain.interior_faces()
    table_of = cache(lambda ci: _image_table(f, ci, num_directions, rng_seed))
    all_directions = (1 << len(base_directions)) - 1
    failing: list[_FailingSample] = []
    num_failures = 0
    for carrier in interior:
        if len(carrier) > n:
            break  # cells come last, and a cell sample covers every direction
        star = [
            (table, [k for k, v in enumerate(table.vertex_ids) if v not in carrier])
            for table in map(table_of, f.domain.faces[carrier].cells)
        ]
        if len(carrier) == n:
            # The two off-face slope rows are normal to the face's image
            # hyperplane, so parallel. Opposite signs at one nonzero entry:
            # the two cones are its two closed half-spaces, covering every
            # direction and both fold normals.
            (table_a, (k_a,)), (table_b, (k_b,)) = star
            row_a, row_b = table_a.rows[k_a], table_b.rows[k_b]
            c = next(c for c in range(n) if row_a[c])
            if row_a[c] * row_b[c] < 0:
                continue

        covered = 0
        for table, off_carrier in star:
            cell_covers = all_directions
            for k in off_carrier:
                cell_covers &= table.mask(k)
            covered |= cell_covers
        missing = all_directions & ~covered
        folds: tuple[tuple[int, ...], ...] = ()
        if len(carrier) == n:  # interior (n-1)-face: add the exact fold normals
            folds = tuple(
                d
                for d in _fold_normals(*star[0])
                if not any(
                    all(sum(map(mul, table.rows[k], d)) >= 0 for k in off_carrier)
                    for table, off_carrier in star
                )
            )
        if missing or folds:
            failing.append(_FailingSample(carrier, missing, folds))
            num_failures += missing.bit_count() + len(folds)
    return OracleResult(
        not num_failures,
        num_failures,
        len(interior) + num_points,
        partial(_evidence, f, base_directions, failing),
    )


@dataclass(frozen=True)
class _FailingSample:
    """A sample with uncovered directions, as the covering test left it: its
    carrier, the mask of its uncovered base directions and its fold normals."""

    carrier: Face
    missing: int
    folds: tuple[tuple[int, ...], ...]


def _evidence(
    f: PLMap,
    base_directions: tuple[tuple[int, ...], ...],
    failing: list[_FailingSample],
) -> tuple[OracleFailure, ...]:
    """The failure records of the failing samples, in sample order and, per
    sample, the uncovered base directions in order and then the fold normals.

    Each uncovered direction's slopes on the star cells' frame rows (the map
    keeps the frames) are computed here, one dot product per row. x is the
    barycenter Σ v_i / k of the carrier's k vertices and, as the piece is
    affine on the carrier, f(x) = Σ f(v_i) / k, both summed over the scaled
    integer points of the domain and the images. The first crossing of a ray
    in a shrunk image is -b / (2 s) for each unshrunk coordinate b and slope
    s, compared as integer pairs until the least one is found, and each
    failure builds its rational epsilon and target once.
    """
    domain, images, cells = f.domain.points, f.images, f.domain.cell_ids
    failures: list[OracleFailure] = []
    for sample in failing:
        carrier = sample.carrier
        frames = [images.frame(cells[ci]).bary for ci in f.domain.faces[carrier].cells]
        uncovered = [d for j, d in enumerate(base_directions) if sample.missing >> j & 1]
        k = len(carrier)
        x = tuple(
            Fraction(sum(axis), k * domain.denominator)
            for axis in zip(*(domain.scaled[v] for v in carrier))
        )
        # f(x) as its integer homogeneous column (m·f(x), m), m the least
        sums = [sum(axis) for axis in zip(*(images.scaled[v] for v in carrier))]
        scale = k * images.denominator
        g = gcd(*sums, scale)
        y0_column = (*(s // g for s in sums), scale // g)
        m = y0_column[-1]
        bases = [[sum(map(mul, row, y0_column)) for row in rows] for rows in frames]
        for direction in (*uncovered, *sample.folds):
            # Exact epsilon: half the first positive facet crossing of the ray
            # among all shrunk star image simplices. Coordinate k of f(x) is
            # b / (m c_k) and its slope in the shrunk image is 2 s / c_k, so the
            # crossing is -b / (2 m s): the least positive ratio -b / s, kept
            # as an integer pair (num, den > 0) and compared by cross-products.
            least: Optional[tuple[int, int]] = None
            for base, rows in zip(bases, frames):
                for b, row in zip(base, rows):
                    slope = sum(map(mul, row, direction))
                    if slope == 0:
                        continue
                    num, den = (-b, slope) if slope > 0 else (b, -slope)
                    if num > 0 and (least is None or num * least[1] < least[0] * den):
                        least = (num, den)
            # epsilon = num / (4 m den), or 1 = 4m / 4m when no crossing
            # exists, and target coordinate c is y_c / m + epsilon d_c
            num, den = least or (4 * m, 1)
            target = tuple(
                Fraction(4 * den * y + num * d, 4 * m * den) for y, d in zip(y0_column, direction)
            )
            epsilon = Fraction(num, 4 * m * den)
            failures.append(
                OracleFailure(x, carrier, tuple(Fraction(d) for d in direction), epsilon, target)
            )
    return tuple(failures)


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
    branch set, coherent orientation, and the oracle. The branch set reads
    the determinant signs too, but decides each star by its own cone count
    or pair probes; the oracle's covering test is its own computation, and
    its failure evidence waits until `verdict.oracle.failures` is read.
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
