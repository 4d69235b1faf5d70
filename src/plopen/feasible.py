"""Exact linear feasibility (Fourier–Motzkin) and convex-polytope predicates.

Feasibility of systems of rational equalities and inequalities (strict and
non-strict) is decided exactly: equalities are removed by substitution, the
remaining variables are eliminated Fourier–Motzkin style, and a witness point
is reconstructed backwards through the eliminations. Strict rows are handled
natively (combining a strict with any row stays strict), which is the reason
this engine is used instead of a simplex method: relative-interior membership
questions are one feasibility probe each.

Internally every row is scaled to coprime integers and eliminations use
integer cross-multiplication, so no rational normalization happens in the hot
loops; witnesses are reconstructed as exact rationals at the end and checked
by substitution.

Polytopes enter in vertex form (a tuple of points whose convex hull is the
polytope). Every predicate on two polytopes P and Q asks one question, how
conv(P) and conv(Q) meet. Those probed in vertex form (`hulls_intersect`,
`relative_interiors_intersect`, `relint_preimage_witness` and
`constrained_hull_dim`) are one call to a single row builder: convex
weights λ on P and μ on Q with Σλp = Σμq, each side either closed (λ ≥ 0)
or strict (λ > 0, the relative interior). Each coordinate row is scaled to
integers once, on its own.

Properness of two simplices is one strict probe, asked in P's own frame
instead of in vertex form. For a face F of a simplex P, conv(P) ∩ aff(F) = F,
so the intersection with Q leaves aff(F) exactly when some common point puts
positive total weight on the vertices of P outside F. The frame
(`simplex_frame`) is the integer adjugate of P's homogeneous vertex columns,
completed by coordinate axes when P is not full-dimensional: its rows read a
point's barycentric weights on P (up to a positive factor each) and whether
the point lies in aff(P). So the probe's only unknowns are Q's weights: a 3-D
pair has 4 unknowns and one equality where vertex form has 8 and 5. This
needs P affinely independent (else `simplex_frame` raises ValueError) and F
given by positions of P's vertices. Whether a single point lies in conv(P)
needs no probe at all: it is the sign test `SimplexFrame.contains` on the
point's column. A hull of affinely dependent points has no frame, so it is
probed in the frame of the point or segment it meets (`hull_meets_segment`).
A facet of a full-dimensional P takes its frame from P's with no adjugate
(`SimplexFrame.facet`): the row of the vertex it leaves out vanishes
exactly on the facet's affine hull.

The same frame decides whether the relative interior of a point set S meets
conv(P): one probe over S's strictly positive weights, without the escape
row. This is the decision of `relint_preimage_witness`, which stays in
vertex form because it returns the witness point: a caller decides every
pair in the frame and rebuilds the witness only for the pair that hits.

The pairs the callers probe come from one point set, and most share
vertices. The frame's matrix times its adjugate is det·I, so a shared
vertex's column enters only its own bary row, with a positive factor, and
no other row: its weight absorbs that row. So both pair probes,
`hull_leaves_affine_span` (properness) and `relint_meets_sharing` (relative
interiors), drop the shared rows (`SimplexFrame.off`) and read only the
other simplex's unshared columns (`IntegerPoints.sharing` names both).
Every frame probe builds its rows in one place, `_frame_rows`, and
`_frame_probe` first tries each row alone: a row whose signs on the columns
already rule out every weight vector answers no without an elimination,
which decides nearly every "no" these callers ask.

The dimension of an intersection is computed by growing its affine hull:
starting from one witness point, functionals vanishing on the directions
found so far are probed in both strict senses; every feasible probe yields a
new independent direction, and exhaustion proves the dimension exactly.

How a point set becomes integers is decided in one place, `IntegerPoints`:
one common denominator that scales every point to integers for boxes, and
one homogeneous column per point for frames. The complex keeps one for its
vertices and the map one for its vertex images, and each builds a face's
box, columns and frame at first use and keeps them. A `BoxGrid`, a uniform
grid over such boxes, is the one broad phase of every box test: it names
the boxes that meet a box (`meeting`), the pairs of its own boxes that meet
(`pairs`, every all-pairs scan of one list) and the boxes that hold a point
(`holders`: point location, fibers and degree queries).
`IntegerPoints.grid` keeps one per face list. `box_holds` tests a point's
homogeneous column against a box by cross-multiplying, so no box test
compares a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul, neg
from typing import Iterator, Optional, Sequence

from .linalg import Matrix, Vector, integer_adjugate, null_space, vec_dot, vec_sub

REL_EQ = "="
REL_LE = "<="
REL_LT = "<"

# Integer row form: (coeffs tuple, rel, rhs) meaning sum(c_i x_i) REL rhs.
_IntRow = tuple[tuple[int, ...], str, int]


class _Infeasible(Exception):
    # internal control flow for constant-row contradictions
    pass


def _norm_int_row(coeffs: list[int], rel: str, rhs: int) -> Optional[_IntRow]:
    """Divide out the content; None for a trivially-true row; raise if false."""
    if not any(coeffs):
        ok = (rhs == 0) if rel == REL_EQ else (rhs >= 0 if rel == REL_LE else rhs > 0)
        if ok:
            return None
        raise _Infeasible()
    g = gcd(*coeffs, rhs)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        rhs //= g
    return (tuple(coeffs), rel, rhs)


def _from_fractions(coeffs: Sequence[Fraction], rel: str, rhs: Fraction) -> Optional[_IntRow]:
    mult = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return _norm_int_row(
        [c.numerator * (mult // c.denominator) for c in coeffs],
        rel,
        rhs.numerator * (mult // rhs.denominator),
    )


def _dedup(rows: list[_IntRow]) -> list[_IntRow]:
    # Among inequality rows with identical coefficients keep the tightest bound.
    best: dict[tuple[int, ...], tuple[str, int]] = {}
    order: list[tuple[int, ...]] = []
    eqs: list[_IntRow] = []
    seen_eq = set()
    for coeffs, rel, rhs in rows:
        if rel == REL_EQ:
            key = (coeffs, rhs)
            if key not in seen_eq:
                seen_eq.add(key)
                eqs.append((coeffs, rel, rhs))
            continue
        if coeffs not in best:
            best[coeffs] = (rel, rhs)
            order.append(coeffs)
        else:
            old_rel, old_rhs = best[coeffs]
            if rhs < old_rhs or (rhs == old_rhs and rel == REL_LT):
                best[coeffs] = (rel, rhs)
    return eqs + [(c, *best[c]) for c in order]


def _eliminate_with_equality(row: _IntRow, eq: _IntRow, var: int) -> Optional[_IntRow]:
    coeffs, rel, rhs = row
    c = coeffs[var]
    if c == 0:
        return row
    ec = eq[0][var]
    scale_row = abs(ec)
    scale_eq = c if ec > 0 else -c
    merged = [scale_row * x - scale_eq * e for x, e in zip(coeffs, eq[0])]
    return _norm_int_row(merged, rel, scale_row * rhs - scale_eq * eq[2])


def _solve_feasible(num_vars: int, raw_rows: list[_IntRow]) -> Optional[tuple[Fraction, ...]]:
    rows = _dedup(raw_rows)

    # Phase 1: remove variables bound by equalities (prefer unit pivots).
    eq_stack: list[tuple[int, _IntRow]] = []
    while True:
        eq = None
        var = -1
        for r in rows:
            if r[1] != REL_EQ:
                continue
            unit = next((i for i, c in enumerate(r[0]) if c in (1, -1)), None)
            if unit is not None:
                eq, var = r, unit
                break
            if eq is None:
                eq, var = r, next(i for i, c in enumerate(r[0]) if c != 0)
        if eq is None:
            break
        eq_stack.append((var, eq))
        new_rows: list[_IntRow] = []
        for row in rows:
            if row is eq:
                continue
            sub = _eliminate_with_equality(row, eq, var)
            if sub is not None:
                new_rows.append(sub)
        rows = _dedup(new_rows)

    # Phase 2: Fourier–Motzkin, smallest lower*upper product first.
    fm_stack: list[tuple[int, list[_IntRow]]] = []
    while True:
        counts: dict[int, tuple[int, int]] = {}
        for coeffs, _, _ in rows:
            for i, c in enumerate(coeffs):
                if c > 0:
                    lo, hi = counts.get(i, (0, 0))
                    counts[i] = (lo, hi + 1)
                elif c < 0:
                    lo, hi = counts.get(i, (0, 0))
                    counts[i] = (lo + 1, hi)
        if not counts:
            break
        var = min(counts, key=lambda i: (counts[i][0] * counts[i][1], i))
        involved = [r for r in rows if r[0][var] != 0]
        others = [r for r in rows if r[0][var] == 0]
        fm_stack.append((var, involved))
        uppers = [r for r in involved if r[0][var] > 0]
        lowers = [r for r in involved if r[0][var] < 0]
        combos: list[_IntRow] = []
        for lc, lrel, lrhs in lowers:
            for uc, urel, urhs in uppers:
                scale_low = uc[var]
                scale_up = -lc[var]
                merged = [scale_low * lx + scale_up * ux for lx, ux in zip(lc, uc)]
                rel = REL_LT if REL_LT in (lrel, urel) else REL_LE
                norm = _norm_int_row(merged, rel, scale_low * lrhs + scale_up * urhs)
                if norm is not None:
                    combos.append(norm)
        rows = _dedup(others + combos)

    # Phase 3: any remaining row would be constant and was already checked.
    assignment: dict[int, Fraction] = {}

    # Phase 4: reconstruct Fourier–Motzkin variables, last eliminated first.
    for var, involved in reversed(fm_stack):
        lo: Optional[Fraction] = None
        lo_strict = False
        hi: Optional[Fraction] = None
        hi_strict = False
        for coeffs, rel, rhs in involved:
            rest = Fraction(rhs)
            for k, c in enumerate(coeffs):
                if k != var and c != 0:
                    rest -= c * assignment.get(k, Fraction(0))
            bound = rest / coeffs[var]
            if coeffs[var] > 0:
                if hi is None or bound < hi or (bound == hi and rel == REL_LT):
                    hi, hi_strict = bound, rel == REL_LT
            else:
                if lo is None or bound > lo or (bound == lo and rel == REL_LT):
                    lo, lo_strict = bound, rel == REL_LT
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = hi - 1 if hi_strict else hi
        elif hi is None:
            value = lo + 1 if lo_strict else lo
        else:
            # FM projection guarantees a nonempty interval here.
            assert lo < hi or (lo == hi and not lo_strict and not hi_strict)
            value = lo if (lo == hi) else (lo + hi) / 2
        assignment[var] = value

    # Phase 5: reconstruct equality-bound variables, last substituted first.
    for var, (coeffs, _, rhs) in reversed(eq_stack):
        rest = Fraction(rhs)
        for k, c in enumerate(coeffs):
            if k != var and c != 0:
                rest -= c * assignment.get(k, Fraction(0))
        assignment[var] = rest / coeffs[var]

    return tuple(assignment.get(i, Fraction(0)) for i in range(num_vars))


def _satisfies_int(rows: list[_IntRow], point: tuple[Fraction, ...]) -> bool:
    for coeffs, rel, rhs in rows:
        value = sum(c * x for c, x in zip(coeffs, point) if c)
        if rel == REL_EQ and value != rhs:
            return False
        if rel == REL_LE and not value <= rhs:
            return False
        if rel == REL_LT and not value < rhs:
            return False
    return True


def _feasible_int(num_vars: int, rows: list[_IntRow]) -> Optional[tuple[Fraction, ...]]:
    try:
        witness = _solve_feasible(num_vars, rows)
    except _Infeasible:
        return None
    if witness is not None:
        assert _satisfies_int(rows, witness), "witness failed exact substitution"
    return witness


def _probe_feasible(
    num_vars: int,
    base_rows: list[_IntRow],
    coeffs: Sequence[Fraction],
    rel: str,
    rhs: Fraction,
) -> Optional[tuple[Fraction, ...]]:
    """Feasibility of base rows plus one rational row (may be constant)."""
    try:
        row = _from_fractions(coeffs, rel, rhs)
    except _Infeasible:
        return None
    rows = list(base_rows)
    if row is not None:
        rows.append(row)
    return _feasible_int(num_vars, rows)


# ---------------------------------------------------------------------------
# Vertex-form polytope predicates
# ---------------------------------------------------------------------------

Hull = Sequence[Vector]


def _meet_system(
    p_verts: Hull, p_rel: str, q_verts: Hull, q_rel: str
) -> Optional[tuple[int, list[_IntRow]]]:
    """Integer system for "convex weights λ on P, μ on Q, Σλp = Σμq".

    p_rel and q_rel give each side's sign rows (-w REL 0): REL_LE for the
    closed hull, REL_LT for its relative interior. A single-point Q is moved
    to the right-hand side and gets no weight; an empty Q drops the match, so
    the system is the weights on P alone. Returns (number of unknowns, rows),
    or None when some row is a constant contradiction.
    """
    kp = len(p_verts)
    kq = len(q_verts) if len(q_verts) > 1 else 0
    total = kp + kq
    rows: list[_IntRow] = []
    for offset, count, rel in ((0, kp, p_rel), (kp, kq, q_rel)):
        if count:
            block = range(offset, offset + count)
            rows.append((tuple(int(i in block) for i in range(total)), REL_EQ, 1))
            rows += [(tuple(-int(i == j) for i in range(total)), rel, 0) for j in block]
    rational_rows = []
    if q_verts:
        # One row per coordinate, each scaled to integers on its own.
        for column in zip(*p_verts, *q_verts, strict=True):
            on_p, on_q = column[:kp], column[kp:]
            if kq:
                rational_rows.append(([*on_p, *(-c for c in on_q)], REL_EQ, Fraction(0)))
            else:
                rational_rows.append((on_p, REL_EQ, on_q[0]))
    try:
        scaled = [_from_fractions(*row) for row in rational_rows]
    except _Infeasible:
        return None
    return total, rows + [row for row in scaled if row is not None]


def _meet(p_verts: Hull, p_rel: str, q_verts: Hull, q_rel: str) -> Optional[tuple[Fraction, ...]]:
    """A feasible weight vector of the _meet_system, or None; None when
    either hull is empty, since an empty hull meets nothing."""
    if not p_verts or not q_verts:
        return None
    system = _meet_system(p_verts, p_rel, q_verts, q_rel)
    return None if system is None else _feasible_int(*system)


def hull_contains(verts: Hull, point: Vector) -> bool:
    """Exact membership of a point in conv(verts), probed in the point's frame."""
    return segment_hits_hull(point, point, verts)


def relative_interiors_intersect(p_verts: Hull, q_verts: Hull) -> bool:
    """Whether relint(conv P) meets relint(conv Q) (strict combination probe)."""
    return _meet(p_verts, REL_LT, q_verts, REL_LT) is not None


def hulls_intersect(p_verts: Hull, q_verts: Hull) -> bool:
    """Whether conv(P) meets conv(Q) at all."""
    return _meet(p_verts, REL_LE, q_verts, REL_LE) is not None


def _point_from_weights(verts: Hull, weights: Sequence[Fraction]) -> Vector:
    return tuple(
        sum((w * v[c] for w, v in zip(weights, verts)), Fraction(0)) for c in range(len(verts[0]))
    )


def _affine_dim_loop(
    p_verts: Hull, num_vars: int, base_rows: list[_IntRow]
) -> tuple[Optional[int], list[Vector]]:
    """Exact dimension of {Σλp : (λ, ...) feasible}, with spanning points.

    The weights on P are the first len(p_verts) unknowns of base_rows.
    """
    witness = _feasible_int(num_vars, list(base_rows))
    if witness is None:
        return None, []
    kp = len(p_verts)
    n = len(p_verts[0])
    pad = [Fraction(0)] * (num_vars - kp)
    x0 = _point_from_weights(p_verts, witness[:kp])
    points = [x0]
    dirs: list[Vector] = []
    while len(dirs) < n:
        if dirs:
            functionals = null_space(Matrix(tuple(dirs)))
        else:
            functionals = [
                tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
            ]
        grown = False
        for functional in functionals:
            coeffs = [vec_dot(functional, p) for p in p_verts] + pad
            target = vec_dot(functional, x0)
            for flip in (1, -1):
                probe = _probe_feasible(
                    num_vars, base_rows, [flip * c for c in coeffs], REL_LT, flip * target
                )
                if probe is not None:
                    x1 = _point_from_weights(p_verts, probe[:kp])
                    dirs.append(vec_sub(x1, x0))
                    points.append(x1)
                    grown = True
                    break
            if grown:
                break
        if not grown:
            break
    return len(dirs), points


def constrained_hull_dim(
    verts: Hull, images: Hull, target: Vector
) -> tuple[Optional[int], list[Vector]]:
    """Dimension and spanning points of the points of conv(verts) that the
    affine map sending each vertex to its image sends to target.

    The image of Σλv is Σλ·image, so these are the Σλv for the convex
    weights λ with Σλ·image = target: the meet system of the images and the
    one point target, its weights read on verts.
    """
    if not verts:
        return None, []
    system = _meet_system(images, REL_LE, [target], REL_LE)
    if system is None:
        return None, []
    return _affine_dim_loop(verts, *system)


def relint_preimage_witness(
    source_verts: Hull,
    source_images: Hull,
    target_verts: Hull,
) -> Optional[Vector]:
    """A point of relint(conv source) whose image lies in conv(target), or None.

    The map is affine on conv(source) and determined by source_images (the
    image of each source vertex), so the image of a combination is the same
    combination of the images.
    """
    witness = _meet(source_images, REL_LT, target_verts, REL_LE)
    if witness is None:
        return None
    return _point_from_weights(source_verts, witness[: len(source_verts)])


@dataclass(frozen=True)
class SimplexFrame:
    """A simplex P's own barycentric frame, as integer rows.

    A rational point y enters as the integer homogeneous column ŷ = (m·y, m),
    m > 0. Then bary[j]·ŷ is a positive multiple of y's barycentric weight on
    P's j-th vertex (the weights of the point of aff(P) that y projects to
    along the frame's complement), and aff[r]·ŷ = 0 for every r exactly when
    y ∈ aff(P). So membership of y in conv(P) is a sign test (`contains`),
    with no probe. A full-dimensional frame keeps the sign of the
    determinant of P's columns as its orientation; a lower-dimensional one
    has orientation 0.
    """

    bary: tuple[tuple[int, ...], ...]
    aff: tuple[tuple[int, ...], ...]
    orientation: int = 0

    def weights(self, column: Sequence[int]) -> list[int]:
        """bary·ŷ for each vertex: the signs of ŷ's barycentric weights, and
        the weights themselves up to one positive factor per vertex."""
        return [sum(map(mul, row, column)) for row in self.bary]

    def contains(self, column: Sequence[int]) -> bool:
        """Whether ŷ's point lies in conv(P): aff·ŷ = 0 and bary·ŷ ≥ 0."""
        return all(sum(map(mul, row, column)) == 0 for row in self.aff) and all(
            sum(map(mul, row, column)) >= 0 for row in self.bary
        )

    def facet(self, j: int) -> SimplexFrame:
        """The frame of the facet of a full-dimensional P opposite its j-th
        vertex, with no adjugate: row j reads the weight on that vertex, so
        it vanishes exactly on the facet's affine hull and becomes the aff
        row, and on that hull the other rows read the facet's own weights.
        Off the hull they read y's weights on P instead, which no frame probe
        uses, since each one asks aff·ŷ = 0."""
        if self.aff:
            raise ValueError("only a full-dimensional frame has facet frames")
        return SimplexFrame(self.bary[:j] + self.bary[j + 1 :], (self.bary[j],))

    def off(self, span: Sequence[int]) -> SimplexFrame:
        """The frame's rows without the bary rows at the positions in span:
        the system a probe asks of the columns that are not P's span
        vertices (`hull_leaves_affine_span`, `relint_meets_sharing`). Not a
        simplex's frame, so its orientation is 0."""
        return SimplexFrame(tuple([r for j, r in enumerate(self.bary) if j not in span]), self.aff)


def homogeneous_column(point: Vector) -> tuple[int, ...]:
    """The integer column (m·point, m) for the least m > 0 that clears denominators."""
    denominators = [x.denominator for x in point]
    m = lcm(*denominators)
    return (*(x.numerator * (m // d) for x, d in zip(point, denominators)), m)


def simplex_frame(columns: Sequence[tuple[int, ...]]) -> SimplexFrame:
    """The frame of the simplex P whose vertices have these homogeneous columns.

    The square matrix has the columns of P's k+1 vertices and, when k < n,
    the columns (e_i, 0) of n − k coordinate axes that complete P's
    direction space. Its adjugate's rows 0..k, times sign(det), give the
    barycentric weights up to a positive factor per row; rows k+1..n vanish
    exactly on aff(P). When k = n, sign(det) is the frame's orientation and
    no axis is searched for. Affinely dependent vertices raise ValueError.
    """
    n = len(columns[0]) - 1
    k = len(columns) - 1
    if k == n:
        adjugate, det = integer_adjugate(list(zip(*columns, strict=True)))
        if det:
            return SimplexFrame(_signed_rows(adjugate, det), (), 1 if det > 0 else -1)
    elif k < n:
        for axes in combinations(range(n), n - k):
            units = [(*(int(i == c) for c in range(n)), 0) for i in axes]
            adjugate, det = integer_adjugate(list(zip(*columns, *units, strict=True)))
            if det:
                return SimplexFrame(
                    _signed_rows(adjugate[: k + 1], det), tuple(map(tuple, adjugate[k + 1 :]))
                )
    raise ValueError("simplex vertices are affinely dependent")


def _signed_rows(rows: list[list[int]], det: int) -> tuple[tuple[int, ...], ...]:
    """The adjugate rows times sign(det), packed as tuples."""
    if det > 0:
        return tuple(map(tuple, rows))
    return tuple(tuple(map(neg, row)) for row in rows)


def _on_columns(row: Sequence[int], cols: Sequence[tuple[int, ...]]) -> list[int]:
    """row·ĉ for each homogeneous column ĉ."""
    return [sum(map(mul, row, col)) for col in cols]


def _frame_rows(
    frame: SimplexFrame,
    cols: Sequence[tuple[int, ...]],
    weight_rel: str,
    escape: Optional[Sequence[int]] = None,
) -> Optional[list[_IntRow]]:
    """The integer system of `_frame_probe` over the column weights w.

    w REL 0 (weight_rel: REL_LE, or REL_LT for the relative interior of the
    columns' hull), Σw = 1, bary·Ĉw ≥ 0 and aff·Ĉw = 0, plus escape·Ĉw > 0
    when an escape row over P's frame is given. A bary row that reads no
    column as negative is left out, since w ≥ 0 implies it. None when some
    row is a constant contradiction (no columns, or an escape row that reads
    every column as 0).
    """
    k = len(cols)
    rows: list[_IntRow] = [(tuple(-int(i == j) for i in range(k)), weight_rel, 0) for j in range(k)]
    try:
        extra = [_norm_int_row([1] * k, REL_EQ, 1)]
        binding = [w for w in (_on_columns(row, cols) for row in frame.bary) if min(w) < 0]
        extra += [_norm_int_row([-x for x in w], REL_LE, 0) for w in binding]
        extra += [_norm_int_row(_on_columns(row, cols), REL_EQ, 0) for row in frame.aff]
        if escape is not None:
            extra.append(_norm_int_row([-x for x in _on_columns(escape, cols)], REL_LT, 0))
    except _Infeasible:
        return None
    return rows + [row for row in extra if row is not None]


def _frame_probe(
    frame: SimplexFrame,
    cols: Sequence[tuple[int, ...]],
    weight_rel: str,
    escape: Optional[Sequence[int]] = None,
) -> bool:
    """Whether some weights w on homogeneous columns Ĉ put Ĉw in conv(P).

    One probe over w alone (`_frame_rows`). A column's weight is its point's
    weight divided by the column's positive last entry, so feasibility is the
    same as over the points' own convex weights.

    Most probes answer no, and most of those are decided by one row r read
    on the columns, with no elimination. Since w ≥ 0 and w ≠ 0, r·w < 0 is
    forced when every entry of r is negative, and r·w ≤ 0 when none is
    positive; under w > 0, r·w < 0 is forced already when none is positive
    and one is negative. A bary row (r·w ≥ 0) fails when r·w < 0 is forced,
    an aff row (r·w = 0) when that holds for r or for −r, and the escape row
    (r·w > 0) when r·w ≤ 0 is forced. Such a row is a Motzkin certificate
    with a single multiplier. Only when no row decides is the system handed
    to Fourier–Motzkin, so every yes still comes with a witness checked by
    substitution.
    """
    if not cols:  # no weights sum to 1
        return False
    strict = weight_rel == REL_LT
    for values in (_on_columns(row, cols) for row in frame.bary):  # needs r·w ≥ 0
        top = max(values)
        if top < 0 or (strict and top == 0 and min(values) < 0):
            return False
    for values in (_on_columns(row, cols) for row in frame.aff):  # needs r·w = 0
        low, top = min(values), max(values)
        if low > 0 or top < 0 or (strict and (low >= 0 or top <= 0) and (low or top)):
            return False
    if escape is not None and max(_on_columns(escape, cols)) <= 0:  # needs r·w > 0
        return False
    rows = _frame_rows(frame, cols, weight_rel, escape)
    return rows is not None and _feasible_int(len(cols), rows) is not None


def hull_leaves_affine_span(
    frame: SimplexFrame, span: Sequence[int], other_cols: Sequence[tuple[int, ...]]
) -> bool:
    """Whether conv(P) ∩ conv(Q) has a point outside the affine hull of P's
    span vertices, for a Q that has those vertices among its own.

    P is the frame's simplex. span lists positions of P's vertices, in the
    order P's columns entered the frame, that are also Q's; other_cols are
    the integer homogeneous columns of Q's other points (`IntegerPoints`
    gives both, `sharing`). A position past P's last vertex, or a column of
    another dimension, raises ValueError. The span vertices span a face F of
    P. Since conv(P) ∩ aff(F) = F, a point of conv(P) leaves aff(F) exactly
    when its barycentric weights on the vertices of P outside F sum to more
    than zero. In P's frame that is one strict probe over Q's column
    weights μ: μ ≥ 0, Σμ = 1, bary·Q̂μ ≥ 0, aff·Q̂μ = 0, and the escape row
    (the sum of the bary rows outside span)·Q̂μ > 0.

    The frame's matrix times its adjugate is det·I, so a bary row reads P's
    own l-th column as |det| on row l and 0 on every other row, and every
    aff row reads it as 0. A shared column therefore enters only its own
    bary row, with a positive factor, and never the escape row: its weight
    can absorb that one row and constrains nothing else. So the probe drops
    the span rows (`SimplexFrame.off`) and is asked over the unshared
    weights alone. A "no" is usually read off one row's signs on the
    columns (`_frame_probe`); the rest go to Fourier–Motzkin. With no
    unshared column the escape row reads 0 and the answer is no. An empty
    span asks whether the hulls meet at all. With F the common face of two
    cells, this is the properness test: the intersection is proper exactly
    when it stays inside aff(F).
    """
    if any(not 0 <= j < len(frame.bary) for j in span):
        raise ValueError("span must list positions of the frame's vertices")
    if any(len(q) != len(frame.bary[0]) for q in other_cols):
        raise ValueError("other_cols must be homogeneous columns in the frame's space")
    off = frame.off(span)
    escape = [sum(column) for column in zip(*off.bary)]  # none outside: the row is 0 < 0
    return _frame_probe(off, other_cols, REL_LE, escape)


def relint_meets_sharing(
    frame: SimplexFrame, span: Sequence[int], other_cols: Sequence[tuple[int, ...]]
) -> bool:
    """Whether the relative interior of conv(S) meets conv(P), P the frame's
    simplex, for an S that has P's span vertices among its points.

    span and other_cols are as in `hull_leaves_affine_span`: S's points are P's
    vertices at the positions in span and the points of other_cols. One
    strict probe over the weights λ > 0 of S's columns asks bary·Ŝλ ≥ 0 and
    aff·Ŝλ = 0; a shared column enters only its own bary row, with a
    positive factor, so its weight satisfies that row and the probe is
    over the unshared weights alone, without the span rows
    (`SimplexFrame.off`), usually answered "no" by one row's signs
    (`_frame_probe`). With no unshared column S is a face of P and the
    answer is yes. It decides whether `relint_preimage_witness(X, S, P)` is
    not None, in P's frame and without the witness.
    """
    return not other_cols or _frame_probe(frame.off(span), other_cols, REL_LT)


def hull_meets_segment(
    cols: Sequence[tuple[int, ...]], start: tuple[int, ...], end: tuple[int, ...]
) -> bool:
    """Whether the hull of homogeneous columns meets the closed segment from
    start to end (`homogeneous_column`s; a point when equal): one probe in
    the segment's frame on the hull's columns, so the hull needs no frame."""
    frame = simplex_frame((start,) if start == end else (start, end))
    return hull_leaves_affine_span(frame, (), cols)


def segment_hits_hull(start: Vector, end: Vector, verts: Hull) -> bool:
    """Whether the closed segment [start, end] meets conv(verts), in its frame."""
    cols = [homogeneous_column(v) for v in verts]
    return hull_meets_segment(cols, homogeneous_column(start), homogeneous_column(end))


# ---------------------------------------------------------------------------
# Integer boxes and the grid broad phase
# ---------------------------------------------------------------------------

# An axis-aligned box (lows, highs) of integer coordinates over the
# denominator of the `IntegerPoints` that built it.
IntBox = tuple[tuple[int, ...], tuple[int, ...]]


def integer_box(points: Sequence[Sequence[int]]) -> IntBox:
    """The bounding box of integer points."""
    axes = list(zip(*points))
    return tuple(map(min, axes)), tuple(map(max, axes))


def boxes_overlap(a: IntBox, b: IntBox) -> bool:
    """Whether two boxes over the same denominator meet (touching counts)."""
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))


def box_holds(box: IntBox, denominator: int, column: Sequence[int]) -> bool:
    """Whether the point of the homogeneous column ŷ = (m·y, m) lies in the box.

    With the box over denominator D, lo/D ≤ y ≤ hi/D on an axis is
    lo·m ≤ (m·y)·D ≤ hi·m: two integer products, no Fraction.
    """
    m = column[-1]
    return all(lo * m <= c * denominator <= hi * m for lo, hi, c in zip(box[0], box[1], column))


def segment_meets_box(
    box: IntBox, denominator: int, start: Sequence[int], end: Sequence[int]
) -> bool:
    """Whether the box meets the bounding box of the segment between two columns.

    On each axis the segment's interval misses [lo/D, hi/D] only when both
    ends lie above hi/D or both below lo/D, each compared as in `box_holds`.
    """
    ms, me = start[-1], end[-1]
    for lo, hi, s, e in zip(box[0], box[1], start, end):
        s, e = s * denominator, e * denominator
        if (s > hi * ms and e > hi * me) or (s < lo * ms and e < lo * me):
            return False
    return True


def segment_box(denominator: int, start: Sequence[int], end: Sequence[int]) -> IntBox:
    """The least integer box over the denominator D that holds the segment
    between two homogeneous columns: per axis, ⌊min·D⌋ and ⌈max·D⌉ of the
    ends' coordinates. A box over D that misses it misses the segment."""
    (*s, ms), (*e, me) = start, end
    return (
        tuple(min(a * denominator // ms, b * denominator // me) for a, b in zip(s, e)),
        tuple(max(-(-a * denominator // ms), -(-b * denominator // me)) for a, b in zip(s, e)),
    )


class IntegerPoints:
    """The integer form of a point set, decided once and kept by its owner.

    The points' common denominator D, the least that clears every
    coordinate, scales every point to integers (`scaled`, the form of
    boxes), and each point has one homogeneous column (m·y, m) (`columns`,
    the form of frames). For a tuple of point ids,
    `box` (over D), `cols` and `frame` are built at first use and kept;
    `frame` is None when the points are affinely dependent. For a list of
    such tuples, `grid` is the `BoxGrid` over their boxes, built at first use
    and kept. The complex keeps one for its vertices
    (`SimplicialComplex.points`) and the map one for its vertex images
    (`PLMap.images`).
    """

    def __init__(self, points: Sequence[Vector]) -> None:
        self.points = tuple(points)
        self.denominator = lcm(*(x.denominator for p in self.points for x in p))
        self.scaled = tuple(
            tuple(x.numerator * (self.denominator // x.denominator) for x in p) for p in self.points
        )
        self.columns = tuple(homogeneous_column(p) for p in self.points)
        self._boxes: dict[tuple[int, ...], IntBox] = {}
        self._cols: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._frames: dict[tuple[int, ...], Optional[SimplexFrame]] = {}
        self._grids: dict[int, tuple[Sequence[tuple[int, ...]], BoxGrid]] = {}

    def box(self, ids: tuple[int, ...]) -> IntBox:
        box = self._boxes.get(ids)
        if box is None:
            box = self._boxes[ids] = integer_box([self.scaled[i] for i in ids])
        return box

    def cols(self, ids: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        cols = self._cols.get(ids)
        if cols is None:
            cols = self._cols[ids] = tuple(self.columns[i] for i in ids)
        return cols

    def frame(self, ids: tuple[int, ...]) -> Optional[SimplexFrame]:
        if ids not in self._frames:
            try:
                self._frames[ids] = simplex_frame(self.cols(ids))
            except ValueError:
                self._frames[ids] = None
        return self._frames[ids]

    def sharing(
        self, p: tuple[int, ...], q: tuple[int, ...]
    ) -> tuple[list[int], list[tuple[int, ...]]]:
        """The span and other columns of the shared-vertex probes
        (`hull_leaves_affine_span`, `relint_meets_sharing`) for the simplex of
        point ids q probed in the frame of p: the positions in p of the ids
        q shares with it, and the columns of q's other points."""
        columns = self.columns
        return [j for j, v in enumerate(p) if v in q], [columns[v] for v in q if v not in p]

    def facet_frame(self, cell: tuple[int, ...], face: tuple[int, ...]) -> Optional[SimplexFrame]:
        """The frame of a facet of a full-dimensional cell, listed in the
        cell's order: read off the cell's kept frame (`SimplexFrame.facet`,
        no adjugate), or the facet's own frame when the cell's points have
        none. Not kept, since off the facet's hull its rows read the cell's
        weights: it serves the frame probes, which all ask aff·ŷ = 0."""
        frame = self.frame(cell)
        if frame is None:
            return self.frame(face)
        return frame.facet(next(k for k, v in enumerate(cell) if v not in face))

    def grid(
        self, faces: Sequence[tuple[int, ...]], cells: Sequence[tuple[int, ...]]
    ) -> BoxGrid:
        """The grid over the boxes of faces, built at first use and kept.

        Its step on each axis is the median extent of the cells' boxes, one
        step for every face list of the same cells: a median over a list of
        vertices and edges would be tiny and file most faces as large. The
        list is kept with its grid and looked up by identity, so a lookup
        hashes no face, and the caller passes the same list object each time.
        """
        kept = self._grids.get(id(faces))
        if kept is None:
            steps = median_steps([self.box(ids) for ids in cells])
            grid = BoxGrid([self.box(ids) for ids in faces], steps, self.denominator)
            kept = self._grids[id(faces)] = (faces, grid)
        return kept[1]


def median_steps(boxes: Sequence[IntBox]) -> list[int]:
    """Per axis, the median box extent (at least 1), the step of a `BoxGrid`."""
    return [
        max(1, sorted(box[1][c] - box[0][c] for box in boxes)[len(boxes) // 2])
        for c in range(len(boxes[0][0]))
    ]


def _bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class BoxGrid:
    """A uniform grid over integer boxes: the one broad phase of every box test.

    Slab k of an axis of step s is the interval [k·s, (k+1)·s) of that
    axis, in units of 1/D over the boxes' denominator D; a grid cell is one
    slab per axis, and a box covers the cells of its slabs ⌊lo/s⌋..⌊hi/s⌋.
    The grid keeps, per axis and slab, the bit mask of the boxes that cover
    the slab, so the boxes filed under a grid cell are the AND of its slabs'
    masks: a box is filed in the sum of its spans, not their product. A box
    that covers more grid cells than there are boxes is cheaper to test on
    every query, so it goes to the `large` mask instead. Two queries read
    the grid, `holders` (the boxes that hold a point) and `meeting` (the
    boxes that meet a box), and `pairs` asks `meeting` for each of its own
    boxes. Each tests every candidate exactly and returns ascending box
    indices, so a caller walking them meets the boxes in the order of its
    own list. The boxes share one denominator, which only `holders` reads.
    """

    def __init__(self, boxes: Sequence[IntBox], steps: Sequence[int], denominator: int) -> None:
        self.boxes = boxes
        self.steps = tuple(steps)
        self.denominator = denominator
        self._slabs: list[dict[int, int]] = [{} for _ in steps]
        self.large = 0
        for j, box in enumerate(boxes):
            spans, bit = self._spans(box), 1 << j
            if spans is None:
                self.large |= bit
                continue
            for slabs, span in zip(self._slabs, spans):
                for k in span:
                    slabs[k] = slabs.get(k, 0) | bit

    def _spans(self, box: IntBox) -> Optional[list[range]]:
        """The slabs a box covers on each axis, or None when it covers more
        grid cells than there are boxes. The count stops growing once it
        passes that number, so a span of any length (even one too long for
        `len` of a range) sends the box to `large`."""
        limit, count = len(self.boxes), 1
        spans = []
        for lo, hi, s in zip(box[0], box[1], self.steps):
            first, last = lo // s, hi // s
            count *= last - first + 1
            if count > limit:
                return None
            spans.append(range(first, last + 1))
        return spans

    def holders(self, column: Sequence[int]) -> list[int]:
        """The ascending indices of the boxes that hold the point of a
        homogeneous column ŷ = (m·y, m), each decided by `box_holds`.

        The point's slab on an axis of step s is ⌊y·D/s⌋, the integer
        division (ŷ_c·D) // (m·s).
        """
        m, denominator = column[-1], self.denominator
        mask = -1
        for c, s, slabs in zip(column, self.steps, self._slabs):
            mask &= slabs.get((c * denominator) // (m * s), 0)
        boxes = self.boxes
        return [
            j for j in _bit_indices(mask | self.large) if box_holds(boxes[j], denominator, column)
        ]

    def meeting(self, box: IntBox, first: int = 0) -> list[int]:
        """The ascending indices j ≥ first of the boxes that meet a box
        (touching counts), each decided by `boxes_overlap`."""
        spans = self._spans(box)
        if spans is None:
            candidates: Sequence[int] = range(first, len(self.boxes))
        else:
            mask = -1
            for slabs, span in zip(self._slabs, spans):
                covered = 0
                for k in span:
                    covered |= slabs.get(k, 0)
                mask &= covered
            candidates = _bit_indices((mask | self.large) >> first << first)
        boxes = self.boxes
        return [j for j in candidates if boxes_overlap(box, boxes[j])]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The index pairs i < j of boxes that meet, in the order of the
        nested all-pairs loop; each box's partners are found when it is
        reached, so a caller that stops early tests no further box."""
        for i, box in enumerate(self.boxes):
            for j in self.meeting(box, i + 1):
                yield i, j
