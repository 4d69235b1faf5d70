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
conv(P) and conv(Q) meet, and all but properness are one call to a single
row builder: convex weights λ on P and μ on Q with Σλp = Σμq, each side
either closed (λ ≥ 0) or strict (λ > 0, the relative interior), plus optional
rows on λ. Each coordinate row is scaled to integers once, on its own.

Properness of two simplices is one strict probe, asked in P's own frame
instead of in vertex form. For a face F of a simplex P, conv(P) ∩ aff(F) = F,
so the intersection with Q leaves aff(F) exactly when some common point puts
positive total weight on the vertices of P outside F. The frame
(`simplex_frame`, built once per simplex by its owner:
`SimplicialComplex.cell_frame` for cells, `PLMap.image_frame` for image
simplices) is the integer adjugate of P's homogeneous vertex columns,
completed by coordinate axes when P is not full-dimensional: its rows read a
point's barycentric weights on P (up to a positive factor each) and whether
the point lies in aff(P). So the probe's only unknowns are Q's weights: a 3-D
pair has 4 unknowns and one equality where vertex form has 8 and 5. This
needs P affinely independent (else `simplex_frame` raises ValueError) and F
given by vertices of P.

The same frame decides whether the relative interior of a point set S meets
conv(P) (`relint_meets_simplex`): one probe over S's strictly positive
weights, without the escape row. S enters as integer homogeneous columns
(`PLMap.image_columns` for image simplices). This is the decision of
`relint_preimage_witness`, which stays in vertex form because it returns the
witness point: a caller decides every pair in the frame and rebuilds the
witness only for the pair that hits. Both frame probes build their rows in
one place, `_frame_probe`.

The dimension of an intersection is computed by growing its affine hull:
starting from one witness point, functionals vanishing on the directions
found so far are probed in both strict senses; every feasible probe yields a
new independent direction, and exhaustion proves the dimension exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .linalg import Matrix, Vector, integer_adjugate, null_space, rank, vec_dot, vec_sub

REL_EQ = "="
REL_LE = "<="
REL_LT = "<"

_RELS = (REL_EQ, REL_LE, REL_LT)

# Integer row form: (coeffs tuple, rel, rhs) meaning sum(c_i x_i) REL rhs.
_IntRow = tuple[tuple[int, ...], str, int]


@dataclass(frozen=True)
class LinRow:
    coeffs: Vector
    rel: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.rel not in _RELS:
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


# ---------------------------------------------------------------------------
# Vertex-form polytope predicates
# ---------------------------------------------------------------------------

Hull = Sequence[Vector]

# A row over the weights on P's vertices: (coeffs, rel, rhs).
_WeightRow = tuple[Sequence[Fraction], str, Fraction]


def _meet_system(
    p_verts: Hull,
    p_rel: str,
    q_verts: Hull,
    q_rel: str,
    p_rows: Sequence[_WeightRow],
) -> Optional[tuple[int, list[_IntRow]]]:
    """Integer system for "convex weights λ on P, μ on Q, Σλp = Σμq".

    p_rel and q_rel give each side's sign rows (-w REL 0): REL_LE for the
    closed hull, REL_LT for its relative interior. A single-point Q is moved
    to the right-hand side and gets no weight; an empty Q drops the match, so
    the system is the weights on P alone. p_rows are extra rows over the
    weights on P. Returns (number of unknowns, rows), or None when some row is
    a constant contradiction.
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
    rational_rows += [([*coeffs, *[Fraction(0)] * kq], rel, rhs) for coeffs, rel, rhs in p_rows]
    try:
        scaled = [_from_fractions(*row) for row in rational_rows]
    except _Infeasible:
        return None
    return total, rows + [row for row in scaled if row is not None]


def _meet(p_verts: Hull, p_rel: str, q_verts: Hull, q_rel: str) -> Optional[tuple[Fraction, ...]]:
    """A feasible weight vector of the _meet_system with no extra rows, or None."""
    system = _meet_system(p_verts, p_rel, q_verts, q_rel, ())
    return None if system is None else _feasible_int(*system)


def hull_contains(verts: Hull, point: Vector) -> bool:
    """Exact membership of a point in conv(verts)."""
    return _meet(verts, REL_LE, [point], REL_LE) is not None


def hull_dim(verts: Hull) -> Optional[int]:
    """Dimension of conv(verts); None for the empty hull."""
    if not verts:
        return None
    dirs = [vec_sub(v, verts[0]) for v in verts[1:]]
    if not dirs:
        return 0
    return rank(Matrix(tuple(dirs)))


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


def intersection_dim(p_verts: Hull, q_verts: Hull) -> Optional[int]:
    """Exact dimension of conv(P) ∩ conv(Q); None when the intersection is empty."""
    if not p_verts or not q_verts:
        return None
    system = _meet_system(p_verts, REL_LE, q_verts, REL_LE, ())
    if system is None:
        return None
    dim, _ = _affine_dim_loop(p_verts, *system)
    return dim


def constrained_hull_dim(
    verts: Hull,
    equation_matrix: Matrix,
    equation_rhs: Vector,
) -> tuple[Optional[int], list[Vector]]:
    """Dimension and spanning points of {x in conv(verts) : M x = rhs}."""
    if not verts:
        return None, []
    equations = [
        ([vec_dot(equation_matrix.row(r), v) for v in verts], REL_EQ, equation_rhs[r])
        for r in range(equation_matrix.rows)
    ]
    system = _meet_system(verts, REL_LE, (), REL_LE, equations)
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
    verts[j] (the weights of the point of aff(P) that y projects to along the
    frame's complement), and aff[r]·ŷ = 0 for every r exactly when y ∈ aff(P).
    """

    verts: tuple[Vector, ...]
    bary: tuple[tuple[int, ...], ...]
    aff: tuple[tuple[int, ...], ...]

    def weights(self, column: Sequence[int]) -> list[int]:
        """bary·ŷ for each vertex: the signs of ŷ's barycentric weights, and
        the weights themselves up to one positive factor per vertex."""
        return [sum(map(mul, row, column)) for row in self.bary]


def homogeneous_column(point: Vector) -> tuple[int, ...]:
    """The integer column (m·point, m) for the least m > 0 that clears denominators."""
    denominators = [x.denominator for x in point]
    m = lcm(*denominators)
    return (*(x.numerator * (m // d) for x, d in zip(point, denominators)), m)


def simplex_frame(verts: Hull) -> SimplexFrame:
    """The frame of the simplex conv(verts): one integer adjugate.

    The square matrix has the homogeneous columns of P's k+1 vertices and,
    when k < n, the columns (e_i, 0) of n − k coordinate axes that complete
    P's direction space. Its adjugate's rows 0..k, times sign(det), give the
    barycentric weights up to a positive factor per row; rows k+1..n vanish
    exactly on aff(P). Affinely dependent vertices raise ValueError.
    """
    n = len(verts[0])
    k = len(verts) - 1
    if k > n:
        raise ValueError("simplex vertices are affinely dependent")
    columns = [homogeneous_column(v) for v in verts]
    for axes in combinations(range(n), n - k):
        units = [(*(int(i == c) for c in range(n)), 0) for i in axes]
        adjugate, det = integer_adjugate(list(zip(*columns, *units, strict=True)))
        if det:
            sign = 1 if det > 0 else -1
            return SimplexFrame(
                tuple(verts),
                tuple(tuple(sign * x for x in row) for row in adjugate[: k + 1]),
                tuple(tuple(row) for row in adjugate[k + 1 :]),
            )
    raise ValueError("simplex vertices are affinely dependent")


def _frame_probe(
    frame: SimplexFrame,
    cols: Sequence[tuple[int, ...]],
    weight_rel: str,
    escape: Optional[Sequence[int]] = None,
) -> bool:
    """Whether some weights w on homogeneous columns Ĉ put Ĉw in conv(P).

    One probe over w alone: w REL 0 (weight_rel: REL_LE, or REL_LT for the
    relative interior of the columns' hull), Σw = 1, bary·Ĉw ≥ 0 and
    aff·Ĉw = 0, plus escape·Ĉw > 0 when an escape row over P's frame is
    given. A column's weight is its point's weight divided by the column's
    positive last entry, so feasibility is the same as over the points' own
    convex weights. A bary row that reads no column as negative is left out,
    since w ≥ 0 implies it.
    """
    k = len(cols)

    def on_cols(row: Sequence[int]) -> list[int]:
        return [sum(map(mul, row, col)) for col in cols]

    rows: list[_IntRow] = [(tuple(-int(i == j) for i in range(k)), weight_rel, 0) for j in range(k)]
    try:
        extra = [_norm_int_row([1] * k, REL_EQ, 1)]
        binding = [w for w in map(on_cols, frame.bary) if min(w) < 0]
        extra += [_norm_int_row([-x for x in w], REL_LE, 0) for w in binding]
        extra += [_norm_int_row(on_cols(row), REL_EQ, 0) for row in frame.aff]
        if escape is not None:
            extra.append(_norm_int_row([-x for x in on_cols(escape)], REL_LT, 0))
    except _Infeasible:
        return False
    return _feasible_int(k, rows + [row for row in extra if row is not None]) is not None


def hull_leaves_affine_span(frame: SimplexFrame, q_verts: Hull, span_points: Hull) -> bool:
    """Whether conv(P) ∩ conv(Q) has a point outside the affine hull of span_points.

    P is the frame's simplex, and span_points must be vertices of P, matched
    by exact equality; any other span, or a point of Q in another dimension,
    raises ValueError. They span a face F of P. Since conv(P) ∩ aff(F) = F, a
    point of conv(P) leaves aff(F) exactly when its barycentric weights on
    the vertices of P outside F sum to more than zero. In P's frame that is
    one strict probe over Q's weights μ alone, with Q̂ Q's homogeneous
    columns: μ ≥ 0, Σμ = 1, bary·Q̂μ ≥ 0, aff·Q̂μ = 0, and (the sum of the
    bary rows of the vertices outside F)·Q̂μ > 0. An empty span asks whether
    the hulls meet at all; an empty Q meets nothing. With F the common face
    of two cells, this is the properness test: the intersection is proper
    exactly when it stays inside aff(F).
    """
    # Exact equality, not sets: hashing a Fraction costs a modular inverse, and
    # callers pass P's own vertex tuples, so a match is found by identity.
    if any(p not in frame.verts for p in span_points):
        raise ValueError("span_points must be vertices of the frame's simplex")
    if any(len(q) != len(frame.verts[0]) for q in q_verts):
        raise ValueError("q_verts must lie in the frame's space")
    outside = [row for row, v in zip(frame.bary, frame.verts) if v not in span_points]
    escape = [sum(column) for column in zip(*outside)]  # none outside: the row is 0 < 0
    return _frame_probe(frame, [homogeneous_column(q) for q in q_verts], REL_LE, escape)


def relint_meets_simplex(frame: SimplexFrame, cols: Sequence[tuple[int, ...]]) -> bool:
    """Whether the relative interior of conv(S) meets conv(P), P the frame's simplex.

    S is given by its points' homogeneous columns (`homogeneous_column`;
    `PLMap.image_columns` keeps them for image simplices). One strict probe
    over S's weights λ: λ > 0, Σλ = 1, bary·Ŝλ ≥ 0 and aff·Ŝλ = 0. It decides whether
    `relint_preimage_witness(X, S, P)` is not None, in P's frame and without
    the witness.
    """
    return _frame_probe(frame, cols, REL_LT)


def segment_hits_hull(start: Vector, end: Vector, verts: Hull) -> bool:
    """Whether the closed segment [start, end] meets conv(verts)."""
    return _meet(verts, REL_LE, [start, end], REL_LE) is not None


def segment_avoids_sets(start: Vector, end: Vector, obstacles: Sequence[Hull]) -> bool:
    """True iff the closed segment [start, end] misses every obstacle hull."""
    return not any(segment_hits_hull(start, end, obs) for obs in obstacles)


def bounding_box(verts: Hull) -> tuple[Vector, Vector]:
    lows = tuple(min(v[c] for v in verts) for c in range(len(verts[0])))
    highs = tuple(max(v[c] for v in verts) for c in range(len(verts[0])))
    return lows, highs


def boxes_overlap(a: tuple[Vector, Vector], b: tuple[Vector, Vector]) -> bool:
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))
