"""Exact rational linear algebra: determinants, solving, rank, null spaces.

Every value is a `fractions.Fraction` (arbitrary-precision, canonical reduced
form, positive denominator). There is deliberately no floating point in this
module: each downstream geometric predicate (orientation sign, membership,
dimension) must be an exact decision, never an approximation.

Rank, solutions, inverses and null spaces come from one elimination,
`_eliminate`: fraction-free (Bareiss) Gauss–Jordan reduction of integer rows
(E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968). Each entry stays a minor of
the input, so intermediate bit growth is polynomial and every division is
exact. Rational rows enter it through one rescaling step,
`_scaled_integer_rows` (each row times the lcm of its denominators). The
rank is the pivot count, and solutions, inverses and null spaces are read
off the reduced rows, one `Fraction` per entry.

Determinants and adjugates (`integer_determinant`, `integer_adjugate`, and
`det` and `det_sign` through them) take integer rows and never leave the
integers. A matrix of side 1–4, which is every simplex frame and orientation
of a map in dimensions 1–3, gets written-out cofactor formulas (side 4 by
Laplace expansion in the 2×2 minors of rows 0–1 and of rows 2–3); a larger
one is eliminated, its determinant being the last pivot times the parity of
the row swaps. Both give the same integers, since the adjugate is unique.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]

_RATIONAL_PATTERN = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


class DimensionError(ValueError):
    """Raised when operand shapes do not match."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or exact "p/q" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse the exact form "p/q" or "p" (optional leading minus on p only)."""
    text = text.strip()
    match = _RATIONAL_PATTERN.fullmatch(text)
    if not match:
        raise ValueError(f"not an exact rational literal: {text!r}")
    p, q = match.groups()
    return Fraction(int(p), int(q)) if q else Fraction(int(p))


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(value)


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(v) for v in values)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix (row-major tuple of row tuples)."""

    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise DimensionError("ragged rows in matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> "Matrix":
        return Matrix(tuple(vector(row) for row in rows))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def mul_vec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        return tuple(vec_dot(row, v) for row in self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(format_rational(x) for x in row) for row in self.entries) + "]"


def _scaled_integer_rows(
    rows: Iterable[Sequence[int | Fraction]],
) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those lcms.

    A row scaled by a positive integer keeps its row space, its solutions and
    its determinant's sign, so every routine below eliminates over integers.
    """
    out = []
    scale = 1
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        out.append([x.numerator * (mult // x.denominator) for x in row])
    return out, scale


def _eliminate(a: list[list[int]], columns: range) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss–Jordan reduction of integer rows, in place.

    Pivots are taken in the given columns in order, each from the first row
    at or below the current one that is nonzero there; columns outside the
    range are carried along. After each step every entry is a minor of the
    input, so each division by the previous pivot is exact. The end state is
    d times the reduced row-echelon form, d the last pivot: the k-th pivot
    column is d in row k and 0 in every other row.

    Returns (pivot columns, d, sign of the row swaps); with every column a
    pivot on a square matrix, sign·d is its determinant.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in columns:
        r = len(pivots)
        if r == len(a):
            break
        pivot_row = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        top = a[r]
        pivot = top[col]
        for i in range(len(a)):
            if i != r:
                row = a[i]
                factor = row[col]
                a[i] = [(x * pivot - factor * y) // prev for x, y in zip(row, top)]
        prev = pivot
        pivots.append(col)
    return pivots, prev, sign


def _elimination_adjugate(rows: Sequence[Sequence[int]]) -> tuple[Optional[list[list[int]]], int]:
    """`integer_adjugate` by elimination, for a matrix of any side.

    `_eliminate` on [A | I] ends at [d·I | d·A⁻¹] with d = ±det(A) (the
    sign of the row swaps). A singular matrix returns (None, 0).
    """
    n = len(rows)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    pivots, d, sign = _eliminate(a, range(n))
    if len(pivots) < n:
        return None, 0
    return [[sign * x for x in row[n:]] for row in a], sign * d


# Each `_cofactors_n` returns (adj(A), det(A)) for a side-n matrix A, with
# adj(A)[i][j] the (j, i) cofactor.
def _cofactors_1(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    ((a,),) = rows
    return [[1]], a


def _cofactors_2(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    (a, b), (c, d) = rows
    return [[d, -b], [-c, a]], a * d - b * c


def _cofactors_3(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    (a, b, c), (d, e, f), (g, h, i) = rows
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    return [
        [c0, c * h - b * i, b * f - c * e],
        [c1, a * i - c * g, c * d - a * f],
        [c2, b * g - a * h, a * e - b * d],
    ], a * c0 + b * c1 + c * c2


def _cofactors_4(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Laplace expansion by complementary minors: s_jk are the 2×2 minors of
    rows 0–1 on columns j < k, c_jk those of rows 2–3."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    s01, s02, s03 = a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10
    s12, s13, s23 = a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12
    c01, c02, c03 = a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30
    c12, c13, c23 = a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32
    adjugate = [
        [
            a11 * c23 - a12 * c13 + a13 * c12,
            a02 * c13 - a01 * c23 - a03 * c12,
            a31 * s23 - a32 * s13 + a33 * s12,
            a22 * s13 - a21 * s23 - a23 * s12,
        ],
        [
            a12 * c03 - a10 * c23 - a13 * c02,
            a00 * c23 - a02 * c03 + a03 * c02,
            a32 * s03 - a30 * s23 - a33 * s02,
            a20 * s23 - a22 * s03 + a23 * s02,
        ],
        [
            a10 * c13 - a11 * c03 + a13 * c01,
            a01 * c03 - a00 * c13 - a03 * c01,
            a30 * s13 - a31 * s03 + a33 * s01,
            a21 * s03 - a20 * s13 - a23 * s01,
        ],
        [
            a11 * c02 - a10 * c12 - a12 * c01,
            a00 * c12 - a01 * c02 + a02 * c01,
            a31 * s02 - a30 * s12 - a32 * s01,
            a20 * s12 - a21 * s02 + a22 * s01,
        ],
    ]
    return adjugate, s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01


def _determinant_1(rows: Sequence[Sequence[int]]) -> int:
    return rows[0][0]


def _determinant_2(rows: Sequence[Sequence[int]]) -> int:
    (a, b), (c, d) = rows
    return a * d - b * c


def _determinant_3(rows: Sequence[Sequence[int]]) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


def _determinant_4(rows: Sequence[Sequence[int]]) -> int:
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    return (
        (a00 * a11 - a01 * a10) * (a22 * a33 - a23 * a32)
        - (a00 * a12 - a02 * a10) * (a21 * a33 - a23 * a31)
        + (a00 * a13 - a03 * a10) * (a21 * a32 - a22 * a31)
        + (a01 * a12 - a02 * a11) * (a20 * a33 - a23 * a30)
        - (a01 * a13 - a03 * a11) * (a20 * a32 - a22 * a30)
        + (a02 * a13 - a03 * a12) * (a20 * a31 - a21 * a30)
    )


# Straight-line kernels by side; a matrix of any other side is eliminated.
_COFACTORS = {1: _cofactors_1, 2: _cofactors_2, 3: _cofactors_3, 4: _cofactors_4}
_DETERMINANTS = {1: _determinant_1, 2: _determinant_2, 3: _determinant_3, 4: _determinant_4}


def integer_adjugate(rows: Sequence[Sequence[int]]) -> tuple[Optional[list[list[int]]], int]:
    """Adjugate and determinant of a square integer matrix, fraction-free.

    Sides 1–4 (every simplex frame in dimensions 1–3) are written-out
    cofactor formulas; larger sides go through `_elimination_adjugate`. The
    adjugate is unique, so both give the same integers. A singular matrix
    returns (None, 0).
    """
    kernel = _COFACTORS.get(len(rows))
    if kernel is None:
        return _elimination_adjugate(rows)
    adjugate, d = kernel(rows)
    return (adjugate, d) if d else (None, 0)


def integer_determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free.

    Sides 1–4 are cofactor formulas that leave the rows alone; above side 4
    the rows are reduced in place by `_eliminate`, so callers pass a copy.
    """
    kernel = _DETERMINANTS.get(len(rows))
    if kernel is not None:
        return kernel(rows)
    pivots, d, sign = _eliminate(rows, range(len(rows)))
    return sign * d if len(pivots) == len(rows) else 0


def _square_determinant(m: Matrix, name: str) -> tuple[int, int]:
    """det(m) as (integer numerator, positive scale): det = numerator / scale."""
    if not m.is_square:
        raise DimensionError(f"{name} of non-square {m.rows}x{m.cols} matrix")
    rows, scale = _scaled_integer_rows(m.entries)
    return integer_determinant(rows), scale


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    return Fraction(*_square_determinant(m, "determinant"))


def det_sign(m: Matrix) -> int:
    """Sign of det(m) in {-1, 0, +1}, computed fraction-free."""
    d, _ = _square_determinant(m, "determinant sign")
    return (d > 0) - (d < 0)


def rank(m: Matrix) -> int:
    """Exact rank: the number of pivots of the fraction-free reduction."""
    rows, _ = _scaled_integer_rows(m.entries)
    return len(_eliminate(rows, range(m.cols))[0])


def solve_square(a: Matrix, rhs: Vector) -> Optional[Vector]:
    """Unique exact solution of a x = rhs, or None when a is singular."""
    if not a.is_square:
        raise DimensionError(f"solve_square needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if len(rhs) != n:
        raise DimensionError(f"matrix is {n}x{n}, right-hand side has length {len(rhs)}")
    rows, _ = _scaled_integer_rows([*a.entries[i], rhs[i]] for i in range(n))
    pivots, d, _ = _eliminate(rows, range(n))
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], d) for row in rows)


def inverse(a: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular."""
    if not a.is_square:
        raise DimensionError("inverse of a non-square matrix")
    n = a.rows
    # scaling row i of [A | I] by m_i and reducing gives [I | A⁻¹] all the same
    rows, _ = _scaled_integer_rows(
        [*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a.entries)
    )
    pivots, d, _ = _eliminate(rows, range(n))
    if len(pivots) < n:
        return None
    return Matrix(tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows))


def null_space(m: Matrix) -> list[Vector]:
    """Basis of the right null space {x : m x = 0}: one vector per non-pivot
    column, 1 there and 0 at the other non-pivot columns."""
    cols = m.cols
    rows, _ = _scaled_integer_rows(m.entries)
    pivots, d, _ = _eliminate(rows, range(cols))
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-rows[i][free], d)
        basis.append(tuple(vec))
    return basis
