"""Exact rational linear algebra: determinant signs, solving, rank, null spaces.

Every value is a `fractions.Fraction` (arbitrary-precision, canonical reduced
form, positive denominator). There is deliberately no floating point in this
module: each downstream geometric predicate (orientation sign, membership,
dimension) must be an exact decision, never an approximation.

Determinant signs use Bareiss fraction-free elimination over row-scaled
integers, which keeps intermediate bit growth polynomial; the same
elimination carried on to Gauss–Jordan form gives the adjugate of an integer
matrix with no rational in it (`integer_adjugate`). Plain Gaussian
elimination over Fractions is used where fill-in is irrelevant (solving,
inversion, null spaces on tiny systems), all three through one Gauss–Jordan
reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]

_RATIONAL_PATTERN = re.compile(r"-?\d+(?:/[1-9]\d*)?")


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
    if not _RATIONAL_PATTERN.fullmatch(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(value)


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(v) for v in values)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction | int, a: Vector) -> Vector:
    return tuple(c * x for x in a)


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

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            return Matrix(())
        return Matrix(tuple(zip(*cols, strict=True)))

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

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries, strict=True))) if self.entries else Matrix(())

    def mul_vec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionError(f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}")
        return tuple(vec_dot(row, v) for row in self.entries)

    def mul_mat(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        cols = [other.column(j) for j in range(other.cols)]
        return Matrix(
            tuple(tuple(vec_dot(row, col) for col in cols) for row in self.entries)
        )

    def scale(self, c: Fraction | int) -> "Matrix":
        return Matrix(tuple(vec_scale(c, row) for row in self.entries))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(format_rational(x) for x in row) for row in self.entries) + "]"


def _scaled_integer_rows(m: Matrix) -> list[list[int]]:
    # Multiply each row by the (positive) lcm of its denominators: the
    # determinant sign and the row space are unchanged, and Bareiss can run
    # over plain integers.
    out = []
    for row in m.entries:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: divisibility is the Bareiss identity.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def integer_adjugate(rows: Sequence[Sequence[int]]) -> tuple[Optional[list[list[int]]], int]:
    """Adjugate and determinant of a square integer matrix, fraction-free.

    Bareiss-style Gauss–Jordan on [A | I]: after step k every entry is a
    (k+1)-minor, so each division by the previous pivot is exact, and the end
    state is [d·I | d·A⁻¹] with d = ±det(A) (the sign of the row swaps).
    A singular matrix returns (None, 0).
    """
    n = len(rows)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return None, 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(n):
            if i != k:
                row = a[i]
                factor = row[k]
                a[i] = [(x * pivot - factor * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return Fraction(1)
    scale = 1
    int_rows = []
    for row in m.entries:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        int_rows.append([int(x * mult) for x in row])
    return Fraction(_bareiss_determinant(int_rows), scale)


def det_sign(m: Matrix) -> int:
    """Sign of det(m) in {-1, 0, +1}, computed fraction-free."""
    if not m.is_square:
        raise DimensionError(f"determinant sign of non-square {m.rows}x{m.cols} matrix")
    d = _bareiss_determinant(_scaled_integer_rows(m))
    return (d > 0) - (d < 0)


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free integer row reduction."""
    rows = [r for r in _scaled_integer_rows(m) if any(r)]
    cols = m.cols
    rk = 0
    col = 0
    while rows and col < cols:
        pivot_row = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        pivot = rows.pop(pivot_row)
        rk += 1
        reduced = []
        for r in rows:
            if r[col] != 0:
                r = [rx * pivot[col] - pivot[j] * r[col] for j, rx in enumerate(r)]
                g = gcd(*r)
                if g > 1:
                    r = [x // g for x in r]
            if any(r):
                reduced.append(r)
        rows = reduced
        col += 1
    return rk


def _gauss_jordan(rows: list[list[Fraction]], columns: range) -> list[int]:
    """Reduce rows in place to reduced row-echelon form over the given columns.

    Returns the pivot columns in order: the k-th is 1 in row k and 0 in
    every other row. Columns outside `columns` are carried along.
    """
    pivots: list[int] = []
    for col in columns:
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def solve_square(a: Matrix, rhs: Vector) -> Optional[Vector]:
    """Unique exact solution of a x = rhs, or None when a is singular."""
    if not a.is_square:
        raise DimensionError(f"solve_square needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if len(rhs) != n:
        raise DimensionError(f"matrix is {n}x{n}, right-hand side has length {len(rhs)}")
    aug = [[*a.entries[i], rhs[i]] for i in range(n)]
    if len(_gauss_jordan(aug, range(n))) < n:
        return None
    return tuple(row[n] for row in aug)


def inverse(a: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular."""
    if not a.is_square:
        raise DimensionError("inverse of a non-square matrix")
    n = a.rows
    aug = [[*a.entries[i], *(Fraction(int(i == j)) for j in range(n))] for i in range(n)]
    if len(_gauss_jordan(aug, range(n))) < n:
        return None
    return Matrix(tuple(tuple(row[n:]) for row in aug))


def null_space(m: Matrix) -> list[Vector]:
    """Basis of the right null space {x : m x = 0}."""
    rows = [list(r) for r in m.entries]
    cols = m.cols
    pivots = _gauss_jordan(rows, range(cols))
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][free]
        basis.append(tuple(vec))
    return basis
