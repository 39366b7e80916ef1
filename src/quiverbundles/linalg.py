"""Exact rational linear algebra.

Dense routines work on immutable tuple-of-tuples matrices over
`fractions.Fraction`; there is no floating point anywhere.  Every rank and
span-membership test runs on one kernel, `add_row`, which keeps a table of
primitive integer pivot rows and reduces each new row fraction-free against
it; `sparse_rank` feeds it the rows of a {column: value} matrix shortest
first, and `rank` is `sparse_rank` of a dense matrix.  Gauss-Jordan `rref`
remains behind the routines whose output is reduced rows: `nullspace`,
`solve` and `row_space_basis`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows: Iterable[Iterable[object]]) -> Matrix:
    """Coerce nested ints / strings / Fractions into a Matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix literal")
    return out


def vec(entries: Iterable[object]) -> Vector:
    return tuple(Fraction(x) for x in entries)


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def zeros(m: int, n: int) -> Matrix:
    return tuple((ZERO,) * n for _ in range(m))


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} vs {shape(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError(f"shape mismatch {shape(a)} vs {shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def scale(c: Fraction, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    (m, k1), (k2, n) = shape(a), shape(b)
    if k1 != k2:
        raise ValueError(f"cannot multiply {m}x{k1} by {k2}x{n}")
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt) for row in a
    )


def matvec(a: Matrix, v: Vector) -> Vector:
    if shape(a)[1] != len(v):
        raise ValueError("matvec shape mismatch")
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def trace(a: Matrix) -> Fraction:
    m, n = shape(a)
    if m != n:
        raise ValueError(f"trace of non-square {m}x{n} matrix")
    return sum((a[i][i] for i in range(m)), ZERO)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return sub(matmul(a, b), matmul(b, a))


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in a]
    m, n = shape(a)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(a: Matrix) -> int:
    return sparse_rank({c: x for c, x in enumerate(row) if x != 0} for row in a)


def nullspace(a: Matrix) -> tuple[Vector, ...]:
    """Canonical basis of the right kernel (one vector per free column)."""
    r, pivots = rref(a)
    n = shape(a)[1]
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for i, c in enumerate(pivots):
            v[c] = -r[i][free]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent."""
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    aug = tuple(row + (bb,) for row, bb in zip(a, b))
    r, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = r[i][n]
    return tuple(x)


def row_space_basis(rows: Sequence[Vector]) -> tuple[Vector, ...]:
    """Canonical (rref) basis of the span of the given row vectors."""
    live = [r for r in rows if any(x != 0 for x in r)]
    if not live:
        return ()
    reduced, pivots = rref(tuple(live))
    return reduced[: len(pivots)]


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of a rational row, scaled to coprime integers."""
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    return _normalize_int_row(
        {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    )


def add_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Add an integer row to a pivot table; True iff it was independent.

    The table maps each stored row's least column to that row, so its rows
    are in echelon form and span the rows added so far.  The new row is
    reduced fraction-free against the pivot at its leading column and made
    primitive, until it vanishes or leads at a free column, where it is
    stored.  The row must hold no zero entries; it is reduced in place.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return True
        g = gcd(pivot[lead], row[lead])
        p, f = pivot[lead] // g, row[lead] // g
        if p != 1:
            for c in row:
                row[c] *= p
        for c, v in pivot.items():
            # pivot entries are nonzero, so w == 0 only where row has c
            w = row.get(c, 0) - f * v
            if w:
                row[c] = w
            else:
                del row[c]
        row = _normalize_int_row(row)
    return False


def sparse_rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Rank of a sparse matrix given as one {column: value} mapping per row.

    Rows are cleared to primitive integer rows and added to one pivot table
    (`add_row`) shortest first, the ordering of structured Gaussian
    elimination: sparse rows become pivots early, so the long rows reduced
    against them meet little fill-in.  Exact; no pivoting thresholds.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted((integer_row(r) for r in rows), key=len):
        add_row(pivots, row)
    return len(pivots)
