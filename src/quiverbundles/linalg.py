"""Exact rational linear algebra.

Dense routines work on immutable tuple-of-tuples matrices over
`fractions.Fraction`; there is no floating point anywhere.  One kernel,
`add_row`, does all elimination: it keeps a table of primitive integer
pivot rows and reduces each new row fraction-free against it, removing
the row's content once, when it stores it (a positive factor per step
changes no primitive part; `add_row` has the argument).
`pivot_columns` feeds it the rows of a {column: value} matrix shortest
first and stops once every column holds a pivot, `sparse_rank` counts
those columns, and `rank` is `sparse_rank` of a dense matrix; `_rref`
back-substitutes its table into the reduced row echelon form, from which
`nullspace`, `solve` and `row_space_basis` read their answers.

`cleared` is the package's one clearing step: it scales groups of
rationals by the lcm L of their denominators to integers and returns L.
`integer_row` here, the forms and form matrices of `polynomials` and the
arrow matrices of `representations` all become integers through it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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


def scale(c: Fraction, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    # a zero-row matrix carries no column count; its product has no rows
    if not a:
        return ()
    (m, k1), (k2, n) = shape(a), shape(b)
    if k1 != k2:
        raise ValueError(f"cannot multiply {m}x{k1} by {k2}x{n}")
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt) for row in a
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return sub(matmul(a, b), matmul(b, a))


def _rref(rows: Iterable[Sequence[Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the rows, as {pivot column: row}.

    The rows go into one `add_row` table; back-substitution from the last
    pivot clears each table row at the later pivots, removing its content
    after each step, and divides it by its leading entry.  That form is
    unique, so these are Gauss-Jordan's rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        add_row(pivots, integer_row(dict(enumerate(row))))
    reduced: dict[int, dict[int, int]] = {}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c in reduced]:
            row = _normalize_int_row(_clear(row, reduced[c], c))
        reduced[lead] = row
    return {
        lead: {c: Fraction(v, row[lead]) for c, v in row.items()}
        for lead, row in sorted(reduced.items())
    }


def rank(a: Matrix) -> int:
    return sparse_rank({c: x for c, x in enumerate(row) if x != 0} for row in a)


def nullspace(a: Matrix) -> tuple[Vector, ...]:
    """Canonical basis of the right kernel (one vector per free column)."""
    n, reduced = shape(a)[1], _rref(a)
    return tuple(
        tuple(ONE if c == free else -reduced.get(c, {}).get(free, ZERO) for c in range(n))
        for free in range(n)
        if free not in reduced
    )


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """The X with a X = b that is zero at every free coordinate, or None.

    One `_rref` of [a | b], whose pivots left of b are a's.  A pivot in a
    column of b puts that column outside the span of the columns before it,
    a's among them, so no X exists; without one, each column of b is read
    off the reduced rows as a combination of a's pivot columns.  Column j
    is also the answer for [a | b_j] alone, whose reduced form is this one
    restricted to its columns.
    """
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    k = shape(b)[1]
    reduced = _rref(ra + rb for ra, rb in zip(a, b))
    if any(c >= n for c in reduced):
        return None
    return tuple(tuple(reduced.get(c, {}).get(n + j, ZERO) for j in range(k)) for c in range(n))


def row_space_basis(rows: Sequence[Vector]) -> tuple[Vector, ...]:
    """Canonical (rref) basis of the span of the given row vectors."""
    n = len(rows[0]) if rows else 0
    return tuple(tuple(row.get(c, ZERO) for c in range(n)) for row in _rref(rows).values())


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def cleared(groups: Sequence[Iterable[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """Each group of rationals times L, the lcm of all their denominators,
    as a tuple of integers, and L.  This is the one place where rationals
    become integers over a common denominator.  Zeros stay 0; no groups,
    or only empty ones, give L = 1.  The groups are read twice, so each
    must be a collection, not an iterator."""
    den = 1
    for g in groups:
        for x in g:
            if x.denominator != 1:
                den = lcm(den, x.denominator)
    if den == 1:
        return [tuple([x.numerator for x in g]) for g in groups], 1
    return [tuple([x.numerator * (den // x.denominator) for x in g]) for g in groups], den


def integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of a rational row, scaled to coprime integers."""
    nonzero = {c: v for c, v in row.items() if v}
    (values,), _ = cleared((nonzero.values(),))
    return _normalize_int_row(dict(zip(nonzero, values)))


def _clear(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """Clear row at col against pivot, fraction-free, in place.

    The row becomes (P/g) row - (R/g) pivot, P and R the two entries at
    col and g = gcd(P, R).  Its content is left in: the caller removes
    it once, where a row is kept.
    """
    g = gcd(pivot[col], row[col])
    p, f = pivot[col] // g, row[col] // g
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
    return row


def add_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Add an integer row to a pivot table; True iff it was independent.

    The table maps each stored row's least column to that row, so its rows
    are in echelon form and span the rows added so far.  The new row is
    cleared against the pivot at its leading column (`_clear`) until it
    vanishes or leads at a free column, where its content is removed and
    it is stored.  The row must hold no zero entries; it is reduced in
    place.

    Content is removed once per stored row, not after every step, and the
    stored row is the same: scaling r by c > 0 turns one step's
    (P/g) r - (R/g) pivot into c g / g' times it, g' = gcd(P, cR), a
    positive factor, so every intermediate row is a positive multiple of
    the one a step-by-step removal gives and has the same primitive part.
    Each step adds at most the pivot's largest bit length + 1 to the
    row's, so within one reduction the growth stays polynomial.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = _normalize_int_row(row)
            return True
        row = _clear(row, pivot, lead)
    return False


def _int_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """A copy of a row whose values are all nonzero ints; `integer_row`
    of any other."""
    values = row.values()
    if 0 not in values and all(map(int.__instancecheck__, values)):
        return dict(row)
    return integer_row(row)


def pivot_columns(rows: Iterable[Mapping[int, Fraction]]) -> list[int]:
    """The columns independent of the columns before them, in increasing
    order, of a sparse matrix given as one {column: value} mapping per row.

    The rows are added to one pivot table (`add_row`) shortest first, the
    ordering of structured Gaussian elimination: sparse rows become pivots
    early, so the long rows reduced against them meet little fill-in.
    Each row is cleared to an integer row without zero entries only when
    it is reached (a row of nonzero ints is copied as it is; `add_row`
    removes its content when it keeps it).  The table is an echelon form
    of the row space, whatever order the rows came in, and the leading
    columns of any echelon form of a row space are the same: column c
    leads exactly when it is not a combination of the columns before it.

    The addition stops once the table holds as many pivots as there are
    distinct columns among the rows.  That is exact: the pivot rows then
    span every vector supported on those columns, so each row not yet
    added lies in their span and would be rejected, and the table is
    already the one all the rows give.  A matrix of full column rank (as
    D(-1) of a stable quasimap's minimal model, in `complexes`) never
    reduces its dependent rows.  Exact; no pivoting thresholds.  The
    argument rows are not changed.
    """
    rows = sorted(filter(None, rows), key=len)
    columns = len(set().union(*rows))
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if add_row(pivots, _int_row(row)) and len(pivots) == columns:
            break
    return sorted(pivots)


def sparse_rank(rows: Iterable[Mapping[int, Fraction]]) -> int:
    """Rank of a sparse matrix given as one {column: value} mapping per row:
    the number of its `pivot_columns`, so the early stop there (once every
    column holds a pivot) applies here too."""
    return len(pivot_columns(rows))
