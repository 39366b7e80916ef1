"""Homogeneous binary forms in (s, t) with exact rational coefficients.

A form of degree d is stored as the coefficient tuple of
(s^d, s^(d-1) t, ..., t^d).  The zero form is a distinguished value with
degree None so that matrices of forms can mix entry degrees without
ambiguity.  Includes gcd (via the s/t-power split and univariate Euclid),
a fraction-free row echelon of form matrices over Q[t], which gives gcds
of maximal minors without enumerating minors, generic ranks from one
certified fiber (`generic_rank`), the cofactor determinant of a square
form matrix, and rational-root factoring for display.  Forms in and out
are exact rationals; inside, products, sums and evaluation work on
integer numerators over a common denominator, and the echelon works on
integer rows by pseudo-division.  Every such clearing of rationals is
`linalg.cleared`; this module takes no common denominator of its own.

This module owns the integer form format: a form as the tuple of its
ascending integer t-coefficients on the chart s = 1, () for zero, and a
matrix as `IntRows`, per row the nonzero entries as (column, form).  Its
arithmetic is here once, and `HomogPoly`, `bundles`, `representations`
and `complexes` all use it: `add_product` (acc + u v in place, the one
coefficient product), `at` (the value at [s : t], the one Horner loop),
`dense_at` (rows at [1 : k] as a dense integer matrix), `form` (integer
coefficients over a denominator as a `HomogPoly`), `scaled_rows`
(rows times an integer) and `_int_primitive` (content divided out, last
nonzero coefficient positive, the normalization of every gcd here).

The gcd of the maximal minors of a matrix of full column rank is
`_int_full_rank_minor_gcd`, which takes the rows as integer coefficient
tuples and runs the echelon (`_int_echelon`) on the columns sorted by
ascending largest entry degree.  Reordering the columns changes each
maximal minor by a sign and the gcd not at all; eliminating the
low-degree columns first keeps the pseudo-remainders small, where the
matrix's own column order let their coefficients swell far past those of
the gcd.  `bundles` hands it the integer columns of its generation walk,
so no form matrix is ever cleared for it, and it returns the normalized
gcd as an integer form, which `bundles.base_locus` multiplies with
`add_product`; the tests keep the echelon and the minor gcds on rows of
rational forms as oracles.

The display factoring (`factor_binary_form`) clears its form once and
then works on integers: the s- and t-powers are the zeros at the ends,
each rational root p/q of the primitive core is divided out as q t - p
exactly (Gauss's lemma), and the factors are checked against the form by
cross-multiplication.  Only the factors it returns are forms; the tests
keep the former factoring on rational forms as its oracle.

Every rank-only question about a form matrix is asked of integer data.
`generic_pivot_columns` and `fiber_rank` take a matrix as integer
columns on the chart s = 1, each a positive multiple of the rational one,
which changes no rank: `integer_columns` clears a form matrix's columns
(`linalg.cleared`, one call per column) for `generic_rank`, and
`bundles` passes the integer columns of its generation walk directly.
`integer_rows` clears a whole matrix by one denominator (one
`linalg.cleared` call): all the arrows of a bundle at once, over one L,
for the residual, the generation walk and the deformation complex of
`complexes`, which is assembled and ranked on those rows.  The generic
rank is one fiber at a point beyond every root of every minor, by
Cauchy's root bound (`generic_rank`); the sample points off the base
locus are the small k at which every vertex fiber has full rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, prod
from typing import Iterable, Sequence

from . import linalg
from .quivers import InvariantError

ZERO = Fraction(0)
# ascending coefficients of a polynomial in one variable, () for zero
_Univ = tuple[Fraction, ...]


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous form; degree None with empty coeffs encodes zero."""

    degree: int | None
    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.degree is None:
            if self.coeffs:
                raise ValueError("zero form must have empty coefficients")
        else:
            if self.degree < 0:
                raise ValueError(f"negative degree {self.degree}")
            if len(self.coeffs) != self.degree + 1:
                raise ValueError(
                    f"degree {self.degree} form needs {self.degree + 1} coefficients, "
                    f"got {len(self.coeffs)}"
                )

    @staticmethod
    def zero() -> HomogPoly:
        return _ZERO_POLY

    @staticmethod
    def of(degree: int, coeffs: Iterable[object]) -> HomogPoly:
        cs = tuple(Fraction(c) for c in coeffs)
        if all(c == 0 for c in cs):
            return _ZERO_POLY
        return HomogPoly(degree, cs)

    @staticmethod
    def constant(c: object) -> HomogPoly:
        c = Fraction(c)
        return _ZERO_POLY if c == 0 else HomogPoly(0, (c,))

    @staticmethod
    def monomial(degree: int, t_power: int, c: object = 1) -> HomogPoly:
        """c * s^(degree - t_power) * t^t_power."""
        if not 0 <= t_power <= degree:
            raise ValueError(f"t-power {t_power} out of range for degree {degree}")
        c = Fraction(c)
        if c == 0:
            return _ZERO_POLY
        return HomogPoly(
            degree, tuple(c if k == t_power else ZERO for k in range(degree + 1))
        )

    def is_zero(self) -> bool:
        return self.degree is None

    def __bool__(self) -> bool:
        return self.degree is not None

    def __add__(self, other: HomogPoly) -> HomogPoly:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} + {other.degree}")
        cs = tuple([a + b for a, b in zip(self.coeffs, other.coeffs)])
        return HomogPoly(self.degree, cs) if any(cs) else _ZERO_POLY

    def __sub__(self, other: HomogPoly) -> HomogPoly:
        return self + (-other)

    def __neg__(self) -> HomogPoly:
        if self.is_zero():
            return self
        return HomogPoly(self.degree, tuple(-c for c in self.coeffs))

    def __mul__(self, other: HomogPoly) -> HomogPoly:
        if self.is_zero() or other.is_zero():
            return _ZERO_POLY
        # integer numerators over the common denominator L, so the product
        # is over L^2; a product of nonzero forms is nonzero
        (xs, ys), den = linalg.cleared((self.coeffs, other.coeffs))
        return form(add_product(None, xs, ys), den * den)

    def scaled(self, c: object) -> HomogPoly:
        c = Fraction(c)
        if c == 0 or self.is_zero():
            return _ZERO_POLY
        return HomogPoly(self.degree, tuple(c * x for x in self.coeffs))

    def evaluate(self, s0: object, t0: object) -> Fraction:
        """p(s0, t0), by homogeneity: p(S, T) / (L (den s0 * den t0)^d) with
        the integers S = num s0 * den t0, T = num t0 * den s0 and the
        integer numerators of L * p, L the common coefficient denominator."""
        if self.is_zero():
            return ZERO
        if not isinstance(s0, (int, Fraction)):
            s0 = Fraction(s0)
        if not isinstance(t0, (int, Fraction)):
            t0 = Fraction(t0)
        s, t = s0.numerator * t0.denominator, t0.numerator * s0.denominator
        (xs,), den = linalg.cleared((self.coeffs,))
        acc = at(xs, t, s)
        den *= (s0.denominator * t0.denominator) ** self.degree
        return Fraction(acc) if den == 1 else Fraction(acc, den)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = _monomial_str(self.degree - k, k)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


_ZERO_POLY = HomogPoly(None, ())


def _monomial_str(s_pow: int, t_pow: int) -> str:
    factors = []
    for sym, p in (("s", s_pow), ("t", t_pow)):
        if p == 1:
            factors.append(sym)
        elif p > 1:
            factors.append(f"{sym}^{p}")
    return "*".join(factors) if factors else "1"


# ---------------------------------------------------------------------------
# gcd


def _split(p: HomogPoly) -> tuple[int, int, tuple[Fraction, ...]]:
    """Factor p = s^a * t^b * core, core with nonzero ends, as t-coefficients."""
    if p.is_zero():
        raise InvariantError("split of the zero form")
    ks = [k for k, c in enumerate(p.coeffs) if c != 0]
    b, kmax = ks[0], ks[-1]
    a = p.degree - kmax
    core = tuple(p.coeffs[b : kmax + 1])
    return a, b, core


def _univ_divmod(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[_Univ, _Univ]:
    """Quotient and remainder of u by v, ascending coefficients, v[-1] != 0."""
    r = list(u)
    q = [ZERO] * max(0, len(r) - len(v) + 1)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(v):
            return tuple(q), tuple(r)
        off = len(r) - len(v)
        q[off] = f = r[-1] / v[-1]
        for i, c in enumerate(v):
            r[off + i] -= f * c


def _trimmed(u: Sequence[Fraction]) -> _Univ:
    k = len(u)
    while k and u[k - 1] == 0:
        k -= 1
    return tuple(u[:k])


def _univ_gcd(u: Sequence[Fraction], v: Sequence[Fraction]) -> _Univ:
    a, b = tuple(u), tuple(v)
    while b:
        a, b = b, _univ_divmod(a, b)[1]
    return a


def _primitive(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to coprime integer coefficients with positive leading one."""
    (ints,), _ = linalg.cleared((coeffs,))
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    if g == 0:
        return tuple(coeffs)
    if ints[-1] < 0:
        g = -g
    return tuple(Fraction(v, g) for v in ints)


def poly_gcd(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    """Normalized gcd: coprime integer coefficients, positive top t-coefficient."""
    if p.is_zero():
        return _normalized(q)
    if q.is_zero():
        return _normalized(p)
    ap, bp, cp = _split(p)
    aq, bq, cq = _split(q)
    core = _primitive(_univ_gcd(cp, cq))
    a, b = min(ap, aq), min(bp, bq)
    d = a + b + len(core) - 1
    coeffs = [ZERO] * (d + 1)
    for i, c in enumerate(core):
        coeffs[b + i] = c
    return HomogPoly.of(d, coeffs)


def _normalized(p: HomogPoly) -> HomogPoly:
    (ints,), _ = linalg.cleared((p.coeffs,))
    return form(_int_primitive(ints))


# ---------------------------------------------------------------------------
# matrices of forms

PolyMatrix = tuple[tuple[HomogPoly, ...], ...]


def poly_zeros(m: int, n: int) -> PolyMatrix:
    return tuple((_ZERO_POLY,) * n for _ in range(m))


def poly_mat_is_zero(a: PolyMatrix) -> bool:
    return all(e.is_zero() for row in a for e in row)


def poly_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if (a and b) and len(a[0]) != len(b):
        raise ValueError("form matrix shape mismatch")
    n = len(b[0]) if b else 0
    nonzero = [[(j, f) for j, f in enumerate(row) if not f.is_zero()] for row in b]
    out = []
    for row in a:
        orow = [_ZERO_POLY] * n
        for e, b_row in zip(row, nonzero):
            if b_row and not e.is_zero():
                for j, f in b_row:
                    orow[j] = orow[j] + e * f
        out.append(tuple(orow))
    return tuple(out)


def poly_mat_eval(a: PolyMatrix, s0: object, t0: object) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(e.evaluate(s0, t0) for e in row) for row in a)


def poly_det(a: PolyMatrix) -> HomogPoly:
    """Determinant by first-row expansion with a column-mask memo."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of non-square form matrix")
    if n == 0:
        return HomogPoly.constant(1)
    memo: dict[tuple[int, int], HomogPoly] = {}

    def minor(row: int, mask: int) -> HomogPoly:
        if row == n:
            return HomogPoly.constant(1)
        key = (row, mask)
        got = memo.get(key)
        if got is not None:
            return got
        acc = _ZERO_POLY
        sign = 1
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            e = a[row][j]
            if not e.is_zero():
                term = e * minor(row + 1, mask | bit)
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, 0)


# ---------------------------------------------------------------------------
# integer forms: ascending integer t-coefficients, () for zero

IntRows = list[list[tuple[int, tuple[int, ...]]]]
IntColumn = list[tuple[int, ...]]


def add_product(acc: list[int] | None, u: Sequence[int], v: Sequence[int]) -> list[int] | None:
    """acc + u * v, in place; None stands for zero, and comes back when u
    or v is zero.  acc and u * v of different degrees are a ValueError."""
    if not (u and v):
        return acc
    n = len(u) + len(v) - 1
    if acc is None:
        acc = [0] * n
    elif len(acc) != n:
        raise ValueError(f"degree mismatch {len(acc) - 1} + {n - 1}")
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v, i):
                acc[j] += x * y
    return acc


def at(p: Sequence[int], t: int, s: int = 1) -> int:
    """The form p at [s : t], sum of p[k] s^(d - k) t^k, d = len(p) - 1,
    by Horner's rule from t^d down; 0 for ()."""
    acc = 0
    if s == 1:
        for x in reversed(p):
            acc = acc * t + x
        return acc
    s_power = 1
    for x in reversed(p):
        acc = acc * t + x * s_power
        s_power *= s
    return acc


def dense_at(rows: IntRows, width: int, k: int) -> list[list[int]]:
    """The integer rows at [1 : k], each a dense row of the given width.
    Rows of constants give the same matrix at every k."""
    out = []
    for row in rows:
        dense = [0] * width
        for c, p in row:
            dense[c] = at(p, k)
        out.append(dense)
    return out


def form(p: Sequence[int], den: int = 1) -> HomogPoly:
    """The form with coefficients p / den."""
    return HomogPoly(len(p) - 1, tuple([Fraction(x, den) for x in p])) if p else _ZERO_POLY


def scaled_rows(rows: IntRows, f: int) -> IntRows:
    """Integer rows times f."""
    if f == 1:
        return rows
    return [[(c, tuple([f * x for x in p])) for c, p in row] for row in rows]


def integer_rows(a: PolyMatrix) -> tuple[IntRows, int]:
    """The nonzero entries of each row of L * a, as (column, ascending
    integer t-coefficients), and L, the common denominator of a's
    coefficients."""
    forms, den = linalg.cleared([e.coeffs for row in a for e in row if e.coeffs])
    it = iter(forms)
    return [[(c, next(it)) for c, e in enumerate(row) if e.coeffs] for row in a], den


def integer_columns(a: PolyMatrix) -> list[IntColumn]:
    """The columns of a on the chart s = 1, each times the common
    denominator of its coefficients: per column, per row, the ascending
    t-coefficients of an integer polynomial, () for zero.  The rank
    question of `generic_rank` on a form matrix is asked of these."""
    return [linalg.cleared([e.coeffs for e in col])[0] for col in zip(*a)]


def _fiber(columns: Sequence[IntColumn], k: int) -> list[list[int]]:
    """The integer columns evaluated at [1 : k], column by column."""
    return [[at(p, k) for p in col] for col in columns]


def fiber_rank(columns: Sequence[IntColumn], k: int) -> int:
    """Rank at [1 : k] of a matrix given by its integer columns."""
    return linalg.rank(list(zip(*_fiber(columns, k))))


def _generic_point(columns: Sequence[IntColumn], rows: int) -> int:
    """H + 1 of `generic_rank` for the integer columns of a matrix with
    the given number of rows."""
    norms = sorted(
        (max(1, sum(abs(x) for p in col for x in p)) for col in columns), reverse=True
    )
    return prod(norms[: min(rows, len(columns))]) + 1


def generic_rank(a: PolyMatrix) -> int:
    """Rank of a form matrix over the function field of the line: the rank
    of one integer fiber at [1 : H + 1].

    Each column of a(1, t) is cleared to integers by its common denominator
    (`integer_columns`); N_j is the sum of the absolute values of the
    coefficients of column j, and H the product of the min(rows, cols)
    largest of the values max(1, N_j).  The fiber has the rank rho of a
    over Q(t):

    - scaling a column by a nonzero constant changes no rank, over Q(t) or
      in any fiber;
    - an r x r minor on the columns J, r <= min(rows, cols), is a signed
      sum of products of one entry from each column of J; the l1 norm is
      subadditive and submultiplicative, and each such product of norms is
      a term of the expanded product of the N_j over J, so the minor's l1
      norm is at most that product, hence at most H;
    - a nonzero rho x rho minor has integer coefficients, so its leading
      coefficient has absolute value at least 1, and each of its roots z
      has |z| < 1 + H (Cauchy's bound), so it is nonzero at t = H + 1,
      where the fiber then has rank at least rho;
    - no fiber has rank above rho, since every larger minor vanishes.

    H + 1 has at most 2 + sum(log2 max(1, N_j)) bits, so the fiber's
    entries stay polynomial in the bit size of the input.  A matrix with
    no rows or no columns has rank 0 and evaluates no fiber.
    """
    columns = integer_columns(a)
    if not min(len(a), len(columns)):
        return 0
    return fiber_rank(columns, _generic_point(columns, len(a)))


def generic_pivot_columns(columns: Sequence[IntColumn], rows: int) -> list[int]:
    """The columns independent over Q(t) of the columns before them, of a
    matrix with the given number of rows and these integer columns: the
    pivot columns of its fiber at [1 : H + 1] (`generic_rank`), read off
    the fiber's rows (`linalg.pivot_columns`); there are rho of them.

    The bound H holds for every minor on any set of columns, so every
    prefix of the columns has in that fiber its rank over Q(t), and a
    column adds to the fiber's rank exactly when it adds to the rank over
    Q(t).  A matrix with no rows or no columns has none and evaluates no
    fiber.
    """
    if not min(rows, len(columns)):
        return []
    fiber = _fiber(columns, _generic_point(columns, rows))
    return linalg.pivot_columns({c: x for c, x in enumerate(row) if x} for row in zip(*fiber))


def _int_echelon(rows: list[_IntRow]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Pivot columns and pivot polynomials of a row echelon over Q[x] of
    integer rows; the list's rows are replaced as they are reduced.

    In each column the live row of least degree pseudo-divides the others
    until one is left (`_sub_multiple`).  A step replaces a row by
    a * row - q * pivot row, a a nonzero integer and q in Z[x], and divides
    the result by an integer, its content.  Subtracting a multiple of
    another row has determinant 1, and scaling a row by a nonzero rational
    is a unit over Q[x], so every step is unimodular over Q[x]: for every
    column set J it keeps the gcd of the k x k minors of the columns J up
    to a constant.
    """
    free = list(range(len(rows)))
    cols, pivots = [], []
    for c in range(len(rows[0]) if rows else 0):
        live = [i for i in free if rows[i][c]]
        while len(live) > 1:
            p = min(live, key=lambda i: len(rows[i][c]))
            for i in live:
                if i != p:
                    rows[i] = _sub_multiple(rows[i], rows[p], c)
            live = [i for i in live if rows[i][c]]
        if live:
            free.remove(live[0])
            cols.append(c)
            pivots.append(rows[live[0]][c])
    return cols, pivots


_IntRow = list[tuple[int, ...]]


def _sub_multiple(row: _IntRow, pivot_row: _IntRow, c: int) -> _IntRow:
    """Pseudo-remainder of row by pivot_row in column c, divided by its content.

    Both rows vanish before column c and deg row[c] >= deg pivot_row[c].
    One leading term at a time, with g = gcd(lc u, lc v) of the entries u
    of row and v of pivot_row in column c, the row becomes
    (lc v / g) * row - (lc u / g) * t^off * pivot_row, until deg u < deg v.
    The result is divided by the gcd of its coefficients, signed so that
    its last nonzero coefficient is positive (`_int_primitive`'s convention).
    """
    v = pivot_row[c]
    while len(row[c]) >= len(v):
        u = row[c]
        g = int_gcd(u[-1], v[-1])
        f, h, off = v[-1] // g, u[-1] // g, len(u) - len(v)
        row = row[:c] + [_combine(f, x, h, off, y) for x, y in zip(row[c:], pivot_row[c:])]
    g = 0
    for e in row:
        g = int_gcd(g, *e)
        if g == 1:
            break
    if next((e[-1] for e in reversed(row) if e), 0) < 0:
        g = -g
    if g in (0, 1):
        return row
    return [tuple(x // g for x in e) for e in row]


def _combine(f: int, x: tuple[int, ...], h: int, off: int, y: tuple[int, ...]) -> tuple[int, ...]:
    """f * x - h * t^off * y, ascending coefficients, trimmed."""
    out = [f * w for w in x]
    out += [0] * (off + len(y) - len(out))
    for j, w in enumerate(y):
        out[off + j] -= h * w
    return _trimmed(out)


def _int_full_rank_minor_gcd(rows: Sequence[_IntRow]) -> tuple[int, ...]:
    """The normalized gcd of the maximal minors of the form matrix with
    these rows, which must have full column rank over Q(t); an entry is
    the integer coefficient tuple of a form, ascending in t, () for zero,
    and so is the gcd: content divided out, last nonzero coefficient
    positive (`_int_primitive`, `_normalized`'s convention).

    The echelons run on sub, the columns sorted stably by ascending
    largest entry degree, so that the low-degree columns are eliminated
    first and the high-degree ones meet small remainders.  A column
    permutation changes each maximal minor by a sign only, so the gcd is
    that of the matrix.  The echelon of sub on the chart s = 1 is
    triangular with the pivots on the diagonal after unimodular steps, so
    on the chart the gcd is their product (Kannan & Bachem, SIAM J.
    Comput. 8(4), 1979), and `_int_primitive` fixes its constant.
    Homogenizing it misses only s^m, m the order of the gcd at [0:1]: zero
    when the fiber of sub there, the top coefficients, has full rank, else
    the summed order at s = 0 of the pivots of sub on the chart t = 1.  An
    echelon with fewer pivots than there are columns means that the matrix
    did not have full column rank: an `InvariantError`.
    """
    n = len(rows[0]) if rows else 0
    order = sorted(range(n), key=lambda j: max(len(row[j]) for row in rows if row[j]))
    sub = [[row[j] for j in order] for row in rows]
    pivots = _int_echelon([[_trimmed(p) for p in row] for row in sub])[1]
    if len(pivots) != n:
        raise InvariantError(f"echelon of {n} independent columns has {len(pivots)} pivots")
    g = [1]
    for p in pivots:
        g = add_product(None, g, p)
    if linalg.rank([[p[-1] if p else 0 for p in row] for row in sub]) < n:
        at_t = _int_echelon([[_trimmed(p[::-1]) for p in row] for row in sub])[1]
        g += [0] * sum(next(k for k, x in enumerate(p) if x) for p in at_t)  # times s^m
    return _int_primitive(g)


def _int_primitive(p: Sequence[int]) -> tuple[int, ...]:
    """The integer form p divided by the gcd of its coefficients, signed so
    that its last nonzero coefficient is positive (`_normalized`'s
    convention); () for zero."""
    g = int_gcd(*p)
    if not g:
        return ()
    if next(x for x in reversed(p) if x) < 0:
        g = -g
    return tuple(p) if g == 1 else tuple([x // g for x in p])


# ---------------------------------------------------------------------------
# display factoring


def factor_binary_form(p: HomogPoly) -> tuple[Fraction, list[tuple[HomogPoly, int]]]:
    """Split off s, t and rational linear factors.

    Returns (constant, [(primitive_factor, multiplicity), ...]) with
    constant * product == p exactly; a rational-root-free remainder, when
    present, is the last factor with multiplicity 1.

    p is cleared once (`linalg.cleared`) to the integer form P = L p, and
    every step is on integers: s^a t^b splits off as the zeros at the two
    ends of P, the core between them is made primitive (`_int_primitive`),
    and each rational root u/q in lowest terms (`_rational_root`) is
    divided out as the factor q t - u, exactly, by Gauss's lemma
    (`_deflate`).  The product Q of the factors must be proportional to
    P, which is checked by cross-multiplication, P[k] Q[b] = P[b] Q[k]
    for every k; the constant is then P[b] / (L Q[b]).  Only the returned
    factors are forms.
    """
    if p.is_zero():
        return ZERO, []
    (ints,), den = linalg.cleared((p.coeffs,))
    nonzero = [k for k, x in enumerate(ints) if x]
    b, a = nonzero[0], len(ints) - 1 - nonzero[-1]
    factors: list[tuple[HomogPoly, int]] = []
    if a:
        factors.append((HomogPoly.monomial(1, 0), a))
    if b:
        factors.append((HomogPoly.monomial(1, 1), b))
    core = _int_primitive(ints[b : len(ints) - a])
    lin: dict[Fraction, int] = {}
    while len(core) > 1:
        root = _rational_root(core)
        if root is None:
            break
        core = _int_primitive(_deflate(core, root))
        lin[root] = lin.get(root, 0) + 1
    product = [1]
    for root in sorted(lin):
        linear = (-root.numerator, root.denominator)
        factors.append((form(linear), lin[root]))
        for _ in range(lin[root]):
            product = add_product(None, product, linear)
    if len(core) > 1:
        factors.append((form(core), 1))
        product = add_product(None, product, core)
    product = [0] * b + product + [0] * a
    top = product[b]
    if len(product) != len(ints) or any(x * top != ints[b] * y for x, y in zip(ints, product)):
        raise InvariantError(f"factors of {p} do not multiply back to it")
    return Fraction(ints[b], den * top), factors


def format_factored(p: HomogPoly) -> str:
    """Human-readable factored form, deterministic for equal inputs."""
    if p.is_zero():
        return "0"
    const, factors = factor_binary_form(p)
    parts = [] if const == 1 and factors else [str(const)]
    for f, mult in factors:
        text = str(f)
        if not f.is_zero() and (f.degree > 0 and sum(1 for c in f.coeffs if c != 0) > 1):
            text = f"({text})"
        parts.append(text if mult == 1 else f"{text}^{mult}")
    return " * ".join(parts)


def _rational_root(core: Sequence[Fraction]) -> Fraction | None:
    """A rational root of the primitive integer polynomial core, ascending
    coefficients, or None.

    A root p/q in lowest terms has p dividing a_0 and q dividing a_n, and
    by Cauchy's bound |p/q| <= 1 + max |a_i / a_n| (i < n), and for the
    reversal |q/p| <= 1 + max |a_i / a_0| (i > 0).  Each divisor list is
    found once; a candidate is tested on integers,
    sum a_i p^i q^(n - i) = 0, the form core at [q : p] (`at`).
    """
    ints = [int(c) for c in core]
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 == 0:
        return ZERO
    top = an + max(abs(x) for x in ints[:-1])  # |p/q| * an <= top
    bottom = a0 + max(abs(x) for x in ints[1:])  # |q/p| * a0 <= bottom
    qs = sorted(_divisors(an))
    for p in sorted(_divisors(a0)):
        for q in qs:
            if q * a0 > p * bottom:
                break
            if p * an > q * top or int_gcd(p, q) != 1:
                continue
            for cand in (p, -p):
                if at(ints, cand, q) == 0:
                    return Fraction(cand, q)
    return None


def _deflate(core: Sequence[int], root: Fraction) -> list[int]:
    """The integer polynomial core, ascending coefficients, divided by
    q t - p, root = p / q in lowest terms.  q t - p is primitive, so when
    root is a root of core the quotient has integer coefficients (Gauss's
    lemma) and every step divides exactly; a step that does not, or a
    nonzero remainder, shows that root is not a root."""
    p, q = root.as_integer_ratio()
    out = []
    acc = 0
    for c in core[:0:-1]:  # b_(k-1) = (c_k + p b_k) / q from the top
        acc, r = divmod(c + p * acc, q)
        if r:
            break
        out.append(acc)
    else:
        if core[0] + p * acc == 0:
            return out[::-1]
    rem = Fraction(at(core, p, q), q ** (len(core) - 1))  # core at root
    raise InvariantError(f"{root} is not a root: remainder {rem}")


def _divisors(n: int) -> list[int]:
    if n <= 0:
        raise InvariantError(f"divisors of non-positive {n}")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out
