"""The integer echelon over Z[t] against the `Fraction` echelon it replaced.

`_echelon` clears the denominators of each row once and then
pseudo-divides integer rows.  The reference below is the Euclidean echelon
over Q[t] that did every step in `Fraction`, kept verbatim.  Every row of
the new echelon is a nonzero rational multiple of the reference row, so
the pivot columns, the pivots up to a constant, `generic_rank` and
`_minor_gcd` must all agree.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from quiverbundles import linalg
from quiverbundles.bundles import residual_is_zero
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.polynomials import (
    ZERO,
    HomogPoly,
    _normalized,
    _primitive,
    _trimmed,
    _univ_divmod,
    generic_rank,
    poly_mat_eval,
)
from quiverbundles.serialization import parse_document

from _oracles import _chart, _echelon, _generation_matrices, _minor_gcd

FIXTURES = Path(__file__).parent / "fixtures"
S = HomogPoly.monomial(1, 0)
T = HomogPoly.monomial(1, 1)


# ---------------------------------------------------------------------------
# reference: the Euclidean echelon over Q[t] in `Fraction`


def ref_echelon(rows):
    rows = [list(r) for r in rows]
    free = list(range(len(rows)))
    cols, pivots = [], []
    for c in range(len(rows[0]) if rows else 0):
        live = [i for i in free if rows[i][c]]
        while len(live) > 1:
            p = min(live, key=lambda i: len(rows[i][c]))
            for i in live:
                if i != p:
                    rows[i] = ref_sub_multiple(rows[i], rows[p], c)
            live = [i for i in live if rows[i][c]]
        if live:
            free.remove(live[0])
            cols.append(c)
            pivots.append(rows[live[0]][c])
    return cols, pivots


def ref_sub_multiple(row, pivot_row, c):
    q = _univ_divmod(row[c], pivot_row[c])[0]
    out = row[:c]
    for u, v in zip(row[c:], pivot_row[c:]):
        diff = list(u) + [ZERO] * max(0, len(q) + len(v) - 1 - len(u))
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(v):
                    diff[i + j] -= x * y
        out.append(_trimmed(diff))
    flat = iter(_primitive([x for e in out for x in e]))
    return [tuple(islice(flat, len(e))) for e in out]


def ref_minor_gcd(a, cols, pivots):
    """`_minor_gcd` of a from the reference echelon of its chart s = 1."""
    g = HomogPoly.constant(1)
    for p in pivots:
        g = g * HomogPoly(len(p) - 1, p)
    sub = tuple(tuple(row[j] for j in cols) for row in a)
    if linalg.rank(poly_mat_eval(sub, 0, 1)) < len(cols):
        order = sum(
            next(k for k, x in enumerate(p) if x) for p in ref_echelon(_chart(sub, True))[1]
        )
        g = g * HomogPoly.monomial(order, 0)
    return cols, _normalized(g)


# ---------------------------------------------------------------------------
# comparison


def is_multiple(p, q):
    """p = c * q for a nonzero rational c."""
    if len(p) != len(q):
        return False
    k = next(k for k, x in enumerate(q) if x)
    c = p[k] / q[k]
    return c != 0 and all(x == c * y for x, y in zip(p, q))


def same_echelon(rows):
    """The reference echelon of rows, after checking the new one against it."""
    cols, pivots = _echelon(rows)
    ref_cols, ref_pivots = ref_echelon(rows)
    assert cols == ref_cols
    assert len(pivots) == len(ref_pivots)
    for p, q in zip(pivots, ref_pivots):
        assert all(type(x) is Fraction for x in p)
        assert is_multiple(p, q), (p, q)
    return ref_cols, ref_pivots


def assert_agrees(a):
    """Echelon, generic rank and minor gcd of a and of its transpose;
    returns how many of the two ran the t = 1 chart."""
    t_chart = 0
    for m in (a, tuple(zip(*a))):
        ref_cols, ref_pivots = same_echelon(_chart(m))
        assert generic_rank(m) == len(ref_cols)
        cols, g = _minor_gcd(m)
        assert (cols, g) == ref_minor_gcd(m, ref_cols, ref_pivots)
        sub = tuple(tuple(row[j] for j in cols) for row in m)
        t_chart += linalg.rank(poly_mat_eval(sub, 0, 1)) < len(cols)
    return t_chart


# ---------------------------------------------------------------------------
# inputs


@pytest.fixture(scope="module")
def instances():
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    fixtures = [parse_document(d).bundle for d in docs if d["kind"] == "bundle"]
    specs = [bundle_spec(k, 0) for k in range(192)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (5, 6, 7)
        for s in range(4)
    ]
    generated = [gen_bundle(spec) for spec in specs]
    return [e for e in fixtures + generated if residual_is_zero(e)]


def test_echelon_matches_fraction_reference_on_generation_matrices(instances):
    assert len(instances) > 190
    for e in instances:
        for matrix, _ in _generation_matrices(e).values():
            assert_agrees(matrix)


def _random_rational_form(rng, degree):
    """A form whose coefficients have denominators 2 to 7, zero at times."""
    return HomogPoly.of(
        degree,
        [
            0 if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.randint(2, 7))
            for _ in range(degree + 1)
        ],
    )


def test_echelon_matches_fraction_reference_on_random_rational_matrices():
    rng = random.Random(17)
    negative_leads = t_chart = deficient = 0
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        row_degrees = [rng.randint(0, 2) for _ in range(m)]
        col_degrees = [rng.randint(0, 2) for _ in range(n)]
        a = [
            [
                HomogPoly.zero() if rng.random() < 0.2 else _random_rational_form(rng, r + c)
                for c in col_degrees
            ]
            for r in row_degrees
        ]
        # a forced factor s in one column, so that the t = 1 chart runs
        j = rng.randrange(n)
        factor = rng.choice([S, S * S, S * T])
        for row in a:
            row[j] = row[j] * factor
        if m > 1 and rng.random() < 0.3:
            # a rational multiple of another row: the echelon drops rank
            k = rng.randrange(1, m)
            a[k] = [e.scaled(Fraction(-3, 5)) for e in a[0]]
            deficient += 1
        a = tuple(tuple(row) for row in a)
        negative_leads += any(p[-1] < 0 for p in same_echelon(_chart(a, True))[1])
        t_chart += assert_agrees(a)
    assert negative_leads > 20 and t_chart > 40 and deficient > 5
