"""The echelon over Q[t] against the minor enumeration it replaced.

`base_locus`, `generated_subsheaf_summary` and `generic_rank` read their
answers from one echelon of a form matrix over Q[t]
(`_minor_gcd`).  The references here enumerate minors through
the cofactor `poly_det`, take pairwise gcds with `poly_gcd`, and sample
ranks at rational points.  The two must agree exactly.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from quiverbundles import asymptotic_equivalence_check, linalg
from quiverbundles.bundles import (
    BaseLocusReport,
    base_locus,
    generated_subsheaf_summary,
    is_stable_quasimap,
    residual_is_zero,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.polynomials import (
    HomogPoly,
    _normalized,
    generic_rank,
    poly_det,
    poly_gcd,
    poly_mat_eval,
)
from quiverbundles.serialization import parse_document

from _oracles import _generation_matrices, _minor_gcd

FIXTURES = Path(__file__).parent / "fixtures"
S = HomogPoly.monomial(1, 0)
T = HomogPoly.monomial(1, 1)


# ---------------------------------------------------------------------------
# references


def sampled_generic_rank(a):
    """Largest rank at the points [1 : k], k = 0 .. maxdeg * min(m, n) + 1;
    a nonzero r x r minor vanishes at no more than maxdeg * r of them."""
    m, n = len(a), len(a[0]) if a else 0
    if m == 0 or n == 0:
        return 0
    maxdeg = max((e.degree for row in a for e in row if not e.is_zero()), default=0)
    return max(
        linalg.rank(poly_mat_eval(a, 1, k)) for k in range(maxdeg * min(m, n) + 2)
    )


def submatrix(a, rows, cols):
    return tuple(tuple(a[k][j] for j in cols) for k in rows)


def enumerated_gcd(minors):
    g = HomogPoly.zero()
    for minor in minors:
        g = poly_gcd(g, minor)
        if g.degree == 0:
            break
    return g


def transpose(a):
    return tuple(zip(*a))


def enumerated_base_locus(e) -> BaseLocusReport:
    """base_locus through every maximal minor of each generation matrix."""
    total = HomogPoly.constant(1)
    ranks, polys, stable = [], [], True
    for i, (matrix, twists) in _generation_matrices(e).items():
        n = e.bundles[i].rank
        g = enumerated_gcd(
            poly_det(submatrix(matrix, range(n), cols))
            for cols in combinations(range(len(twists)), n)
        )
        if g.is_zero():
            stable = False
            ranks.append((i, sampled_generic_rank(matrix)))
        else:
            ranks.append((i, n))
        polys.append((i, g))
        total = total * g
    return BaseLocusReport(total, stable, tuple(ranks), tuple(polys))


def enumerated_summary(e):
    """Per vertex: the sampled generic rank rho, and the set of values
    deg gcd(rho x rho minors of M[:, J]) - tw_J over every independent J."""
    out = []
    for i, (matrix, twists) in _generation_matrices(e).items():
        n = e.bundles[i].rank
        rho = sampled_generic_rank(matrix)
        degrees = set()
        for cols in combinations(range(len(twists)), rho):
            g = enumerated_gcd(
                poly_det(submatrix(matrix, rows, cols)) for rows in combinations(range(n), rho)
            )
            if not g.is_zero():
                degrees.add(g.degree - sum(twists[j] for j in cols))
        out.append((i, rho, degrees))
    return out


# ---------------------------------------------------------------------------
# inputs


@pytest.fixture(scope="module")
def instances():
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    fixtures = [parse_document(d).bundle for d in docs if d["kind"] == "bundle"]
    specs = [bundle_spec(k, 0) for k in range(192)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (5, 6)
        for s in range(4)
    ]
    generated = [gen_bundle(spec) for spec in specs]
    return [e for e in fixtures + generated if residual_is_zero(e)]


def test_base_locus_matches_minor_enumeration(instances):
    assert len(instances) > 190
    for e in instances:
        assert base_locus(e) == enumerated_base_locus(e)


def test_generated_summary_matches_every_independent_column_set(instances):
    for e in instances:
        summary = generated_subsheaf_summary(e)
        for i, rho, degrees in enumerated_summary(e):
            assert summary.rank(i) == rho
            assert degrees == {summary.degree(i)}


def test_generic_rank_matches_sampled_rank(instances):
    for e in instances:
        for matrix, _ in _generation_matrices(e).values():
            assert generic_rank(matrix) == sampled_generic_rank(matrix)
            assert generic_rank(transpose(matrix)) == sampled_generic_rank(matrix)


def _random_form_matrix(rng, row_degrees, col_degrees):
    """Entry (k, j) a random form of degree row_degrees[k] + col_degrees[j],
    zero a quarter of the time, so every minor is homogeneous."""
    return tuple(
        tuple(
            HomogPoly.zero()
            if rng.random() < 0.25
            else HomogPoly.of(r + c, [rng.randint(-3, 3) for _ in range(r + c + 1)])
            for c in col_degrees
        )
        for r in row_degrees
    )


def _with_factor(rng, a, factor):
    """a with one random column multiplied by factor."""
    j = rng.randrange(len(a[0]))
    return tuple(
        tuple(e * factor if k == j else e for k, e in enumerate(row)) for row in a
    )


def test_minor_gcd_random_full_rank_matrices():
    rng = random.Random(11)
    square = wide = divisible_by_s = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [rng.randint(0, 2) for _ in range(n)]
        factor = rng.choice([None, S, S * S, S * T])
        a = _random_form_matrix(rng, rows, [rng.randint(0, 2) for _ in range(n)])
        if factor is not None:
            a = _with_factor(rng, a, factor)
        det = poly_det(a)
        if not det.is_zero():
            square += 1
            cols, g = _minor_gcd(a)
            assert cols == list(range(n))
            assert g == _normalized(det)
            divisible_by_s += g.coeffs[-1] == 0
        # wide: full row rank, gcd over the maximal minors of n of its columns
        w = _random_form_matrix(rng, rows, [rng.randint(0, 2) for _ in range(n + 2)])
        if factor is not None:
            w = transpose(_with_factor(rng, transpose(w), factor))
        minors = enumerated_gcd(
            poly_det(submatrix(w, range(n), cols)) for cols in combinations(range(n + 2), n)
        )
        cols, g = _minor_gcd(transpose(w))
        if minors.is_zero():
            assert len(cols) < n
        else:
            wide += 1
            assert cols == list(range(n))
            assert g == minors
            divisible_by_s += g.coeffs[-1] == 0
    # the chart t = 1 is reached only when the gcd vanishes at [0:1]
    assert square > 30 and wide > 30 and divisible_by_s > 10


def test_minor_gcd_takes_the_pivot_columns():
    # the first two columns are equal, so J = {0, 2}; the gcd s * (s - t)
    # vanishes at [0:1]
    cols, g = _minor_gcd(((S, S, S), (T, T, S)))
    assert cols == [0, 2]
    assert g == _normalized(poly_det(((S, S), (T, S))))


def test_rank_eight_instance_within_budget():
    # minor enumeration took about 30 s here: C(cols, 8) minors by cofactor
    e = gen_bundle(InstanceSpec("adhm", (8,), framing=2, degree_bound=8, seed=3))
    start = time.perf_counter()
    report = base_locus(e)
    asym = asymptotic_equivalence_check(e)
    elapsed = time.perf_counter() - start
    assert report.stable and asym.agree
    assert elapsed < 10.0, f"{elapsed:.1f} s"


def test_rank_ten_instance_within_budget():
    # 13-17 s with the echelon in `Fraction` arithmetic, 3-4.5 s on integer rows
    # (shared 2-CPU host)
    e = gen_bundle(InstanceSpec("adhm", (10,), framing=2, degree_bound=10, seed=2))
    start = time.perf_counter()
    report = base_locus(e)
    stable = is_stable_quasimap(e)
    elapsed = time.perf_counter() - start
    assert report.stable and report.polynomial.degree == 21 and stable
    assert elapsed < 8.0, f"{elapsed:.1f} s"
