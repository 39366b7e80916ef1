"""Stability verdicts by fiber ranks against the Q[t] echelon they replaced.

`generic_rank` takes the rank of one fiber beyond Cauchy's root bound;
`generated_subsheaf_summary` reads its degree off the saturation argument
at full rank; `asymptotic_equivalence_check` picks its sample point by
fiber ranks.  Each reference below is the computation those replaced,
kept here: the pivot count of the echelon, the `_minor_gcd` degree, the
left-to-right `_minor_gcd` that the degree-ordered one replaced, and the
first point off the base-locus form.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quiverbundles import asymptotic_equivalence_check, linalg
from quiverbundles.bundles import (
    base_locus,
    generated_subsheaf_summary,
    is_stable_quasimap,
    residual_is_zero,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle, sample_points
from quiverbundles.polynomials import (
    HomogPoly,
    _normalized,
    format_factored,
    generic_rank,
    poly_mat_eval,
)
from quiverbundles.quivers import HypothesisError
from quiverbundles.serialization import parse_document
from quiverbundles.stability import hn_quotient_bound_check, instance_threshold

from _builders import rational_gauge
from _oracles import _chart, _echelon, _generation_matrices, _minor_gcd, _pivot_columns

FIXTURES = Path(__file__).parent / "fixtures"
S = HomogPoly.monomial(1, 0)
T = HomogPoly.monomial(1, 1)


def echelon_rank(a):
    return len(_echelon(_chart(a))[0])


def minor_gcd_summary(e):
    """Per vertex (rank, degree) of the generated subsheaf through the
    gcd of the maximal minors of the pivot columns."""
    out = {}
    for i, (matrix, twists) in _generation_matrices(e).items():
        pivots, g = _minor_gcd(matrix)
        out[i] = (len(pivots), g.degree - sum(twists[j] for j in pivots))
    return out


def left_to_right_minor_gcd(a):
    """`_minor_gcd` as the echelon of a in its own column order, which the
    fiber's pivot columns and the degree-ordered echelon replaced."""
    cols, pivots = _echelon(_chart(a))
    g = HomogPoly.constant(1)
    for p in pivots:
        g = g * HomogPoly(len(p) - 1, p)
    sub = tuple(tuple(row[j] for j in cols) for row in a)
    if linalg.rank(poly_mat_eval(sub, 0, 1)) < len(cols):
        order = sum(
            next(k for k, x in enumerate(p) if x) for p in _echelon(_chart(sub, True))[1]
        )
        g = g * HomogPoly.monomial(order, 0)
    return cols, _normalized(g)


def point_off_base_locus(g):
    k = 1
    while not g.is_zero() and g.evaluate(1, k) == 0:
        k += 1  # a nonzero form has finitely many roots
    return (Fraction(1), Fraction(k))


def adhm(rank, seed):
    return gen_bundle(InstanceSpec("adhm", (rank,), framing=2, degree_bound=rank, seed=seed))


@pytest.fixture(scope="module")
def minor_corpus():
    """The corpus of test_minor_oracle.py: fixtures, the bundle rotation at
    seed 0 and adhm ranks 5 and 6."""
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    fixtures = [parse_document(d).bundle for d in docs if d["kind"] == "bundle"]
    specs = [bundle_spec(k, 0) for k in range(192)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (5, 6)
        for s in range(4)
    ]
    generated = [gen_bundle(spec) for spec in specs]
    return [e for e in fixtures + generated if residual_is_zero(e)]


@pytest.fixture(scope="module")
def adhm_corpus():
    return [adhm(r, s) for r in (5, 6, 7, 8) for s in range(4)]


def test_generic_rank_matches_echelon_pivot_count(minor_corpus):
    short = 0
    for e in minor_corpus:
        for i, (matrix, _) in _generation_matrices(e).items():
            rank = generic_rank(matrix)
            assert rank == echelon_rank(matrix)
            assert generic_rank(tuple(zip(*matrix))) == rank
            short += rank < e.bundles[i].rank
    assert short > 10


def count_points(a):
    calls = []
    rank = linalg.rank

    def counting(m):
        calls.append(m)
        return rank(m)

    linalg.rank = counting
    try:
        return generic_rank(a), len(calls)
    finally:
        linalg.rank = rank


@pytest.mark.parametrize("d", [0, 1, 2, 5, 9])
def test_rank_bound_is_needed_and_sufficient(d):
    # prod_{k=1..d} (t - k s) vanishes at [1 : 1] .. [1 : d], so D + 1
    # points at [1 : k] were needed; the certified point is beyond them all
    f = HomogPoly.constant(1)
    for k in range(1, d + 1):
        f = f * (T - S.scaled(k))
    assert count_points(((f,),)) == (1, 1)
    assert count_points(((HomogPoly.zero(),),)) == (0, 1)


@pytest.mark.parametrize("c", [1, 7, 10**6])
def test_certified_point_clears_the_root_bound(c):
    # t - c s: N = c + 1 = H, so the fiber is taken at t = c + 2; the root
    # t = c sits at H - 1, where a looser point would see rank 0.  Scaled
    # by 1/7, the column clears back to t - c s and to the same point.
    f = T - S.scaled(c)
    assert count_points(((f,),)) == (1, 1)
    assert count_points(((f.scaled(Fraction(1, 7)),),)) == (1, 1)


def test_zero_size_matrices_evaluate_no_fiber():
    for a in ((), ((),), ((), (), ())):
        assert count_points(a) == (0, 0)


def test_generic_rank_stops_at_full_rank():
    # rank 2 at [1 : 1] already; D = 4 would allow five points
    a = ((S * S, T * T), (T * T, S * S + T * T))
    assert count_points(a) == (2, 1)
    assert count_points(((), ())) == (0, 0)


def test_full_rank_summary_matches_minor_gcd(adhm_corpus):
    full = 0
    for e in [gen_bundle(bundle_spec(k, 0)) for k in range(192)] + adhm_corpus:
        if not residual_is_zero(e):
            continue
        summary = generated_subsheaf_summary(e)
        for i, want in minor_gcd_summary(e).items():
            assert (summary.rank(i), summary.degree(i)) == want
            full += want[0] == e.bundles[i].rank
    assert full > 200


@pytest.fixture(scope="module")
def summary_corpus():
    """Every vertex of the bundle rotation at seed 0 and of adhm ranks 5 to
    10, seeds 0 to 3: (bundle, vertex, generation matrix, twists, rank)."""
    bundles = [gen_bundle(bundle_spec(k, 0)) for k in range(192)]
    bundles += [adhm(r, s) for r in range(5, 11) for s in range(4)]
    return [
        (e, i, matrix, twists, generic_rank(matrix))
        for e in bundles
        if residual_is_zero(e)
        for i, (matrix, twists) in _generation_matrices(e).items()
    ]


def by_twist(matrix, twists):
    """The columns of matrix sorted stably by ascending twist, as
    `bundles._summary` hands them to `_minor_gcd`."""
    order = sorted(range(len(twists)), key=twists.__getitem__)
    return tuple(tuple(row[j] for j in order) for row in matrix)


def test_short_rank_summary_matches_left_to_right_minor_gcd(summary_corpus):
    short = large = 0
    for e, i, matrix, twists, rank in summary_corpus:
        if rank == e.bundles[i].rank:
            continue
        pivots, g = left_to_right_minor_gcd(matrix)
        assert len(pivots) == rank
        summary = generated_subsheaf_summary(e)
        assert summary.rank(i) == rank
        assert summary.degree(i) == g.degree - sum(twists[j] for j in pivots)
        short += 1
        large += e.bundles[i].rank >= 9
    assert short > 80 and large > 4


def test_fiber_pivot_columns_match_the_echelon(summary_corpus):
    for e, i, matrix, twists, rank in summary_corpus:
        for a in (matrix, by_twist(matrix, twists)):
            cols = _pivot_columns(a)
            assert cols == _echelon(_chart(a))[0]
            assert len(cols) == rank


@pytest.mark.parametrize("seed", [1, 2])
def test_rank_twelve_verdict_calls_within_budget(seed):
    # about 22 s in `asymptotic_equivalence_check` (seed 1) and 14 s in
    # `base_locus` (seed 2) with the echelon in the generation matrix's own
    # column order (shared 2-CPU host)
    e = adhm(12, seed)
    calls = {
        "is_stable_quasimap": lambda: is_stable_quasimap(e),
        "base_locus": lambda: format_factored(base_locus(e).polynomial),
        "asymptotic_equivalence_check": lambda: asymptotic_equivalence_check(e),
        "hn_quotient_bound_check": lambda: hn_quotient_bound_check(
            e, max(instance_threshold(e), Fraction(1))
        ),
    }
    for name, call in calls.items():
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{name} {elapsed:.1f} s"


def test_asym_sample_point_is_the_first_point_off_the_base_locus(adhm_corpus):
    specs = [gen_bundle(bundle_spec(k, 17)) for k in range(200)]
    moved = stable = 0
    for e in specs + adhm_corpus:
        if not residual_is_zero(e):
            continue
        report = asymptotic_equivalence_check(e)
        locus = base_locus(e)
        assert report.sample_point == point_off_base_locus(locus.polynomial)
        assert report.stable_quasimap == locus.stable
        moved += report.sample_point != (1, 1)
        stable += locus.stable
    assert stable > 50 and moved > 0


def test_rank_twelve_verdicts_within_budget():
    # 9.2 s and 21 s through the Q[t] echelon (shared 2-CPU host)
    e = adhm(12, 2)
    start = time.perf_counter()
    stable = is_stable_quasimap(e)
    mid = time.perf_counter()
    asym = asymptotic_equivalence_check(e)
    end = time.perf_counter()
    assert stable and asym.stable_quasimap and asym.agree
    assert mid - start < 2.0, f"is_stable_quasimap {mid - start:.1f} s"
    assert end - mid < 3.0, f"asymptotic_equivalence_check {end - mid:.1f} s"


def verdicts(e):
    """The `verdicts` outputs of one bundle, or the error it raises."""
    try:
        locus = base_locus(e)
        return (
            is_stable_quasimap(e),
            locus,
            format_factored(locus.polynomial),
            asymptotic_equivalence_check(e),
            hn_quotient_bound_check(e, max(instance_threshold(e), Fraction(1))),
        )
    except HypothesisError as err:
        return str(err)


def test_verdicts_are_invariant_under_a_rational_gauge():
    # the corpus bundles have integer coefficients; the gauged copies put
    # denominators 3, 5, 7 into every arrow and must give the same verdicts
    corpus = [gen_bundle(bundle_spec(k, 0)) for k in range(60)]
    corpus += [adhm(r, s) for r in (5, 6) for s in range(2)]
    stable = 0
    for e in corpus:
        gauged = rational_gauge(e)
        assert residual_is_zero(gauged) == residual_is_zero(e)
        want = verdicts(e)
        assert verdicts(gauged) == want
        stable += want[0] is True
    assert stable > 20


def test_sample_points_within_budget():
    # 15.4 s through the base-locus echelon (shared 2-CPU host)
    e = adhm(12, 2)
    start = time.perf_counter()
    points = sample_points(e, 3)
    elapsed = time.perf_counter() - start
    assert points == ((1, 1), (1, 2), (1, 3))
    assert elapsed < 2.0, f"sample_points {elapsed:.1f} s"
