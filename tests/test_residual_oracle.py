"""The integer moment residual against the form products it replaced.

`representations._residual`, which `bundles` calls, sums the signed
integer products of the arrows' integer rows over one common denominator
L of all the arrows.  The reference here
is the former `moment_residual_sheaf`, kept verbatim: the sum of the
products Phi_a Phi_abar of `Fraction`-valued forms (`poly_matmul`).
`moment_residual_sheaf` and `residual_is_zero` must equal it entrywise on
data on and off the relation, under rational gauges whose denominators
differ per arrow, on arrows with pairwise coprime denominators, and with
zero-rank vertices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from quiverbundles.bundles import (
    TwistedQuiverBundle,
    moment_residual_sheaf,
    residual_is_zero,
    validate,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.polynomials import (
    HomogPoly,
    PolyMatrix,
    poly_mat_is_zero,
    poly_matmul,
    poly_zeros,
)
from quiverbundles.serialization import parse_document

from _builders import chain_bundle, coprime_adhm, form, poly_mat, rational_gauge

FIXTURES = Path(__file__).parent / "fixtures"


def reference_residual_sheaf(e: TwistedQuiverBundle) -> dict[str, PolyMatrix]:
    out: dict[str, PolyMatrix] = {}
    for i in e.double.ordinary_vertices:
        n = e.bundles[i].rank
        acc = poly_zeros(n, n)
        for a in e.double.arrows:
            if a.head != i or not e.bundles[a.tail].rank:
                continue  # a product through a zero-rank vertex is zero
            term = poly_matmul(e.phi[a.name], e.phi[a.opposite])
            if a.sign == 0:
                acc = tuple(
                    tuple(x + y for x, y in zip(ra, rt)) for ra, rt in zip(acc, term)
                )
            else:
                acc = tuple(
                    tuple(x - y for x, y in zip(ra, rt)) for ra, rt in zip(acc, term)
                )
        out[i] = acc
    return out


def reference_residual_is_zero(e: TwistedQuiverBundle) -> bool:
    return all(poly_mat_is_zero(m) for m in reference_residual_sheaf(e).values())


def perturbed(e: TwistedQuiverBundle) -> TwistedQuiverBundle | None:
    """e with s^d added to one arrow entry of forced degree d >= 0, the
    first such change (arrows, rows, columns in order) that puts the data
    off the relation by the reference, or None."""
    for a in e.double.arrows:
        for k, row in enumerate(e.phi[a.name]):
            for l, entry in enumerate(row):
                d = e.entry_degree(a.name, k, l)
                if d < 0:
                    continue
                m = [list(r) for r in e.phi[a.name]]
                m[k][l] = entry + HomogPoly.monomial(d, 0)
                phi = dict(e.phi)
                phi[a.name] = poly_mat(m)
                f = TwistedQuiverBundle(e.double, e.bundles, e.twist, phi)
                if not reference_residual_is_zero(f):
                    return f
    return None


def _corpus() -> list[TwistedQuiverBundle]:
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("bundle_*.json"))]
    out = [parse_document(d).bundle for d in docs]
    out += [gen_bundle(bundle_spec(k, s)) for s in (0, 3) for k in range(96)]
    out += [
        gen_bundle(InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s))
        for r in range(3, 9)
        for f in (1, 2)
        for s in range(4)
    ]
    return out + [coprime_adhm()]


def _assert_equal(e: TwistedQuiverBundle) -> bool:
    want = reference_residual_sheaf(e)
    assert moment_residual_sheaf(e) == want
    zero = reference_residual_is_zero(e)
    assert residual_is_zero(e) is zero
    return zero


def test_residual_equals_the_form_product_reference():
    zero = nonzero = fractional = 0
    for e in _corpus():
        gauged = rational_gauge(e)
        for f in (e, perturbed(e), gauged, perturbed(gauged)):
            if f is None:
                continue
            if _assert_equal(f):
                zero += 1
            else:
                nonzero += 1
            fractional += any(
                x.denominator > 1
                for m in moment_residual_sheaf(f).values()
                for row in m
                for entry in row
                for x in entry.coeffs
            )
    assert zero > 400 and nonzero > 100 and fractional > 40


def _denominator(m: PolyMatrix) -> int:
    return lcm(*(x.denominator for row in m for f in row for x in f.coeffs))


def test_residual_with_a_different_denominator_per_arrow():
    # the gauge conjugation gives the arrows different denominators, and
    # the perturbation leaves a residual over their common denominator
    specs = [bundle_spec(k, 9) for k in range(48)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (3, 4, 5, 6)
        for s in range(4)
    ]
    mixed = off = 0
    for spec in specs:
        e = rational_gauge(gen_bundle(spec), Fraction(3, 5))
        assert _assert_equal(e)
        bumped = perturbed(e)
        if bumped is not None:
            off += not _assert_equal(bumped)
        mixed += len({_denominator(m) for m in e.phi.values() if any(any(r) for r in m)}) > 1
    assert mixed > 30 and off > 12


def test_residual_with_a_zero_rank_tail_vertex():
    # vertex 2 of the chain has rank 0, so e+ and e- are empty and every
    # product through vertex 2 is zero; the residual at vertex 1 is f+ f-
    zero = HomogPoly.zero()
    e = chain_bundle((0, -2), (), f=[[form(0, 3)], [zero]])
    assert _assert_equal(e)
    phi = dict(e.phi)
    phi["f-"] = poly_mat([[zero, form(0, Fraction(1, 2))]])
    e = TwistedQuiverBundle(e.double, e.bundles, e.twist, phi)
    assert validate(e).valid
    assert _assert_equal(e) is False
    assert moment_residual_sheaf(e) == {
        "1": ((zero, form(0, Fraction(3, 2))), (zero, zero)),
        "2": (),
    }
    assert _assert_equal(rational_gauge(e)) is False
