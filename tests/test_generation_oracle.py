"""`generation_columns` against the Gauss-Jordan membership test it replaced.

`generation_columns` keeps one integer pivot table per (vertex, twist) and
asks `linalg.add_row` whether a new flattened column is independent.  The
reference here recomputes the rref row basis of the kept columns plus the
candidate with `linalg.row_space_basis` and keeps the candidate iff the
basis grew.  The two must keep exactly the same columns in the same order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from quiverbundles import linalg
from quiverbundles.bundles import _framing_vertex, generation_columns
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.polynomials import HomogPoly
from quiverbundles.quivers import HypothesisError, InvariantError
from quiverbundles.serialization import parse_document

from _builders import rational_gauge

FIXTURES = Path(__file__).parent / "fixtures"
ZERO = Fraction(0)


def _flatten_column(
    col: tuple[HomogPoly, ...], twist: int, row_degrees: tuple[int, ...]
) -> tuple[Fraction, ...]:
    # columns of one twist share a forced per-row degree pattern, so they
    # flatten to aligned coefficient vectors
    flat: list[Fraction] = []
    for r, entry in enumerate(col):
        width = max(0, row_degrees[r] + twist + 1)
        cs = list(entry.coeffs) if not entry.is_zero() else []
        if len(cs) > width:
            raise InvariantError(f"entry of degree {len(cs) - 1} in a row of width {width}")
        flat.extend(cs + [ZERO] * (width - len(cs)))
    return tuple(flat)


def _poly_dot(row: tuple[HomogPoly, ...], col: tuple[HomogPoly, ...]) -> HomogPoly:
    acc = HomogPoly.zero()
    for a, b in zip(row, col):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


def rref_generation_columns(e):
    framing = _framing_vertex(e)
    if any(d != 0 for d in e.bundles[framing].multidegree):
        raise HypothesisError("framing bundle must be trivial for generation analysis")
    v0 = e.bundles[framing].rank
    cap = sum(e.bundles[i].rank for i in e.double.ordinary_vertices)
    out = {i: [] for i in e.double.ordinary_vertices}
    bases = {}
    frontier = [
        (framing, 0, tuple(HomogPoly.constant(1 if r == c else 0) for r in range(v0)))
        for c in range(v0)
    ]
    for _ in range(cap):
        nxt = []
        for vertex, twist, col in frontier:
            for a in e.double.arrows:
                if a.tail != vertex or a.head == framing:
                    continue
                image = tuple(_poly_dot(row, col) for row in e.phi[a.name])
                if all(x.is_zero() for x in image):
                    continue
                new_twist = twist + e.twist.degree(a.name)
                flat = _flatten_column(image, new_twist, e.bundles[a.head].multidegree)
                basis = bases.setdefault((a.head, new_twist), [])
                reduced = linalg.row_space_basis(tuple(basis) + (flat,))
                if len(reduced) == len(basis):
                    continue
                bases[(a.head, new_twist)] = list(reduced)
                out[a.head].append((new_twist, image))
                nxt.append((a.head, new_twist, image))
        frontier = nxt
        if not frontier:
            break
    return out


def _outcome(fn, e):
    try:
        return fn(e)
    except HypothesisError as err:
        return ("HypothesisError", str(err))


def test_generation_columns_match_rref_membership():
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    fixtures = [parse_document(d).bundle for d in docs if d["kind"] == "bundle"]
    specs = [bundle_spec(k, 0) for k in range(192)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (5, 6, 7)
        for s in range(4)
    ]
    instances = fixtures + [gen_bundle(spec) for spec in specs]
    kept = 0
    for e in instances:
        want = _outcome(rref_generation_columns, e)
        assert _outcome(generation_columns, e) == want
        if isinstance(want, dict):
            kept += sum(len(cols) for cols in want.values())
    assert kept > 500


def test_generation_columns_match_rref_membership_under_a_rational_gauge():
    # every arrow carries denominators 3, 5 and 7, so each step of a word
    # meets a common denominator L_a > 1
    specs = [bundle_spec(k, 0) for k in range(96)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (5, 6)
        for s in range(2)
    ]
    kept = fractional = 0
    for spec in specs:
        e = rational_gauge(gen_bundle(spec))
        want = _outcome(rref_generation_columns, e)
        assert _outcome(generation_columns, e) == want
        if isinstance(want, dict):
            kept += sum(len(cols) for cols in want.values())
            fractional += any(
                x.denominator > 1
                for cols in want.values()
                for _, col in cols
                for f in col
                for x in f.coeffs
            )
    assert kept > 200 and fractional > 50
