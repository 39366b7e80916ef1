"""`generation_columns` against the Gauss-Jordan membership test it replaced.

`generation_columns` keeps one integer pivot table per (vertex, twist) and
asks `linalg.add_row` whether a new flattened column is independent.  The
reference here recomputes the rref row basis of the kept columns plus the
candidate with `linalg.row_space_basis` and keeps the candidate iff the
basis grew.  The two must keep exactly the same columns in the same order.
"""

from __future__ import annotations

import json
from pathlib import Path

from quiverbundles import linalg
from quiverbundles.bundles import (
    _flatten_column,
    _framing_vertex,
    _poly_dot,
    generation_columns,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.polynomials import HomogPoly
from quiverbundles.quivers import HypothesisError
from quiverbundles.serialization import parse_document

FIXTURES = Path(__file__).parent / "fixtures"


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
