"""Shared instance builders for the test suite: matrix and form-matrix
literals, and ADHM- and chain-shaped bundles."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from quiverbundles.bundles import SplitBundle, TwistData, TwistedQuiverBundle
from quiverbundles.linalg import Matrix, Vector
from quiverbundles.polynomials import HomogPoly, PolyMatrix, poly_zeros
from quiverbundles.quivers import Arrow, Quiver, double


def mat(rows: Iterable[Iterable[object]]) -> Matrix:
    """Coerce nested ints / strings / Fractions into a Matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix literal")
    return out


def vec(entries: Iterable[object]) -> Vector:
    return tuple(Fraction(x) for x in entries)


def poly_mat(rows: Iterable[Iterable[HomogPoly]]) -> PolyMatrix:
    out = tuple(tuple(row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in form matrix")
    return out


ADHM_QUIVER = Quiver(
    ("0", "1"), (Arrow("loop", "1", "1"), Arrow("frame", "0", "1")), framing="0"
)
ADHM_DOUBLE = double(ADHM_QUIVER)
ADHM_TWIST = TwistData.of({"loop+": -1, "loop-": -1, "frame+": 0, "frame-": -2})

CHAIN_QUIVER = Quiver(
    ("0", "1", "2"), (Arrow("f", "0", "1"), Arrow("e", "1", "2")), framing="0"
)
CHAIN_DOUBLE = double(CHAIN_QUIVER)
CHAIN_TWIST = TwistData.of({"f+": 0, "f-": -2, "e+": 0, "e-": -2})


def form(degree: int, *coeffs) -> HomogPoly:
    return HomogPoly.of(degree, [Fraction(c) for c in coeffs])


def adhm_bundle(degrees, b1=None, b2=None, iota=None, j=None, r=1) -> TwistedQuiverBundle:
    """ADHM-shaped bundle; omitted blocks default to zero matrices."""
    n = len(degrees)
    bundles = {"0": SplitBundle((0,) * r), "1": SplitBundle(tuple(degrees))}
    phi = {
        "loop+": poly_mat(b1) if b1 else poly_zeros(n, n),
        "loop-": poly_mat(b2) if b2 else poly_zeros(n, n),
        "frame+": poly_mat(iota) if iota else poly_zeros(n, r),
        "frame-": poly_mat(j) if j else poly_zeros(r, n),
    }
    return TwistedQuiverBundle(ADHM_DOUBLE, bundles, ADHM_TWIST, phi)


def chain_bundle(deg1, deg2, f=None, e=None, r=1) -> TwistedQuiverBundle:
    """Framed chain bundle 0 -> 1 -> 2 with reverse arrows zero."""
    n1, n2 = len(deg1), len(deg2)
    bundles = {
        "0": SplitBundle((0,) * r),
        "1": SplitBundle(tuple(deg1)),
        "2": SplitBundle(tuple(deg2)),
    }
    phi = {
        "f+": poly_mat(f) if f else poly_zeros(n1, r),
        "f-": poly_zeros(r, n1),
        "e+": poly_mat(e) if e else poly_zeros(n2, n1),
        "e-": poly_zeros(n1, n2),
    }
    return TwistedQuiverBundle(CHAIN_DOUBLE, bundles, CHAIN_TWIST, phi)


def coprime_adhm() -> TwistedQuiverBundle:
    """Stable ADHM data whose nonzero arrows have pairwise coprime
    denominators: loop+ = N / 2 and loop- = N / 3, which commute, and an
    integral frame+, so their common denominator 6 is none of theirs."""
    zero, one = HomogPoly.zero(), HomogPoly.constant(1)
    n = [[zero, one, form(1, 1, 1)], [zero, zero, one], [zero, zero, zero]]
    return adhm_bundle(
        (2, 1, 0),
        b1=[[p.scaled(Fraction(1, 2)) for p in row] for row in n],
        b2=[[p.scaled(Fraction(1, 3)) for p in row] for row in n],
        iota=[[form(2, 1, 0, -1)], [form(1, 2, 1)], [one]],
    )


GAUGE = (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2), Fraction(7, 3))


def rational_gauge(e: TwistedQuiverBundle, c=Fraction(2, 3)) -> TwistedQuiverBundle:
    """Every arrow scaled by c and conjugated by constant diagonal rational
    matrices at the ordinary vertices (entries cycling through GAUGE): a
    bundle isomorphic to e up to the scale, with denominators in every
    arrow.  The moment residual becomes c^2 g r g^-1, zero iff r is."""
    g = {
        v: [Fraction(1)] * e.bundles[v].rank
        if v == e.double.framing
        else [GAUGE[k % len(GAUGE)] for k in range(e.bundles[v].rank)]
        for v in e.double.vertices
    }
    phi = {
        a.name: poly_mat(
            [
                entry.scaled(c * g[a.head][k] / g[a.tail][l])
                for l, entry in enumerate(row)
            ]
            for k, row in enumerate(e.phi[a.name])
        )
        for a in e.double.arrows
    }
    return TwistedQuiverBundle(e.double, e.bundles, e.twist, phi)


def zero_arrow_bundle(e: TwistedQuiverBundle, arrow: str) -> TwistedQuiverBundle:
    """Copy with one arrow matrix zeroed; residual preservation is on the caller."""
    a = e.double.arrow(arrow)
    rows, cols = e.bundles[a.head].rank, e.bundles[a.tail].rank
    phi = dict(e.phi)
    phi[arrow] = poly_zeros(rows, cols)
    return TwistedQuiverBundle(e.double, e.bundles, e.twist, phi)
