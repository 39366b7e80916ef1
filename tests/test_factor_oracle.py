"""The integer display factoring against the `Fraction` one it replaced.

`polynomials.factor_binary_form` clears a form once and splits off s^a t^b,
the primitive core and its rational linear factors on integers.  The
reference is the former routine on rational forms, kept verbatim in
`_oracles.fraction_factor_binary_form`.  On seeded forms both must give the
same constant, the same factor list and the same `format_factored` text.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quiverbundles import polynomials
from quiverbundles.polynomials import HomogPoly, factor_binary_form, format_factored
from quiverbundles.quivers import InvariantError

from _oracles import fraction_factor_binary_form

S, T = HomogPoly.monomial(1, 0), HomogPoly.monomial(1, 1)


def _rational(rng: random.Random, height: int) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, 5))


def _product_form(rng: random.Random) -> HomogPoly:
    """A nonzero rational constant times s^a t^b, rational linear factors
    q t - r s (some repeated) and at most one random remainder."""
    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    p = HomogPoly.constant(c)
    for _ in range(rng.randint(0, 3)):
        p = p * S
    for _ in range(rng.randint(0, 3)):
        p = p * T
    for _ in range(rng.randint(0, 4)):
        q, r = rng.randint(1, 5), rng.choice([-1, 1]) * rng.randint(1, 6)
        linear = HomogPoly.of(1, [-r, q])
        for _ in range(rng.choice([1, 1, 2, 3])):
            p = p * linear
    if rng.random() < 0.5:
        d = rng.randint(1, 4)
        rest = HomogPoly.of(d, [_rational(rng, 7) for _ in range(d + 1)])
        if not rest.is_zero():
            p = p * rest
    return p


def _random_form(rng: random.Random) -> HomogPoly:
    """Coefficients p / q with q <= 5, zeros likely at both ends."""
    d = rng.randint(0, 6)
    coeffs = [_rational(rng, 9) for _ in range(d + 1)]
    for k in range(d + 1):
        if rng.random() < 0.25:
            coeffs[k] = 0
    return HomogPoly.of(d, coeffs)


def _forms(count: int, seed: int) -> list[HomogPoly]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.append(_product_form(rng) if rng.random() < 0.6 else _random_form(rng))
    return out


def _reference_text(monkeypatch, p: HomogPoly) -> str:
    with monkeypatch.context() as m:
        m.setattr(polynomials, "factor_binary_form", fraction_factor_binary_form)
        return format_factored(p)


def _kinds(p: HomogPoly, factors: list[tuple[HomogPoly, int]]) -> set[str]:
    kinds = set()
    if p.is_zero():
        return {"zero"}
    if p.degree == 0:
        kinds.add("constant")
        c = p.coeffs[0]
        kinds |= {"negative constant"} if c < 0 else set()
        kinds |= {"fractional constant"} if c.denominator > 1 else set()
    if p.coeffs[0] == 0 and p.coeffs[-1] == 0:
        kinds.add("padded at both ends")
    top = next(c for c in reversed(p.coeffs) if c)
    kinds |= {"negative top"} if top < 0 else set()
    kinds |= {"non-monic top"} if abs(top) != 1 else set()
    if max((c.denominator for c in p.coeffs), default=1) == 5:
        kinds.add("denominator 5")
    for f, mult in factors:
        if f.degree == 1 and all(f.coeffs):
            kinds.add("linear")
            kinds |= {"repeated root"} if mult > 1 else set()
            kinds |= {"non-monic root"} if f.coeffs[1] != 1 else set()
        elif f.degree > 1:
            kinds.add("remainder")
    return kinds


def test_integer_factoring_matches_the_fraction_factoring(monkeypatch):
    forms = _forms(3200, 28) + [HomogPoly.zero(), HomogPoly.constant(Fraction(-7, 5))]
    kinds: dict[str, int] = {}
    for p in forms:
        const, factors = factor_binary_form(p)
        want_const, want_factors = fraction_factor_binary_form(p)
        assert type(const) is Fraction and const == want_const
        assert factors == want_factors
        assert all(type(c) is Fraction for f, _ in factors for c in f.coeffs)
        assert format_factored(p) == _reference_text(monkeypatch, p)
        for kind in _kinds(p, factors):
            kinds[kind] = kinds.get(kind, 0) + 1
    assert len(forms) >= 3000
    for kind in (
        "constant",
        "negative constant",
        "fractional constant",
        "padded at both ends",
        "negative top",
        "non-monic top",
        "denominator 5",
        "linear",
        "repeated root",
        "non-monic root",
        "remainder",
    ):
        assert kinds.get(kind, 0) >= 20, (kind, kinds)
    assert kinds["zero"] >= 1


def test_factors_that_do_not_multiply_back_are_an_invariant_error(monkeypatch):
    # a deflation that drops the root's factor without dividing leaves a
    # product that is not proportional to the form
    p = (S + T) * (S + T.scaled(2))
    monkeypatch.setattr(polynomials, "_deflate", lambda core, root: list(core[1:]))
    with pytest.raises(InvariantError, match="do not multiply back"):
        factor_binary_form(p)


def test_deflation_divides_by_q_t_minus_p_exactly():
    # (3t - 2)(t + 1)(5t^2 + 1) by (3t - 2): the quotient on integers
    core = [-2, 1, -7, 5, 15]
    assert polynomials._deflate(core, Fraction(2, 3)) == [1, 1, 5, 5]
    with pytest.raises(InvariantError, match="^1/2 is not a root: remainder 5/4$"):
        polynomials._deflate([1, 0, 1], Fraction(1, 2))
