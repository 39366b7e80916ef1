import random
from fractions import Fraction
from math import floor

import pytest

from quiverbundles.polynomials import HomogPoly
from quiverbundles.quivers import HypothesisError
from quiverbundles.stability import (
    INFINITE_SLOPE,
    NumericalClass,
    Slope,
    _proper_rank_pairs,
    asymptotic_equivalence_check,
    check_delta_stability,
    delta_threshold,
    hn_quotient_bound_check,
    instance_threshold,
    mu_delta,
    n_bound,
    numerical_class,
    slopes,
    subobject_family,
    subsheaf_degree_bound,
    threshold_inequality_holds,
)

from _builders import adhm_bundle, form
from _oracles import CentralCharge, central_charge, slope_of

ZERO = HomogPoly.zero()
ONE = HomogPoly.constant(1)
T = HomogPoly.monomial(1, 1)


def frac(p, q=1):
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# central charges and slopes


def test_central_charge_weighted_example():
    z = central_charge(NumericalClass(1, 2, 3), 2)
    assert (z.re, z.im) == (2, 5)


def test_central_charge_no_framing_is_delta_free():
    c = NumericalClass(0, 3, -4)
    for delta in (1, 5, frac(1, 7)):
        z = central_charge(c, delta)
        assert (z.re, z.im) == (3, -4)


def test_central_charge_framing_only():
    z = central_charge(NumericalClass(1, 0, 0), 1)
    assert (z.re, z.im) == (0, 1)


def test_central_charge_requires_positive_delta():
    with pytest.raises(ValueError):
        central_charge(NumericalClass(1, 1, 0), 0)
    with pytest.raises(ValueError):
        central_charge(NumericalClass(1, 1, 0), frac(-1, 2))


def test_central_charge_additive():
    rng = random.Random(11)
    for _ in range(50):
        a = NumericalClass(rng.randrange(3), rng.randrange(4), rng.randrange(-5, 6))
        b = NumericalClass(rng.randrange(3), rng.randrange(4), rng.randrange(-5, 6))
        delta = frac(rng.randrange(1, 9), rng.randrange(1, 5))
        za, zb, zs = (central_charge(c, delta) for c in (a, b, a + b))
        assert (zs.re, zs.im) == (za.re + zb.re, za.im + zb.im)


def test_slope_ordering():
    assert Slope(frac(1, 2)) < Slope(frac(2, 3))
    assert INFINITE_SLOPE > Slope(frac(10**6))
    assert INFINITE_SLOPE >= INFINITE_SLOPE
    assert not INFINITE_SLOPE > INFINITE_SLOPE
    assert str(INFINITE_SLOPE) == "inf"
    assert str(Slope(frac(5, 2))) == "5/2"


def test_mu_delta_examples():
    assert mu_delta(NumericalClass(1, 2, 3), 2) == Slope(frac(5, 2))
    assert mu_delta(NumericalClass(1, 0, 0), 1) == INFINITE_SLOPE
    for delta in (1, 3, 17):
        assert mu_delta(NumericalClass(0, 4, 6), delta) == Slope(frac(3, 2))


def test_slope_rejects_nonpositive_imaginary_axis():
    with pytest.raises(ValueError):
        slope_of(CentralCharge(Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        mu_delta(NumericalClass(0, 0, -1), 1)


def test_slopes_table_values():
    t = slopes(NumericalClass(1, 2, 3), 2)
    assert t.mu_delta == Slope(frac(5, 2))
    assert t.mu_st == Slope(frac(1))
    assert t.mu1 == Slope(frac(3, 2))
    assert t.mu2_proof == Slope(frac(1))
    assert t.mu2_Z == Slope(frac(2))


def test_slopes_table_framing_only_class():
    t = slopes(NumericalClass(1, 0, 0), 1)
    assert t.mu_delta == INFINITE_SLOPE
    assert t.mu_st == Slope(frac(0))
    assert t.mu1 is None
    assert t.mu2_proof == INFINITE_SLOPE
    assert t.mu2_Z == INFINITE_SLOPE


def test_slopes_rejects_zero_class():
    with pytest.raises(ValueError):
        slopes(NumericalClass(0, 0, 0), 1)


def test_mu_delta_monotone_in_delta():
    grid = [frac(1, 3), 1, 2, frac(7, 2), 10]
    mixed = [mu_delta(NumericalClass(2, 3, -1), d) for d in grid]
    assert all(a < b for a, b in zip(mixed, mixed[1:]))
    flat = [mu_delta(NumericalClass(0, 3, 5), d) for d in grid]
    assert len(set(flat)) == 1


def test_mu_delta_see_saw():
    rng = random.Random(23)
    for _ in range(200):
        a = NumericalClass(rng.randrange(3), rng.randrange(1, 4), rng.randrange(-6, 7))
        b = NumericalClass(rng.randrange(3), rng.randrange(1, 4), rng.randrange(-6, 7))
        delta = frac(rng.randrange(1, 9), rng.randrange(1, 4))
        mu_a, mu_b, mu_s = (mu_delta(c, delta) for c in (a, b, a + b))
        assert (mu_a <= mu_s) == (mu_s <= mu_b)
        assert (mu_a < mu_s) == (mu_s < mu_b)


# ---------------------------------------------------------------------------
# bounds and the threshold


def test_n_bound_values():
    assert n_bound(3, 0, 2) == 8
    assert n_bound(0, 1, 5) == 0
    assert n_bound(-2, 0, 3) == 9
    with pytest.raises(ValueError):
        n_bound(3, 0, 0)
    with pytest.raises(ValueError):
        n_bound(3, -1, 2)


def test_delta_threshold_values():
    assert delta_threshold(1, 2, 0, 9) == 19
    assert delta_threshold(1, 1, 0, 0) == 1


def loop_delta_threshold(v0, v1, mu1_of_e, N):
    """`delta_threshold` as the loop over both charge normalizations and
    every proper rank pair that its closed form replaced."""
    mu1 = Fraction(mu1_of_e)
    best = Fraction(0)
    for scale in (1, 2):
        gaps = [
            abs(Fraction(scale * v0, v1) - Fraction(scale * v0p, v1p))
            for v0p, v1p in _proper_rank_pairs(v0, v1)
            if v1p > 0
        ]
        bound = (N + abs(scale * mu1)) / min(gaps)
        best = max(best, Fraction(floor(bound) + 1))
    return best


def test_delta_threshold_matches_rank_pair_loop():
    rng = random.Random(5)
    for _ in range(3000):
        v0, v1 = rng.randint(1, 6), rng.randint(1, 14)
        mu1 = rng.choice([rng.randint(-40, 40), Fraction(rng.randint(-90, 90), rng.randint(1, 9))])
        n = rng.randint(0, 300)
        got = delta_threshold(v0, v1, mu1, n)
        assert type(got) is Fraction
        assert got == loop_delta_threshold(v0, v1, mu1, n)


def test_delta_threshold_scales_with_bound():
    # the bound is linear in N + |mu1|, so at mu1 = 0 doubling N doubles
    # the output up to rounding
    for v0, v1, n in [(1, 2, 9), (2, 3, 12), (3, 5, 30)]:
        once = delta_threshold(v0, v1, 0, n)
        twice = delta_threshold(v0, v1, 0, 2 * n)
        assert abs(twice - 2 * once) <= 2


def test_delta_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        delta_threshold(0, 2, 0, 5)
    with pytest.raises(ValueError):
        delta_threshold(1, 0, 0, 5)
    with pytest.raises(ValueError):
        delta_threshold(1, 2, 0, -1)


def test_threshold_resubstitution_holds_and_is_tight():
    for v0 in range(1, 4):
        for v1 in range(1, 5):
            for mu1 in (0, frac(3, 2), -2):
                for n in (0, 4, 11):
                    d0 = delta_threshold(v0, v1, mu1, n)
                    assert threshold_inequality_holds(v0, v1, mu1, n, d0)
                    assert not threshold_inequality_holds(v0, v1, mu1, n, d0 - 1)


# ---------------------------------------------------------------------------
# instance classes and bounds


def stable_two_step():
    # E1 = O(2) + O(0); one base point at [1:0], generically generated
    return adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[form(2, 1, 0, 0)], [ONE]],
    )


def test_numerical_class_of_bundle():
    assert numerical_class(stable_two_step()) == NumericalClass(1, 2, 2)


def test_subsheaf_degree_bound_worked_instance():
    e = adhm_bundle(
        [3, 0],
        b1=[[ZERO, form(2, 0, 0, 1)], [ZERO, ZERO]],
        iota=[[form(3, 1, 0, 0, 0)], [ONE]],
    )
    assert subsheaf_degree_bound(e) == 21
    assert instance_threshold(e) == 46


# ---------------------------------------------------------------------------
# family verdicts


def test_check_delta_stability_consistent_member():
    v = check_delta_stability(
        NumericalClass(1, 2, 3), 2, [NumericalClass(1, 2, 2)]
    )
    assert v.consistent
    assert not v.refutes_semistability
    assert v.witness is None


def test_check_delta_stability_refuted_member():
    v = check_delta_stability(
        NumericalClass(1, 2, 3), 2, [NumericalClass(1, 2, 2), NumericalClass(0, 1, 4)]
    )
    assert v.refutes_stability
    assert v.refutes_semistability
    assert v.witness == NumericalClass(0, 1, 4)


def test_check_delta_stability_empty_family():
    assert check_delta_stability(NumericalClass(1, 2, 3), 5, []).consistent


def test_check_delta_stability_rejects_malformed_entries():
    total = NumericalClass(1, 2, 3)
    for bad in (
        NumericalClass(0, 0, 0),
        NumericalClass(0, 0, 1),
        total,
        NumericalClass(0, 3, 1),
        NumericalClass(2, 1, 0),
    ):
        with pytest.raises(ValueError):
            check_delta_stability(total, 2, [bad])
    with pytest.raises(ValueError):
        check_delta_stability(total, 2, [(0, 1, 1)])


def test_subobject_family_of_stable_instance():
    # generated class equals the total class, so only the top
    # Harder-Narasimhan step O(2) survives
    assert subobject_family(stable_two_step()) == (NumericalClass(0, 1, 2),)


def test_subobject_family_of_unframed_instance():
    e = adhm_bundle([2, 0])
    fam = subobject_family(e)
    assert NumericalClass(1, 0, 0) in fam
    assert NumericalClass(0, 1, 2) in fam


def test_delta_verdict_strictly_semistable_at_small_delta():
    e = stable_two_step()
    v = check_delta_stability(e, 2, subobject_family(e))
    assert v.refutes_stability and not v.refutes_semistability
    assert v.witness == NumericalClass(0, 1, 2)
    big = check_delta_stability(e, instance_threshold(e), subobject_family(e))
    assert big.consistent


# ---------------------------------------------------------------------------
# asymptotic agreement and the quotient bound


def test_asymptotic_check_stable_instance():
    r = asymptotic_equivalence_check(stable_two_step())
    assert r.stable_quasimap and r.generically_generated
    assert not r.informative_only
    assert r.delta == r.delta0
    assert r.verdict.consistent
    assert r.agree


def test_asymptotic_check_skips_base_point():
    # base locus vanishes at [1:0]; the sampled point must not
    e = stable_two_step()
    r = asymptotic_equivalence_check(e)
    s, t = r.sample_point
    assert t != 0


def test_asymptotic_check_unframed_instance():
    r = asymptotic_equivalence_check(adhm_bundle([2, 0]))
    assert not r.stable_quasimap
    assert not r.generically_generated
    assert r.verdict.refutes_stability
    assert r.verdict.witness == NumericalClass(1, 0, 0)
    assert r.agree


def test_asymptotic_check_below_threshold_is_informative():
    r = asymptotic_equivalence_check(stable_two_step(), delta=1)
    assert r.informative_only
    assert r.agree  # route agreement still required


def test_hn_quotient_bound_single_stratum():
    e = adhm_bundle([0], iota=[[ONE]])
    assert hn_quotient_bound_check(e, 1)


def test_hn_quotient_bound_depends_on_delta():
    e = adhm_bundle(
        [3, 0],
        b1=[[ZERO, form(2, 0, 0, 1)], [ZERO, ZERO]],
        iota=[[form(3, 1, 0, 0, 0)], [ONE]],
    )
    assert not hn_quotient_bound_check(e, 1)
    assert hn_quotient_bound_check(e, instance_threshold(e))
