import dataclasses
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quiverbundles import bundles as bundles_module, linalg, polynomials
from quiverbundles.bundles import (
    SplitBundle,
    TwistData,
    TwistedQuiverBundle,
    base_locus,
    fiber_at,
    generated_subsheaf_summary,
    generation_columns,
    hn_filtration_split,
    hn_step_indices,
    is_stable_quasimap,
    moment_residual_sheaf,
    residual_is_zero,
    subbundle_is_arrow_invariant,
    validate,
)
from quiverbundles.complexes import build_complex
from quiverbundles.generators import InstanceSpec, gen_bundle, sample_points
from quiverbundles.polynomials import HomogPoly, poly_mat_is_zero, poly_zeros
from quiverbundles.quivers import HypothesisError
from quiverbundles.representations import is_stable_framed, moment
from quiverbundles.serialization import bundle_to_doc, parse_document
from quiverbundles.stability import asymptotic_equivalence_check, subobject_family

from _builders import (
    ADHM_DOUBLE,
    ADHM_TWIST,
    adhm_bundle,
    chain_bundle,
    form,
)
from _oracles import TorusElement, generation_matrix

FIXTURES = Path(__file__).parent / "fixtures"

ZERO = HomogPoly.zero()
ONE = HomogPoly.constant(1)
S = HomogPoly.monomial(1, 0)
T = HomogPoly.monomial(1, 1)
ST = S * T


def test_validate_consistent_instance():
    e = adhm_bundle(
        [1, 0],
        b1=[[ZERO, ONE], [ZERO, ZERO]],
        iota=[[form(1, 2, 3)], [ONE]],
    )
    report = validate(e)
    assert report.valid


def test_validate_flags_twist_pairing():
    bad_twist = TwistData.of({"loop+": -1, "loop-": 1, "frame+": 0, "frame-": -2})
    e = TwistedQuiverBundle(
        ADHM_DOUBLE,
        {"0": SplitBundle((0,)), "1": SplitBundle((0,))},
        bad_twist,
        {
            "loop+": ((ZERO,),),
            "loop-": ((ZERO,),),
            "frame+": ((ONE,),),
            "frame-": ((ZERO,),),
        },
    )
    report = validate(e)
    assert not report.valid
    assert any("loop" in v and "pairing" in v for v in report.violations)


def test_validate_names_bad_entry():
    e = adhm_bundle([1, 0], iota=[[ONE], [ONE]])  # row 0 must have degree 1
    report = validate(e)
    assert not report.valid
    assert any("'frame+'" in v and "(0, 0)" in v for v in report.violations)


def test_validate_flags_forced_zero_entry():
    e = adhm_bundle([0, 0], b1=[[ZERO, ZERO], [ONE, ZERO]])  # degree -1 slot
    report = validate(e)
    assert any("must vanish" in v for v in report.violations)


def test_moment_residual_scalar_cases():
    e = adhm_bundle([3], iota=[[form(3, 1, 0, 0, 2)]])
    assert residual_is_zero(e)
    zero_e = adhm_bundle([2])
    assert residual_is_zero(zero_e)


def test_moment_residual_detects_noncommuting_loops():
    # degrees (2,1,0): B entries live one degree step down; the commutator
    # has a constant entry in the corner
    b1 = [
        [ZERO, ONE, ZERO],
        [ZERO, ZERO, ONE],
        [ZERO, ZERO, ZERO],
    ]
    b2 = [
        [ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO],
        [ZERO, ZERO, ZERO],
    ]
    e = adhm_bundle([2, 1, 0], b1=b1, b2=b2)
    assert validate(e).valid
    res = moment_residual_sheaf(e)
    assert not poly_mat_is_zero(res["1"])
    assert res["1"][0][2] == HomogPoly.constant(-1)


def test_fiber_at_evaluates_forms():
    e = adhm_bundle([2], iota=[[ST]])
    assert fiber_at(e, (1, 1)).x["frame+"] == ((Fraction(1),),)
    assert fiber_at(e, (1, 0)).x["frame+"] == ((Fraction(0),),)
    with pytest.raises(ValueError):
        fiber_at(e, (0, 0))


def test_fiber_of_constant_bundle_is_constant_rep():
    e = adhm_bundle([0, 0], iota=[[ONE], [HomogPoly.constant(2)]])
    f1 = fiber_at(e, (1, 5))
    f2 = fiber_at(e, (3, -2))
    assert f1.x == f2.x


def test_base_locus_st_example():
    e = adhm_bundle([2], iota=[[ST]])
    report = base_locus(e)
    assert report.stable
    assert report.polynomial == ST
    assert is_stable_quasimap(e)
    # base points are exactly [1:0] and [0:1]
    assert not is_stable_framed(fiber_at(e, (1, 0))).stable
    assert not is_stable_framed(fiber_at(e, (0, 1))).stable
    assert is_stable_framed(fiber_at(e, (1, 1))).stable


def test_base_locus_zero_framing():
    e = adhm_bundle([2])
    report = base_locus(e)
    assert not report.stable
    assert report.polynomial.is_zero()
    assert not is_stable_quasimap(e)


def test_base_locus_constant_section_empty():
    e = adhm_bundle([0], iota=[[ONE]])
    report = base_locus(e)
    assert report.stable
    assert report.polynomial.degree == 0


GENERATION_ENTRY_POINTS = {
    "base_locus": base_locus,
    "is_stable_quasimap": is_stable_quasimap,
    "generated_subsheaf_summary": generated_subsheaf_summary,
    "subobject_family": subobject_family,
    "asymptotic_equivalence_check": asymptotic_equivalence_check,
    "sample_points": lambda e: sample_points(e, 3),
}


@pytest.mark.parametrize("entry", GENERATION_ENTRY_POINTS)
def test_generation_entry_points_require_zero_residual(entry):
    b1 = [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]]
    b2 = [[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    e = adhm_bundle([2, 1, 0], b1=b1, b2=b2)
    assert not residual_is_zero(e)
    with pytest.raises(HypothesisError, match="moment residual nonzero"):
        GENERATION_ENTRY_POINTS[entry](e)


MIXED_DEGREE_ENTRY_POINTS = {
    "residual_is_zero": residual_is_zero,
    "moment_residual_sheaf": moment_residual_sheaf,
    "is_stable_quasimap": is_stable_quasimap,
    "generation_columns": generation_columns,
    "build_complex": build_complex,
}


@pytest.mark.parametrize("entry", MIXED_DEGREE_ENTRY_POINTS)
def test_loop_entries_of_mixed_degree_raise_degree_mismatch(entry):
    # built without validate: loop+ has entries of degrees 0 and 1 in one
    # row, so loop+ loop- and loop+ iota each add a degree-1 product to a
    # degree-0 one
    e = adhm_bundle(
        [0, 0], b1=[[ONE, S], [S, ONE]], b2=[[ONE, ONE], [ONE, ONE]], iota=[[ONE], [ONE]]
    )
    with pytest.raises(ValueError) as info:
        MIXED_DEGREE_ENTRY_POINTS[entry](e)
    assert type(info.value) is ValueError
    assert str(info.value) == "degree mismatch 0 + 1"


def test_stable_fixture_base_locus_factors_as_one_point():
    # the stable ADHM fixture fails framing generation only at [3 : -1]
    doc = json.loads((FIXTURES / "bundle_adhm_stable.json").read_text())
    report = base_locus(parse_document(doc).bundle)
    assert report.stable and polynomials.format_factored(report.polynomial) == "(s + 3*t)"


def test_full_rank_base_locus_within_budget():
    # `_int_full_rank_minor_gcd` eliminates the low-degree columns first:
    # the echelon of this 12 x 12 gcd takes milliseconds in ascending order
    # of largest entry degree and 8-12 s in generation or descending order
    e = gen_bundle(InstanceSpec("adhm", (12,), framing=2, degree_bound=12, seed=2))
    start = time.perf_counter()
    report = base_locus(e)
    elapsed = time.perf_counter() - start
    assert report.stable and report.polynomial.degree == 30
    assert elapsed < 2.0, f"{elapsed:.1f} s"


def test_base_locus_two_summand_word_generation():
    # generation needs the loop word: iota alone has rank 1
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[S * S], [ONE]],
    )
    assert validate(e).valid
    report = base_locus(e)
    assert report.stable
    assert report.polynomial == T
    assert not is_stable_framed(fiber_at(e, (1, 0))).stable
    assert is_stable_framed(fiber_at(e, (1, 2))).stable


def test_stability_agrees_with_fibers_at_random_points():
    rng = random.Random(6)
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[form(2, 1, -1, 2)], [ONE]],
    )
    report = base_locus(e)
    assert report.stable
    for _ in range(10):
        z = (1, Fraction(rng.randint(-20, 20)))
        fiber_ok = is_stable_framed(fiber_at(e, z)).stable
        on_locus = report.polynomial.evaluate(*z) == 0
        assert fiber_ok == (not on_locus)


def test_residual_zero_implies_fiber_moment_zero():
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        b2=[[ZERO, S], [ZERO, ZERO]],
        iota=[[S * S], [ONE]],
    )
    assert residual_is_zero(e)
    for z in [(1, 0), (1, 3), (2, 5), (0, 1)]:
        res = moment(fiber_at(e, z))
        assert all(linalg.is_zero_matrix(m) for m in res.values())


def test_fiber_stability_invariant_under_torus_rescaling():
    from _oracles import torus_act

    e = adhm_bundle([2], iota=[[ST]])
    for z in [(1, 1), (1, 0), (2, 3)]:
        fiber = fiber_at(e, z)
        verdict = is_stable_framed(fiber).stable
        t = TorusElement.symplectic(ADHM_DOUBLE, {"loop": Fraction(5, 3), "frame": 7})
        assert is_stable_framed(torus_act(t, fiber)).stable == verdict


def test_generation_matrix_prunes_parallel_columns():
    # b2 proportional to b1 contributes no new generation columns
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        b2=[[ZERO, T.scaled(3)], [ZERO, ZERO]],
        iota=[[S * S], [ONE]],
    )
    assert validate(e).valid
    matrix, twists = generation_matrix(e, "1")
    assert len(twists) == 2


def test_generated_subsheaf_full_when_stable():
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[S * S], [ONE]],
    )
    summary = generated_subsheaf_summary(e)
    assert summary.rank("1") == 2
    assert summary.degree("1") == 2


def test_generated_subsheaf_saturated_proper_piece():
    # iota lands in the degree-2 summand; the generated subsheaf saturates
    # the image to the full O(2) line
    e = adhm_bundle([2, 0], iota=[[S * S], [ZERO]])
    summary = generated_subsheaf_summary(e)
    assert summary.rank("1") == 1
    assert summary.degree("1") == 2


def test_generated_subsheaf_zero_when_no_framing_image():
    e = adhm_bundle([1])
    summary = generated_subsheaf_summary(e)
    assert summary.rank("1") == 0
    assert summary.degree("1") == 0


def test_hn_filtration_examples():
    e = adhm_bundle([2, 0])
    strata = hn_filtration_split(e)
    assert [st.slope for st in strata] == [2, 0]
    assert strata[0].piece_at("1") == (0,)
    assert strata[1].piece_at("0") == (0,)

    e2 = adhm_bundle([1, 1, 1])
    assert len(hn_filtration_split(e2)) == 2  # degree 1 stratum + framing degree 0
    e3 = chain_bundle([1], [1, 1])
    strata3 = hn_filtration_split(e3)
    assert [st.slope for st in strata3] == [1, 0]

    e4 = adhm_bundle([3, -1])
    strata4 = hn_filtration_split(e4)
    assert [st.slope for st in strata4] == [3, 0, -1]
    assert strata4[1].piece_at("0") == (0,)  # framing sits in the slope-0 stratum


def test_hn_strata_concatenate_to_whole():
    e = adhm_bundle([3, 0, -1, 3])
    strata = hn_filtration_split(e)
    slopes = [st.slope for st in strata]
    assert slopes == sorted(slopes, reverse=True)
    step = hn_step_indices(strata, len(strata), e.double.vertices)
    for v in e.double.vertices:
        assert step[v] == tuple(range(e.bundles[v].rank))


def test_subbundle_invariance_check():
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[S * S], [ONE]],
    )
    strata = hn_filtration_split(e)
    top = hn_step_indices(strata, 1, e.double.vertices)
    assert subbundle_is_arrow_invariant(e, top)
    # selecting only the low summand is not invariant: b1 maps it upward
    low = {"0": (), "1": (1,)}
    assert not subbundle_is_arrow_invariant(e, low)


def _verdicts(e):
    # each verdict built afresh, not read from the slot of `_generation`
    out = []
    for fn in GENERATION_ENTRY_POINTS.values():
        bundles_module._recent = None
        out.append(fn(e))
    return out


def test_bundle_keeps_read_only_copies_of_its_mappings():
    # `_generation` keeps the record of the last bundle it saw, so a bundle
    # must not change under it when its caller's dicts do
    doc = json.loads((FIXTURES / "bundle_adhm_stable.json").read_text())
    e0 = parse_document(doc).bundle
    given_bundles, given_phi = dict(e0.bundles), dict(e0.phi)
    e = TwistedQuiverBundle(e0.double, given_bundles, e0.twist, given_phi)
    want, want_doc = _verdicts(e), bundle_to_doc(e)
    assert want[1] is True  # is_stable_quasimap

    given_phi["frame+"] = poly_zeros(2, 1)
    given_bundles["1"] = SplitBundle((1, 1))
    assert e.phi == e0.phi and e.bundles == e0.bundles
    assert _verdicts(e) == want
    assert bundle_to_doc(e) == want_doc
    with pytest.raises(TypeError):
        e.phi["frame+"] = poly_zeros(2, 1)
    with pytest.raises(TypeError):
        e.bundles["1"] = SplitBundle((1, 1))

    assert e == e0 and e == parse_document(doc).bundle
    assert e != dataclasses.replace(e, phi={**e.phi, "frame+": poly_zeros(2, 1)})
    copy = dataclasses.replace(e)
    assert copy == e and copy is not e and copy.phi is not e.phi
    assert parse_document(bundle_to_doc(e)).bundle == e
