import random
from fractions import Fraction
from itertools import islice

import pytest

from quiverbundles import generators, linalg
from quiverbundles.bundles import is_stable_quasimap, residual_is_zero, validate
from quiverbundles.generators import (
    InstanceSpec,
    _rand_form_matrix,
    _sorted_degrees,
    _vanishing_product_solutions,
    bundle_spec,
    comparison_corpus,
    gen_bundle,
    gen_rep,
    oracle_fiber_consistency,
    random_lie,
    random_rep,
    random_tangent,
    rep_spec,
    run_suite,
    sample_points,
    stable_bundles,
    zero_arrow_rep,
)
from quiverbundles.polynomials import poly_mat_is_zero
from quiverbundles.quivers import HypothesisError, InvariantError
from quiverbundles.representations import (
    brute_force_framed_check,
    hamiltonian_residual,
    is_stable_framed,
    moment,
)

from _builders import adhm_bundle, form, zero_arrow_bundle
import _oracles


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec("cyclic", (1,))
    with pytest.raises(ValueError):
        InstanceSpec("adhm", (1, 1))
    with pytest.raises(ValueError):
        InstanceSpec("chain", (2,))
    with pytest.raises(ValueError):
        InstanceSpec("adhm", (-1,))
    with pytest.raises(ValueError):
        InstanceSpec("adhm", (1,), framing=0)
    with pytest.raises(ValueError):
        InstanceSpec("adhm", (1,), height=0)
    with pytest.raises(ValueError):
        InstanceSpec("adhm", (1,), degree_bound=-1)
    spec = InstanceSpec("adhm", [2], level=1)
    assert spec.dims == (2,) and spec.level == Fraction(1)


def test_random_rep_deterministic_and_shaped():
    spec = InstanceSpec("chain", (2, 1), framing=2, seed=9)
    x = random_rep(spec)
    assert x == random_rep(spec)
    assert linalg.shape(x.x["f+"]) == (2, 2)
    assert linalg.shape(x.x["e-"]) == (2, 1)
    assert x != random_rep(InstanceSpec("chain", (2, 1), framing=2, seed=10))


def test_hamiltonian_identity_on_random_samples():
    for k in range(25):
        x = random_rep(rep_spec(k, seed=1))
        xi = random_tangent(x, 100 + k)
        g = random_lie(x, 200 + k)
        assert hamiltonian_residual(x, xi, g) == 0


def test_gen_rep_zero_residual_across_levels():
    seen = set()
    for k in range(40):
        spec = rep_spec(k, seed=0)
        x = gen_rep(spec)
        level = {i: spec.level for i in spec.double.ordinary_vertices}
        assert all(linalg.is_zero_matrix(m) for m in moment(x, level).values())
        seen.add(spec.level)
    assert seen == {Fraction(0), Fraction(1), Fraction(-2)}


def test_gen_rep_deterministic_and_solves_return_block():
    spec = rep_spec(9, seed=0)
    x = gen_rep(spec)
    assert x == gen_rep(spec)
    back = "frame-" if spec.preset == "adhm" else "f-"
    assert not linalg.is_zero_matrix(x.x[back])


def test_gen_rep_rejects_zero_dimensional_vertex():
    with pytest.raises(HypothesisError):
        gen_rep(InstanceSpec("adhm", (0,)))
    with pytest.raises(HypothesisError):
        gen_rep(InstanceSpec("chain", (1, 0)))


def test_gen_rep_bounded_attempts():
    # rank of the framing block cannot reach a generic level-1 right side,
    # and the chain has no fallback construction
    with pytest.raises(RuntimeError):
        gen_rep(InstanceSpec("chain", (2, 2), framing=1, seed=5, level=1))


@pytest.mark.parametrize(
    "n, framing, level, seed",
    [(2, 1, "-1/2", 0), (3, 2, "-1", 0), (3, 1, "2", 0), (5, 2, "1/3", 0), (2, 1, "1", 5)],
)
def test_gen_rep_calogero_moser_below_the_framing(n, framing, level, seed):
    # every solve fails when the framing is below the dimension at a
    # nonzero level; the fallback point lies on the level set and is stable
    spec = InstanceSpec("adhm", (n,), framing=framing, seed=seed, level=Fraction(level))
    x = gen_rep(spec)
    assert x == gen_rep(spec)
    assert all(linalg.is_zero_matrix(m) for m in moment(x, {"1": spec.level}).values())
    assert is_stable_framed(x).stable


def test_gen_bundle_valid_zero_residual_deterministic():
    for k in range(30):
        spec = bundle_spec(k, seed=7)
        e = gen_bundle(spec)
        assert validate(e).valid
        assert residual_is_zero(e)
        assert gen_bundle(spec) == e
        framing_back = "frame-" if spec.preset == "adhm" else "f-"
        assert poly_mat_is_zero(e.phi[framing_back])


def test_gen_bundle_checks_its_construction(monkeypatch):
    # each mode lies on the relation by construction (`gen_bundle`), so a
    # nonzero residual is a broken construction, never a retry
    monkeypatch.setattr(generators, "residual_is_zero", lambda e: False)
    for spec in (bundle_spec(0, seed=7), bundle_spec(4, seed=7)):  # adhm, chain
        with pytest.raises(InvariantError, match="off the moment relation"):
            gen_bundle(spec)


def test_gen_bundle_reaches_nonzero_chain_return_arrow():
    hits = [
        k
        for k in (6, 36, 37)
        if not poly_mat_is_zero(gen_bundle(bundle_spec(k, seed=3)).phi["e-"])
    ]
    assert hits == [6, 36, 37]
    for k in hits:
        assert residual_is_zero(gen_bundle(bundle_spec(k, seed=3)))


def test_vanishing_product_solutions_match_the_form_products():
    # the chain's e+ and return-arrow grid as `_bundle_chain` draws
    # them, also with rational, sparse and zero e+; the slots and the
    # canonical nullspace must be equal to those of the unit-matrix products
    rng = random.Random(11)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)]
    for case in range(420):
        n1, n2 = shapes[case % len(shapes)]
        deg1 = _sorted_degrees(rng, n1, rng.randint(0, 4))
        deg2 = _sorted_degrees(rng, n2, rng.randint(0, 4))
        e_plus = _rand_form_matrix(rng, [[dk - dl for dl in deg1] for dk in deg2], 3)
        variant = case // len(shapes) % 4
        if variant == 1:
            e_plus = tuple(
                tuple(p.scaled(Fraction(1, rng.randint(1, 6))) for p in row) for row in e_plus
            )
        elif variant == 2:
            e_plus = tuple(tuple(p.scaled(rng.randint(0, 1)) for p in row) for row in e_plus)
        elif variant == 3:
            e_plus = tuple(tuple(p.scaled(0) for p in row) for row in e_plus)
        back = [[dk - 2 - dl for dl in deg2] for dk in deg1]
        want = _oracles._vanishing_product_solutions(e_plus, back)
        assert _vanishing_product_solutions(e_plus, back) == want


def test_gen_bundle_rejects_bad_specs():
    with pytest.raises(HypothesisError):
        gen_bundle(InstanceSpec("adhm", (0,)))
    with pytest.raises(HypothesisError):
        gen_bundle(InstanceSpec("adhm", (1,), level=1))


def test_zero_arrow_copies():
    e = gen_bundle(bundle_spec(0, seed=1))
    dead = zero_arrow_bundle(e, "frame+")
    assert poly_mat_is_zero(dead.phi["frame+"])
    assert residual_is_zero(dead)
    assert not is_stable_quasimap(dead)
    x = gen_rep(rep_spec(1, seed=1))
    assert linalg.is_zero_matrix(zero_arrow_rep(x, "frame+").x["frame+"])


def test_sample_points_avoid_base_locus():
    e = adhm_bundle([1], iota=[[form(1, -2, 1)]])  # base point [1:2]
    assert sample_points(e, 3) == ((1, 1), (1, 3), (1, 4))


def test_fiber_consistency_stable_and_unstable():
    agreeing = 0
    for k in range(8):
        e = gen_bundle(bundle_spec(k, seed=2))
        assert oracle_fiber_consistency(e, samples=3)
        agreeing += 1
    assert agreeing == 8
    # generically unstable: both sides report unstable at every point
    dead = zero_arrow_bundle(gen_bundle(bundle_spec(0, seed=2)), "frame+")
    assert oracle_fiber_consistency(dead, samples=3)


def test_corpus_size_and_column_selecting_shape():
    corpus = list(comparison_corpus())
    assert len(corpus) == 18611
    for x in corpus[:50] + corpus[::500]:
        assert x.dims.total() <= 6
        for block in x.x.values():
            for col in zip(*block) if block else ():
                nonzero = [v for v in col if v != 0]
                assert all(v == 1 for v in nonzero)
                assert len(nonzero) <= 1


def test_corpus_agreement_sample():
    for x in islice(comparison_corpus(), 0, None, 97):
        assert is_stable_framed(x).stable == brute_force_framed_check(x)


def test_stable_bundles_stream():
    got = list(stable_bundles(6, seed=4))
    assert len(got) == 6
    assert all(is_stable_quasimap(e) for e in got)
    again = list(stable_bundles(6, seed=4))
    assert got == again


def test_stable_bundles_count_zero_yields_nothing_and_negative_is_refused():
    # count 0 once ran the rotation out and raised RuntimeError
    assert list(stable_bundles(0, seed=4)) == []
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        list(stable_bundles(-1, seed=4))


def test_fiber_consistency_refuses_no_samples():
    # samples=0 once failed with IndexError at the rescaling check
    e = gen_bundle(bundle_spec(0, seed=2))
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"at least one sample, got {samples}"):
            oracle_fiber_consistency(e, samples=samples)
    assert oracle_fiber_consistency(e, samples=1)


def test_run_suite_names_and_verdicts():
    assert run_suite("hamiltonian", count=30, seed=1).passed
    assert run_suite("moment-zero", count=12, seed=1).passed
    assert run_suite("sheaf-residual", count=12, seed=1).passed
    assert run_suite("defcomplex", count=8, seed=1).passed
    assert run_suite("fiber-consistency", count=6, seed=1).passed
    report = run_suite("closure-brute", count=300, seed=0)
    assert report.passed and report.instances == 300
    with pytest.raises(ValueError):
        run_suite("nope")
