import random
import time
from fractions import Fraction

import pytest

from quiverbundles import bundles, complexes, linalg
from quiverbundles.complexes import (
    build_complex,
    euler_char_rr,
    hypercoh_dims,
    symmetry_check,
)
from quiverbundles.bundles import (
    TwistedQuiverBundle,
    fiber_at,
    moment_residual_sheaf,
    residual_is_zero,
    validate,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle, stable_bundles
from quiverbundles.linalg import sparse_rank
from quiverbundles.polynomials import HomogPoly, poly_mat_eval, poly_mat_is_zero, poly_matmul
from quiverbundles.quivers import HypothesisError

from _builders import adhm_bundle, chain_bundle, form, rational_gauge
from _oracles import action_derivative, moment_derivative
from test_representations import (
    _arrow_offsets,
    _flatten_tangent,
    _gauge_basis,
    _unflatten_tangent,
)

ZERO = HomogPoly.zero()
ONE = HomogPoly.constant(1)
S = HomogPoly.monomial(1, 0)
T = HomogPoly.monomial(1, 1)


def constant_adhm():
    # trivial bundles, iota = 1, everything else zero; stable
    return adhm_bundle([0], iota=[[ONE]])


def line_adhm(d):
    # E1 = O(d), iota = s^d; loops and the return arrow are forced zero
    return adhm_bundle([d], iota=[[form(d, *([1] + [0] * d))]])


def test_terms_and_degrees_constant_instance():
    k = build_complex(constant_adhm())
    assert k.labels_minus1 == (("1", 0, 0),)
    assert k.term_minus1.multidegree == (0,)
    assert k.labels_zero == (
        ("loop+", 0, 0),
        ("loop-", 0, 0),
        ("frame+", 0, 0),
        ("frame-", 0, 0),
    )
    assert k.term_zero.multidegree == (-1, -1, 0, -2)
    assert k.term_one.multidegree == (-2,)


def test_differentials_constant_instance():
    k = build_complex(constant_adhm())
    # d_kappa(g) = (0, 0, g iota, 0); d_mu hits the return arrow block
    assert [str(row[0]) for row in k.d_kappa] == ["0", "0", "1", "0"]
    assert [str(c) for c in k.d_mu[0]] == ["0", "0", "0", "1"]


def test_differential_degrees_polynomial_instance():
    k = build_complex(line_adhm(1))
    r = k.labels_zero.index(("frame+", 0, 0))
    entry = k.d_kappa[r][0]
    assert entry.degree == 1
    assert entry.degree == k.term_zero.multidegree[r] - k.term_minus1.multidegree[0]


def test_composition_zero_with_nonzero_loops():
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        b2=[[ZERO, S], [ZERO, ZERO]],
        iota=[[form(2, 1, 0, 0)], [ONE]],
    )
    k = build_complex(e)
    assert poly_mat_is_zero(poly_matmul(k.d_mu, k.d_kappa))


def test_build_complex_rejects_nonzero_residual():
    e = adhm_bundle(
        [2, 1, 0],
        b1=[[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]],
        b2=[[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]],
        iota=[[form(2, 1, 0, 0)], [form(1, 1, 0)], [ONE]],
    )
    with pytest.raises(HypothesisError):
        build_complex(e)


def _kappa_at(x):
    # action_derivative on each unit gauge element, one column each
    _, dim_x = _arrow_offsets(x)
    cols = [_flatten_tangent(x, action_derivative(g, x)) for _, g in _gauge_basis(x)]
    return tuple(tuple(col[r] for col in cols) for r in range(dim_x))


def _mu_at(x):
    # moment_derivative on each unit tangent vector, one column each
    _, dim_x = _arrow_offsets(x)
    cols = []
    for c in range(dim_x):
        unit = tuple(Fraction(int(r == c)) for r in range(dim_x))
        dmu = moment_derivative(x, _unflatten_tangent(x, unit))
        cols.append(tuple(v for i in x.double.ordinary_vertices for row in dmu[i] for v in row))
    dim_g = sum(x.dims[i] ** 2 for i in x.double.ordinary_vertices)
    return tuple(tuple(col[r] for col in cols) for r in range(dim_g))


def test_differentials_evaluate_to_the_fiber_linearization():
    # entry by entry: d_kappa and d_mu at [1 : k] are the action and moment
    # derivatives of the fiber there, built one unit vector at a time
    specs = [bundle_spec(k, seed) for seed in (0, 5) for k in range(24)]
    specs += [InstanceSpec("adhm", (n,), 2, degree_bound=n, seed=1) for n in (3, 4)]
    nonzero = 0
    for spec in specs:
        e = gen_bundle(spec)
        c = build_complex(e)
        for k in range(4):
            x = fiber_at(e, (1, k))
            kappa, mu = poly_mat_eval(c.d_kappa, 1, k), poly_mat_eval(c.d_mu, 1, k)
            assert kappa == _kappa_at(x), (spec, k)
            assert mu == _mu_at(x), (spec, k)
            nonzero += any(v for row in kappa + mu for v in row)
    assert nonzero > 180


def test_serre_dual_degree_pairing():
    e = adhm_bundle(
        [3, 1],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[form(3, 1, 0, 0, 0)], [form(1, 1, 0)]],
    )
    k = build_complex(e)
    deg_m1 = dict(zip(k.labels_minus1, k.term_minus1.multidegree))
    deg_1 = dict(zip(k.labels_one, k.term_one.multidegree))
    for (i, a, b), d in deg_1.items():
        assert d == -deg_m1[(i, b, a)] - 2
    deg_0 = dict(zip(k.labels_zero, k.term_zero.multidegree))
    opposite = {x.name: x.opposite for x in e.double.arrows}
    for (a, p, q), d in deg_0.items():
        assert d + deg_0[(opposite[a], q, p)] == -2


def test_euler_char_rr_zero_on_valid_twists():
    assert euler_char_rr(constant_adhm()) == 0
    assert euler_char_rr(line_adhm(3)) == 0
    assert (
        euler_char_rr(
            chain_bundle([1, 0], [2], f=[[S], [ONE]], e=[[form(2, 1, 1, 0), form(2, 0, 1, 1)]])
        )
        == 0
    )


def test_euler_char_rr_genus_one_untwisted():
    from quiverbundles.bundles import TwistData, TwistedQuiverBundle, SplitBundle
    from _builders import ADHM_DOUBLE

    flat = TwistData.of({"loop+": 0, "loop-": 0, "frame+": 0, "frame-": 0})
    e = TwistedQuiverBundle(
        ADHM_DOUBLE,
        {"0": SplitBundle((0,)), "1": SplitBundle((0,))},
        flat,
        {
            "loop+": ((ZERO,),),
            "loop-": ((ZERO,),),
            "frame+": ((ZERO,),),
            "frame-": ((ZERO,),),
        },
    )
    assert euler_char_rr(e, g=1) == 0
    with pytest.raises(ValueError):
        euler_char_rr(e, g=0)


def test_hypercoh_constant_stable_instance():
    report = hypercoh_dims(build_complex(constant_adhm()))
    assert dict(report.h) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert report.euler == 0
    assert report.stabilized


def test_hypercoh_line_instances_match_torsion_length():
    # the degree-0 and degree-1 cohomology sheaves are skyscrapers of
    # length d, so both middle dimensions equal d
    for d in (1, 2):
        report = hypercoh_dims(build_complex(line_adhm(d)))
        assert dict(report.h) == {-1: 0, 0: d, 1: d, 2: 0}
        assert report.euler == 0
        assert report.stabilized


def test_hypercoh_zero_data_has_automorphisms():
    report = hypercoh_dims(build_complex(adhm_bundle([0])))
    assert dict(report.h) == {-1: 1, 0: 1, 1: 1, 2: 1}
    assert report.euler == 0
    assert report.stabilized


def test_hypercoh_makes_one_cech_pass(monkeypatch):
    # one rank per Cech differential D(-1), D(0), D(1); no wider recompute
    calls = []

    def counting_rank(rows):
        calls.append(len(rows))
        return sparse_rank(rows)

    monkeypatch.setattr(complexes, "sparse_rank", counting_rank)
    report = hypercoh_dims(build_complex(line_adhm(2)))
    assert dict(report.h) == {-1: 0, 0: 2, 1: 2, 2: 0}
    assert len(calls) == 3


def test_hypercoh_removes_content_once_per_stored_pivot(monkeypatch):
    # the D(0) rank counts its border rows, so the three ranks sum to the
    # rows stored across the three pivot tables
    corpus = [
        line_adhm(2),
        gen_bundle(bundle_spec(98, 0)),
        gen_bundle(InstanceSpec("adhm", (6,), framing=2, degree_bound=6, seed=2)),
    ]
    for e in corpus:
        k = build_complex(e)
        ranks, normalized = [], []

        def counting_rank(rows):
            ranks.append(sparse_rank(rows))
            return ranks[-1]

        def counting_normalize(row, normalize=linalg._normalize_int_row):
            normalized.append(len(row))
            return normalize(row)

        monkeypatch.setattr(complexes, "sparse_rank", counting_rank)
        monkeypatch.setattr(linalg, "_normalize_int_row", counting_normalize)
        hypercoh_dims(k)
        monkeypatch.undo()
        assert len(ranks) == 3
        assert len(normalized) == sum(ranks) > 0


def test_hypercoh_rejects_small_window():
    k = build_complex(constant_adhm())
    with pytest.raises(ValueError):
        hypercoh_dims(k, window=k.min_window - 1)


def test_symmetry_check_stable_instances():
    assert symmetry_check(constant_adhm())
    assert symmetry_check(line_adhm(2))
    e = adhm_bundle(
        [2, 0],
        b1=[[ZERO, T], [ZERO, ZERO]],
        iota=[[form(2, 1, 0, 0)], [ONE]],
    )
    assert symmetry_check(e)


def test_symmetry_check_rejects_unstable():
    with pytest.raises(HypothesisError):
        symmetry_check(adhm_bundle([0]))


def test_hypercoh_rank_six_instance_within_budget():
    # rescanning every row and column for each pivot took about 26 s here
    e = gen_bundle(InstanceSpec("adhm", (6,), framing=2, degree_bound=6, seed=2))
    start = time.perf_counter()
    report = hypercoh_dims(build_complex(e))
    elapsed = time.perf_counter() - start
    assert report.h == ((-1, 0), (0, 44), (1, 44), (2, 0))
    assert report.stabilized
    assert elapsed < 12.0, f"{elapsed:.1f} s"


def test_hypercoh_needs_the_d2_block():
    # adhm (2), framing 2: the E2 page alone gives h0 = h1 = 8; the d2
    # block H1(K-1) -> H0(K1) of the minimal model cuts both to 7
    report = hypercoh_dims(build_complex(gen_bundle(bundle_spec(98, 0))))
    assert report.h == ((-1, 0), (0, 7), (1, 7), (2, 0))


def test_hypercoh_dims_are_invariant_under_a_rational_gauge():
    # gauged, kappa and mu carry denominators, which the scatter clears
    # row by row; bundle_spec(98, 0) is the instance that needs d2
    corpus = [gen_bundle(bundle_spec(98, 0)), *stable_bundles(30, seed=23, degree_bound=4)]
    for e in corpus:
        gauged = rational_gauge(e)
        assert hypercoh_dims(build_complex(gauged)).h == hypercoh_dims(build_complex(e)).h


def test_hypercoh_rank_ten_instance_within_budget():
    # the Cech total complex at the proven window took about 10 s on a
    # shared 2-CPU host
    e = gen_bundle(InstanceSpec("adhm", (10,), framing=2, degree_bound=10, seed=2))
    k = build_complex(e)
    start = time.perf_counter()
    report = hypercoh_dims(k)
    elapsed = time.perf_counter() - start
    assert report.h == ((-1, 0), (0, 144), (1, 144), (2, 0))
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def _resampled(e, rng):
    # every arrow matrix drawn afresh at its forced entry degrees
    phi = {}
    for a in e.double.arrows:
        rows = []
        for k in range(e.bundles[a.head].rank):
            row = []
            for l in range(e.bundles[a.tail].rank):
                d = e.entry_degree(a.name, k, l)
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d + 1)]
                row.append(HomogPoly.of(d, coeffs) if d >= 0 else ZERO)
            rows.append(tuple(row))
        phi[a.name] = tuple(rows)
    return TwistedQuiverBundle(e.double, e.bundles, e.twist, phi)


def test_composition_is_the_commutator_with_the_residual(monkeypatch):
    # the equivariance proof in `build_complex`: mu kappa(g)_i = [g_i, R_i]
    # for R the moment residual, so the entry from (i, k, m) to (i, p, q)
    # is delta_pk R_i[m][q] - delta_mq R_i[p][k], and zero across vertices
    # the refusal is `relation_rows`; `_arrow_rows` gives the same rows unchecked
    monkeypatch.setattr(complexes, "relation_rows", bundles._arrow_rows)
    rng = random.Random(11)
    presets = []
    k = 0
    while len(presets) < 24:
        spec = bundle_spec(k)
        k += 1
        e = _resampled(gen_bundle(spec), rng)
        if not validate(e).valid or residual_is_zero(e):
            continue
        presets.append(spec.preset)
        residual = moment_residual_sheaf(e)
        c = build_complex(e)
        product = poly_matmul(c.d_mu, c.d_kappa)
        for r, (i, p, q) in enumerate(c.labels_one):
            res = residual[i]
            for col, (j, kk, m) in enumerate(c.labels_minus1):
                want = ZERO
                if i == j:
                    want = (res[m][q] if p == kk else ZERO) - (res[p][kk] if m == q else ZERO)
                assert product[r][col] == want, (spec, (i, p, q), (j, kk, m))
    assert set(presets) == {"adhm", "chain"}


def test_build_complex_rank_twelve_within_budget():
    # the dense d_mu d_kappa product took about 2 s here on a shared
    # 2-CPU host
    e = gen_bundle(InstanceSpec("adhm", (12,), framing=2, degree_bound=12, seed=2))
    start = time.perf_counter()
    k = build_complex(e)
    elapsed = time.perf_counter() - start
    assert len(k.labels_minus1) == 144
    assert elapsed < 1.0, f"{elapsed:.2f} s"
