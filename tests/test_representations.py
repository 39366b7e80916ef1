import random
import time
from fractions import Fraction

import pytest

from quiverbundles import linalg, representations
from quiverbundles.generators import InstanceSpec, gen_rep, random_lie, random_rep, rep_spec
from quiverbundles.linalg import ZERO, Matrix, Vector
from quiverbundles.quivers import Arrow, DimensionVector, HypothesisError, Quiver, double
from quiverbundles.representations import (
    FramedRep,
    LieElement,
    ReducedTangentReport,
    TangentVector,
    brute_force_framed_check,
    hamiltonian_residual,
    is_stable_framed,
    moment,
    reduced_tangent,
)

from _builders import mat
from _oracles import (
    TorusElement,
    action_derivative,
    closure,
    dense_moment,
    destabilizing_weight,
    matvec,
    moment_derivative,
    s_moment_invariance,
    symplectic_form,
    torus_act,
    trace,
)


def adhm(n, r, b1, b2, iota, j):
    q = Quiver(("0", "1"), (Arrow("loop", "1", "1"), Arrow("frame", "0", "1")), framing="0")
    dq = double(q)
    dims = DimensionVector.of(q, {"0": r, "1": n})
    x = {"loop+": mat(b1), "loop-": mat(b2), "frame+": mat(iota), "frame-": mat(j)}
    return FramedRep(dq, dims, x)


def scalar_adhm(b1, b2, iota, j):
    return adhm(1, 1, [[b1]], [[b2]], [[iota]], [[j]])


def _random_adhm(rng, n, r):
    def rmat(m, k):
        return mat([[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(m)])

    return adhm(n, r, rmat(n, n), rmat(n, n), rmat(n, r), rmat(r, n))


def _random_tangent(rng, x):
    vals = {}
    for a in x.double.arrows:
        m, k = x.dims[a.head], x.dims[a.tail]
        vals[a.name] = mat([[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(m)])
    return TangentVector(vals)


def _random_lie(rng, x):
    vals = {}
    for i in x.double.ordinary_vertices:
        n = x.dims[i]
        vals[i] = mat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    return LieElement(vals)


def test_moment_scalar_example():
    x = scalar_adhm(2, 3, 1, 5)
    res = moment(x)
    assert res["1"] == ((Fraction(5),),)


def test_moment_commuting_identity_loops_is_zero():
    x = adhm(2, 1, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0], [0]], [[0, 0]])
    assert all(linalg.is_zero_matrix(m) for m in moment(x).values())


def test_moment_adhm_equals_commutator_plus_framing():
    rng = random.Random(3)
    for _ in range(20):
        x = _random_adhm(rng, 2, 2)
        res = moment(x, {"1": Fraction(1, 2)})
        b1, b2 = x.x["loop+"], x.x["loop-"]
        iota, j = x.x["frame+"], x.x["frame-"]
        expected = linalg.sub(
            linalg.add(linalg.commutator(b1, b2), linalg.matmul(iota, j)),
            linalg.scale(Fraction(1, 2), linalg.identity(2)),
        )
        assert res["1"] == expected


def test_moment_rejects_level_outside_ordinary_vertices():
    x = scalar_adhm(0, 0, 1, 0)
    with pytest.raises(ValueError):
        moment(x, {"0": 1})


def test_symplectic_form_single_term_and_antisymmetry():
    rng = random.Random(4)
    x = _random_adhm(rng, 2, 1)
    zero = {a.name: linalg.zeros(x.dims[a.head], x.dims[a.tail]) for a in x.double.arrows}
    X = mat([[1, 2], [3, 4]])
    Y = mat([[5, 1], [0, 2]])
    a_vec = TangentVector({**zero, "loop+": X})
    b_vec = TangentVector({**zero, "loop-": Y})
    assert symplectic_form(x, a_vec, b_vec) == trace(linalg.matmul(X, Y))
    assert symplectic_form(x, b_vec, a_vec) == -trace(linalg.matmul(X, Y))
    for _ in range(10):
        a = _random_tangent(rng, x)
        b = _random_tangent(rng, x)
        assert symplectic_form(x, a, a) == 0
        assert symplectic_form(x, a, b) == -symplectic_form(x, b, a)


def test_symplectic_gram_matrix_nondegenerate():
    rng = random.Random(9)
    x = _random_adhm(rng, 2, 1)
    units = []
    for a in x.double.arrows:
        m, k = x.dims[a.head], x.dims[a.tail]
        for r in range(m):
            for c in range(k):
                vals = {
                    b.name: tuple(
                        tuple(
                            Fraction(1) if (b.name == a.name and (i, jj) == (r, c)) else Fraction(0)
                            for jj in range(x.dims[b.tail])
                        )
                        for i in range(x.dims[b.head])
                    )
                    for b in x.double.arrows
                }
                units.append(TangentVector(vals))
    gram = tuple(tuple(symplectic_form(x, u, v) for v in units) for u in units)
    assert linalg.rank(gram) == len(units)


def test_action_derivative_identity_gauge():
    x = scalar_adhm(2, 3, 4, 5)
    g = LieElement({"1": mat([[1]])})
    xi = action_derivative(g, x)
    assert xi.values["loop+"] == ((Fraction(0),),)
    assert xi.values["loop-"] == ((Fraction(0),),)
    assert xi.values["frame+"] == ((Fraction(4),),)
    assert xi.values["frame-"] == ((Fraction(-5),),)


def test_action_derivative_zero_gauge():
    x = scalar_adhm(2, 3, 4, 5)
    xi = action_derivative(LieElement({}), x)
    assert all(linalg.is_zero_matrix(m) for m in xi.values.values())


def test_hamiltonian_residual_zero_on_random_adhm_suites():
    rng = random.Random(17)
    for n, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for _ in range(25):
            x = _random_adhm(rng, n, r)
            xi = _random_tangent(rng, x)
            g = _random_lie(rng, x)
            assert hamiltonian_residual(x, xi, g) == 0


def test_hamiltonian_residual_zero_on_framed_chain():
    q = Quiver(
        ("0", "1", "2"),
        (Arrow("f", "0", "1"), Arrow("e", "1", "2")),
        framing="0",
    )
    dq = double(q)
    rng = random.Random(23)
    dims = DimensionVector.of(q, {"0": 2, "1": 2, "2": 2})
    for _ in range(25):
        x = FramedRep(
            dq,
            dims,
            {
                a.name: mat(
                    [
                        [Fraction(rng.randint(-2, 2)) for _ in range(dims[a.tail])]
                        for _ in range(dims[a.head])
                    ]
                )
                for a in dq.arrows
            },
        )
        xi = _random_tangent(rng, x)
        g = _random_lie(rng, x)
        assert hamiltonian_residual(x, xi, g) == 0


def _rational_rep(rng, q, dims):
    # seeded entries over a denominator of their own on each arrow
    dq, dv = double(q), DimensionVector.of(q, dims)
    x = {}
    for a in dq.arrows:
        den = rng.randint(1, 9)
        x[a.name] = mat(
            [[Fraction(rng.randint(-4, 4), den) for _ in range(dv[a.tail])] for _ in range(dv[a.head])]
        )
    return FramedRep(dq, dv, x)


_LOOP = Quiver(("0", "1"), (Arrow("loop", "1", "1"), Arrow("frame", "0", "1")), framing="0")
_CHAIN = Quiver(("0", "1", "2"), (Arrow("f", "0", "1"), Arrow("e", "1", "2")), framing="0")


def test_moment_matches_the_dense_products_on_rational_reps():
    # one denominator per arrow, zero-rank vertices at either end of an
    # arrow, and nonzero levels at every ordinary vertex
    rng = random.Random(43)
    shapes = [
        (_LOOP, {"0": 2, "1": 3}),
        (_LOOP, {"0": 1, "1": 0}),
        (_CHAIN, {"0": 2, "1": 2, "2": 1}),
        (_CHAIN, {"0": 1, "1": 2, "2": 0}),
        (_CHAIN, {"0": 2, "1": 0, "2": 2}),
    ]
    for k in range(150):
        q, dims = shapes[k % len(shapes)]
        x = _rational_rep(rng, q, dims)
        level = {
            i: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in x.double.ordinary_vertices
        }
        for at in (None, level):
            got = moment(x, at)
            assert got == dense_moment(x, at)
            assert repr(got) == repr(dense_moment(x, at))


def test_moment_matches_the_dense_products_on_generated_reps():
    for k in range(40):
        spec = rep_spec(k, seed=9)
        for x in (gen_rep(spec), random_rep(spec)):
            for level in (None, {"1": Fraction(-2)}, {"1": Fraction(3, 2)}):
                assert repr(moment(x, level)) == repr(dense_moment(x, level))


def test_hamiltonian_residual_sees_a_flipped_kappa_entry(monkeypatch):
    # the sign of one entry of linearization's kappa flipped: the pairing
    # identity fails, so the suites that assert it can fail
    real = representations.linearization

    def flipped(*args):
        gauge, tangent, kappa, mu = real(*args)
        t = next(r for r, row in enumerate(kappa) if row)
        (c, p), *rest = kappa[t]
        kappa[t] = [(c, tuple(-y for y in p)), *rest]
        return gauge, tangent, kappa, mu

    rng = random.Random(47)
    x = _random_adhm(rng, 2, 1)
    pairs = [(_random_tangent(rng, x), _random_lie(rng, x)) for _ in range(5)]
    assert all(hamiltonian_residual(x, xi, g) == 0 for xi, g in pairs)
    monkeypatch.setattr(representations, "linearization", flipped)
    assert any(hamiltonian_residual(x, xi, g) != 0 for xi, g in pairs)


def _zero_end_chain(f_plus, f_minus):
    # the chain 0 -> 1 -> 2 with vertex 2 of dimension zero
    q = Quiver(("0", "1", "2"), (Arrow("f", "0", "1"), Arrow("e", "1", "2")), framing="0")
    dims = DimensionVector.of(q, {"0": 1, "1": 1, "2": 0})
    x = {"f+": mat(f_plus), "f-": mat(f_minus), "e+": (), "e-": ((),)}
    return FramedRep(double(q), dims, x)


def test_products_through_a_zero_dimensional_vertex_vanish():
    # x_e- x_e+ passes through vertex 2, so it is the 1 x 1 zero matrix,
    # though the stored 0 x 1 block () cannot carry its column count
    assert moment(_zero_end_chain([[1]], [[0]])) == {"1": ((0,),), "2": ()}
    assert moment(_zero_end_chain([[1]], [[3]])) == {"1": ((3,),), "2": ()}
    rng = random.Random(29)
    for _ in range(25):
        x = _zero_end_chain([[rng.randint(-3, 3)]], [[rng.randint(-3, 3)]])
        xi, g = _random_tangent(rng, x), _random_lie(rng, x)
        assert action_derivative(g, x).values["e+"] == ()
        assert moment_derivative(x, xi)["2"] == ()
        assert hamiltonian_residual(x, xi, g) == 0


def test_closure_jordan_examples():
    x = adhm(2, 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0], [1]], [[0, 0]])
    w = closure(x, {"0": linalg.identity(1)})
    assert w.dims.as_dict() == {"0": 1, "1": 2}

    x2 = adhm(2, 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[1], [0]], [[0, 0]])
    w2 = closure(x2, {"0": linalg.identity(1)})
    assert w2.dims.as_dict() == {"0": 1, "1": 1}
    assert w2.basis["1"] == ((Fraction(1),), (Fraction(0),))

    w3 = closure(x, {})
    assert w3.dims.total() == 0


def test_closure_monotone_and_idempotent():
    rng = random.Random(31)
    for _ in range(15):
        x = _random_adhm(rng, 3, 2)
        seed_small = {"0": mat([[1], [0]])}
        seed_big = {"0": linalg.identity(2)}
        small = closure(x, seed_small)
        big = closure(x, seed_big)
        assert all(small.dims[v] <= big.dims[v] for v in ("0", "1"))
        again = closure(x, {v: small.basis[v] for v in ("0", "1") if small.dims[v]})
        assert again.dims.values == small.dims.values
        # arrow invariance of the closure output
        for a in x.double.arrows:
            cols = linalg.transpose(small.basis[a.tail])
            target_rows = linalg.transpose(small.basis[a.head])
            for col in cols:
                img = matvec(x.x[a.name], col)
                basis = linalg.row_space_basis(target_rows)
                assert linalg.rank(basis + (img,)) == len(basis)


@pytest.mark.parametrize(
    "dims, want", [((2, 0), {"0": 1, "1": 1, "2": 0}), ((0, 2), {"0": 1, "1": 0, "2": 0})]
)
def test_closure_through_a_zero_dimensional_head(dims, want):
    # an arrow into a vertex of dimension 0 has a zero-row block, whose
    # image of any vector is the empty vector
    x = random_rep(InstanceSpec("chain", dims, 1))
    w = closure(x, {"0": linalg.identity(1)})
    assert w.dims.as_dict() == want
    assert all(len(w.basis[v]) == x.dims[v] for v in x.double.vertices)


def test_is_stable_framed_examples():
    jordan = adhm(2, 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0], [1]], [[0, 0]])
    assert is_stable_framed(jordan).stable

    noframe = adhm(2, 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0], [0]], [[0, 0]])
    verdict = is_stable_framed(noframe)
    assert not verdict.stable
    assert verdict.witness is not None
    assert verdict.witness.dims["1"] == 0
    assert destabilizing_weight(noframe, verdict.witness) < 0

    tiny = scalar_adhm(5, 7, 1, 0)
    assert is_stable_framed(tiny).stable


def test_is_stable_framed_builds_a_basis_only_for_a_witness(monkeypatch):
    # the verdict reads the closure's dimensions off the accepted vectors;
    # only an unstable fiber pays for the canonical bases of its witness
    reps = [gen_rep(rep_spec(k, s)) for s in (0, 1) for k in range(60)]
    reps += [random_rep(rep_spec(k, 2)) for k in range(60)]
    want = {}
    for i, x in enumerate(reps):
        framing = x.double.framing
        w = closure(x, {framing: linalg.identity(x.dims[framing])})
        want[i] = (w.dims.values == x.dims.values, w)
    calls = []
    real = linalg.row_space_basis
    monkeypatch.setattr(linalg, "row_space_basis", lambda rows: calls.append(1) or real(rows))
    stable = unstable = 0
    for i, x in enumerate(reps):
        calls.clear()
        verdict = is_stable_framed(x)
        is_stable, w = want[i]
        assert verdict.stable is is_stable
        if is_stable:
            assert verdict.witness is None and calls == []
            stable += 1
        else:
            assert verdict.witness == w and calls
            unstable += 1
    assert stable > 30 and unstable > 30


def test_is_stable_framed_hypothesis_errors():
    q = Quiver(("0", "1"), (Arrow("loop", "1", "1"), Arrow("frame", "0", "1")), framing="0")
    dq = double(q)
    dims = DimensionVector.of(q, {"0": 0, "1": 1})
    rep = FramedRep(
        dq,
        dims,
        {
            "loop+": ((Fraction(0),),),
            "loop-": ((Fraction(0),),),
            "frame+": ((),),
            "frame-": (),
        },
    )
    with pytest.raises(HypothesisError):
        is_stable_framed(rep)


def test_brute_force_matches_examples():
    jordan = adhm(2, 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0], [1]], [[0, 0]])
    assert brute_force_framed_check(jordan) is True

    noframe = adhm(2, 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0], [0]], [[0, 0]])
    assert brute_force_framed_check(noframe) is False

    shift3 = adhm(
        3,
        1,
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
        [[0] * 3, [0] * 3, [0] * 3],
        [[0], [0], [1]],
        [[0, 0, 0]],
    )
    assert brute_force_framed_check(shift3) is True
    assert is_stable_framed(shift3).stable


def test_brute_force_rejects_non_combinatorial_input():
    x = scalar_adhm(2, 0, 1, 0)
    with pytest.raises(HypothesisError):
        brute_force_framed_check(x)


def test_torus_act_symplectic_preserves_moment():
    rng = random.Random(41)
    q = None
    for _ in range(10):
        x = _random_adhm(rng, 2, 2)
        t = TorusElement.symplectic(x.double, {"loop": Fraction(3, 2), "frame": Fraction(-2)})
        diff = s_moment_invariance(t, x, {"1": Fraction(2)})
        assert all(linalg.is_zero_matrix(m) for m in diff.values())
        y = torus_act(t, x)
        assert y.x["loop+"] == linalg.scale(Fraction(3, 2), x.x["loop+"])
        assert y.x["loop-"] == linalg.scale(Fraction(2, 3), x.x["loop-"])


def test_torus_act_all_ones_is_identity():
    rng = random.Random(43)
    x = _random_adhm(rng, 2, 1)
    t = TorusElement.symplectic(x.double, {"loop": 1, "frame": 1})
    assert torus_act(t, x).x == x.x


def test_torus_act_full_mode_scales_moment():
    rng = random.Random(47)
    x = _random_adhm(rng, 2, 1)
    t = TorusElement.full(
        x.double, {"loop+": 2, "loop-": 1, "frame+": 2, "frame-": 1}
    )
    before = moment(x)
    after = moment(torus_act(t, x))
    for i in before:
        assert after[i] == linalg.scale(Fraction(2), before[i])


def test_reduced_tangent_stable_scalar_point():
    x = scalar_adhm(2, 3, 1, 0)
    report = reduced_tangent(x)
    assert report.dimension == 2
    assert report.nondegenerate
    assert report.stabilizer_trivial


def test_reduced_tangent_unstable_origin_flags_stabilizer():
    x = scalar_adhm(0, 0, 0, 0)
    report = reduced_tangent(x)
    assert not report.stabilizer_trivial


def test_reduced_tangent_requires_zero_residual():
    x = scalar_adhm(2, 3, 1, 5)
    with pytest.raises(HypothesisError):
        reduced_tangent(x)


def _commuting_stable_adhm(rng, n, r):
    # upper triangular B1, polynomial B2, j = 0; residual vanishes exactly
    b1 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for jj in range(i + 1, n):
            b1[i][jj] = Fraction(rng.randint(-2, 2))
    b1m = mat(b1)
    c0, c1 = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
    b2m = linalg.add(linalg.scale(c0, linalg.identity(n)), linalg.scale(c1, b1m))
    iota = mat([[Fraction(rng.randint(-2, 2)) for _ in range(r)] for _ in range(n)])
    j = linalg.zeros(r, n)
    return adhm(n, r, b1m, b2m, iota, j)


def test_reduced_tangent_dimension_on_random_stable_points():
    rng = random.Random(53)
    found = 0
    while found < 8:
        x = _commuting_stable_adhm(rng, 2, 1)
        if not is_stable_framed(x).stable:
            continue
        found += 1
        report = reduced_tangent(x)
        assert report.dimension == 4  # dim X - 2 dim G = (2*4+2*2) - 2*4
        assert report.nondegenerate
        assert report.stabilizer_trivial


def _mu_kappa(x, g):
    return moment_derivative(x, action_derivative(g, x))


def test_mu_kappa_is_the_commutator_with_the_moment():
    # the equivariance identity behind reduced_tangent, off the level set
    nonzero = 0
    for k in range(60):
        x = random_rep(rep_spec(k, seed=1))
        g = random_lie(x, seed=k)
        mu = moment(x)
        nonzero += any(not linalg.is_zero_matrix(m) for m in mu.values())
        got = _mu_kappa(x, g)
        for i, block in got.items():
            assert block == linalg.commutator(g.values[i], mu[i])
    assert nonzero > 50


def test_mu_kappa_vanishes_on_generated_level_sets():
    levels = set()
    for seed in range(3):
        for k in range(40):
            spec = rep_spec(k, seed)
            x = gen_rep(spec)
            levels.add(spec.level)
            g = random_lie(x, seed=k)
            assert all(linalg.is_zero_matrix(m) for m in _mu_kappa(x, g).values())
    assert levels == {0, 1, -2}


_ONE = Fraction(1)
_ZERO = Fraction(0)


def _arrow_offsets(x: FramedRep) -> tuple[dict[str, int], int]:
    offsets: dict[str, int] = {}
    pos = 0
    for a in x.double.arrows:
        offsets[a.name] = pos
        pos += x.dims[a.head] * x.dims[a.tail]
    return offsets, pos


def _flatten_tangent(x: FramedRep, xi: TangentVector) -> Vector:
    out: list[Fraction] = []
    for a in x.double.arrows:
        for row in xi.values[a.name]:
            out.extend(row)
    return tuple(out)


def _unflatten_tangent(x: FramedRep, v: Vector) -> TangentVector:
    vals: dict[str, Matrix] = {}
    pos = 0
    for a in x.double.arrows:
        m, n = x.dims[a.head], x.dims[a.tail]
        vals[a.name] = tuple(tuple(v[pos + r * n + c] for c in range(n)) for r in range(m))
        pos += m * n
    return TangentVector(vals)


def _gauge_basis(x: FramedRep):
    for i in x.double.ordinary_vertices:
        n = x.dims[i]
        for k in range(n):
            for l in range(n):
                unit = tuple(
                    tuple(Fraction(1) if (r, c) == (k, l) else ZERO for c in range(n))
                    for r in range(n)
                )
                yield i, LieElement({i: unit})


def _reference_reduced_tangent(x, level=None):
    """reduced_tangent with one `symplectic_form` call per pair of kernel
    vectors, as it was before the Gram matrix became K^T Omega K."""
    residual = moment(x, level)
    if any(not linalg.is_zero_matrix(m) for m in residual.values()):
        raise HypothesisError("moment residual nonzero at the given level")

    _, dim_x = _arrow_offsets(x)
    gauge = list(_gauge_basis(x))
    dim_g = len(gauge)

    kappa_cols = [_flatten_tangent(x, action_derivative(g, x)) for _, g in gauge]
    kappa = linalg.transpose(tuple(kappa_cols)) if kappa_cols else ()

    mu_cols = []
    for e in range(dim_x):
        basis_vec = tuple(Fraction(1) if k == e else _ZERO for k in range(dim_x))
        dmu = moment_derivative(x, _unflatten_tangent(x, basis_vec))
        flat = []
        for i in x.double.ordinary_vertices:
            for row in dmu[i]:
                flat.extend(row)
        mu_cols.append(tuple(flat))
    mu = tuple(tuple(col[r] for col in mu_cols) for r in range(dim_g))

    rank_kappa = linalg.rank(kappa) if kappa else 0
    if dim_g:
        kernel = linalg.nullspace(mu)
    else:
        kernel = tuple(
            tuple(Fraction(1) if k == e else _ZERO for k in range(dim_x)) for e in range(dim_x)
        )
    dimension = len(kernel) - rank_kappa
    kernel_tangents = [_unflatten_tangent(x, v) for v in kernel]
    gram = tuple(
        tuple(symplectic_form(x, a, b) for b in kernel_tangents) for a in kernel_tangents
    )
    nondeg = (linalg.rank(gram) == dimension) if kernel else dimension == 0
    return ReducedTangentReport(dimension, nondeg, rank_kappa == dim_g)


_TANGENT_SHAPES = [("adhm", (n,), 2) for n in (2, 3, 4, 5)] + [
    ("adhm", (2,), 1),
    ("chain", (1, 1), 1),
    ("chain", (2, 1), 1),
    ("chain", (1, 2), 2),
    ("chain", (2, 2), 2),
]


def test_reduced_tangent_matches_pairwise_gram():
    compared = 0
    for preset, dims, r in _TANGENT_SHAPES:
        for seed in range(4):
            for lam in (_ZERO, Fraction(-1, 2)):
                try:
                    x = gen_rep(InstanceSpec(preset, dims, r, seed=seed, level=lam))
                except RuntimeError:
                    continue  # no point at this level for these dimensions
                level = {i: lam for i in x.double.ordinary_vertices}
                assert reduced_tangent(x, level) == _reference_reduced_tangent(x, level)
                compared += 1
    assert compared > 60


def test_reduced_tangent_rank_five_within_budget():
    # 1.35 s with one `symplectic_form` call per pair of kernel vectors
    # (shared 2-CPU host)
    x = gen_rep(InstanceSpec("adhm", (5,), 2, seed=1))
    start = time.perf_counter()
    report = reduced_tangent(x)
    elapsed = time.perf_counter() - start
    assert report == ReducedTangentReport(20, True, True)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_reduced_tangent_rank_seven_within_budget():
    # 2.26 s with one `moment_derivative` call per tangent coordinate and
    # one `action_derivative` call per gauge coordinate (shared 2-CPU host)
    x = gen_rep(InstanceSpec("adhm", (7,), 2, seed=1))
    start = time.perf_counter()
    report = reduced_tangent(x)
    elapsed = time.perf_counter() - start
    assert report == ReducedTangentReport(28, True, True)
    assert elapsed < 1.0, f"{elapsed:.2f} s"
