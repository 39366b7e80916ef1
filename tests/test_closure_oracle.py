"""`closure` against the round-by-round closure it replaced.

`reference_closure` keeps the former algorithm verbatim: every round
re-reduces each head vertex's whole basis together with the images of the
tail basis (`linalg.row_space_basis`), until no dimension grows.  The
worklist `closure` pushes only the vectors its pivot tables accept; by the
proof in its docstring it reaches the same subspaces, and `SubRep` stores
their unique reduced row echelon form, so the two must agree exactly.
"""

import random
from fractions import Fraction
from typing import Mapping

import pytest

from quiverbundles import linalg
from quiverbundles.bundles import fiber_at
from quiverbundles.generators import (
    InstanceSpec,
    comparison_corpus,
    gen_bundle,
    random_rep,
    rep_spec,
    sample_points,
)
from quiverbundles.linalg import Matrix, Vector
from quiverbundles.quivers import DimensionVector
from quiverbundles.representations import FramedRep, SubRep

from _builders import rational_gauge
from _oracles import closure, matvec


def _row_bases_from_seeds(x: FramedRep, seeds: Mapping[str, Matrix]) -> dict[str, tuple[Vector, ...]]:
    bases: dict[str, tuple[Vector, ...]] = {v: () for v in x.double.vertices}
    for v, m in seeds.items():
        if v not in bases:
            raise ValueError(f"seed at unknown vertex {v!r}")
        if m and linalg.shape(m)[0] != x.dims[v]:
            raise ValueError(f"seed at {v!r} lives in the wrong fiber")
        cols = linalg.transpose(m)
        bases[v] = linalg.row_space_basis(cols)
    return bases


def reference_closure(x: FramedRep, seeds: Mapping[str, Matrix]) -> SubRep:
    bases = _row_bases_from_seeds(x, seeds)
    for _ in range(x.dims.total() + 1):
        grew = False
        for a in x.double.arrows:
            if not bases[a.tail]:
                continue
            images = [matvec(x.x[a.name], w) for w in bases[a.tail]]
            merged = linalg.row_space_basis(tuple(bases[a.head]) + tuple(images))
            if len(merged) != len(bases[a.head]):
                bases[a.head] = merged
                grew = True
            else:
                bases[a.head] = merged
        if not grew:
            break
    dims = DimensionVector(
        tuple(x.double.vertices), tuple(len(bases[v]) for v in x.double.vertices)
    )
    basis = {v: linalg.transpose(bases[v]) if bases[v] else tuple(() for _ in range(x.dims[v])) for v in x.double.vertices}
    return SubRep(basis, dims)


def _framing_seed(x: FramedRep) -> dict[str, Matrix]:
    framing = x.double.framing
    return {framing: linalg.identity(x.dims[framing])}


def _assert_same(x: FramedRep, seeds: Mapping[str, Matrix]) -> None:
    got = closure(x, seeds)
    want = reference_closure(x, seeds)
    assert got == want
    assert got.basis == want.basis and got.dims == want.dims


def test_closure_matches_reference_on_corpus():
    count = 0
    for x in comparison_corpus():
        _assert_same(x, _framing_seed(x))
        count += 1
    assert count > 18000


def test_closure_matches_reference_on_adhm_fibers():
    for n in (5, 6, 7):
        for seed in range(4):
            e = gen_bundle(InstanceSpec("adhm", (n,), framing=2, degree_bound=n, seed=seed))
            for z in sample_points(e, 5):
                x = fiber_at(e, z)
                _assert_same(x, _framing_seed(x))


def _dependent_seed(rng: random.Random, n: int) -> Matrix:
    """Columns: two random vectors, a combination of them, and a zero column."""
    u, w = ([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(2))
    c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    cols = [u, w, [p + c * q for p, q in zip(u, w)], [Fraction(0)] * n]
    rng.shuffle(cols)
    return linalg.transpose(tuple(tuple(col) for col in cols))


def test_closure_matches_reference_on_dependent_and_zero_seed_columns():
    rng = random.Random(7)
    for k in range(60):
        x = random_rep(rep_spec(k, seed=k % 3))
        ordinary = x.double.ordinary_vertices
        for v in ordinary:
            _assert_same(x, {v: _dependent_seed(rng, x.dims[v])})
        _assert_same(x, {v: _dependent_seed(rng, x.dims[v]) for v in ordinary})
        zero = {v: linalg.zeros(x.dims[v], 2) for v in ordinary}
        _assert_same(x, zero)
        assert closure(x, zero).dims.total() == 0
        _assert_same(x, {})


def test_closure_matches_reference_on_rational_arrows():
    # the fibers of gauged bundles carry denominators 3, 5 and 7 in every
    # arrow, and the seeds their own; each matrix is cleared by its own
    rng = random.Random(11)
    proper = 0
    for n in (5, 6):
        for seed in range(4):
            spec = InstanceSpec("adhm", (n,), framing=2, degree_bound=n, seed=seed)
            e = rational_gauge(gen_bundle(spec))
            for z in ((1, 1), (2, 3), (3, -2)):
                x = fiber_at(e, z)
                _assert_same(x, _framing_seed(x))
                seeds = {"1": _dependent_seed(rng, x.dims["1"])}
                _assert_same(x, seeds)
                proper += closure(x, seeds).dims["1"] < n
    assert proper > 5


def test_closure_seed_errors_unchanged():
    x = random_rep(rep_spec(0))
    bad_vertex = {"nowhere": linalg.identity(1)}
    wrong_fiber = {x.double.framing: linalg.identity(x.dims[x.double.framing] + 1)}
    for seeds in (bad_vertex, wrong_fiber):
        for routine in (closure, reference_closure):
            with pytest.raises(ValueError):
                routine(x, seeds)
