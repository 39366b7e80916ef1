import random
from fractions import Fraction

from quiverbundles import linalg
from quiverbundles.linalg import mat, vec


def test_matmul_identity_and_trace():
    a = mat([[1, 2], [3, 4]])
    assert linalg.matmul(a, linalg.identity(2)) == a
    assert linalg.trace(a) == 5


def test_rref_rank_nullspace_consistency():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r = linalg.rank(a)
    ns = linalg.nullspace(a)
    assert r + len(ns) == 3
    for v in ns:
        assert all(x == 0 for x in linalg.matvec(a, v))


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 1], [1, -1]])
    x = linalg.solve(a, vec([3, 1]))
    assert x == (Fraction(2), Fraction(1))
    b = mat([[1, 1], [2, 2]])
    assert linalg.solve(b, vec([1, 3])) is None
    assert linalg.solve(b, vec([1, 2])) is not None


def test_row_space_basis_canonical_and_membership():
    rows = (vec([2, 4, 0]), vec([1, 2, 0]), vec([0, 0, 3]))
    basis = linalg.row_space_basis(rows)
    assert basis == (vec([1, 2, 0]), vec([0, 0, 1]))
    assert linalg.rank(basis + (vec([3, 6, 5]),)) == len(basis)
    assert linalg.rank(basis + (vec([0, 1, 0]),)) != len(basis)


def test_sparse_rank_matches_dense_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        dense = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(m)
        )
        rows = [
            {c: x for c, x in enumerate(row) if x != 0}
            for row in dense
        ]
        assert linalg.sparse_rank(rows) == len(linalg.rref(dense)[1])


def test_sparse_rank_empty_and_zero_rows():
    assert linalg.sparse_rank([]) == 0
    assert linalg.sparse_rank([{}, {}]) == 0
    assert linalg.sparse_rank([{5: Fraction(7)}]) == 1


def test_sparse_rank_matches_rref_with_zero_entries_and_dependent_rows():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 9)
        dense = [
            [
                Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                if rng.random() < 0.4
                else Fraction(0)
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randrange(m), rng.randrange(m)
            ca, cb = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2))
            dense.append([ca * x + cb * y for x, y in zip(dense[a], dense[b])])
        matrix = tuple(tuple(row) for row in dense)
        want = len(linalg.rref(matrix)[1])
        # explicit zero entries stay in the sparse rows
        rows = [
            {c: x for c, x in enumerate(row) if x != 0 or rng.random() < 0.5}
            for row in matrix
        ]
        rng.shuffle(rows)
        assert linalg.sparse_rank(rows) == want
        assert linalg.rank(matrix) == want
