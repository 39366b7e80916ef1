"""Tests of the exact linear algebra, with Gauss-Jordan `rref` as the oracle.

`rref` below is the dense `Fraction` elimination that `linalg` used before
its kernel, nullspace, solve and row basis all ran on `add_row`; the oracle
test requires their answers to equal the ones derived from it.
`_reference_add_row` is the kernel as it was when it removed content after
every reduction step; `add_row` must build the same pivot tables.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from quiverbundles import linalg
from quiverbundles.linalg import ONE, ZERO, Matrix, shape

from _builders import mat, vec
from _oracles import matvec, trace


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in a]
    m, n = shape(a)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rref_nullspace(a):
    r, pivots = rref(a)
    n = shape(a)[1]
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for i, c in enumerate(pivots):
            v[c] = -r[i][free]
        basis.append(tuple(v))
    return tuple(basis)


def rref_solve(a, b):
    """Column by column: the rref of [a | b_j], None once one is inconsistent."""
    n = shape(a)[1]
    cols = []
    for j in range(shape(b)[1]):
        r, pivots = rref(tuple(row + (bb[j],) for row, bb in zip(a, b)))
        if n in pivots:
            return None
        x = [ZERO] * n
        for i, c in enumerate(pivots):
            x[c] = r[i][n]
        cols.append(x)
    return tuple(tuple(col[c] for col in cols) for c in range(n))


def rref_row_space_basis(rows):
    live = [r for r in rows if any(x != 0 for x in r)]
    if not live:
        return ()
    reduced, pivots = rref(tuple(live))
    return reduced[: len(pivots)]


def _reference_normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _reference_clear(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """Clear row at col against pivot, fraction-free, and make it primitive."""
    g = gcd(pivot[col], row[col])
    p, f = pivot[col] // g, row[col] // g
    if p != 1:
        for c in row:
            row[c] *= p
    for c, v in pivot.items():
        # pivot entries are nonzero, so w == 0 only where row has c
        w = row.get(c, 0) - f * v
        if w:
            row[c] = w
        else:
            del row[c]
    return _reference_normalize_int_row(row)


def _reference_add_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Add an integer row to a pivot table; True iff it was independent.

    The table maps each stored row's least column to that row, so its rows
    are in echelon form and span the rows added so far.  The new row is
    cleared against the pivot at its leading column (`_clear`) until it
    vanishes or leads at a free column, where it is stored.  The row must
    hold no zero entries; it is reduced in place.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return True
        row = _reference_clear(row, pivot, lead)
    return False


def _both_kernels(rows: list[dict[int, int]]) -> tuple[list, dict, list, dict]:
    """Each kernel's return values and table over copies of the rows."""
    new: dict[int, dict[int, int]] = {}
    old: dict[int, dict[int, int]] = {}
    got = [linalg.add_row(new, dict(row)) for row in rows]
    want = [_reference_add_row(old, dict(row)) for row in rows]
    return got, new, want, old


def _random_int_rows(rng: random.Random, primitive: bool) -> list[dict[int, int]]:
    m, n = rng.randint(1, 7), rng.randint(1, 8)
    dense = [
        [rng.randint(-12, 12) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(m)
    ]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randrange(m), rng.randrange(m)
        ca, cb = rng.randint(-5, 5), rng.randint(-5, 5)
        dense.append([ca * x + cb * y for x, y in zip(dense[a], dense[b])])
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    if primitive:
        return [_reference_normalize_int_row(row) for row in rows]
    return [{c: x * rng.randint(2, 6) for c, x in row.items()} for row in rows]


def test_add_row_builds_the_reference_tables_on_primitive_rows():
    rng = random.Random(18)
    dependent = 0
    for _ in range(3000):
        rows = _random_int_rows(rng, primitive=True)
        got, new, want, old = _both_kernels(rows)
        assert got == want
        assert new == old
        dependent += not all(got)
    assert dependent > 1000


def test_add_row_stores_the_reference_primitive_parts():
    rng = random.Random(81)
    for _ in range(1000):
        rows = _random_int_rows(rng, primitive=False)
        got, new, want, old = _both_kernels(rows)
        assert got == want
        assert new == {c: _reference_normalize_int_row(row) for c, row in old.items()}
        assert all(_reference_normalize_int_row(row) == row for row in new.values())


def test_add_row_builds_the_reference_tables_on_scatter_rows(monkeypatch):
    # the minimal model's rows, in `pivot_columns` order: the reference
    # kernel got them cleared by `integer_row`, `add_row` gets them as they are
    from quiverbundles import complexes
    from quiverbundles.generators import stable_bundles

    seen: list[list[dict[int, int]]] = []

    def keep(rows):
        seen.append([dict(row) for row in rows])
        return linalg.sparse_rank(rows)

    monkeypatch.setattr(complexes, "sparse_rank", keep)
    for e in stable_bundles(20, seed=23, degree_bound=4):
        complexes.hypercoh_dims(complexes.build_complex(e))
    assert len(seen) == 60
    stored = 0
    for rows in seen:
        rows.sort(key=len)
        new: dict[int, dict[int, int]] = {}
        old: dict[int, dict[int, int]] = {}
        got = [linalg.add_row(new, dict(row)) for row in rows]
        want = [_reference_add_row(old, _reference_normalize_int_row(dict(row))) for row in rows]
        assert got == want
        assert new == old
        stored += len(new)
    assert stored > 400


def test_pivot_columns_and_sparse_rank_leave_their_rows_unchanged():
    rng = random.Random(7)
    kinds = {
        "int": lambda: rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        "mixed": lambda: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 3))),
    }
    for kind, draw in kinds.items():
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [{c: draw() for c in range(n) if rng.random() < 0.7} for _ in range(m)]
            rows.extend(dict(rows[rng.randrange(m)]) for _ in range(rng.randint(0, 2)))
            before = repr(rows)
            columns = linalg.pivot_columns(rows)
            assert repr(rows) == before, kind
            assert linalg.sparse_rank(rows) == len(columns)
            assert repr(rows) == before, kind


def _reference_int_row(row):
    """`_int_row` as it was, with a per-value type check."""
    values = row.values()
    if 0 not in values and all(map(int.__instancecheck__, values)):
        return dict(row)
    return linalg.integer_row(row)


def test_int_row_dispatch_matches_the_per_value_type_check(monkeypatch):
    # the sum-type test copies exactly the rows the per-value check copied:
    # bools are ints, and an integral Fraction such as Fraction(4) is not
    rng = random.Random(32)
    cleared = []
    real = linalg.integer_row

    def counting(row):
        cleared.append(1)
        return real(row)

    monkeypatch.setattr(linalg, "integer_row", counting)
    draws = (
        lambda: rng.choice((-1, 1)) * rng.randint(1, 9),
        lambda: rng.choice((True, False, 0)),
        lambda: rng.choice((-1, 1)) * rng.randint(2**62, 2**90),
        lambda: Fraction(rng.randint(-9, 9)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
    )
    copied = 0
    for _ in range(3000):
        kinds = rng.sample(draws, rng.randint(1, len(draws)))
        row = {c: rng.choice(kinds)() for c in range(rng.randint(0, 6))}
        before = repr(row)
        cleared.clear()
        want = _reference_int_row(row)
        assert len(cleared) <= 1
        through = bool(cleared)
        cleared.clear()
        got = linalg._int_row(row)
        assert bool(cleared) == through
        assert got == want and got is not row and repr(row) == before
        assert all(type(v) in (int, bool) for v in got.values())
        copied += not through
    assert 300 < copied < 2700
    assert linalg._int_row({0: Fraction(4), 1: 2}) == {0: 2, 1: 1}
    assert linalg._int_row({0: True, 1: 2}) == {0: True, 1: 2}

    # the minimal model's rows are nonzero ints: none of them is cleared
    from quiverbundles import complexes
    from quiverbundles.generators import stable_bundles

    corpus = list(stable_bundles(20, seed=23, degree_bound=4))
    cleared.clear()
    for e in corpus:
        complexes.hypercoh_dims(complexes.build_complex(e))
    assert not cleared


def test_matmul_identity_and_trace():
    a = mat([[1, 2], [3, 4]])
    assert linalg.matmul(a, linalg.identity(2)) == a
    assert trace(a) == 5


def test_rref_rank_nullspace_consistency():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r = linalg.rank(a)
    ns = linalg.nullspace(a)
    assert r + len(ns) == 3
    for v in ns:
        assert all(x == 0 for x in matvec(a, v))


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 1], [1, -1]])
    x = linalg.solve(a, mat([[3], [1]]))
    assert x == ((Fraction(2),), (Fraction(1),))
    b = mat([[1, 1], [2, 2]])
    assert linalg.solve(b, mat([[1], [3]])) is None
    assert linalg.solve(b, mat([[1], [2]])) is not None


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
        assert linalg.sparse_rank(rows) == len(rref(dense)[1])


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
        want = len(rref(matrix)[1])
        # explicit zero entries stay in the sparse rows
        rows = [
            {c: x for c, x in enumerate(row) if x != 0 or rng.random() < 0.5}
            for row in matrix
        ]
        rng.shuffle(rows)
        assert linalg.sparse_rank(rows) == want
        assert linalg.rank(matrix) == want


def _q(rng, height=9):
    return Fraction(rng.randint(-height, height), rng.choice((1, 2, 3, 7)))


def _random_matrix(rng, m, n):
    return [[_q(rng) if rng.random() < 0.6 else ZERO for _ in range(n)] for _ in range(m)]


def test_cleared_against_fraction_arithmetic():
    rng = random.Random(23)
    for _ in range(400):
        groups = [
            tuple(_q(rng) if rng.random() < 0.7 else ZERO for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 4))
        ]
        ints, den = linalg.cleared(groups)
        assert den == lcm(*(x.denominator for g in groups for x in g))
        assert [len(g) for g in ints] == [len(g) for g in groups]
        for group, got in zip(groups, ints):
            assert all(type(v) is int for v in got)
            assert [Fraction(v) for v in got] == [x * den for x in group]
            assert all(v == 0 for x, v in zip(group, got) if x == 0)
        integral = [tuple(Fraction(x.numerator) for x in g) for g in groups]
        assert linalg.cleared(integral) == ([tuple(x.numerator for x in g) for g in groups], 1)
    assert linalg.cleared([]) == ([], 1)
    assert linalg.cleared([(), ()]) == ([(), ()], 1)
    assert linalg.cleared([(ZERO, Fraction(1, 6)), (Fraction(-3, 4),)]) == ([(0, 2), (-9,)], 12)


def test_nullspace_solve_row_basis_match_rref_oracle():
    rng = random.Random(2024)
    inconsistent = one_bad_column = 0
    for trial in range(3000):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows = _random_matrix(rng, m, n)
        if trial % 5 == 0:
            rows[rng.randrange(m)] = [ZERO] * n
        if trial % 7 == 0:
            c = rng.randrange(n)
            for row in rows:
                row[c] = ZERO
        if trial % 3 == 0:
            i, j = rng.randrange(m), rng.randrange(m)
            ci, cj = _q(rng, 5), _q(rng, 5)
            rows.append([ci * x + cj * y for x, y in zip(rows[i], rows[j])])
        a = tuple(tuple(row) for row in rows)
        assert linalg.nullspace(a) == rref_nullspace(a)
        assert linalg.row_space_basis(a) == rref_row_space_basis(a)

        # b = a x is consistent; a left-kernel vector y (y a = 0, y y > 0)
        # added to one column makes exactly that column inconsistent
        k = rng.randint(0, 3)
        x = tuple(tuple(_q(rng, 4) for _ in range(k)) for _ in range(n))
        b = [list(row) for row in linalg.matmul(a, x)] if k else [[] for _ in a]
        left = rref_nullspace(linalg.transpose(a))
        if k and left and trial % 2 == 0:
            j = rng.randrange(k)
            for row, yy in zip(b, left[0]):
                row[j] += yy
            one_bad_column += k > 1
        elif k and trial % 4 == 1:
            for row in b:
                row[-1] = _q(rng)
        b = tuple(tuple(row) for row in b)
        want = rref_solve(a, b)
        inconsistent += want is None
        assert linalg.solve(a, b) == want
        if want is not None and k:
            assert linalg.matmul(a, want) == b
    assert inconsistent > 500 and one_bad_column > 200


def test_pivot_columns_match_rref_oracle():
    # zero, rank-deficient and full-rank matrices, rows in any order
    rng = random.Random(41)
    deficient = 0
    for trial in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows = _random_matrix(rng, m, n)
        if trial % 9 == 0:
            rows = [[ZERO] * n for _ in range(m)]
        if trial % 4 == 0:
            c = rng.randrange(n)
            for row in rows:
                row[c] = ZERO
        if trial % 3 == 0:
            i, j = rng.randrange(m), rng.randrange(m)
            ci, cj = _q(rng, 5), _q(rng, 5)
            rows.append([ci * x + cj * y for x, y in zip(rows[i], rows[j])])
        a = tuple(tuple(row) for row in rows)
        want = list(rref(a)[1])
        assert list(linalg._rref(a)) == want
        sparse = [{c: x for c, x in enumerate(row) if x != 0} for row in a]
        rng.shuffle(sparse)
        assert linalg.pivot_columns(sparse) == want
        assert linalg.sparse_rank(sparse) == len(want)
        deficient += len(want) < min(len(a), n)
    assert linalg.pivot_columns([]) == []
    assert deficient > 100


def test_pivot_columns_stops_once_every_column_holds_a_pivot(monkeypatch):
    # a tall matrix of full column rank: once each of its n columns holds a
    # pivot, the rows left lie in the span and are never added; a matrix
    # with a dependent column gets every row added
    rng = random.Random(20)
    added = []
    real = linalg.add_row

    def counting(pivots, row):
        added.append(len(row))
        return real(pivots, row)

    monkeypatch.setattr(linalg, "add_row", counting)
    full = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(2 * n + 1, 4 * n + 1)
        rows = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)] for _ in range(m)]
        deficient = n > 1 and rng.random() < 0.3
        if deficient:
            for row in rows:
                row[n - 1] = 2 * row[0]
        a = tuple(tuple(row) for row in rows)
        want = list(rref(a)[1])
        sparse = [{c: x for c, x in enumerate(row) if x != 0} for row in a]
        added.clear()
        assert linalg.pivot_columns(sparse) == want
        if want == list(range(n)):
            full += 1
            assert len(added) < m
        else:
            assert len(added) == m
    assert full > 100


def test_oracle_empty_shapes():
    assert linalg.nullspace(()) == rref_nullspace(()) == ()
    assert linalg.row_space_basis(()) == rref_row_space_basis(()) == ()
    no_cols = ((), (), ())
    assert linalg.nullspace(no_cols) == rref_nullspace(no_cols) == ()
    assert linalg.row_space_basis(no_cols) == rref_row_space_basis(no_cols) == ()
    assert linalg.solve(no_cols, ((), (), ())) == rref_solve(no_cols, ((), (), ())) == ()
    assert linalg.solve(no_cols, mat([[0], [0], [0]])) == ()
    assert linalg.solve(no_cols, mat([[0], [1], [0]])) is None
    zero = linalg.zeros(2, 3)
    assert linalg.nullspace(zero) == rref_nullspace(zero) == linalg.identity(3)
    assert linalg.row_space_basis(zero) == ()
    assert linalg.solve(zero, ((), ())) == rref_solve(zero, ((), ())) == ((), (), ())
