"""Framed double-quiver representations over the rationals.

Points of the representation space are tuples of exact rational matrices,
one per doubled arrow.  This module owns the moment map: its value, its
linearization and the pairing identity between them.  It also carries
framed stability at weights (1, ..., 1) by the generation closure of the
framing fiber, the coordinate-subspace brute-force oracle, and the
reduced tangent space at a moment-map level.

`_residual` is the one sum of the relation, on integer rows of constants
or of form coefficients over one common denominator: `moment` reads it
at a rational point and `bundles` on the form matrices of a bundle.  `linearization` assembles
the gauge action derivative kappa and the moment derivative dmu as
matrices in unit-matrix bases, on the same kind of rows; the reduced
tangent space and the pairing identity (`hamiltonian_residual`, with the
symplectic form as the signed permutation of `_partners`) here and the
deformation complex in `complexes` all take them from it, and its
docstring holds the one proof that dmu kappa vanishes on a level set.
Rational matrices become those integer rows, and the closures' integer
vectors, only through `linalg.cleared`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from operator import mul
from typing import Mapping, Sequence

from . import linalg
from .linalg import Matrix, Vector
from .polynomials import IntRows, add_product, dense_at, scaled_rows
from .quivers import DimensionVector, DoubleQuiver, HypothesisError

ZERO = Fraction(0)

Label = tuple[str, int, int]


@dataclass(frozen=True)
class FramedRep:
    """One rational matrix per doubled arrow, shaped (v_head x v_tail)."""

    double: DoubleQuiver
    dims: DimensionVector
    x: Mapping[str, Matrix]

    def __post_init__(self) -> None:
        names = {a.name for a in self.double.arrows}
        if set(self.x) != names:
            raise ValueError(
                f"representation keys {sorted(self.x)} do not match doubled arrows {sorted(names)}"
            )
        for a in self.double.arrows:
            want = (self.dims[a.head], self.dims[a.tail])
            if not _fits(self.x[a.name], want):
                got = linalg.shape(self.x[a.name])
                raise ValueError(f"matrix for arrow {a.name!r} has shape {got}, expected {want}")

    def matrix(self, arrow: str) -> Matrix:
        return self.x[arrow]


@dataclass(frozen=True)
class TangentVector:
    """Same shape as a representation; the space is linear."""

    values: Mapping[str, Matrix]


@dataclass(frozen=True)
class LieElement:
    """Square block per ordinary vertex; the framing vertex acts by zero."""

    values: Mapping[str, Matrix]


@dataclass(frozen=True)
class SubRep:
    """Arrow-invariant family of subspaces, one basis matrix per vertex.

    Basis columns are independent; the stored form is the reduced row
    echelon form of the span, unique and so blind to how the span was
    found: equal subspaces compare equal.
    """

    basis: Mapping[str, Matrix]
    dims: DimensionVector


def _fits(m: Matrix, want: tuple[int, int]) -> bool:
    # a zero-row matrix cannot carry its column count; match on rows alone
    got = linalg.shape(m)
    return got == want or got[0] == want[0] == 0


def _check_tangent(x: FramedRep, xi: TangentVector) -> None:
    for a in x.double.arrows:
        if a.name not in xi.values:
            raise ValueError(f"tangent vector missing arrow {a.name!r}")
        got = linalg.shape(xi.values[a.name])
        want = (x.dims[a.head], x.dims[a.tail])
        if not _fits(xi.values[a.name], want):
            raise ValueError(f"tangent block {a.name!r} has shape {got}, expected {want}")


def _check_lie(x: FramedRep, g: LieElement) -> None:
    ordinary = set(x.double.ordinary_vertices)
    for v in g.values:
        if v not in ordinary:
            raise ValueError(f"gauge block at non-ordinary vertex {v!r}")
    for v, block in g.values.items():
        n = x.dims[v]
        if linalg.shape(block) != (n, n):
            raise ValueError(f"gauge block at {v!r} has shape {linalg.shape(block)}, expected ({n}, {n})")


def _level_map(x: FramedRep, level: Mapping[str, object] | None) -> dict[str, Fraction]:
    ordinary = x.double.ordinary_vertices
    out = {i: ZERO for i in ordinary}
    if level:
        for v, c in level.items():
            if v not in out:
                raise ValueError(f"moment level indexed by non-ordinary vertex {v!r}")
            out[v] = Fraction(c)
    return out


def moment(x: FramedRep, level: Mapping[str, object] | None = None) -> dict[str, Matrix]:
    """Moment-map residual per ordinary vertex.

    Component at i is sum over arrows with head i of (-1)^sign x_a x_abar,
    minus level_i times the identity; all components vanish exactly when x
    lies on the prescribed level set.  The sum is `_residual` on the arrow
    matrices cleared to constant integer rows (`_constant_rows`).
    """
    return _moment(x, level, *_constant_rows(x))


def _constant_rows(x: FramedRep) -> tuple[dict[str, IntRows], int]:
    """The arrow matrices of x as constant integer rows, L x_a with L the
    common denominator of all their entries (one `linalg.cleared` call),
    and L."""
    ints, den = linalg.cleared([row for m in x.x.values() for row in m])
    it = iter(ints)
    rows = {
        a: [[(c, (y,)) for c, y in enumerate(next(it)) if y] for _ in m] for a, m in x.x.items()
    }
    return rows, den


def _moment(
    x: FramedRep, level: Mapping[str, object] | None, rows: Mapping[str, IntRows], den: int
) -> dict[str, Matrix]:
    """`moment` of x from its `_constant_rows`: the integer residual over
    the square of its denominator, minus level_i on the diagonal."""
    lam = _level_map(x, level)
    return {
        i: tuple(
            tuple(
                Fraction(p[0] if p else 0, den * den) - (lam[i] if k == l else ZERO)
                for l, p in enumerate(row)
            )
            for k, row in enumerate(m)
        )
        for i, m in _residual(x.double, x.dims, rows).items()
    }


def _residual(
    dq: DoubleQuiver, ranks: Mapping[str, int], rows: Mapping[str, IntRows]
) -> dict[str, list[list[tuple[int, ...]]]]:
    """L^2 times the moment residual per ordinary vertex i, as an integer
    matrix of forms (ascending t-coefficients, () for zero), from the rows
    R_a = L x_a of every arrow over one common denominator L.

    Each term x_a x_abar of the relation at i is R_a R_abar / L^2, so the
    residual is the signed sum of the integer products R_a R_abar over
    L^2: exact, and zero exactly when that sum is.  Each entry accumulates
    its products by `polynomials.add_product`.  A product through a
    zero-rank vertex is zero and is skipped.  This is the one place where
    the relation is summed: `moment` reads it at a rational point, and
    `bundles` on the form matrices of a bundle.
    """
    out = {}
    for i in dq.ordinary_vertices:
        n = ranks[i]
        acc: list[list[list[int] | None]] = [[None] * n for _ in range(n)]
        for a in dq.arrows:
            if a.head != i or not ranks[a.tail]:
                continue
            r_bar = rows[a.opposite]
            for k, row in enumerate(scaled_rows(rows[a.name], -1 if a.sign else 1)):
                out_row = acc[k]
                for m, p in row:
                    for c, q in r_bar[m]:
                        out_row[c] = add_product(out_row[c], p, q)
        out[i] = [[tuple(p) if p and any(p) else () for p in row] for row in acc]
    return out


def hamiltonian_residual(x: FramedRep, xi: TangentVector, g: LieElement) -> Fraction:
    """Trace pairing of the moment derivative against g, minus the symplectic
    pairing of the action derivative with xi.  Identically zero, since mu
    is a moment map: <dmu(xi), g> = omega(kappa(g), xi).

    Both maps are `linearization`'s, at the arrows' `_constant_rows`, so
    they come as L dmu and L kappa; the residual is
    (<L dmu(xi), g> - omega(L kappa(g), xi)) / L.  The trace pairing
    tr(dmu_i g_i) meets the entry (i, k, l) of dmu with (i, l, k) of g, and
    omega is the signed permutation of `_partners`.
    """
    _check_lie(x, g)
    _check_tangent(x, xi)
    rows, den = _constant_rows(x)
    gauge, tangent, kappa, mu = linearization(x.double, x.dims, rows)
    xi_at = [xi.values[a][k][l] for a, k, l in tangent]
    g_at = [g.values[i][k][l] if i in g.values else ZERO for i, k, l in gauge]
    g_bar = [g.values[i][l][k] if i in g.values else ZERO for i, k, l in gauge]
    paired = sum(map(mul, _apply(mu, xi_at), g_bar))
    partner = _partners(x.double, tangent)
    omega = sum(sign * u * xi_at[j] for u, (j, sign) in zip(_apply(kappa, g_at), partner))
    return Fraction(paired - omega, den)


def _apply(m: IntRows, v: Sequence[Fraction]) -> list[Fraction]:
    """The constant integer rows m applied to the vector v."""
    return [sum(y * v[c] for c, (y,) in row) for row in m]


# ---------------------------------------------------------------------------
# the linearized complex g -> T -> g*


def linearization_bases(
    dq: DoubleQuiver, ranks: Mapping[str, int]
) -> tuple[tuple[Label, ...], tuple[Label, ...]]:
    """The gauge basis, the unit matrices E_kl of each ordinary vertex i
    labelled (i, k, l), and the tangent basis, those of each doubled arrow
    a labelled (a, k, l); vertices and arrows in quiver order, each block
    row-major."""
    n = {v: ranks[v] for v in dq.vertices}
    gauge = tuple((i, k, l) for i in dq.ordinary_vertices for k in range(n[i]) for l in range(n[i]))
    tangent = tuple(
        (a.name, k, l) for a in dq.arrows for k in range(n[a.head]) for l in range(n[a.tail])
    )
    return gauge, tangent


def linearization(
    dq: DoubleQuiver, ranks: Mapping[str, int], rows: Mapping[str, IntRows]
) -> tuple[tuple[Label, ...], tuple[Label, ...], IntRows, IntRows]:
    """The bases of `linearization_bases` and the matrices of kappa and
    dmu at the arrow matrices x, in the complex

        g --kappa--> T --dmu--> g*.

    kappa is the infinitesimal gauge action, kappa(g)_a = g_head x_a -
    x_a g_tail with g zero at the framing vertex; its rows are the tangent
    basis and its columns the gauge basis.  dmu is the derivative of the
    moment map, dmu(xi)_i = sum over arrows b with head i of (-1)^sign
    (xi_b x_bbar + x_b xi_bbar); its rows are the entries (i, k, l) of
    dmu_i, labelled like the gauge basis, and its columns the tangent
    basis.

    Matrices in and out are integer rows in the format of
    `polynomials.integer_rows`: per row, the nonzero entries as (column,
    ascending integer t-coefficients).  `rows` holds L x_a for every
    arrow, over one common L, so the output is L kappa and L dmu; at a
    rational point every entry is a 1-tuple.  The signs, (-1)^sign in dmu
    and the minus of x_a g_tail, scale whole arrows
    (`polynomials.scaled_rows`).
    Placements that land on one entry add coefficientwise, and a sum that
    cancels is dropped: on a loop a at i, kappa has x_ll - x_kk from
    (i, k, l) to (a, k, l), and dmu meets the terms of both arrows of a
    loop pair.

    dmu kappa is [g_i, mu_i(x)] at i, so the two maps compose to zero
    exactly on a level set: with xi = kappa(g) and t the tail of b,
    xi_b x_bbar + x_b xi_bbar = (g_i x_b - x_b g_t) x_bbar + x_b (g_t x_bbar
    - x_bbar g_i) = [g_i, x_b x_bbar], where the two terms that carry g_t
    cancel, also when t is the framing vertex and g_t is zero in both.  The
    signed sum over b is [g_i, mu_i(x) + lambda_i I] = [g_i, mu_i(x)],
    which vanishes when the moment residual mu(x) does.
    """
    ranks = {v: ranks[v] for v in dq.vertices}
    gauge, tangent = linearization_bases(dq, ranks)
    g_at = {i: c for c, (i, k, l) in enumerate(gauge) if k == l == 0}
    t_at = {a: c for c, (a, k, l) in enumerate(tangent) if k == l == 0}
    kappa: list[dict[int, tuple[int, ...]]] = [{} for _ in tangent]
    mu: list[dict[int, tuple[int, ...]]] = [{} for _ in gauge]
    framing = dq.framing
    for a in dq.arrows:
        n_h, n_t = ranks[a.head], ranks[a.tail]
        if not (n_h and n_t):
            continue  # a product through a zero-rank vertex is zero
        x, x_bar = rows[a.name], rows[a.opposite]
        at, bar_at = t_at[a.name], t_at[a.opposite]
        if a.head != framing:
            head_at = g_at[a.head]
            for m, row in enumerate(x):
                for l, p in row:
                    # g_head x_a: E_km of the head moves row m to row k
                    for k in range(n_h):
                        _place(kappa[at + k * n_t + l], head_at + k * n_h + m, p)
            sign = -1 if a.sign else 1
            signed, signed_bar = scaled_rows(x, sign), scaled_rows(x_bar, sign)
            for m, row in enumerate(signed_bar):
                for l, p in row:
                    # xi_a x_abar: E_km of a meets row m of x_abar
                    for k in range(n_h):
                        _place(mu[head_at + k * n_h + l], at + k * n_t + m, p)
            for k, row in enumerate(signed):
                for m, p in row:
                    # x_a xi_abar: E_ml of abar meets column m of x_a
                    for l in range(n_h):
                        _place(mu[head_at + k * n_h + l], bar_at + m * n_h + l, p)
        if a.tail != framing:
            tail_at = g_at[a.tail]
            for k, row in enumerate(scaled_rows(x, -1)):
                for m, p in row:
                    # x_a g_tail: E_ml of the tail moves column m to column l
                    for l in range(n_t):
                        _place(kappa[at + k * n_t + l], tail_at + m * n_t + l, p)
    return gauge, tangent, _sorted(kappa), _sorted(mu)


def _sorted(rows: list[dict[int, tuple[int, ...]]]) -> IntRows:
    return [sorted(row.items()) for row in rows]


def _place(row: dict[int, tuple[int, ...]], c: int, p: tuple[int, ...]) -> None:
    """Add p to entry c of row; a sum that cancels is removed."""
    got = row.get(c)
    if got is None:
        row[c] = p
    elif len(got) != len(p):
        raise ValueError(f"degree mismatch {len(got) - 1} + {len(p) - 1}")
    elif any(s := tuple([u + v for u, v in zip(got, p)])):
        row[c] = s
    else:
        del row[c]


# ---------------------------------------------------------------------------
# generation closure and framed stability


def _accepted(
    dq: DoubleQuiver,
    arrows: Mapping[str, Sequence[Sequence[int]]],
    todo: list[tuple[str, tuple[int, ...]]],
) -> dict[str, list[tuple[int, ...]]]:
    """The vectors the closure accepts, per vertex, on integer arrow
    matrices from the integer seed vectors `todo` (taken last first):
    independent, since `add_row` accepts only a vector outside the span of
    those before it, so their number is the dimension of the closure
    there."""
    tables: dict[str, dict[int, dict[int, int]]] = {v: {} for v in dq.vertices}
    kept: dict[str, list[tuple[int, ...]]] = {v: [] for v in dq.vertices}
    out: dict[str, list[tuple[str, Sequence[Sequence[int]]]]] = {v: [] for v in dq.vertices}
    for a in dq.arrows:
        out[a.tail].append((a.head, arrows[a.name]))
    while todo:
        v, w = todo.pop()
        if linalg.add_row(tables[v], {c: y for c, y in enumerate(w) if y}):
            kept[v].append(w)
            todo.extend(
                (head, tuple([sum(map(mul, row, w)) for row in m])) for head, m in out[v]
            )
    return kept


def _subrep(x: FramedRep, kept: Mapping[str, list[tuple[int, ...]]]) -> SubRep:
    """The subrepresentation spanned by the accepted vectors, with the
    canonical bases of `row_space_basis`."""
    bases = {v: linalg.row_space_basis(kept[v]) for v in x.double.vertices}
    dims = DimensionVector(
        tuple(x.double.vertices), tuple(len(bases[v]) for v in x.double.vertices)
    )
    basis = {v: linalg.transpose(bases[v]) if bases[v] else tuple(() for _ in range(x.dims[v])) for v in x.double.vertices}
    return SubRep(basis, dims)


@dataclass(frozen=True)
class FramedStabilityVerdict:
    stable: bool
    witness: SubRep | None


def _framing_vertex(dq: DoubleQuiver) -> str:
    framing = dq.framing
    if framing is None:
        raise HypothesisError("framed stability needs a framing vertex")
    return framing


def is_stable_framed(x: FramedRep) -> FramedStabilityVerdict:
    """Framed stability at weights (1, ..., 1).

    Stable iff the closure of the full framing fiber is the whole space.
    On failure the closure itself is the witness: a proper arrow-invariant
    framing-full family of strictly negative weight.  A zero-dimensional
    ordinary vertex is always full, as in the quasimap reading.

    The closure's dimensions are the numbers of vectors it accepts
    (`_framing_closure`, on the arrow matrices cleared by
    `linalg.cleared`), so the verdict needs no basis; the canonical bases
    are built only for the witness of an unstable fiber.
    """
    kept = _framing_closure(
        x.double, x.dims, {a.name: linalg.cleared(x.x[a.name])[0] for a in x.double.arrows}
    )
    if tuple(len(kept[v]) for v in x.double.vertices) == x.dims.values:
        return FramedStabilityVerdict(True, None)
    return FramedStabilityVerdict(False, _subrep(x, kept))


def _framing_closure(
    dq: DoubleQuiver,
    dims: Mapping[str, int] | DimensionVector,
    arrows: Mapping[str, Sequence[Sequence[int]]],
) -> dict[str, list[tuple[int, ...]]]:
    """The vectors the closure of the full framing fiber accepts
    (`_accepted`), on integer arrow matrices of the given dimensions:
    the core of `is_stable_framed`, shared with the sample fiber of
    `bundles._Generation`.  A positive scale per arrow matrix changes no
    span, so any such scale of the rational matrices gives the same
    verdict."""
    framing = _framing_vertex(dq)
    n = dims[framing]
    if n == 0:
        raise HypothesisError("no framing dimension: v is zero at the framing vertex")
    units = [(framing, tuple([int(r == c) for r in range(n)])) for c in range(n)]
    return _accepted(dq, arrows, units)


def _subsets(n: int):
    items = range(n)
    return chain.from_iterable(combinations(items, k) for k in range(n + 1))


def brute_force_framed_check(x: FramedRep) -> bool:
    """Independent stability oracle for coordinate-subspace-preserving matrices.

    Requires every block to have entries in {0, 1} with at most one nonzero
    per column.  Enumerates every coordinate-subspace family outright,
    keeps the arrow-invariant ones with full framing part, and looks for a
    proper one; never calls the closure routine.
    """
    framing = _framing_vertex(x.double)
    for a in x.double.arrows:
        m = x.x[a.name]
        for col in linalg.transpose(m):
            nonzero = [e for e in col if e != 0]
            if any(e != 1 for e in nonzero) or len(nonzero) > 1:
                raise HypothesisError(
                    f"arrow {a.name!r} is not a coordinate-subspace-preserving 0/1 matrix"
                )
    verts = x.double.vertices
    ordinary = x.double.ordinary_vertices
    full_total = sum(x.dims[i] for i in ordinary)
    choices = []
    for v in verts:
        if v == framing:
            choices.append([tuple(range(x.dims[v]))])
        else:
            choices.append(list(_subsets(x.dims[v])))
    for family in product(*choices):
        sel = dict(zip(verts, family))
        if sum(len(sel[i]) for i in ordinary) == full_total:
            continue  # not proper
        ok = True
        for a in x.double.arrows:
            m = x.x[a.name]
            head_set = set(sel[a.head])
            for c in sel[a.tail]:
                hit = [r for r in range(x.dims[a.head]) if m[r][c] != 0]
                if hit and hit[0] not in head_set:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return False  # proper invariant framing-full family destabilizes
    return True


# ---------------------------------------------------------------------------
# reduced tangent space


@dataclass(frozen=True)
class ReducedTangentReport:
    dimension: int
    nondegenerate: bool
    stabilizer_trivial: bool  # infinitesimally: the action derivative is injective


def _partners(dq: DoubleQuiver, tangent: tuple[Label, ...]) -> list[tuple[int, int]]:
    """The symplectic form as a signed permutation of the basis `tangent`:
    tr(A_a B_abar) - tr(A_abar B_a) pairs the coordinate (a, p, q) with
    (abar, q, p), with sign + for a base arrow a and - for its opposite.
    Per coordinate, its partner's index and the sign."""
    at = {label: c for c, label in enumerate(tangent)}
    opposite = {a.name: (a.opposite, 1 if a.sign == 0 else -1) for a in dq.arrows}
    partner: list[tuple[int, int]] = []
    for a, p, q in tangent:
        bar, sign = opposite[a]
        partner.append((at[bar, q, p], sign))
    return partner


def _gram(
    dq: DoubleQuiver, tangent: tuple[Label, ...], vectors: tuple[Vector, ...]
) -> tuple[tuple[int, ...], ...]:
    """Gram matrix K^T Omega K of the symplectic form on tangent vectors in
    the basis `tangent`, each first scaled to coprime integers (a rescaling
    of rows and columns by nonzero constants, so the rank is that of the
    Gram matrix of the vectors themselves).  Omega is the signed
    permutation of `_partners`.
    """
    partner = _partners(dq, tangent)
    rows = [linalg.integer_row(dict(enumerate(v))) for v in vectors]
    paired = [
        {c: sign * row[j] for c, (j, sign) in enumerate(partner) if j in row} for row in rows
    ]
    return tuple(
        tuple(sum(v * w.get(c, 0) for c, v in row.items()) for w in paired) for row in rows
    )


def reduced_tangent(x: FramedRep, level: Mapping[str, object] | None = None) -> ReducedTangentReport:
    """Dimension and symplectic nondegeneracy of ker(moment derivative)/im(action derivative).

    Requires the moment residual at the given level to vanish.  A
    non-injective action derivative (positive-dimensional stabilizer) is
    reported through the flag, not raised.  The arrows are cleared once
    (`_constant_rows`, over the common denominator L of all their
    entries) for both the residual check and `linearization`, which proves
    that its two maps compose to zero on the level set.  So they come as
    L kappa and L dmu, densified by `polynomials.dense_at`; one positive
    scale changes neither the rank of kappa nor the kernel of dmu, and the
    Gram matrix reads only that kernel.
    """
    rows, den = _constant_rows(x)
    residual = _moment(x, level, rows, den)
    if any(not linalg.is_zero_matrix(m) for m in residual.values()):
        raise HypothesisError("moment residual nonzero at the given level")

    gauge, tangent, kappa, mu = linearization(x.double, x.dims, rows)
    rank_kappa = linalg.rank(dense_at(kappa, len(gauge), 0))
    kernel = linalg.nullspace(dense_at(mu, len(tangent), 0)) if gauge else linalg.identity(len(tangent))
    dimension = len(kernel) - rank_kappa
    nondeg = (linalg.rank(_gram(x.double, tangent, kernel)) == dimension) if kernel else dimension == 0
    return ReducedTangentReport(dimension, nondeg, rank_kappa == len(gauge))
