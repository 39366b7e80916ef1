"""Framed double-quiver representations over the rationals.

Points of the representation space are tuples of exact rational matrices,
one per doubled arrow.  This module carries the symplectic form, the
moment map and its derivative, the gauge action derivative, generation
closure, framed stability at weights (1, ..., 1), the coordinate-subspace
brute-force oracle, torus rescaling, and the reduced tangent space at a
moment-map level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm
from typing import Mapping

from . import linalg
from .linalg import Matrix, Vector
from .quivers import (
    DimensionVector,
    DoubleQuiver,
    HypothesisError,
    StabilityWeights,
    TorusElement,
    theta_value,
)

ZERO = Fraction(0)


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
            got = linalg.shape(self.x[a.name])
            want = (self.dims[a.head], self.dims[a.tail])
            # a zero-row matrix cannot carry its column count; match on rows alone
            if got != want and not (want[0] == 0 and got[0] == 0):
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


def _check_tangent(x: FramedRep, xi: TangentVector) -> None:
    for a in x.double.arrows:
        if a.name not in xi.values:
            raise ValueError(f"tangent vector missing arrow {a.name!r}")
        got = linalg.shape(xi.values[a.name])
        want = (x.dims[a.head], x.dims[a.tail])
        if got != want:
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
    lies on the prescribed level set.
    """
    lam = _level_map(x, level)
    out: dict[str, Matrix] = {}
    for i in x.double.ordinary_vertices:
        n = x.dims[i]
        acc = linalg.scale(-lam[i], linalg.identity(n))
        for a in x.double.arrows:
            if a.head != i:
                continue
            term = linalg.matmul(x.x[a.name], x.x[a.opposite])
            acc = linalg.add(acc, term if a.sign == 0 else linalg.neg(term))
        out[i] = acc
    return out


def moment_derivative(x: FramedRep, xi: TangentVector) -> dict[str, Matrix]:
    """Exact derivative of the quadratic moment map at x in direction xi."""
    _check_tangent(x, xi)
    out: dict[str, Matrix] = {}
    for i in x.double.ordinary_vertices:
        acc = linalg.zeros(x.dims[i], x.dims[i])
        for a in x.double.arrows:
            if a.head != i:
                continue
            term = linalg.add(
                linalg.matmul(xi.values[a.name], x.x[a.opposite]),
                linalg.matmul(x.x[a.name], xi.values[a.opposite]),
            )
            acc = linalg.add(acc, term if a.sign == 0 else linalg.neg(term))
        out[i] = acc
    return out


def symplectic_form(x: FramedRep, a_vec: TangentVector, b_vec: TangentVector) -> Fraction:
    """Canonical pairing: sum over base arrows of tr(A+ B-) - tr(A- B+)."""
    _check_tangent(x, a_vec)
    _check_tangent(x, b_vec)
    total = ZERO
    for a in x.double.arrows:
        if a.sign != 0:
            continue
        total += linalg.trace(linalg.matmul(a_vec.values[a.name], b_vec.values[a.opposite]))
        total -= linalg.trace(linalg.matmul(a_vec.values[a.opposite], b_vec.values[a.name]))
    return total


def action_derivative(g: LieElement, x: FramedRep) -> TangentVector:
    """Infinitesimal gauge action: block at a is g_head x_a - x_a g_tail, zero at the framing."""
    _check_lie(x, g)
    out: dict[str, Matrix] = {}
    for a in x.double.arrows:
        block = linalg.zeros(x.dims[a.head], x.dims[a.tail])
        gh = g.values.get(a.head)
        gt = g.values.get(a.tail)
        if gh is not None:
            block = linalg.add(block, linalg.matmul(gh, x.x[a.name]))
        if gt is not None:
            block = linalg.sub(block, linalg.matmul(x.x[a.name], gt))
        out[a.name] = block
    return TangentVector(out)


def hamiltonian_residual(x: FramedRep, xi: TangentVector, g: LieElement) -> Fraction:
    """Trace pairing of the moment derivative against g, minus the symplectic
    pairing of the action derivative with xi.  Identically zero."""
    _check_lie(x, g)
    dmu = moment_derivative(x, xi)
    paired = ZERO
    for i, block in dmu.items():
        gi = g.values.get(i)
        if gi is not None:
            paired += linalg.trace(linalg.matmul(block, gi))
    return paired - symplectic_form(x, action_derivative(g, x), xi)


# ---------------------------------------------------------------------------
# generation closure and framed stability


def closure(x: FramedRep, seeds: Mapping[str, Matrix]) -> SubRep:
    """Smallest arrow-invariant subspace family containing the seed columns.

    Each vertex keeps an `add_row` pivot table.  The seed columns, and the
    images of each accepted vector along the arrows out of its vertex, are
    offered to the table at their vertex; a rejected vector lies in the span
    accepted there, so its images would add nothing.  The accepted spans
    lie in the closure, hold the seeds and are invariant (each image of an
    accepted vector was offered at its head), so they are the closure.

    The vectors are integers: each seed matrix and each arrow's matrix is
    cleared once by the common denominator of its entries.  A vector then
    stands for a nonzero multiple of the one the rational maps give, and a
    nonzero scalar per vector or per arrow changes no span, so the spans,
    and their canonical bases from `row_space_basis`, are the same.
    """
    tables: dict[str, dict[int, dict[int, int]]] = {v: {} for v in x.double.vertices}
    kept: dict[str, list[tuple[int, ...]]] = {v: [] for v in x.double.vertices}
    todo: list[tuple[str, tuple[int, ...]]] = []
    for v, m in seeds.items():
        if v not in tables:
            raise ValueError(f"seed at unknown vertex {v!r}")
        if m and linalg.shape(m)[0] != x.dims[v]:
            raise ValueError(f"seed at {v!r} lives in the wrong fiber")
        todo.extend((v, w) for w in zip(*_cleared(m)))
    arrows: dict[str, list[tuple[str, list[list[int]]]]] = {v: [] for v in x.double.vertices}
    for a in x.double.arrows:
        arrows[a.tail].append((a.head, _cleared(x.x[a.name])))
    while todo:
        v, w = todo.pop()
        if linalg.add_row(tables[v], {c: y for c, y in enumerate(w) if y}):
            kept[v].append(w)
            todo.extend(
                (head, tuple(sum(y * z for y, z in zip(row, w)) for row in m))
                for head, m in arrows[v]
            )
    bases = {v: linalg.row_space_basis(kept[v]) for v in x.double.vertices}
    dims = DimensionVector(
        tuple(x.double.vertices), tuple(len(bases[v]) for v in x.double.vertices)
    )
    basis = {v: linalg.transpose(bases[v]) if bases[v] else tuple(() for _ in range(x.dims[v])) for v in x.double.vertices}
    return SubRep(basis, dims)


def _cleared(m: Matrix) -> list[list[int]]:
    """m times the common denominator of its entries."""
    den = lcm(*(y.denominator for row in m for y in row))
    return [[y.numerator * (den // y.denominator) for y in row] for row in m]


@dataclass(frozen=True)
class FramedStabilityVerdict:
    stable: bool
    witness: SubRep | None


def _framing_vertex(x: FramedRep) -> str:
    framing = x.double.framing
    if framing is None:
        raise HypothesisError("framed stability needs a framing vertex")
    return framing


def is_stable_framed(x: FramedRep) -> FramedStabilityVerdict:
    """Framed stability at weights (1, ..., 1).

    Stable iff the closure of the full framing fiber is the whole space.
    On failure the closure itself is the witness: a proper arrow-invariant
    framing-full family of strictly negative weight.
    """
    framing = _framing_vertex(x)
    if x.dims[framing] == 0:
        raise HypothesisError("no framing dimension: v is zero at the framing vertex")
    for i in x.double.ordinary_vertices:
        if x.dims[i] == 0:
            raise HypothesisError(f"zero dimension at ordinary vertex {i!r}")
    w = closure(x, {framing: linalg.identity(x.dims[framing])})
    stable = w.dims.values == x.dims.values
    return FramedStabilityVerdict(stable, None if stable else w)


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
    framing = _framing_vertex(x)
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


def destabilizing_weight(x: FramedRep, w: SubRep) -> Fraction:
    """Weight of a subspace family under (1, ..., 1); negative for witnesses."""
    return theta_value(StabilityWeights.ones(x.double), x.double, x.dims, w.dims)


# ---------------------------------------------------------------------------
# torus action


def torus_act(t: TorusElement, x: FramedRep) -> FramedRep:
    """Scale each arrow block by its torus weight."""
    scaled = {a.name: linalg.scale(t.weight(a.name), x.x[a.name]) for a in x.double.arrows}
    return FramedRep(x.double, x.dims, scaled)


def s_moment_invariance(
    t: TorusElement, x: FramedRep, level: Mapping[str, object] | None = None
) -> dict[str, Matrix]:
    """Difference moment(t.x) - moment(x) per vertex; zero in symplectic mode."""
    before = moment(x, level)
    after = moment(torus_act(t, x), level)
    return {i: linalg.sub(after[i], before[i]) for i in before}


# ---------------------------------------------------------------------------
# reduced tangent space


@dataclass(frozen=True)
class ReducedTangentReport:
    dimension: int
    nondegenerate: bool
    stabilizer_trivial: bool  # infinitesimally: the action derivative is injective


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


def _gram(x: FramedRep, vectors: tuple[Vector, ...]) -> tuple[tuple[int, ...], ...]:
    """Gram matrix K^T Omega K of the symplectic form on flattened tangent
    vectors, each first scaled to coprime integers (a rescaling of rows
    and columns by nonzero constants, so the rank is that of the Gram
    matrix of the vectors themselves).

    Omega is a signed permutation: tr(A_a B_abar) - tr(A_abar B_a) pairs
    the coordinate (a, p, q) with (abar, q, p), with sign + for a base
    arrow a and - for its opposite.
    """
    offsets, _ = _arrow_offsets(x)
    partner: list[tuple[int, int]] = []
    for a in x.double.arrows:
        m, n, bar = x.dims[a.head], x.dims[a.tail], offsets[a.opposite]
        sign = 1 if a.sign == 0 else -1
        partner.extend((bar + q * m + p, sign) for p in range(m) for q in range(n))
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
    reported through the flag, not raised.

    The two maps compose to zero by proof, not by multiplying them out.
    With g zero at the framing, the moment derivative at i along the gauge
    direction g sums, over arrows a from t into i, (-1)^sign times
    (g_i x_a - x_a g_t) x_abar + x_a (g_t x_abar - x_abar g_i) =
    [g_i, x_a x_abar]: it is [g_i, mu_i(x)], and on the level set
    mu_i(x) = lambda_i I commutes with g_i.
    """
    residual = moment(x, level)
    if any(not linalg.is_zero_matrix(m) for m in residual.values()):
        raise HypothesisError("moment residual nonzero at the given level")

    _, dim_x = _arrow_offsets(x)
    gauge = list(_gauge_basis(x))
    dim_g = len(gauge)

    kappa_cols = [_flatten_tangent(x, action_derivative(g, x)) for _, g in gauge]
    kappa = linalg.transpose(tuple(kappa_cols)) if kappa_cols else ()

    mu_cols: list[Vector] = []
    for e in range(dim_x):
        basis_vec = tuple(Fraction(1) if k == e else ZERO for k in range(dim_x))
        dmu = moment_derivative(x, _unflatten_tangent(x, basis_vec))
        flat: list[Fraction] = []
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
            tuple(Fraction(1) if k == e else ZERO for k in range(dim_x)) for e in range(dim_x)
        )
    dimension = len(kernel) - rank_kappa
    nondeg = (linalg.rank(_gram(x, kernel)) == dimension) if kernel else dimension == 0
    return ReducedTangentReport(dimension, nondeg, rank_kappa == dim_g)
