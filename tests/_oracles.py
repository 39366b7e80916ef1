"""Reference routines and test-only tools, kept beside the tests that use them.

The library keeps only what its API, the CLI, the demos and the bench
tracer reach (`test_layering.py` walks the names).  What the tests alone
need lives here, one section per library module it builds on: the Q[t]
echelon on rational forms and the minor gcds over it, the display
factoring on rational forms (the oracle of the integer
`polynomials.factor_binary_form`), the generation matrices as forms, the rational central charge and its slope, stability
weights and torus elements with what acts by them, the seeded closure,
the dense moment map (the oracle of `representations.moment`), its
derivative, the gauge action and the symplectic form (the oracles of
`representations.linearization`), and the dense negation,
matrix-vector product and trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from quiverbundles import linalg
from quiverbundles.bundles import TwistedQuiverBundle, generation_columns
from quiverbundles.generators import _form_matrix_from_vector
from quiverbundles.linalg import ZERO, Matrix, Vector, shape
from quiverbundles.polynomials import (
    HomogPoly,
    PolyMatrix,
    _int_echelon,
    _int_full_rank_minor_gcd,
    _primitive,
    _rational_root,
    _split,
    _trimmed,
    _Univ,
    form,
    generic_pivot_columns,
    integer_columns,
    poly_matmul,
)
from quiverbundles.quivers import DimensionVector, DoubleQuiver, InvariantError, Quiver
from quiverbundles.representations import (
    FramedRep,
    LieElement,
    SubRep,
    TangentVector,
    _accepted,
    _check_lie,
    _check_tangent,
    _level_map,
    _subrep,
    moment,
)
from quiverbundles.stability import INFINITE_SLOPE, NumericalClass, Rational, Slope


# ---------------------------------------------------------------------------
# polynomials: the echelon over Q[t] on rational forms


def _pivot_columns(a: PolyMatrix) -> list[int]:
    """The pivot columns of `_echelon(_chart(a))`: `generic_pivot_columns`
    of `integer_columns(a)`."""
    return generic_pivot_columns(integer_columns(a), len(a))


def _chart(a: PolyMatrix, at_t: bool = False) -> list[list[_Univ]]:
    """Entries of a dehomogenized at s = 1, as ascending t-coefficients,
    or at t = 1 when at_t, as ascending s-coefficients; () is zero."""
    return [[_trimmed(e.coeffs[::-1] if at_t else e.coeffs) for e in row] for row in a]


def _echelon(rows: list[list[_Univ]]) -> tuple[list[int], list[_Univ]]:
    """Pivot columns and pivot polynomials of a row echelon over Q[x]:
    `_int_echelon` of the rows, each first multiplied by the common
    denominator of its coefficients, with the pivots returned with
    `Fraction` coefficients.  Scaling a row by a nonzero rational is a
    unit over Q[x]."""
    cols, pivots = _int_echelon([linalg.cleared(r)[0] for r in rows])
    return cols, [tuple(Fraction(x) for x in p) for p in pivots]


def _minor_gcd(a: PolyMatrix) -> tuple[list[int], HomogPoly]:
    """Pivot columns J of a, independent over Q(t) from left to right
    (`_pivot_columns`), and the normalized gcd of the maximal minors of the
    columns J (`_full_rank_minor_gcd`)."""
    cols = _pivot_columns(a)
    return cols, _full_rank_minor_gcd(tuple(tuple(row[j] for j in cols) for row in a))


def _full_rank_minor_gcd(a: PolyMatrix) -> HomogPoly:
    """The normalized gcd of the maximal minors of a, which must have full
    column rank over Q(t): `_int_full_rank_minor_gcd` of a's rows, each
    times the common denominator of its coefficients.  Scaling a row or a
    column by a positive constant multiplies each maximal minor by a
    constant, the same for all of them, so their gcd changes by that
    constant only, and `_normalized` fixes it."""
    return form(_int_full_rank_minor_gcd([linalg.cleared([e.coeffs for e in row])[0] for row in a]))


# ---------------------------------------------------------------------------
# polynomials: display factoring on rational forms


def fraction_factor_binary_form(p: HomogPoly) -> tuple[Fraction, list[tuple[HomogPoly, int]]]:
    """Split off s, t and rational linear factors.

    Returns (constant, [(primitive_factor, multiplicity), ...]) with
    constant * product == p exactly; a rational-root-free remainder, when
    present, is the last factor with multiplicity 1.
    """
    if p.is_zero():
        return ZERO, []
    a, b, core_t = _split(p)
    factors: list[tuple[HomogPoly, int]] = []
    if a:
        factors.append((HomogPoly.monomial(1, 0), a))
    if b:
        factors.append((HomogPoly.monomial(1, 1), b))
    core = list(_primitive(core_t))
    lin: dict[Fraction, int] = {}
    while len(core) > 1:
        root = _rational_root(core)
        if root is None:
            break
        core = list(_primitive(_fraction_deflate(core, root)))
        lin[root] = lin.get(root, 0) + 1
    for root in sorted(lin):
        factor = HomogPoly.of(1, (Fraction(-root.numerator), Fraction(root.denominator)))
        factors.append((factor, lin[root]))
    if len(core) > 1:
        factors.append((HomogPoly.of(len(core) - 1, core), 1))
    prod = HomogPoly.constant(1)
    for f, mult in factors:
        for _ in range(mult):
            prod = prod * f
    idx = next(k for k, c in enumerate(prod.coeffs) if c != 0)
    const = p.coeffs[idx] / prod.coeffs[idx]
    if p != prod.scaled(const):
        raise InvariantError(f"factors of {p} do not multiply back to it")
    return const, factors


def _fraction_deflate(core: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division by (t - root), ascending coefficients
    desc = list(reversed(core))
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(c + root * out[-1])
    rem = desc[-1] + root * out[-1]
    if rem != 0:
        raise InvariantError(f"{root} is not a root: remainder {rem}")
    return list(reversed(out))


# ---------------------------------------------------------------------------
# bundles: generation matrices of forms


def _generation_matrices(
    e: TwistedQuiverBundle,
) -> dict[str, tuple[PolyMatrix, tuple[int, ...]]]:
    """Per ordinary vertex the generation matrix, the `generation_columns`
    side by side, and their twists."""
    out = {}
    for i, columns in generation_columns(e).items():
        matrix = tuple(tuple(col[r] for _, col in columns) for r in range(e.bundles[i].rank))
        out[i] = (matrix, tuple(tw for tw, _ in columns))
    return out


def generation_matrix(
    e: TwistedQuiverBundle, vertex: str
) -> tuple[PolyMatrix, tuple[int, ...]]:
    """Stacked word-image columns at one vertex plus their twist degrees."""
    return _generation_matrices(e)[vertex]


# ---------------------------------------------------------------------------
# stability: the rational central charge


@dataclass(frozen=True)
class CentralCharge:
    re: Fraction
    im: Fraction


def central_charge(c: NumericalClass, delta: Rational) -> CentralCharge:
    """Charge (v1, d + delta*v0); the two half-rank real contributions of
    the summands are combined into the single real part v1."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return CentralCharge(Fraction(c.v1), Fraction(c.d) + delta * c.v0)


def slope_of(z: CentralCharge) -> Slope:
    """im/re on the closed right half plane; +inf on the positive
    imaginary axis."""
    if z.re > 0:
        return Slope(z.im / z.re)
    if z.re == 0 and z.im > 0:
        return INFINITE_SLOPE
    raise ValueError(f"no slope in (-inf, +inf] for charge ({z.re}, {z.im})")


# ---------------------------------------------------------------------------
# quivers: stability weights and torus elements


class NoFramingDimensionError(ValueError):
    """Raised when an operation needs v at the framing vertex to be nonzero."""


@dataclass(frozen=True)
class StabilityWeights:
    """Rational weights on the ordinary vertices; the framing weight is derived."""

    theta: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def of(weights: Mapping[str, object]) -> StabilityWeights:
        return StabilityWeights(tuple((v, Fraction(w)) for v, w in weights.items()))

    @staticmethod
    def ones(q: Quiver | DoubleQuiver) -> StabilityWeights:
        return StabilityWeights.of({v: 1 for v in q.ordinary_vertices})

    def weight(self, vertex: str) -> Fraction:
        for v, w in self.theta:
            if v == vertex:
                return w
        raise KeyError(vertex)

    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.theta)


def theta_zero(weights: StabilityWeights, q: Quiver | DoubleQuiver, v: DimensionVector) -> Fraction:
    """Framing weight making the full dimension vector land on weight zero."""
    framing = q.framing
    if framing is None:
        raise NoFramingDimensionError("quiver has no framing vertex")
    v0 = v[framing]
    if v0 == 0:
        raise NoFramingDimensionError("no framing dimension: v is zero at the framing vertex")
    total = sum((weights.weight(i) * v[i] for i in q.ordinary_vertices), Fraction(0))
    return -total / v0


def theta_value(
    weights: StabilityWeights, q: Quiver | DoubleQuiver, v: DimensionVector, w: DimensionVector
) -> Fraction:
    """Weight of a subspace dimension vector w, with the framing weight bound by v."""
    if w.quiver_vertices != v.quiver_vertices:
        raise ValueError("dimension vector on wrong quiver")
    t0 = theta_zero(weights, q, v)
    framing = q.framing
    total = t0 * w[framing]
    for i in q.ordinary_vertices:
        total += weights.weight(i) * w[i]
    return total


@dataclass(frozen=True)
class TorusElement:
    """Nonzero rational weight per doubled arrow.

    Symplectic mode carries weight t on each sign-0 arrow and 1/t on its
    opposite, so every opposite pair multiplies to 1.
    """

    weights: tuple[tuple[str, Fraction], ...]
    mode: str = "full"  # "full" or "symplectic"

    def __post_init__(self) -> None:
        if self.mode not in ("full", "symplectic"):
            raise ValueError(f"unknown torus mode {self.mode!r}")
        for name, w in self.weights:
            if w == 0:
                raise ValueError(f"zero torus scalar on arrow {name!r}")

    @staticmethod
    def full(dq: DoubleQuiver, weights: Mapping[str, object]) -> TorusElement:
        named = {a.name for a in dq.arrows}
        if set(weights) != named:
            raise ValueError("full torus element needs one scalar per doubled arrow")
        return TorusElement(
            tuple((a.name, Fraction(weights[a.name])) for a in dq.arrows), "full"
        )

    @staticmethod
    def symplectic(dq: DoubleQuiver, base_weights: Mapping[str, object]) -> TorusElement:
        base_names = {a.name for a in dq.base.arrows}
        if set(base_weights) != base_names:
            raise ValueError("symplectic torus element needs one scalar per base arrow")
        pairs = []
        for a in dq.arrows:
            t = Fraction(base_weights[a.base])
            if t == 0:
                raise ValueError(f"zero torus scalar on arrow {a.base!r}")
            pairs.append((a.name, t if a.sign == 0 else 1 / t))
        return TorusElement(tuple(pairs), "symplectic")

    def weight(self, arrow: str) -> Fraction:
        for name, w in self.weights:
            if name == arrow:
                return w
        raise KeyError(arrow)


# ---------------------------------------------------------------------------
# representations: seeded closure, weights and the torus action


def closure(x: FramedRep, seeds: Mapping[str, Matrix]) -> SubRep:
    """Smallest arrow-invariant subspace family containing the seed columns.

    Each vertex keeps an `add_row` pivot table.  The seed columns, and the
    images of each accepted vector along the arrows out of its vertex, are
    offered to the table at their vertex; a rejected vector lies in the span
    accepted there, so its images would add nothing.  The accepted spans
    lie in the closure, hold the seeds and are invariant (each image of an
    accepted vector was offered at its head), so they are the closure.

    The vectors are integers: each seed matrix and each arrow's matrix is
    cleared once by the common denominator of its entries
    (`linalg.cleared`).  A vector then stands for a nonzero multiple of
    the one the rational maps give, and a nonzero scalar per vector or per
    arrow changes no span, so the spans, and their canonical bases from
    `row_space_basis`, are the same.
    """
    todo: list[tuple[str, tuple[int, ...]]] = []
    for v, m in seeds.items():
        if v not in x.double.vertices:
            raise ValueError(f"seed at unknown vertex {v!r}")
        if m and linalg.shape(m)[0] != x.dims[v]:
            raise ValueError(f"seed at {v!r} lives in the wrong fiber")
        todo.extend((v, w) for w in zip(*linalg.cleared(m)[0]))
    arrows = {a.name: linalg.cleared(x.x[a.name])[0] for a in x.double.arrows}
    return _subrep(x, _accepted(x.double, arrows, todo))


def destabilizing_weight(x: FramedRep, w: SubRep) -> Fraction:
    """Weight of a subspace family under (1, ..., 1); negative for witnesses."""
    return theta_value(StabilityWeights.ones(x.double), x.double, x.dims, w.dims)


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
# representations: the dense moment, its derivative, gauge action and pairing


def dense_moment(x: FramedRep, level: Mapping[str, object] | None = None) -> dict[str, Matrix]:
    """Moment-map residual per ordinary vertex, by dense `Fraction` products.

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
            if a.head != i or not x.dims[a.tail]:
                continue  # a product through a zero-rank vertex is zero
            term = linalg.matmul(x.x[a.name], x.x[a.opposite])
            acc = linalg.add(acc, term if a.sign == 0 else neg(term))
        out[i] = acc
    return out


def moment_derivative(x: FramedRep, xi: TangentVector) -> dict[str, Matrix]:
    """Exact derivative of the quadratic moment map at x in direction xi."""
    _check_tangent(x, xi)
    out: dict[str, Matrix] = {}
    for i in x.double.ordinary_vertices:
        acc = linalg.zeros(x.dims[i], x.dims[i])
        for a in x.double.arrows:
            if a.head != i or not x.dims[a.tail]:
                continue  # a product through a zero-rank vertex is zero
            term = linalg.add(
                linalg.matmul(xi.values[a.name], x.x[a.opposite]),
                linalg.matmul(x.x[a.name], xi.values[a.opposite]),
            )
            acc = linalg.add(acc, term if a.sign == 0 else neg(term))
        out[i] = acc
    return out


def symplectic_form(x: FramedRep, a_vec: TangentVector, b_vec: TangentVector) -> Fraction:
    """Canonical pairing: sum over base arrows of tr(A+ B-) - tr(A- B+)."""
    _check_tangent(x, a_vec)
    _check_tangent(x, b_vec)
    total = ZERO
    for a in x.double.arrows:
        if a.sign != 0 or not (x.dims[a.head] and x.dims[a.tail]):
            continue  # a product through a zero-rank vertex is zero
        total += _trace_product(a_vec.values[a.name], b_vec.values[a.opposite])
        total -= _trace_product(a_vec.values[a.opposite], b_vec.values[a.name])
    return total


def _trace_product(a: Matrix, b: Matrix) -> Fraction:
    """tr(AB) as the sum of a_ij b_ji, without forming AB; the shapes
    are the callers' to check."""
    return sum((x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col)), ZERO)


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


# ---------------------------------------------------------------------------
# generators: the coefficient system of the chain's vanishing products


def _vanishing_product_solutions(
    e_plus: PolyMatrix, degrees: Sequence[Sequence[int]]
) -> tuple[Sequence[tuple[int, int, int]], tuple[linalg.Vector, ...]]:
    """Coefficient nullspace of e+ X = 0 and X e+ = 0 over the degree grid."""
    slots = [
        (k, l, c)
        for k, row in enumerate(degrees)
        for l, d in enumerate(row)
        if d >= 0
        for c in range(d + 1)
    ]
    rows: list[list[Fraction]] = []
    columns = []
    for i in range(len(slots)):
        unit = [ZERO] * len(slots)
        unit[i] = Fraction(1)
        x = _form_matrix_from_vector(degrees, slots, unit)
        products = []
        for p in (poly_matmul(e_plus, x), poly_matmul(x, e_plus)):
            for prow in p:
                for entry in prow:
                    products.append(entry)
        columns.append(products)
    if not slots:
        return slots, ()
    # align the coefficient lists entrywise: forms of equal shape per column
    height = 0
    for col in columns:
        for entry in col:
            if not entry.is_zero():
                height = max(height, entry.degree + 1)
    for r in range(len(columns[0])):
        for c in range(height):
            row = []
            for col in columns:
                entry = col[r]
                row.append(entry.coeffs[c] if not entry.is_zero() and c < len(entry.coeffs) else ZERO)
            rows.append(row)
    if not rows:
        # identically vanishing products: no constraint at all
        rows = [[ZERO] * len(slots)]
    return slots, linalg.nullspace(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# linalg: dense products


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def matvec(a: Matrix, v: Vector) -> Vector:
    # a zero-row matrix carries no column count; its image is the empty vector
    if a and shape(a)[1] != len(v):
        raise ValueError("matvec shape mismatch")
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


def trace(a: Matrix) -> Fraction:
    m, n = shape(a)
    if m != n:
        raise ValueError(f"trace of non-square {m}x{n} matrix")
    return sum((a[i][i] for i in range(m)), ZERO)
