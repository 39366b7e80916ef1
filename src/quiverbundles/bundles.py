"""Twisted quiver bundles on the projective line.

Each vertex carries a split bundle, each doubled arrow a twist degree and
a matrix of homogeneous binary forms whose entry degrees are forced by
the multidegrees and the twist.  Everything sheaf-theoretic here reduces
to exact polynomial linear algebra: relation checking, fiber evaluation,
the base locus of framing generation, quasimap stability, the split
Harder-Narasimhan filtration, and the numerical class of the subsheaf
generated by the framing.  The relation is summed by
`representations._residual`, the moment map's one sum, on the arrows'
integer rows over one common denominator; `bundles` imports
`representations`, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from . import linalg
from .errors import HypothesisError, InvariantError
from .polynomials import (
    HomogPoly,
    IntColumn,
    IntRows,
    PolyMatrix,
    _int_full_rank_minor_gcd,
    add_product,
    dense_at,
    fiber_rank,
    form,
    generic_pivot_columns,
    integer_rows,
    poly_mat_eval,
)
from .quivers import DimensionVector, DoubleQuiver
from .representations import FramedRep, _framing_closure, _residual


@dataclass(frozen=True)
class SplitBundle:
    """Direct sum of line bundles O(a_1) + ... + O(a_r) in a fixed order."""

    multidegree: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.multidegree)

    @property
    def degree(self) -> int:
        return sum(self.multidegree)


@dataclass(frozen=True)
class TwistData:
    """Twist line-bundle degree per doubled arrow; opposite pairs sum to -2."""

    m: tuple[tuple[str, int], ...]

    @staticmethod
    def of(twists: Mapping[str, int]) -> TwistData:
        return TwistData(tuple((a, int(d)) for a, d in twists.items()))

    def degree(self, arrow: str) -> int:
        for a, d in self.m:
            if a == arrow:
                return d
        raise KeyError(arrow)

    def pairing_violations(self, dq: DoubleQuiver, expected_sum: int = -2) -> list[str]:
        out = []
        seen = set()
        for a in dq.arrows:
            if a.base in seen:
                continue
            seen.add(a.base)
            total = self.degree(a.name) + self.degree(a.opposite)
            if total != expected_sum:
                out.append(
                    f"twist pairing on arrow {a.base!r}: {total} instead of {expected_sum}"
                )
        return out


@dataclass(frozen=True)
class TwistedQuiverBundle:
    double: DoubleQuiver
    bundles: Mapping[str, SplitBundle]
    twist: TwistData
    phi: Mapping[str, PolyMatrix]

    def __post_init__(self) -> None:
        # read-only copies, so a bundle cannot change under the generation
        # record that `_generation` keeps for it
        object.__setattr__(self, "bundles", MappingProxyType(dict(self.bundles)))
        object.__setattr__(self, "phi", MappingProxyType(dict(self.phi)))
        if set(self.bundles) != set(self.double.vertices):
            raise ValueError("bundle assignment must cover exactly the vertices")
        names = {a.name for a in self.double.arrows}
        if set(self.phi) != names:
            raise ValueError("arrow matrices must cover exactly the doubled arrows")
        for a in self.double.arrows:
            self.twist.degree(a.name)  # raises KeyError if missing
            m = self.phi[a.name]
            rows = len(m)
            want_rows = self.bundles[a.head].rank
            if rows != want_rows:
                raise ValueError(
                    f"arrow {a.name!r} matrix has {rows} rows, expected {want_rows}"
                )
            for row in m:
                if len(row) != self.bundles[a.tail].rank:
                    raise ValueError(
                        f"arrow {a.name!r} matrix has a row of length {len(row)}, "
                        f"expected {self.bundles[a.tail].rank}"
                    )

    def rank_vector(self) -> DimensionVector:
        verts = self.double.vertices
        return DimensionVector(tuple(verts), tuple(self.bundles[v].rank for v in verts))

    def entry_degree(self, arrow: str, row: int, col: int) -> int:
        a = self.double.arrow(arrow)
        return (
            self.bundles[a.head].multidegree[row]
            + self.twist.degree(arrow)
            - self.bundles[a.tail].multidegree[col]
        )


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(e: TwistedQuiverBundle) -> ValidationReport:
    """Check the framing trivial-bundle convention, twist pairing, and all
    entry homogeneity degrees.  Report-valued; never raises."""
    out: list[str] = []
    framing = e.double.framing
    if framing is not None and any(d != 0 for d in e.bundles[framing].multidegree):
        out.append(
            f"framing bundle must be trivial, got multidegree {e.bundles[framing].multidegree}"
        )
    out.extend(e.twist.pairing_violations(e.double))
    for a in e.double.arrows:
        m = e.phi[a.name]
        for k, row in enumerate(m):
            for l, entry in enumerate(row):
                want = e.entry_degree(a.name, k, l)
                if entry.is_zero():
                    continue
                if want < 0:
                    out.append(
                        f"arrow {a.name!r} entry ({k}, {l}) must vanish "
                        f"(forced degree {want} < 0)"
                    )
                elif entry.degree != want:
                    out.append(
                        f"arrow {a.name!r} entry ({k}, {l}) has degree {entry.degree}, "
                        f"expected {want}"
                    )
    return ValidationReport(tuple(out))


def moment_residual_sheaf(e: TwistedQuiverBundle) -> dict[str, PolyMatrix]:
    """Relation residual per ordinary vertex, valued in forms of degree
    a_{i,k} - a_{i,l} - 2; the zero matrix everywhere iff the data is a
    quiver-bundle point of the relation's zero locus.  The residual at a
    vertex is L^-2 times its integer residual (`representations._residual`)
    on the arrows' integer rows over their common denominator L
    (`_arrow_rows`)."""
    rows, den = _arrow_rows(e)
    return {
        i: tuple(tuple(form(p, den * den) for p in row) for row in residual)
        for i, residual in _residual(e.double, e.rank_vector(), rows).items()
    }


def residual_is_zero(e: TwistedQuiverBundle) -> bool:
    return relation_rows(e) is not None


def relation_rows(e: TwistedQuiverBundle) -> tuple[dict[str, IntRows], int] | None:
    """The integer rows of every arrow matrix and their common denominator
    L (`_arrow_rows`) if the moment residual, computed on those rows,
    vanishes; None if it does not.  The callers that need the data on the
    relation take their rows from here, so the arrows are cleared once."""
    rows, den = _arrow_rows(e)
    residual = _residual(e.double, e.rank_vector(), rows)
    return None if any(any(row) for m in residual.values() for row in m) else (rows, den)


def _arrow_rows(e: TwistedQuiverBundle) -> tuple[dict[str, IntRows], int]:
    """The rows L Phi_a over Z of every arrow matrix, with L the common
    denominator of all their coefficients (one `integer_rows` call on the
    matrices stacked), and L."""
    arrows = e.double.arrows
    stacked, den = integer_rows([row for a in arrows for row in e.phi[a.name]])
    it = iter(stacked)
    return {a.name: [next(it) for _ in e.phi[a.name]] for a in arrows}, den


def fiber_at(e: TwistedQuiverBundle, z: tuple[object, object]) -> FramedRep:
    """Evaluate all arrow matrices at a rational point [s0 : t0].

    Under the standard trivializations this produces a framed
    representation whose stability class does not depend on the
    trivialization choice (rescaling moves the point inside a torus orbit).
    """
    s0, t0 = Fraction(z[0]), Fraction(z[1])
    if s0 == 0 and t0 == 0:
        raise ValueError("invalid point [0:0]")
    dims = e.rank_vector()
    x = {a.name: poly_mat_eval(e.phi[a.name], s0, t0) for a in e.double.arrows}
    return FramedRep(e.double, dims, x)


# ---------------------------------------------------------------------------
# framing generation: words, base locus, generated subsheaf


def _framing_vertex(e: TwistedQuiverBundle) -> str:
    framing = e.double.framing
    if framing is None:
        raise HypothesisError("quasimap stability needs a framing vertex")
    return framing


def generation_columns(
    e: TwistedQuiverBundle,
) -> dict[str, list[tuple[int, tuple[HomogPoly, ...]]]]:
    """Images of the framing sections under all arrow words, as (twist,
    column) pairs per ordinary vertex: the columns of `_walk`, each divided
    by its denominator."""
    return {
        i: [(twist, tuple(form(p, den) for p in column)) for twist, column, den in columns]
        for i, columns in _walk(e, *_arrow_rows(e)).items()
    }


def _walk(
    e: TwistedQuiverBundle, rows: Mapping[str, IntRows], den: int
) -> dict[str, list[tuple[int, IntColumn, int]]]:
    """The generation walk: per ordinary vertex, the kept word images of
    the framing sections as (twist, integer column, denominator).

    Words start at the framing vertex and never revisit it (revisiting
    factors through the framing fiber and adds nothing new); length is
    capped at the total ordinary rank, past which fiberwise generation has
    plateaued.  A column that is a rational linear combination of already
    kept columns of the same twist is dropped and not extended: both its
    minors contribution and all its downstream images are redundant.

    The arithmetic is on integers.  Each arrow matrix is Phi_a = R_a / L
    with integer rows R_a over the common denominator L (`_arrow_rows`),
    and a column is carried as integer coefficient lists, the image of the
    framing section under the R_a along its word, so an image is a sum of
    integer products (`_convolve`); L to the length of the word is its
    denominator.  Columns of one twist share a forced per-row degree
    pattern, so they flatten to aligned coefficient vectors, and the
    flattened integers go to the pivot table of their (vertex, twist): a
    nonzero scale per column changes no span, so the kept columns are
    those of the rational images.
    """
    framing = _framing_vertex(e)
    if any(d != 0 for d in e.bundles[framing].multidegree):
        raise HypothesisError("framing bundle must be trivial for generation analysis")
    v0 = e.bundles[framing].rank
    cap = sum(e.bundles[i].rank for i in e.double.ordinary_vertices)
    out: dict[str, list[tuple[int, IntColumn, int]]] = {
        i: [] for i in e.double.ordinary_vertices
    }
    arrows: dict[str, list] = {v: [] for v in e.double.vertices}
    for a in e.double.arrows:
        if a.head != framing:
            arrows[a.tail].append((a.head, e.twist.degree(a.name), rows[a.name]))
    tables: dict[tuple[str, int], dict[int, dict[int, int]]] = {}
    frontier: list[tuple[str, int, IntColumn, int]] = [
        (framing, 0, [(1,) if r == c else () for r in range(v0)], 1) for c in range(v0)
    ]
    for _ in range(cap):
        nxt: list[tuple[str, int, IntColumn, int]] = []
        for vertex, twist, col, col_den in frontier:
            for head, step, arrow_rows in arrows[vertex]:
                image = [_convolve(row, col) for row in arrow_rows]
                if not any(image):
                    continue
                new_twist = twist + step
                row = _flatten(image, new_twist, e.bundles[head].multidegree)
                pivots = tables.setdefault((head, new_twist), {})
                if not linalg.add_row(pivots, row):
                    continue
                out[head].append((new_twist, image, col_den * den))
                nxt.append((head, new_twist, image, col_den * den))
        frontier = nxt
        if not frontier:
            break
    return out


def _convolve(row: list[tuple[int, tuple[int, ...]]], col: IntColumn) -> tuple[int, ...]:
    """The form sum of row[c] * col[c] (`add_product`), () for zero."""
    acc = None
    for c, p in row:
        acc = add_product(acc, p, col[c])
    return tuple(acc) if acc and any(acc) else ()


def _flatten(column: IntColumn, twist: int, row_degrees: tuple[int, ...]) -> dict[int, int]:
    """The nonzero entries of a column's coefficients, row r padded to the
    width of its forced degree row_degrees[r] + twist."""
    flat: dict[int, int] = {}
    base = 0
    for r, p in enumerate(column):
        width = max(0, row_degrees[r] + twist + 1)
        if len(p) > width:
            raise InvariantError(f"entry of degree {len(p) - 1} in a row of width {width}")
        for j, x in enumerate(p, base):
            if x:
                flat[j] = x
        base += width
    return flat


@dataclass(frozen=True)
class BaseLocusReport:
    polynomial: HomogPoly
    stable: bool
    vertex_ranks: tuple[tuple[str, int], ...]
    vertex_polynomials: tuple[tuple[str, HomogPoly], ...]


def base_locus(e: TwistedQuiverBundle) -> BaseLocusReport:
    """Locus where framing generation fails, as a binary form per vertex.

    The form at a vertex is the content-normalized gcd of the maximal
    minors of the generation matrix (each minor is homogeneous because
    all columns of a fixed word twist share a degree pattern).  The
    integer columns and their ranks are read from `_generation`.  At full
    rank n the transposed matrix has n columns and, by that rank, full
    column rank, so its rows, the integer columns, go straight to
    `polynomials._int_full_rank_minor_gcd`: one echelon over Q[t] whose
    columns, the summands of the vertex bundle,
    are taken in ascending order of their largest entry degree, which
    changes the minors by signs only.  Below full rank every maximal minor
    vanishes, so the form is zero.  The gcds are integer forms and their
    product is taken with `polynomials.add_product`; each vertex form and
    the product become a `HomogPoly` once, for the report.  The product
    vanishes exactly where some fiber fails framed stability; the verdict
    is full generic rank everywhere, equivalently a nonzero product.
    Multiplicities are not contractual, the zero set is.
    """
    gen = _generation(e)
    total: list[int] | None = [1]
    polys: list[tuple[str, HomogPoly]] = []
    for i in e.double.ordinary_vertices:
        g: tuple[int, ...] = ()
        if gen.ranks[i] == e.bundles[i].rank:
            g = _int_full_rank_minor_gcd([col for _, col, _ in gen.columns[i]])
        polys.append((i, form(g)))
        total = add_product(None, total or (), g)
    return BaseLocusReport(form(total or ()), gen.stable, tuple(gen.ranks.items()), tuple(polys))


def is_stable_quasimap(e: TwistedQuiverBundle) -> bool:
    """Full framing generation at the generic point of every ordinary vertex."""
    return _generation(e).stable


@dataclass(frozen=True)
class GeneratedSummary:
    """Generic rank and degree, per ordinary vertex, of the smallest
    saturated arrow-closed subsheaf containing the framing."""

    ranks: tuple[tuple[str, int], ...]
    degrees: tuple[tuple[str, int], ...]

    def rank(self, vertex: str) -> int:
        return dict(self.ranks)[vertex]

    def degree(self, vertex: str) -> int:
        return dict(self.degrees)[vertex]


def generated_subsheaf_summary(e: TwistedQuiverBundle) -> GeneratedSummary:
    """Numerical data of the framing-generated subsheaf.

    At a vertex with generation matrix M, the generated subsheaf F is
    saturated, so det F sits in the rho-th exterior power of the vertex
    bundle E (rho the generic rank of M) with Plücker coordinates p_K, K a
    set of rho rows, that have no common zero.  For rho independent
    columns J with summed twist tw_J, every rho x rho minor of M[:, J] on
    the rows K is s_J * p_K, where the wedge s_J of those columns is a
    section of det F(tw_J).  So the gcd of those minors has degree
    deg F + tw_J for every such J; J is the pivot columns of M's echelon.

    At full rank rho = rank E no gcd is needed: E / F is then a torsion
    sheaf, and F is saturated, so E / F is torsion-free as well, hence
    zero.  F = E, and deg F = deg E.
    """
    return _generation(e).summary()


@dataclass(frozen=True)
class _Generation:
    """The framing generation of quasimap data, built once per bundle for
    all the verdicts asked of it in a row (`_generation`): per ordinary
    vertex the generation walk's (twist, integer column, denominator)
    triples (`_walk`), and the columns J independent over Q(t) of those
    before them when the columns are taken in ascending order of twist
    (`polynomials.generic_pivot_columns`), as indices into the walk's
    list; the generic rank is their number.

    A column is the rational one times a positive constant, its
    denominator, which changes no rank over Q(t) or in any fiber, so the
    ranks and pivots are those of the generation matrix; the fibers are
    taken on the integer columns.  The record also keeps the arrows'
    integer rows over their common denominator (`relation_rows`), from
    which `fiber_generated` reads the sample fiber."""

    e: TwistedQuiverBundle
    rows: Mapping[str, IntRows]
    columns: Mapping[str, list[tuple[int, IntColumn, int]]]
    pivots: Mapping[str, list[int]]

    @property
    def ranks(self) -> dict[str, int]:
        return {i: len(j) for i, j in self.pivots.items()}

    @property
    def stable(self) -> bool:
        """Full generic rank at every ordinary vertex."""
        return all(len(j) == self.e.bundles[i].rank for i, j in self.pivots.items())

    def summary(self) -> GeneratedSummary:
        """`generated_subsheaf_summary`, read off the columns and pivots.

        Below full rank J is the independent columns of least twist,
        whose entries have the least degrees, and the rows of M[:, J] over
        Z, the integer columns J side by side, go to
        `polynomials._int_full_rank_minor_gcd`; that scales column j of
        M[:, J] by its denominator, which changes the normalized gcd of
        the maximal minors not at all.  By the argument of
        `generated_subsheaf_summary`, the degree deg F + tw_J of the gcd
        does not depend on J, so any J gives deg F.
        """
        degs: list[tuple[str, int]] = []
        for i, pivots in self.pivots.items():
            n = self.e.bundles[i].rank
            if len(pivots) == n:
                degree = self.e.bundles[i].degree
            else:
                columns = self.columns[i]
                rows = [[columns[j][1][r] for j in pivots] for r in range(n)]
                g = _int_full_rank_minor_gcd(rows)
                degree = len(g) - 1 - sum(columns[j][0] for j in pivots)
            degs.append((i, degree))
        return GeneratedSummary(tuple(self.ranks.items()), tuple(degs))

    def off_locus_points(self) -> Iterator[int]:
        """The k >= 1 with [1 : k] off the base locus, in increasing order,
        or every k >= 1 when the data is not stable (the base-locus form is
        then zero and every point is alike).

        The vertex form g_i is the gcd of the maximal minors of M_i, which
        are homogeneous, so g_i(z) = 0 exactly when (t - k s) divides every
        maximal minor, that is, when all of them vanish at z, that is, when
        the fiber M_i(z) has rank below n_i.  So [1 : k] is off the base
        locus exactly when every vertex fiber there has full rank, and no
        form is computed.  The fibers are taken on the stored integer
        columns.
        """
        vertices = []  # no vertex to check when the form is zero
        if self.stable:
            vertices = [
                ([col for _, col, _ in columns], self.e.bundles[i].rank)
                for i, columns in self.columns.items()
            ]
        for k in count(1):
            if all(fiber_rank(columns, k) == n for columns, n in vertices):
                yield k

    def fiber_generated(self, k: int) -> bool:
        """`is_stable_framed(fiber_at(e, (1, k))).stable`, on the arrows'
        integer rows: R_a = L Phi_a evaluated at [1 : k]
        (`polynomials.dense_at`) is L Phi_a(1, k), a positive scale of
        the fiber's matrix, which changes no span, so the framing closure
        (`representations._framing_closure`) has the fiber's dimensions."""
        e = self.e
        ranks = {v: e.bundles[v].rank for v in e.double.vertices}
        fiber = {
            a.name: dense_at(self.rows[a.name], ranks[a.tail], k) for a in e.double.arrows
        }
        kept = _framing_closure(e.double, ranks, fiber)
        return all(len(kept[v]) == n for v, n in ranks.items())


_recent: _Generation | None = None


def _generation(e: TwistedQuiverBundle) -> _Generation:
    """The generation record of quasimap data: the one place that refuses
    data off the moment relation's zero locus and runs the generation walk
    and its generic ranks, all on the integer rows of the arrows.

    The record last built is kept in one module slot and returned while
    the same bundle object asks again, so `is_stable_quasimap`,
    `base_locus`, `generated_subsheaf_summary`, the asymptotic check and
    the sample points, asked of one bundle in a row, share one build.  A
    bundle's mappings are read-only copies, so the record cannot go stale;
    the slot holds its bundle, so no other bundle can take its identity.
    Data off the relation is never stored: it is refused on every call.
    One slot, not a cache on the bundle, keeps at most one record alive
    and gives no caller a reuse that it does not have by asking several
    verdicts of one bundle.
    """
    global _recent
    recent = _recent  # one read: a concurrent caller swaps the slot whole
    if recent is not None and recent.e is e:
        return recent
    cleared = relation_rows(e)
    if cleared is None:
        raise HypothesisError("moment residual nonzero; not quasimap data")
    rows, den = cleared
    columns = _walk(e, rows, den)
    pivots = {}
    for i, cols in columns.items():
        order = sorted(range(len(cols)), key=lambda j: cols[j][0])
        found = generic_pivot_columns([cols[j][1] for j in order], e.bundles[i].rank)
        pivots[i] = [order[j] for j in found]
    recent = _recent = _Generation(e, rows, columns, pivots)
    return recent


# ---------------------------------------------------------------------------
# Harder-Narasimhan filtration of the underlying split sheaf


@dataclass(frozen=True)
class HNStratum:
    slope: Fraction
    piece: tuple[tuple[str, tuple[int, ...]], ...]  # summand indices per vertex

    def piece_at(self, vertex: str) -> tuple[int, ...]:
        return dict(self.piece)[vertex]


def hn_filtration_split(e: TwistedQuiverBundle) -> tuple[HNStratum, ...]:
    """Degree strata of the underlying split sheaf, strictly decreasing.

    Stratum pieces are recorded as summand indices per vertex (framing
    included); the i-th filtration step is the union of the first i
    pieces, intersecting each vertex summand-wise.
    """
    degrees = sorted(
        {d for v in e.double.vertices for d in e.bundles[v].multidegree}, reverse=True
    )
    strata = []
    for d in degrees:
        piece = tuple(
            (v, tuple(k for k, a in enumerate(e.bundles[v].multidegree) if a == d))
            for v in e.double.vertices
        )
        strata.append(HNStratum(Fraction(d), piece))
    return tuple(strata)


def hn_step_indices(
    strata: Iterable[HNStratum], upto: int, vertices: Iterable[str]
) -> dict[str, tuple[int, ...]]:
    """Summand indices per vertex of the filtration step spanning the first
    `upto` strata (1-based count)."""
    sel: dict[str, list[int]] = {v: [] for v in vertices}
    for stratum in list(strata)[:upto]:
        for v, idxs in stratum.piece:
            sel[v].extend(idxs)
    return {v: tuple(sorted(ix)) for v, ix in sel.items()}


def subbundle_is_arrow_invariant(
    e: TwistedQuiverBundle, indices: Mapping[str, tuple[int, ...]]
) -> bool:
    """Exact check that arrows map the selected summand family into itself:
    every entry from a selected column to an unselected row vanishes."""
    for a in e.double.arrows:
        m = e.phi[a.name]
        inside = set(indices.get(a.head, ()))
        for l in indices.get(a.tail, ()):
            for k in range(e.bundles[a.head].rank):
                if k not in inside and not m[k][l].is_zero():
                    return False
    return True
