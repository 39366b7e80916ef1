"""Three-term deformation complex of a twisted quiver bundle on the line.

Degree -1 holds the infinitesimal symmetries, degree 0 the first-order
arrow deformations, degree 1 the linearized relation.  Hypercohomology
is read off a minimal model of the two-chart Cech bicomplex: each Cech
column is contracted onto the sheaf cohomology H0 + H1[-1] of its term,
and the homological perturbation lemma gives the exact differential
(R. Brown, "The twisted Eilenberg-Zilber theorem", 1965; M. Crainic,
arXiv:math/0403266).

Index every Cech piece of a summand O(n) by the exponent e of u = t/s in
the chart-0 trivialization.  Chart 0 holds u^e for e >= 0, chart 1 holds
v^j = u^(n-j), that is e <= n, and the overlap holds every e; the Cech
map is (f0, f1) -> f0 - f1.  Multiplying by s^(d-i) t^i, from O(n) to
O(n+d), sends e to e+i on every piece.  So H0 is spanned by 0 <= e <= n
and H1 by the classes of n < e < 0.  A strong deformation retract
(iota, pi, h) of the column onto H0 + H1[-1]:

- iota puts u^e of H0 on both charts and u^e of H1 on the overlap;
- pi reads chart-1 exponents 0 <= e <= n and overlap exponents n < e < 0;
- h sends overlap u^e to u^e on chart 0 if e >= 0, to -u^e on chart 1 if
  e < 0 and e <= n, and to 0 otherwise.

Then pi iota = 1, delta h + h delta = 1 - iota pi and h iota = pi h =
h h = 0.  The form multiplications kappa and mu, assembled by
`representations.linearization` at phi (whose docstring proves mu kappa
= 0 under the zero-residual hypothesis), perturb the column
differential, and the lemma gives the model's differential as the sum
over k of pi (mult) (h mult)^k iota.  Each h lowers the Cech degree by
one and multiplication keeps it; a column has only two Cech degrees, so
the series stops at k = 1.  The k = 0 term is multiplication on H0, and
multiplication then projection on H1.  The k = 1 term, d2 = pi mu h kappa
iota, can only start on H1(K-1) and end on H0(K1), because the complex
has three terms.  The model is

    M(-1) = H0(K-1),  M0 = H0(K0) + H1(K-1),  M1 = H0(K1) + H1(K0),
    M2 = H1(K1),

with D(-1) = kappa on H0, D0 = mu on H0, kappa on H1 and d2, and D1 = mu
on H1; it has the hypercohomology of the full Laurent total complex, and
no window enters it.  The sign of d2 depends on the sign convention of
the total complex, but no rank does: scaling the H1 parts of M0 and M1
and all of M2 by -1 flips d2 and leaves every other block as it is.
`min_window` bounds no computation here; `hypercoh_dims` still refuses
a window below it and echoes the window it was given.

d2 is never multiplied out.  Let H = h kappa iota map H1(K-1) into the
`size` middle exponents that h reaches, P = pi mu map those into H0(K1),
and A be D0 without d2 = P H.  The bordered matrix [[A, P], [H, 1]] has
rank size + rank(A - P H) by the Schur complement of its identity block,
and A - P H is D0 with d2 of the other sign, which has the same rank.  The border columns are numbered
-size..-1, below every model column: `add_row` eliminates at the least
column first, so a row's P entries are cleared against the border rows
first instead of being carried as fill-in through the elimination of
the model columns.

The three matrices are scattered from integer entries as stored:
`build_complex` assembles L kappa and L mu on the arrows' integer rows,
L the common denominator of the arrow matrices, and nothing clears them
again.  Every row of D(-1), D0 and D1 is L times a row of the rational
model, and a border row's unit entry is L, so each row is scaled by the
one positive constant L and no rank changes; kappa and mu carry the same
scale, so the Schur argument above holds as it stands.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bundles import SplitBundle, TwistedQuiverBundle, is_stable_quasimap, relation_rows
from .errors import HypothesisError, InvariantError
from .linalg import sparse_rank
from .polynomials import IntRows, PolyMatrix, form
from .representations import Label, linearization, linearization_bases

CANONICAL_DEGREE = -2  # genus zero


@dataclass(frozen=True)
class DeformationComplex:
    """Terms in homological degrees -1, 0, 1 as flattened sums of line
    bundles, with one (vertex, k, l) or (arrow, k, l) label per summand.

    The differentials are stored as `kappa` = L kappa and `mu` = L dmu,
    integer rows in the format of `polynomials.integer_rows` (per row,
    (column, ascending integer t-coefficients)) over one common
    denominator `den` = L of the arrows; `d_kappa` and `d_mu` build the
    matrices of forms in the flattened bases from them on access
    (`polynomials.form`)."""

    labels_minus1: tuple[Label, ...]
    labels_zero: tuple[Label, ...]
    labels_one: tuple[Label, ...]
    term_minus1: SplitBundle
    term_zero: SplitBundle
    term_one: SplitBundle
    kappa: IntRows
    mu: IntRows
    den: int
    min_window: int

    @property
    def d_kappa(self) -> PolyMatrix:
        n = len(self.labels_minus1)
        return tuple(tuple(form(dict(r).get(c, ()), self.den) for c in range(n)) for r in self.kappa)

    @property
    def d_mu(self) -> PolyMatrix:
        n = len(self.labels_zero)
        return tuple(tuple(form(dict(r).get(c, ()), self.den) for c in range(n)) for r in self.mu)


def _summand_degrees(
    e: TwistedQuiverBundle, gauge: tuple[Label, ...], tangent: tuple[Label, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Degree n of the summand O(n) at each gauge label (i, k, l), in
    End E_i, and at each tangent label (a, k, l), in Hom(E_tail, E_head)
    twisted by the arrow's line bundle."""
    deg = {v: e.bundles[v].multidegree for v in e.double.vertices}
    ends = {a.name: (deg[a.head], deg[a.tail], e.twist.degree(a.name)) for a in e.double.arrows}
    degs_g = tuple(deg[i][k] - deg[i][l] for i, k, l in gauge)
    degs_t = []
    for a, k, l in tangent:
        head, tail, m = ends[a]
        degs_t.append(head[k] + m - tail[l])
    return degs_g, tuple(degs_t)


def _check_degree_pattern(matrix: IntRows, tgt: tuple[int, ...], src: tuple[int, ...]) -> int:
    """Check that each nonzero entry has degree tgt - src; return the
    largest such degree (0 if there is none)."""
    top = 0
    for want, row in zip(tgt, matrix):
        for c, p in row:
            d = len(p) - 1
            if d != want - src[c]:
                raise InvariantError("differential degree mismatch")
            if d > top:
                top = d
    return top


def build_complex(e: TwistedQuiverBundle) -> DeformationComplex:
    """Assemble both differentials from the arrow matrices by
    `representations.linearization` at phi: the left one sends a symmetry
    g to (g_head phi_a - phi_a g_tail) over all arrows, with g zero at the
    framing vertex, and the right one is the derivative of the relation at
    phi.  Its docstring proves that they compose to zero exactly under the
    zero-residual hypothesis, which is refused up front;
    `run_suite("defcomplex")` multiplies the composition out.

    The arrows are cleared once, to integer rows over one common
    denominator L, by `bundles.relation_rows`, which also checks the
    relation on those rows; so one L serves both differentials.
    """
    cleared = relation_rows(e)
    if cleared is None:
        raise HypothesisError("moment residual nonzero; no deformation complex")
    rows, den = cleared
    labels_m1, labels_0, kappa, mu = linearization(e.double, e.rank_vector(), rows)
    degs_m1, degs_0 = _summand_degrees(e, labels_m1, labels_0)
    degs_1 = tuple(d + CANONICAL_DEGREE for d in degs_m1)
    entry_max = max(
        _check_degree_pattern(kappa, degs_0, degs_m1),
        _check_degree_pattern(mu, degs_1, degs_0),
    )

    all_deg = [d for v in e.double.vertices for d in e.bundles[v].multidegree]
    spread = (max(all_deg) - min(all_deg)) if all_deg else 0
    mag = max((abs(d) for _, d in e.twist.m), default=0)
    summand_max = max((abs(d) for d in degs_m1 + degs_0 + degs_1), default=0)
    window = max(mag + spread + 2, summand_max, -(-entry_max // 2) + 1)

    return DeformationComplex(
        labels_m1,
        labels_0,
        labels_m1,
        SplitBundle(degs_m1),
        SplitBundle(degs_0),
        SplitBundle(degs_1),
        kappa,
        mu,
        den,
        window,
    )


def euler_char_rr(e: TwistedQuiverBundle, g: int = 0) -> int:
    """Alternating sum of the term euler numbers, chi(O(n)) = n + 1 - g.

    Zero whenever the twist pairing matches the canonical degree 2g - 2:
    the outer terms are dual up to the canonical twist and the middle
    term cancels pairwise over opposite arrows.  A pairing violation is
    an error, not a nonzero answer.
    """
    violations = e.twist.pairing_violations(e.double, expected_sum=2 * g - 2)
    if violations:
        raise ValueError("; ".join(violations))
    degs_m1, degs_0 = _summand_degrees(e, *linearization_bases(e.double, e.rank_vector()))
    degs_1 = tuple(d + 2 * g - 2 for d in degs_m1)

    def chi(degs: tuple[int, ...]) -> int:
        return sum(d + 1 - g for d in degs)

    return -chi(degs_m1) + chi(degs_0) - chi(degs_1)


# ---------------------------------------------------------------------------
# hypercohomology from the minimal model


@dataclass(frozen=True)
class CohomologyReport:
    """Hypercohomology dimensions in degrees -1..2.

    The dimensions come from the minimal model (module docstring), which
    has no window; `window` is the validated window echoed back, and
    `stabilized` is always True because no answer depends on it.
    """

    h: tuple[tuple[int, int], ...]
    euler: int
    window: int
    stabilized: bool

    def dim(self, k: int) -> int:
        return dict(self.h)[k]


# (offset, lo, hi) per summand: exponent e of summand c, lo <= e <= hi,
# sits at position offset + e; an empty range takes no positions
Layout = tuple[tuple[int, int, int], ...]


def _layout(ranges: list[tuple[int, int]], base: int) -> tuple[Layout, int]:
    out = []
    for lo, hi in ranges:
        out.append((base - lo, lo, hi))
        if hi >= lo:
            base += hi - lo + 1
    return tuple(out), base


def _scatter(rows: list[dict[int, int]], matrix: IntRows, src: Layout, tgt: Layout) -> None:
    # multiplication by matrix (integer rows); s^(d-i) t^i sends e to
    # e + i, and exponents leaving the target range are dropped.  Distinct
    # (entry, i, e) hit distinct positions, so nothing accumulates.  A
    # target row or source summand with an empty range (H0 of O(n), n < 0,
    # or H1 of O(n), n >= -1) takes or gives nothing and is skipped.
    for (t_off, t_lo, t_hi), row in zip(tgt, matrix):
        if t_hi < t_lo:
            continue
        for c, coeffs in row:
            s_off, s_lo, s_hi = src[c]
            if s_hi < s_lo:
                continue
            # source position q = s_off + e goes to target row q + shift + i
            shift = t_off - s_off
            for i, coeff in enumerate(coeffs):
                if coeff:
                    lo = t_lo - i if t_lo - i > s_lo else s_lo
                    hi = t_hi - i if t_hi - i < s_hi else s_hi
                    for q in range(s_off + lo, s_off + hi + 1):
                        rows[q + shift + i][q] = coeff


def _minimal_dims(k: DeformationComplex) -> tuple[int, int, int, int]:
    deg_m1 = k.term_minus1.multidegree
    deg_0 = k.term_zero.multidegree
    deg_1 = k.term_one.multidegree

    def h0(degrees: tuple[int, ...], base: int) -> tuple[Layout, int]:
        return _layout([(0, n) for n in degrees], base)

    def h1(degrees: tuple[int, ...], base: int) -> tuple[Layout, int]:
        return _layout([(n + 1, -1) for n in degrees], base)

    # M(-1) = H0(K-1), M0 = H0(K0) + H1(K-1), M1 = H0(K1) + H1(K0), M2 = H1(K1)
    m1_h0, dim_m1 = h0(deg_m1, 0)
    z_h0, end = h0(deg_0, 0)
    m1_h1, dim_0 = h1(deg_m1, end)
    o_h0, h0_k1 = h0(deg_1, 0)
    z_h1, dim_1 = h1(deg_0, h0_k1)
    o_h1, dim_2 = h1(deg_1, 0)

    kappa, mu = k.kappa, k.mu
    d_m1: list[dict[int, int]] = [{} for _ in range(dim_0)]
    _scatter(d_m1, kappa, m1_h0, z_h0)
    d_0: list[dict[int, int]] = [{} for _ in range(dim_1)]
    _scatter(d_0, mu, z_h0, o_h0)
    _scatter(d_0, kappa, m1_h1, z_h1)
    d_1: list[dict[int, int]] = [{} for _ in range(dim_2)]
    _scatter(d_1, mu, z_h1, o_h1)

    # d2 = pi mu h kappa iota by a border of D(0) (module docstring): h
    # keeps the exponents e' < 0, e' <= n of a K0 summand O(n), and pi
    # the exponents 0..n of K1; e' < n - max(deg K1) never reaches 0
    top = max(deg_1, default=0)
    ranges = [(n - top, min(n, -1)) for n in deg_0]
    mid, size = _layout(ranges, 0)
    # The border unit u = L enters the Schur complement only as d2 / u, so
    # no u != 0 changes r_0 and no test can pin it: with D0 = [[mu00, c d2],
    # [0, kappa11]], c = L / u, rows times diag(I, c I) and columns times
    # diag(I, I / c) give back the matrix with c = 1.
    border = [{c - size: k.den} for c in range(size)]
    _scatter(border, kappa, m1_h1, mid)
    _scatter(d_0, mu, _layout(ranges, -size)[0], o_h0)

    r_m1 = sparse_rank(d_m1)
    r_0 = sparse_rank(d_0 + border) - size
    r_1 = sparse_rank(d_1)
    return (
        dim_m1 - r_m1,
        dim_0 - r_0 - r_m1,
        dim_1 - r_1 - r_0,
        dim_2 - r_1,
    )


def hypercoh_dims(k: DeformationComplex, window: int | None = None) -> CohomologyReport:
    """Hypercohomology dimensions in degrees -1..2 by exact ranks of the
    minimal model's three differentials (module docstring).

    `window` defaults to `min_window` and is refused below it; it is
    echoed in the report, and the dimensions do not depend on it.

    `euler` is the alternating sum of the dimensions.  It equals the
    split-data count -chi(K-1) + chi(K0) - chi(K1), chi(O(n)) = n + 1,
    whatever the ranks: each rank enters two adjacent dimensions with
    opposite signs and cancels, which leaves -dim M(-1) + dim M0 - dim M1
    + dim M2, and `_layout` gives a summand O(n) max(0, n + 1) positions
    in H0 and max(0, -n - 1) in H1, whose difference is n + 1.
    """
    window = k.min_window if window is None else int(window)
    if window < k.min_window:
        raise ValueError(f"window {window} below the required {k.min_window}")
    dims = _minimal_dims(k)
    return CohomologyReport(
        h=((-1, dims[0]), (0, dims[1]), (1, dims[2]), (2, dims[3])),
        euler=-dims[0] + dims[1] - dims[2] + dims[3],
        window=window,
        stabilized=True,
    )


def symmetry_check(e: TwistedQuiverBundle) -> bool:
    """Dimension-level signature of the self-dual obstruction theory on a
    stable instance: no degree -1 or 2 cohomology, equal deformation and
    obstruction dimensions, zero euler number."""
    if not is_stable_quasimap(e):
        raise HypothesisError("symmetry signature needs a stable quasimap")
    k = build_complex(e)
    report = hypercoh_dims(k)
    return (
        report.dim(-1) == 0
        and report.dim(2) == 0
        and report.dim(0) == report.dim(1)
        and report.euler == 0
        and report.euler == euler_char_rr(e)
    )
