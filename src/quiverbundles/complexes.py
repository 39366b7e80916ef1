"""Three-term deformation complex of a twisted quiver bundle on the line.

Degree -1 holds the infinitesimal symmetries, degree 0 the first-order
arrow deformations, degree 1 the linearized relation.  Hypercohomology
is computed from the two-chart Cech bicomplex with Laurent exponents
truncated to a window W.  The truncation is exact whenever W is at least
max(0, every summand degree), which `min_window` guarantees:

Index every Cech piece of a summand O(n) by the exponent e of u = t/s in
the chart-0 trivialization.  Chart 0 holds u^e for 0 <= e <= W; chart 1
holds v^j = u^(n-j), that is n-W <= e <= n; the overlap holds
n-W <= e <= W.  Multiplying by s^(d-i) t^i, from O(n) to O(n+d), sends e
to e+i on all three pieces.  The Cech map is the identity on e, with
sign + from chart 0 and - from chart 1.

The monomials outside these ranges span a subcomplex S of the full
Laurent Cech total complex: an exponent above W stays above W, and one
below n-W stays below n+d-W because i <= d.  In each term the Cech map
of S is a bijection: its chart-0 part {e > W} and chart-1 part
{e < n-W} (W >= 0 puts both inside the charts) are disjoint because
n-W <= 0 <= W, and together they give the whole overlap part of S.  So
S has acyclic rows, its total complex is acyclic, and the truncation,
the quotient by S, has the hypercohomology of the full complex.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import SplitBundle, TwistedQuiverBundle, is_stable_quasimap, residual_is_zero
from .linalg import sparse_rank
from .polynomials import HomogPoly, PolyMatrix, poly_mat_is_zero, poly_matmul
from .quivers import HypothesisError, InvariantError

Label = tuple[str, int, int]

CANONICAL_DEGREE = -2  # genus zero


@dataclass(frozen=True)
class DeformationComplex:
    """Terms in homological degrees -1, 0, 1 as flattened sums of line
    bundles, with one (vertex, k, l) or (arrow, k, l) label per summand;
    the differentials are matrices of forms in the flattened bases."""

    labels_minus1: tuple[Label, ...]
    labels_zero: tuple[Label, ...]
    labels_one: tuple[Label, ...]
    term_minus1: SplitBundle
    term_zero: SplitBundle
    term_one: SplitBundle
    d_kappa: PolyMatrix
    d_mu: PolyMatrix
    min_window: int


def _end_labels(
    e: TwistedQuiverBundle, shift: int
) -> tuple[tuple[Label, ...], tuple[int, ...]]:
    labels: list[Label] = []
    degs: list[int] = []
    for i in e.double.ordinary_vertices:
        a = e.bundles[i].multidegree
        for k in range(len(a)):
            for l in range(len(a)):
                labels.append((i, k, l))
                degs.append(a[k] - a[l] + shift)
    return tuple(labels), tuple(degs)


def _arrow_labels(
    e: TwistedQuiverBundle,
) -> tuple[tuple[Label, ...], tuple[int, ...]]:
    labels: list[Label] = []
    degs: list[int] = []
    for a in e.double.arrows:
        head = e.bundles[a.head].multidegree
        tail = e.bundles[a.tail].multidegree
        m = e.twist.degree(a.name)
        for k in range(len(head)):
            for l in range(len(tail)):
                labels.append((a.name, k, l))
                degs.append(head[k] + m - tail[l])
    return tuple(labels), tuple(degs)


def _check_degree_pattern(
    matrix: PolyMatrix, tgt: tuple[int, ...], src: tuple[int, ...]
) -> None:
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if not entry.is_zero() and entry.degree != tgt[r] - src[c]:
                raise InvariantError("differential degree mismatch")


def build_complex(e: TwistedQuiverBundle) -> DeformationComplex:
    """Assemble both differentials from the arrow matrices.

    The left differential sends a symmetry g to (g_head phi_a - phi_a
    g_tail) over all arrows, with g zero at the framing vertex; the right
    one is the derivative of the relation at phi.  Their composition is
    checked to vanish identically, which is exactly the zero-residual
    hypothesis.
    """
    if not residual_is_zero(e):
        raise HypothesisError("moment residual nonzero; no deformation complex")
    framing = e.double.framing
    labels_m1, degs_m1 = _end_labels(e, 0)
    labels_0, degs_0 = _arrow_labels(e)
    labels_1, degs_1 = _end_labels(e, CANONICAL_DEGREE)
    pos_m1 = {lab: i for i, lab in enumerate(labels_m1)}
    pos_0 = {lab: i for i, lab in enumerate(labels_0)}
    pos_1 = {lab: i for i, lab in enumerate(labels_1)}

    zero = HomogPoly.zero()
    kappa = [[zero] * len(labels_m1) for _ in range(len(labels_0))]
    for a in e.double.arrows:
        phi = e.phi[a.name]
        n_h = e.bundles[a.head].rank
        n_t = e.bundles[a.tail].rank
        for k in range(n_h):
            for l in range(n_t):
                r = pos_0[(a.name, k, l)]
                if a.head != framing:
                    for m in range(n_h):
                        entry = phi[m][l]
                        if not entry.is_zero():
                            c = pos_m1[(a.head, k, m)]
                            kappa[r][c] = kappa[r][c] + entry
                if a.tail != framing:
                    for m in range(n_t):
                        entry = phi[k][m]
                        if not entry.is_zero():
                            c = pos_m1[(a.tail, m, l)]
                            kappa[r][c] = kappa[r][c] - entry

    mu = [[zero] * len(labels_0) for _ in range(len(labels_1))]
    for b in e.double.arrows:
        if b.head == framing:
            continue
        sign = 1 if b.sign == 0 else -1
        phi_b = e.phi[b.name]
        phi_bar = e.phi[b.opposite]
        n_h = e.bundles[b.head].rank
        n_t = e.bundles[b.tail].rank
        for k in range(n_h):
            for l in range(n_h):
                r = pos_1[(b.head, k, l)]
                # xi_b phi_bar contributes phi_bar[m][l] on xi_b[k][m]
                for m in range(n_t):
                    entry = phi_bar[m][l]
                    if not entry.is_zero():
                        c = pos_0[(b.name, k, m)]
                        term = entry if sign > 0 else -entry
                        mu[r][c] = mu[r][c] + term
                # phi_b xi_bar contributes phi_b[k][m] on xi_bar[m][l]
                for m in range(n_t):
                    entry = phi_b[k][m]
                    if not entry.is_zero():
                        c = pos_0[(b.opposite, m, l)]
                        term = entry if sign > 0 else -entry
                        mu[r][c] = mu[r][c] + term

    d_kappa = tuple(tuple(row) for row in kappa)
    d_mu = tuple(tuple(row) for row in mu)
    _check_degree_pattern(d_kappa, degs_0, degs_m1)
    _check_degree_pattern(d_mu, degs_1, degs_0)
    if not poly_mat_is_zero(poly_matmul(d_mu, d_kappa)):
        raise InvariantError("composition not zero")

    all_deg = [d for v in e.double.vertices for d in e.bundles[v].multidegree]
    spread = (max(all_deg) - min(all_deg)) if all_deg else 0
    mag = max((abs(d) for _, d in e.twist.m), default=0)
    entry_max = max(
        (
            entry.degree
            for mat in (d_kappa, d_mu)
            for row in mat
            for entry in row
            if not entry.is_zero()
        ),
        default=0,
    )
    summand_max = max((abs(d) for d in degs_m1 + degs_0 + degs_1), default=0)
    window = max(mag + spread + 2, summand_max, -(-entry_max // 2) + 1)

    return DeformationComplex(
        labels_m1,
        labels_0,
        labels_1,
        SplitBundle(degs_m1),
        SplitBundle(degs_0),
        SplitBundle(degs_1),
        d_kappa,
        d_mu,
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
    _, degs_m1 = _end_labels(e, 0)
    _, degs_0 = _arrow_labels(e)
    _, degs_1 = _end_labels(e, 2 * g - 2)

    def chi(degs: tuple[int, ...]) -> int:
        return sum(d + 1 - g for d in degs)

    return -chi(degs_m1) + chi(degs_0) - chi(degs_1)


# ---------------------------------------------------------------------------
# truncated two-chart Cech hypercohomology


@dataclass(frozen=True)
class CohomologyReport:
    """Hypercohomology dimensions in degrees -1..2 at one window.

    `stabilized` is always True: every accepted window is at least the
    largest summand degree, where the truncation is exact (module
    docstring), so a wider window gives the same dimensions.
    """

    h: tuple[tuple[int, int], ...]
    euler: int
    window: int
    stabilized: bool

    def dim(self, k: int) -> int:
        return dict(self.h)[k]


# (base, lo, hi) per summand: exponents lo..hi of summand c sit at
# positions base .. base + hi - lo
Layout = tuple[tuple[int, int, int], ...]


def _layout(ranges: list[tuple[int, int]], base: int) -> tuple[Layout, int]:
    out = []
    for lo, hi in ranges:
        out.append((base, lo, hi))
        base += hi - lo + 1
    return tuple(out), base


def _scatter(
    rows: list[dict[int, Fraction]], matrix: PolyMatrix, src: Layout, tgt: Layout, sign: int
) -> None:
    # sign times multiplication by matrix; s^(d-i) t^i sends e to e + i,
    # and exponents leaving the target range fall into the subcomplex S.
    # Distinct (entry, i, e) hit distinct positions, so nothing accumulates.
    for r, row in enumerate(matrix):
        t_base, t_lo, t_hi = tgt[r]
        for c, entry in enumerate(row):
            if entry.is_zero():
                continue
            s_base, s_lo, s_hi = src[c]
            for i, coeff in enumerate(entry.coeffs):
                if coeff == 0:
                    continue
                value = sign * coeff
                for e in range(max(s_lo, t_lo - i), min(s_hi, t_hi - i) + 1):
                    rows[t_base + e + i - t_lo][s_base + e - s_lo] = value


def _identity(size: int) -> PolyMatrix:
    one, zero = HomogPoly.constant(1), HomogPoly.zero()
    return tuple(tuple(one if r == c else zero for c in range(size)) for r in range(size))


def _cech_dims(k: DeformationComplex, window: int) -> tuple[int, int, int, int]:
    w = window

    def charts(degrees: tuple[int, ...]) -> tuple[Layout, Layout, int]:
        c0, end = _layout([(0, w) for _ in degrees], 0)
        c1, end = _layout([(n - w, n) for n in degrees], end)
        return c0, c1, end

    def overlap(degrees: tuple[int, ...], base: int) -> tuple[Layout, int]:
        return _layout([(n - w, w) for n in degrees], base)

    # terms -1 (m1_), 0 (z_), 1 (o_); pieces chart 0, chart 1, overlap
    deg_m1 = k.term_minus1.multidegree
    deg_0 = k.term_zero.multidegree
    deg_1 = k.term_one.multidegree
    m1_c0, m1_c1, dim_tm1 = charts(deg_m1)
    z_c0, z_c1, end = charts(deg_0)
    m1_ov, dim_t0 = overlap(deg_m1, end)
    o_c0, o_c1, end = charts(deg_1)
    z_ov, dim_t1 = overlap(deg_0, end)
    o_ov, dim_t2 = overlap(deg_1, 0)
    id_m1, id_0, id_1 = (_identity(len(d)) for d in (deg_m1, deg_0, deg_1))

    # D(-1): charts of term -1 into charts of term 0 and its own overlap
    d_m1: list[dict[int, Fraction]] = [{} for _ in range(dim_t0)]
    _scatter(d_m1, k.d_kappa, m1_c0, z_c0, 1)
    _scatter(d_m1, k.d_kappa, m1_c1, z_c1, 1)
    _scatter(d_m1, id_m1, m1_c0, m1_ov, -1)
    _scatter(d_m1, id_m1, m1_c1, m1_ov, 1)

    # D(0): charts of term 0 and overlap of term -1 into degree-one total
    d_0: list[dict[int, Fraction]] = [{} for _ in range(dim_t1)]
    _scatter(d_0, k.d_mu, z_c0, o_c0, 1)
    _scatter(d_0, k.d_mu, z_c1, o_c1, 1)
    _scatter(d_0, id_0, z_c0, z_ov, 1)
    _scatter(d_0, id_0, z_c1, z_ov, -1)
    _scatter(d_0, k.d_kappa, m1_ov, z_ov, 1)

    # D(1): charts of term 1 and overlap of term 0 into overlap of term 1
    d_1: list[dict[int, Fraction]] = [{} for _ in range(dim_t2)]
    _scatter(d_1, id_1, o_c0, o_ov, -1)
    _scatter(d_1, id_1, o_c1, o_ov, 1)
    _scatter(d_1, k.d_mu, z_ov, o_ov, 1)

    r_m1 = sparse_rank(d_m1)
    r_0 = sparse_rank(d_0)
    r_1 = sparse_rank(d_1)
    return (
        dim_tm1 - r_m1,
        dim_t0 - r_0 - r_m1,
        dim_t1 - r_1 - r_0,
        dim_t2 - r_1,
    )


def hypercoh_dims(k: DeformationComplex, window: int | None = None) -> CohomologyReport:
    """Hypercohomology dimensions in degrees -1..2 by exact ranks of the
    truncated total complex, in one pass: the truncation is exact at
    every window from `min_window` up (module docstring), so the report
    is stabilized by proof rather than by recomputing wider.

    The alternating sum is window-independent bookkeeping (each chart
    block contributes exactly the euler number of its summand), and is
    checked against the split-data count.
    """
    window = k.min_window if window is None else int(window)
    if window < k.min_window:
        raise ValueError(f"window {window} below the required {k.min_window}")
    dims = _cech_dims(k, window)
    euler = -dims[0] + dims[1] - dims[2] + dims[3]
    chi = (
        -sum(d + 1 for d in k.term_minus1.multidegree)
        + sum(d + 1 for d in k.term_zero.multidegree)
        - sum(d + 1 for d in k.term_one.multidegree)
    )
    if euler != chi:
        raise InvariantError("hypercohomology euler mismatch")
    return CohomologyReport(
        h=((-1, dims[0]), (0, dims[1]), (1, dims[2]), (2, dims[3])),
        euler=euler,
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
