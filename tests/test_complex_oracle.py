"""The integer deformation complex against the form pipeline it replaced.

`build_complex` clears the arrows once to integer rows over one common
denominator L and assembles L kappa and L dmu on integers
(`representations.linearization`); `hypercoh_dims` scatters those rows
as stored.  The references here are the former form path, kept
verbatim: `linearization` over matrices of forms, `build_complex` on
it, and the minimal model that cleared both differentials back to
integers (`integer_rows`).  `d_kappa`, `d_mu` and the hypercohomology
reports must be equal on both `cohomology` lists of the benchmark, the
generator rotations, adhm ranks 3-8, rational gauges (a different
denominator per arrow, so L > 1), arrows with pairwise coprime
denominators (so L is none of them), a zero-rank vertex and a loop whose
kappa entries cancel; off the relation both refuse.  `reduced_tangent`
must equal the former one on rational matrices, and a guard shows that
the integer path builds no form and clears each bundle once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

import pytest

from quiverbundles import bundles, complexes, linalg, polynomials
from quiverbundles.bundles import SplitBundle, TwistData, TwistedQuiverBundle, residual_is_zero
from quiverbundles.complexes import (
    CANONICAL_DEGREE,
    CohomologyReport,
    _summand_degrees,
    build_complex,
    hypercoh_dims,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle, gen_rep, rep_spec
from quiverbundles.linalg import sparse_rank
from quiverbundles.polynomials import HomogPoly, IntRows, PolyMatrix, integer_rows, poly_zeros
from quiverbundles.quivers import DoubleQuiver, HypothesisError, InvariantError
from quiverbundles.representations import (
    ZERO,
    FramedRep,
    Label,
    ReducedTangentReport,
    _gram,
    linearization_bases,
    moment,
    reduced_tangent,
)

from _builders import ADHM_DOUBLE, chain_bundle, coprime_adhm, form, poly_mat, rational_gauge
from test_residual_oracle import perturbed

BENCH = Path(__file__).resolve().parent.parent / "bench"

Entry = TypeVar("Entry")
EntryMatrix = tuple[tuple[Entry, ...], ...]
Layout = tuple[tuple[int, int, int], ...]


def _reference_linearization(
    dq: DoubleQuiver,
    ranks: Mapping[str, int],
    blocks: Mapping[str, Sequence[Sequence[Entry]]],
    zero: Entry,
) -> tuple[tuple[Label, ...], tuple[Label, ...], EntryMatrix, EntryMatrix]:
    """The bases of `linearization_bases` and the matrices of kappa and
    dmu at the arrow matrices x = `blocks`, in the complex

        g --kappa--> T --dmu--> g*.

    kappa is the infinitesimal gauge action, kappa(g)_a = g_head x_a -
    x_a g_tail with g zero at the framing vertex; its rows are the tangent
    basis and its columns the gauge basis.  dmu is the derivative of the
    moment map, dmu(xi)_i = sum over arrows b with head i of (-1)^sign
    (xi_b x_bbar + x_b xi_bbar); its rows are the entries (i, k, l) of
    dmu_i, labelled like the gauge basis, and its columns the tangent
    basis.  Only +, - and the truthiness of entries are used, so the same
    code serves rational matrices and matrices of forms; `zero` is the
    zero entry.

    dmu kappa is [g_i, mu_i(x)] at i, so the two maps compose to zero
    exactly on a level set: with xi = kappa(g) and t the tail of b,
    xi_b x_bbar + x_b xi_bbar = (g_i x_b - x_b g_t) x_bbar + x_b (g_t x_bbar
    - x_bbar g_i) = [g_i, x_b x_bbar], where the two terms that carry g_t
    cancel, also when t is the framing vertex and g_t is zero in both.  The
    signed sum over b is [g_i, mu_i(x) + lambda_i I] = [g_i, mu_i(x)],
    which vanishes when the moment residual mu(x) does.
    """
    gauge, tangent = linearization_bases(dq, ranks)
    g_at = {i: c for c, (i, k, l) in enumerate(gauge) if k == l == 0}
    t_at = {a: c for c, (a, k, l) in enumerate(tangent) if k == l == 0}
    kappa = [[zero] * len(gauge) for _ in tangent]
    mu = [[zero] * len(tangent) for _ in gauge]
    framing = dq.framing
    for a in dq.arrows:
        n_h, n_t = ranks[a.head], ranks[a.tail]
        if not (n_h and n_t):
            continue  # a product through a zero-rank vertex is zero
        x, x_bar = blocks[a.name], blocks[a.opposite]
        at, bar_at = t_at[a.name], t_at[a.opposite]
        if a.head != framing:
            head_at, plus = g_at[a.head], a.sign == 0
            for m, row in enumerate(x):
                for l, entry in enumerate(row):
                    if entry:
                        # g_head x_a: E_km of the head moves row m to row k
                        for k in range(n_h):
                            kappa[at + k * n_t + l][head_at + k * n_h + m] += entry
            for m, row in enumerate(x_bar):
                for l, entry in enumerate(row):
                    if entry:
                        # xi_a x_abar: E_km of a meets row m of x_abar
                        term = entry if plus else -entry
                        for k in range(n_h):
                            mu[head_at + k * n_h + l][at + k * n_t + m] += term
            for k, row in enumerate(x):
                for m, entry in enumerate(row):
                    if entry:
                        # x_a xi_abar: E_ml of abar meets column m of x_a
                        term = entry if plus else -entry
                        for l in range(n_h):
                            mu[head_at + k * n_h + l][bar_at + m * n_h + l] += term
        if a.tail != framing:
            tail_at = g_at[a.tail]
            for k, row in enumerate(x):
                for m, entry in enumerate(row):
                    if entry:
                        # x_a g_tail: E_ml of the tail moves column m to column l
                        for l in range(n_t):
                            kappa[at + k * n_t + l][tail_at + m * n_t + l] -= entry
    return gauge, tangent, tuple(map(tuple, kappa)), tuple(map(tuple, mu))


@dataclass(frozen=True)
class _ReferenceComplex:
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


def _reference_check_degree_pattern(
    matrix: PolyMatrix, tgt: tuple[int, ...], src: tuple[int, ...]
) -> int:
    """Check that each nonzero entry has degree tgt - src; return the
    largest such degree (0 if there is none)."""
    top = 0
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            d = entry.degree
            if d is not None:
                if d != tgt[r] - src[c]:
                    raise InvariantError("differential degree mismatch")
                if d > top:
                    top = d
    return top


def _reference_build_complex(e: TwistedQuiverBundle) -> _ReferenceComplex:
    """Assemble both differentials from the arrow matrices by
    `representations.linearization` at phi: the left one sends a symmetry
    g to (g_head phi_a - phi_a g_tail) over all arrows, with g zero at the
    framing vertex, and the right one is the derivative of the relation at
    phi.  Its docstring proves that they compose to zero exactly under the
    zero-residual hypothesis, which is refused up front;
    `run_suite("defcomplex")` multiplies the composition out.
    """
    if not residual_is_zero(e):
        raise HypothesisError("moment residual nonzero; no deformation complex")
    labels_m1, labels_0, d_kappa, d_mu = _reference_linearization(
        e.double, e.rank_vector(), e.phi, HomogPoly.zero()
    )
    degs_m1, degs_0 = _summand_degrees(e, labels_m1, labels_0)
    degs_1 = tuple(d + CANONICAL_DEGREE for d in degs_m1)
    entry_max = max(
        _reference_check_degree_pattern(d_kappa, degs_0, degs_m1),
        _reference_check_degree_pattern(d_mu, degs_1, degs_0),
    )

    all_deg = [d for v in e.double.vertices for d in e.bundles[v].multidegree]
    spread = (max(all_deg) - min(all_deg)) if all_deg else 0
    mag = max((abs(d) for _, d in e.twist.m), default=0)
    summand_max = max((abs(d) for d in degs_m1 + degs_0 + degs_1), default=0)
    window = max(mag + spread + 2, summand_max, -(-entry_max // 2) + 1)

    return _ReferenceComplex(
        labels_m1,
        labels_0,
        labels_m1,
        SplitBundle(degs_m1),
        SplitBundle(degs_0),
        SplitBundle(degs_1),
        d_kappa,
        d_mu,
        window,
    )


def _reference_layout(ranges: list[tuple[int, int]], base: int) -> tuple[Layout, int]:
    out = []
    for lo, hi in ranges:
        out.append((base, lo, hi))
        base += max(0, hi - lo + 1)
    return tuple(out), base


def _reference_scatter(rows: list[dict[int, int]], matrix: IntRows, src: Layout, tgt: Layout) -> None:
    # multiplication by matrix (`integer_rows`); s^(d-i) t^i sends e to
    # e + i, and exponents leaving the target range are dropped.  Distinct
    # (entry, i, e) hit distinct positions, so nothing accumulates.  A
    # target row or source summand with an empty range (H0 of O(n), n < 0,
    # or H1 of O(n), n >= -1) takes or gives nothing and is skipped.
    for r, row in enumerate(matrix):
        t_base, t_lo, t_hi = tgt[r]
        if t_hi < t_lo:
            continue
        for c, coeffs in row:
            s_base, s_lo, s_hi = src[c]
            if s_hi < s_lo:
                continue
            for i, coeff in enumerate(coeffs):
                if coeff == 0:
                    continue
                for e in range(max(s_lo, t_lo - i), min(s_hi, t_hi - i) + 1):
                    rows[t_base + e + i - t_lo][s_base + e - s_lo] = coeff


def _reference_minimal_dims(k: _ReferenceComplex) -> tuple[int, int, int, int]:
    deg_m1 = k.term_minus1.multidegree
    deg_0 = k.term_zero.multidegree
    deg_1 = k.term_one.multidegree

    def h0(degrees: tuple[int, ...], base: int) -> tuple[Layout, int]:
        return _reference_layout([(0, n) for n in degrees], base)

    def h1(degrees: tuple[int, ...], base: int) -> tuple[Layout, int]:
        return _reference_layout([(n + 1, -1) for n in degrees], base)

    # M(-1) = H0(K-1), M0 = H0(K0) + H1(K-1), M1 = H0(K1) + H1(K0), M2 = H1(K1)
    m1_h0, dim_m1 = h0(deg_m1, 0)
    z_h0, end = h0(deg_0, 0)
    m1_h1, dim_0 = h1(deg_m1, end)
    o_h0, h0_k1 = h0(deg_1, 0)
    z_h1, dim_1 = h1(deg_0, h0_k1)
    o_h1, dim_2 = h1(deg_1, 0)

    kappa, den_kappa = integer_rows(k.d_kappa)
    mu, _ = integer_rows(k.d_mu)
    d_m1: list[dict[int, int]] = [{} for _ in range(dim_0)]
    _reference_scatter(d_m1, kappa, m1_h0, z_h0)
    d_0: list[dict[int, int]] = [{} for _ in range(dim_1)]
    _reference_scatter(d_0, mu, z_h0, o_h0)
    _reference_scatter(d_0, kappa, m1_h1, z_h1)
    d_1: list[dict[int, int]] = [{} for _ in range(dim_2)]
    _reference_scatter(d_1, mu, z_h1, o_h1)

    # d2 = pi mu h kappa iota by a border of D(0) (module docstring): h
    # keeps the exponents e' < 0, e' <= n of a K0 summand O(n), and pi
    # the exponents 0..n of K1; e' < n - max(deg K1) never reaches 0
    top = max(deg_1, default=0)
    ranges = [(n - top, min(n, -1)) for n in deg_0]
    mid, size = _reference_layout(ranges, 0)
    border = [{c - size: den_kappa} for c in range(size)]
    _reference_scatter(border, kappa, m1_h1, mid)
    _reference_scatter(d_0, mu, _reference_layout(ranges, -size)[0], o_h0)

    r_m1 = sparse_rank(d_m1)
    r_0 = sparse_rank(d_0 + border) - size
    r_1 = sparse_rank(d_1)
    return (
        dim_m1 - r_m1,
        dim_0 - r_0 - r_m1,
        dim_1 - r_1 - r_0,
        dim_2 - r_1,
    )


def _reference_hypercoh_dims(k: _ReferenceComplex, window: int | None = None) -> CohomologyReport:
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
    dims = _reference_minimal_dims(k)
    return CohomologyReport(
        h=((-1, dims[0]), (0, dims[1]), (1, dims[2]), (2, dims[3])),
        euler=-dims[0] + dims[1] - dims[2] + dims[3],
        window=window,
        stabilized=True,
    )


def _reference_reduced_tangent(x: FramedRep, level: Mapping[str, object] | None = None) -> ReducedTangentReport:
    """Dimension and symplectic nondegeneracy of ker(moment derivative)/im(action derivative).

    Requires the moment residual at the given level to vanish.  A
    non-injective action derivative (positive-dimensional stabilizer) is
    reported through the flag, not raised.  The two maps come from
    `linearization` at x, which proves that they compose to zero on the
    level set.
    """
    residual = moment(x, level)
    if any(not linalg.is_zero_matrix(m) for m in residual.values()):
        raise HypothesisError("moment residual nonzero at the given level")

    gauge, tangent, kappa, mu = _reference_linearization(x.double, x.dims, x.x, ZERO)
    rank_kappa = linalg.rank(kappa)
    kernel = linalg.nullspace(mu) if gauge else linalg.identity(len(tangent))
    dimension = len(kernel) - rank_kappa
    nondeg = (linalg.rank(_gram(x.double, tangent, kernel)) == dimension) if kernel else dimension == 0
    return ReducedTangentReport(dimension, nondeg, rank_kappa == len(gauge))


# ---------------------------------------------------------------------------
# the corpus


def _cohomology_lists() -> list[TwistedQuiverBundle]:
    """The benchmark's `cohomology` input lists at seeds 1 and 2."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return [e for seed in (1, 2) for e in workloads.Cohomology().build(seed)]


def _zero_rank_chain() -> TwistedQuiverBundle:
    # vertex 2 of the chain has rank 0, so e+ and e- are empty
    return chain_bundle((0, -2), (), f=[[form(0, 3)], [HomogPoly.zero()]])


def _scalar_loop_adhm(c: Fraction = Fraction(5, 3)) -> TwistedQuiverBundle:
    """ADHM data with untwisted loop+ = c times the identity: kappa on it is
    g c - c g = 0, so each diagonal placement x_ll - x_kk cancels."""
    twist = TwistData.of({"loop+": 0, "loop-": -2, "frame+": 0, "frame-": -2})
    zero, one, scalar = HomogPoly.zero(), HomogPoly.constant(1), HomogPoly.constant(c)
    phi = {
        "loop+": poly_mat([[scalar, zero], [zero, scalar]]),
        "loop-": poly_zeros(2, 2),
        "frame+": poly_mat([[one], [form(1, 1, 2)]]),
        "frame-": poly_zeros(1, 2),
    }
    bundles_ = {"0": SplitBundle((0,)), "1": SplitBundle((0, 1))}
    return TwistedQuiverBundle(ADHM_DOUBLE, bundles_, twist, phi)


def _corpus() -> list[TwistedQuiverBundle]:
    out = _cohomology_lists()
    out += [gen_bundle(bundle_spec(k, s)) for s in (0, 3, 9) for k in range(192)]
    out += [
        gen_bundle(InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=0))
        for r in range(3, 9)
        for f in (1, 2)
    ]
    out += [rational_gauge(e, Fraction(3, 5)) for e in out[::9]]
    out += [_zero_rank_chain(), rational_gauge(_zero_rank_chain()), _scalar_loop_adhm()]
    out.append(coprime_adhm())
    return out


def _assert_equal(e: TwistedQuiverBundle) -> complexes.DeformationComplex:
    want = _reference_build_complex(e)
    got = build_complex(e)
    assert (got.labels_minus1, got.labels_zero, got.labels_one) == (
        want.labels_minus1,
        want.labels_zero,
        want.labels_one,
    )
    assert (got.term_minus1, got.term_zero, got.term_one, got.min_window) == (
        want.term_minus1,
        want.term_zero,
        want.term_one,
        want.min_window,
    )
    assert got.d_kappa == want.d_kappa
    assert got.d_mu == want.d_mu
    assert hypercoh_dims(got) == _reference_hypercoh_dims(want)
    return got


# ---------------------------------------------------------------------------
# the tests


def test_complex_and_reports_equal_the_form_reference():
    corpus = _corpus()
    scaled = 0
    for e in corpus:
        scaled += _assert_equal(e).den > 1
    assert len(corpus) > 850 and scaled > 80


def test_zero_rank_vertex_and_cancelling_loop():
    k = _assert_equal(_zero_rank_chain())
    assert {a for a, _, _ in k.labels_zero} == {"f+", "f-"}  # e+ and e- are empty
    k = _assert_equal(_scalar_loop_adhm())
    loop_rows = [row for row, (a, _, _) in zip(k.kappa, k.labels_zero) if a == "loop+"]
    assert len(loop_rows) == 4 and not any(loop_rows)
    assert k.den == 3
    assert all(not any(row) for row in k.d_kappa[:4])


def test_off_the_relation_both_refuse():
    specs = [bundle_spec(k, s) for s in (0, 9) for k in range(96)] + [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (3, 4, 5, 6)
        for s in range(2)
    ]
    refused = 0
    for e in [gen_bundle(spec) for spec in specs] + [_scalar_loop_adhm()]:
        for f in (perturbed(e), perturbed(rational_gauge(e))):
            if f is None:
                continue
            with pytest.raises(HypothesisError):
                _reference_build_complex(f)
            with pytest.raises(HypothesisError):
                build_complex(f)
            refused += 1
    assert refused > 30


def test_reduced_tangent_equals_the_rational_reference():
    reports = set()
    for s in (0, 1):
        for k in range(60):
            spec = rep_spec(k, s)
            x = gen_rep(spec)
            level = {i: spec.level for i in x.double.ordinary_vertices}
            want = _reference_reduced_tangent(x, level)
            assert reduced_tangent(x, level) == want
            reports.add(want)
    assert len(reports) > 3


def test_no_form_is_built_and_each_bundle_is_cleared_once(monkeypatch):
    corpus = [gen_bundle(bundle_spec(k, 0)) for k in range(40)]
    cleared = []
    real = polynomials.integer_rows

    def counting(a):
        cleared.append(1)
        return real(a)

    def refuse(*args, **kwargs):
        raise AssertionError("no form and no second clearing on this path")

    monkeypatch.setattr(bundles, "integer_rows", counting)
    monkeypatch.setattr(polynomials, "integer_rows", refuse)
    monkeypatch.setattr(HomogPoly, "__post_init__", refuse)
    assert not hasattr(complexes, "integer_rows")
    for e in corpus:
        cleared.clear()
        hypercoh_dims(build_complex(e))
        assert len(cleared) == 1
    with pytest.raises(AssertionError):
        build_complex(corpus[0]).d_kappa
