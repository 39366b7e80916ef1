"""The minimal model against the truncated two-chart Cech complex.

`complexes.hypercoh_dims` reads the dimensions off the minimal model
H0 + H1[-1] (the `complexes` module docstring).  The reference below is
the Cech code it replaced, kept verbatim: a `_Block` index per term,
separate chart, overlap and Cech scatters, and the total complex
truncated to a window W of Laurent exponents.  On the 352 residual-zero
instances the model must give the reference's four dimensions at
`min_window`, at `min_window + 5` (every second instance), and at the
smallest window the truncation proof below covers, max(0, every summand
degree).

The truncation is exact whenever W is at least max(0, every summand
degree), which `min_window` guarantees.  Index every Cech piece of a
summand O(n) by the exponent e of u = t/s in the chart-0
trivialization.  Chart 0 holds u^e for 0 <= e <= W; chart 1 holds
v^j = u^(n-j), that is n-W <= e <= n; the overlap holds n-W <= e <= W.
Multiplying by s^(d-i) t^i, from O(n) to O(n+d), sends e to e+i on all
three pieces.  The Cech map is the identity on e, with sign + from
chart 0 and - from chart 1.

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

from fractions import Fraction

import pytest

from quiverbundles.bundles import residual_is_zero
from quiverbundles.complexes import DeformationComplex, build_complex, hypercoh_dims
from quiverbundles.generators import bundle_spec, gen_bundle, stable_bundles
from quiverbundles.linalg import sparse_rank
from quiverbundles.polynomials import PolyMatrix


# ---------------------------------------------------------------------------
# reference: the scatter as it was before the truncation was proven exact


class _Block:
    """Index bookkeeping for one term at a fixed window.

    Chart sections hold, per summand, the monomials u^0..u^W on the
    first chart and v^0..v^W on the second; overlap sections hold
    u^(n-W)..u^W in the first chart's trivialization of O(n).
    """

    def __init__(self, degrees: tuple[int, ...], window: int):
        self.degrees = degrees
        self.window = window
        self.chart_dim = 2 * (window + 1) * len(degrees)
        self.overlap_offsets: list[int] = []
        total = 0
        for n in degrees:
            self.overlap_offsets.append(total)
            total += 2 * window - n + 1
        self.overlap_dim = total

    def u(self, s: int, j: int) -> int:
        return 2 * (self.window + 1) * s + j

    def v(self, s: int, j: int) -> int:
        return 2 * (self.window + 1) * s + (self.window + 1) + j

    def ov(self, s: int, exp: int) -> int | None:
        lo = self.degrees[s] - self.window
        if lo <= exp <= self.window:
            return self.overlap_offsets[s] + (exp - lo)
        return None


def _scatter_chart(
    rows: list[dict[int, Fraction]],
    matrix: PolyMatrix,
    src: _Block,
    tgt: _Block,
    src_off: int,
    tgt_off: int,
) -> None:
    # multiplication by each entry on both charts; u-exponents shift by
    # the t-exponent of the monomial, v-exponents by the s-exponent
    w = src.window
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if entry.is_zero():
                continue
            for idx, coeff in enumerate(entry.coeffs):
                if coeff == 0:
                    continue
                du, dv = idx, entry.degree - idx
                for j in range(w + 1):
                    if j + du <= w:
                        rows[tgt_off + tgt.u(r, j + du)][src_off + src.u(c, j)] = (
                            rows[tgt_off + tgt.u(r, j + du)].get(src_off + src.u(c, j), Fraction(0))
                            + coeff
                        )
                    if j + dv <= w:
                        rows[tgt_off + tgt.v(r, j + dv)][src_off + src.v(c, j)] = (
                            rows[tgt_off + tgt.v(r, j + dv)].get(src_off + src.v(c, j), Fraction(0))
                            + coeff
                        )


def _scatter_overlap(
    rows: list[dict[int, Fraction]],
    matrix: PolyMatrix,
    src: _Block,
    tgt: _Block,
    src_off: int,
    tgt_off: int,
) -> None:
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if entry.is_zero():
                continue
            lo = src.degrees[c] - src.window
            for idx, coeff in enumerate(entry.coeffs):
                if coeff == 0:
                    continue
                for exp in range(lo, src.window + 1):
                    t = tgt.ov(r, exp + idx)
                    if t is not None:
                        pos = src.ov(c, exp)
                        assert pos is not None
                        key = src_off + pos
                        rows[tgt_off + t][key] = rows[tgt_off + t].get(key, Fraction(0)) + coeff


def _scatter_cech(
    rows: list[dict[int, Fraction]],
    block: _Block,
    src_off: int,
    tgt_off: int,
    sign: int,
) -> None:
    # (f0, f1) -> f0 - u^n f1 on the overlap, times the degree sign
    one = Fraction(sign)
    for s, n in enumerate(block.degrees):
        for j in range(block.window + 1):
            t = block.ov(s, j)
            assert t is not None
            rows[tgt_off + t][src_off + block.u(s, j)] = one
            t = block.ov(s, n - j)
            assert t is not None
            rows[tgt_off + t][src_off + block.v(s, j)] = -one


def _cech_dims(k: DeformationComplex, window: int) -> tuple[int, int, int, int]:
    bm1 = _Block(k.term_minus1.multidegree, window)
    b0 = _Block(k.term_zero.multidegree, window)
    b1 = _Block(k.term_one.multidegree, window)

    dim_tm1 = bm1.chart_dim
    dim_t0 = b0.chart_dim + bm1.overlap_dim
    dim_t1 = b1.chart_dim + b0.overlap_dim
    dim_t2 = b1.overlap_dim

    # D(-1): charts of term -1 into charts of term 0 and its own overlap
    d_m1: list[dict[int, Fraction]] = [{} for _ in range(dim_t0)]
    _scatter_chart(d_m1, k.d_kappa, bm1, b0, 0, 0)
    _scatter_cech(d_m1, bm1, 0, b0.chart_dim, -1)

    # D(0): charts of term 0 and overlap of term -1 into degree-one total
    d_0: list[dict[int, Fraction]] = [{} for _ in range(dim_t1)]
    _scatter_chart(d_0, k.d_mu, b0, b1, 0, 0)
    _scatter_cech(d_0, b0, 0, b1.chart_dim, 1)
    _scatter_overlap(d_0, k.d_kappa, bm1, b0, b0.chart_dim, b1.chart_dim)

    # D(1): charts of term 1 and overlap of term 0 into overlap of term 1
    d_1: list[dict[int, Fraction]] = [{} for _ in range(dim_t2)]
    _scatter_cech(d_1, b1, 0, 0, -1)
    _scatter_overlap(d_1, k.d_mu, b0, b1, b1.chart_dim, 0)

    r_m1 = sparse_rank(d_m1)
    r_0 = sparse_rank(d_0)
    r_1 = sparse_rank(d_1)
    return (
        dim_tm1 - r_m1,
        dim_t0 - r_0 - r_m1,
        dim_t1 - r_1 - r_0,
        dim_t2 - r_1,
    )


# ---------------------------------------------------------------------------
# pool


@pytest.fixture(scope="module")
def pool():
    """The 352 residual-zero instances, each with the minimal model's dims."""
    bundles = list(stable_bundles(100, seed=23, degree_bound=4))
    bundles += [gen_bundle(bundle_spec(k, 0)) for k in range(192)]
    bundles += [gen_bundle(bundle_spec(k, 7, degree_bound=4)) for k in range(60)]
    ks = [build_complex(e) for e in bundles if residual_is_zero(e)]
    return [(k, tuple(d for _, d in hypercoh_dims(k).h)) for k in ks]


def test_pool_size(pool):
    assert len(pool) == 352


def test_matches_reference_at_min_window(pool):
    for k, dims in pool:
        assert dims == _cech_dims(k, k.min_window)


def test_matches_reference_recompute_at_min_window_plus_5(pool):
    # the recompute hypercoh_dims made on every call before the proof;
    # every second instance, to keep the file near 10 s
    for k, dims in pool[::2]:
        assert dims == _cech_dims(k, k.min_window + 5)


def test_proof_boundary_window_gives_same_dims(pool):
    for k, dims in pool:
        degrees = k.term_minus1.multidegree + k.term_zero.multidegree + k.term_one.multidegree
        w = max(0, *degrees)
        assert w <= k.min_window
        assert _cech_dims(k, w) == dims
