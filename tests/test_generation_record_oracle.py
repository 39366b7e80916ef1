"""The integer generation record against the form pipeline it replaced.

`bundles._generation` runs the generation walk, the generic ranks, the
pivot columns and the base-locus gcds on integer columns.  The reference
here is the former record, kept verbatim: the generation matrices of
`Fraction`-valued forms (`_generation_matrices`), `generic_rank` and the
`_minor_gcd` / `_full_rank_minor_gcd` entries on forms, and fibers taken
on `integer_columns`.  Ranks, verdicts, summaries, base loci, the first
points off the base locus and `sample_points` must be equal.

A guard test then makes every form-building step raise while the public
verdicts run, which shows that the verdict path builds no forms but the
ones a `base_locus` report returns: one per ordinary vertex and one for
their product, built in `bundles` from integer forms.

The record of the last bundle is kept in one slot and shared by the
verdicts asked of that bundle in a row.  The record-sharing tests count
the builds, and the unshared record, built afresh for every verdict, is
the reference for the shared one.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from pathlib import Path
from typing import Iterator, Mapping

import pytest

from quiverbundles import asymptotic_equivalence_check, bundles, polynomials
from quiverbundles.bundles import (
    BaseLocusReport,
    GeneratedSummary,
    TwistedQuiverBundle,
    _Generation,
    _generation,
    base_locus,
    generated_subsheaf_summary,
    is_stable_quasimap,
)
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle, sample_points
from quiverbundles.polynomials import (
    HomogPoly,
    PolyMatrix,
    fiber_rank,
    generic_rank,
    integer_columns,
)
from quiverbundles.quivers import HypothesisError
from quiverbundles.serialization import parse_document

from _builders import adhm_bundle, chain_bundle, coprime_adhm, form, rational_gauge
from _oracles import _full_rank_minor_gcd, _generation_matrices, _minor_gcd
from test_residual_oracle import reference_residual_is_zero

FIXTURES = Path(__file__).parent / "fixtures"


@dataclass(frozen=True)
class _ReferenceGeneration:
    e: TwistedQuiverBundle
    matrices: Mapping[str, tuple[PolyMatrix, tuple[int, ...]]]
    ranks: Mapping[str, int]

    @property
    def stable(self) -> bool:
        return all(r == self.e.bundles[i].rank for i, r in self.ranks.items())

    def summary(self) -> GeneratedSummary:
        degs: list[tuple[str, int]] = []
        for i, rank in self.ranks.items():
            if rank == self.e.bundles[i].rank:
                degree = self.e.bundles[i].degree
            else:
                matrix, twists = self.matrices[i]
                order = sorted(range(len(twists)), key=twists.__getitem__)
                pivots, g = _minor_gcd(tuple(tuple(row[j] for j in order) for row in matrix))
                degree = g.degree - sum(twists[order[j]] for j in pivots)
            degs.append((i, degree))
        return GeneratedSummary(tuple(self.ranks.items()), tuple(degs))

    def off_locus_points(self) -> Iterator[int]:
        vertices = []  # no vertex to check when the form is zero
        if self.stable:
            vertices = [
                (integer_columns(matrix), self.e.bundles[i].rank)
                for i, (matrix, _) in self.matrices.items()
            ]
        for k in count(1):
            if all(fiber_rank(columns, k) == n for columns, n in vertices):
                yield k


def _reference_generation(e: TwistedQuiverBundle) -> _ReferenceGeneration:
    if not reference_residual_is_zero(e):
        raise HypothesisError("moment residual nonzero; not quasimap data")
    matrices = _generation_matrices(e)
    return _ReferenceGeneration(
        e, matrices, {i: generic_rank(matrices[i][0]) for i in e.double.ordinary_vertices}
    )


def _reference_base_locus(e: TwistedQuiverBundle) -> BaseLocusReport:
    gen = _reference_generation(e)
    total = HomogPoly.constant(1)
    polys: list[tuple[str, HomogPoly]] = []
    for i in e.double.ordinary_vertices:
        if gen.ranks[i] == e.bundles[i].rank:
            g = _full_rank_minor_gcd(tuple(zip(*gen.matrices[i][0])))
        else:
            g = HomogPoly.zero()
        polys.append((i, g))
        total = total * g
    return BaseLocusReport(total, gen.stable, tuple(gen.ranks.items()), tuple(polys))


def _reference_sample_points(e: TwistedQuiverBundle, n: int) -> tuple[tuple[int, int], ...]:
    points = _reference_generation(e).off_locus_points()
    return tuple((1, k) for k in islice(points, max(n, 0)))


def _outcome(fn, e):
    try:
        return fn(e)
    except HypothesisError as err:
        return ("HypothesisError", str(err))


def _record(gen):
    return (
        dict(gen.ranks),
        gen.stable,
        gen.summary(),
        tuple(islice(gen.off_locus_points(), 3)),
    )


def _zero_rank_cases() -> list[TwistedQuiverBundle]:
    zero = HomogPoly.zero()
    return [
        # vertex 2 has rank 0: full rank there, and no column reaches it
        chain_bundle((0, 1), (), f=[[form(0, 3)], [form(1, 1, 2)]]),
        # full rank with the base locus s * t^2, which meets [0 : 1]
        chain_bundle((1, 2), (), f=[[form(1, 1, 0), zero], [zero, form(2, 0, 0, 1)]], r=2),
        # vertex 1 has rank 0, so nothing reaches vertex 2: rank 0 of 2
        chain_bundle((), (0, 1)),
        # vertex 2 below full rank (1 of 2) with one generated column
        chain_bundle(
            (0,),
            (0, 1),
            f=[[form(0, 1)]],
            e=[[form(0, 2)], [form(1, 1, 1)]],
        ),
        chain_bundle((0,), (0, 1), f=[[form(0, 1)]], e=[[zero], [form(1, 0, 5)]]),
    ]


def _corpus() -> list[TwistedQuiverBundle]:
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("bundle_*.json"))]
    out = [parse_document(d).bundle for d in docs]
    out += [gen_bundle(bundle_spec(k, s)) for s in (0, 3, 9) for k in range(192)]
    out += [
        gen_bundle(InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s))
        for r in range(3, 9)
        for f in (1, 2)
        for s in range(4)
    ]
    return out + _zero_rank_cases() + [coprime_adhm()]


def _assert_equal(e: TwistedQuiverBundle) -> str:
    want = _outcome(_reference_generation, e)
    got = _outcome(_generation, e)
    if isinstance(want, tuple):
        assert got == want
        assert _outcome(base_locus, e) == want
        return "refused"
    assert _record(got) == _record(want)
    assert base_locus(e) == _reference_base_locus(e)
    assert generated_subsheaf_summary(e) == want.summary()
    assert is_stable_quasimap(e) is want.stable
    assert sample_points(e, 3) == _reference_sample_points(e, 3)
    return _kind(e, want.ranks, want.stable)


def _kind(e: TwistedQuiverBundle, ranks: Mapping[str, int], stable: bool) -> str:
    n = {i: e.bundles[i].rank for i in e.double.ordinary_vertices}
    if any(not n[i] for i in n):
        return "zero rank"
    if any(0 < r < n[i] for i, r in ranks.items()):
        return "below full rank"
    return "stable" if stable else "unstable"


def test_generation_record_matches_the_form_pipeline():
    kinds: dict[str, int] = {}
    for e in _corpus():
        kind = _assert_equal(e)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["stable"] > 300
    assert kinds["below full rank"] > 20
    assert kinds["zero rank"] >= 3
    e = _zero_rank_cases()[1]
    assert str(base_locus(e).polynomial) == "s*t^2" and is_stable_quasimap(e)


def test_generation_record_matches_the_form_pipeline_under_a_rational_gauge():
    specs = [bundle_spec(k, 0) for k in range(96)] + [
        InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s)
        for r in range(3, 7)
        for f in (1, 2)
        for s in range(2)
    ]
    kinds: dict[str, int] = {}
    for e in [gen_bundle(spec) for spec in specs] + _zero_rank_cases():
        kind = _assert_equal(rational_gauge(e))
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["stable"] > 50 and kinds["below full rank"] > 5


def test_base_locus_report_fields_match_the_form_reference():
    # the report is built from integer forms; the reference multiplies the
    # vertex forms of `_full_rank_minor_gcd` as `HomogPoly`s
    specs = [
        InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s)
        for r in range(2, 8)
        for f in (1, 2)
        for s in range(4)
    ] + [bundle_spec(k, 1) for k in range(96)]
    kinds: dict[str, int] = {}
    for e in [gen_bundle(spec) for spec in specs] + _zero_rank_cases():
        want = _outcome(_reference_base_locus, e)
        got = _outcome(base_locus, e)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got.stable is want.stable
        assert got.vertex_ranks == want.vertex_ranks
        assert got.vertex_polynomials == want.vertex_polynomials
        assert got.polynomial == want.polynomial
        for f in [got.polynomial] + [g for _, g in got.vertex_polynomials]:
            assert type(f) is HomogPoly and all(type(c) is Fraction for c in f.coeffs)
        kind = _kind(e, dict(want.vertex_ranks), want.stable)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["stable"] > 60 and kinds["unstable"] > 10
    assert kinds["below full rank"] > 30 and kinds["zero rank"] >= 3


def _raise(*args, **kwargs):
    raise AssertionError("a form was built on the verdict path")


def test_verdicts_build_no_forms(monkeypatch):
    # the forms of a `base_locus` report, one per ordinary vertex and one
    # for their product, are the only forms a verdict builds: `bundles`
    # builds them from the integer gcds, and `polynomials` builds none
    instances = _corpus()[:3] + [
        gen_bundle(InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s))
        for r in (4, 6)
        for s in range(4)
    ] + [gen_bundle(bundle_spec(k, 3)) for k in range(64)] + _zero_rank_cases()
    report_forms = []

    def report_form(p, den=1, build=polynomials.form):
        report_forms.append(p)
        return build(p, den)

    for name in ("form", "generation_columns"):
        monkeypatch.setattr(bundles, name, _raise)
    for name in ("form", "integer_columns", "generic_rank"):
        monkeypatch.setattr(polynomials, name, _raise)
    verdicts = below = reports = 0
    for e in instances:
        for fn in (
            is_stable_quasimap,
            generated_subsheaf_summary,
            asymptotic_equivalence_check,
            lambda e: sample_points(e, 3),
        ):
            verdicts += not isinstance(_outcome(fn, e), tuple)
        below += not is_stable_quasimap(e)
        monkeypatch.setattr(bundles, "form", report_form)
        report = _outcome(base_locus, e)
        monkeypatch.setattr(bundles, "form", _raise)
        if not isinstance(report, tuple):
            assert len(report_forms) == len(e.double.ordinary_vertices) + 1
            reports += 1
        report_forms.clear()
    assert verdicts + reports > 300 and below > 10


def test_the_guard_sees_a_form_pipeline(monkeypatch):
    # the guard catches the reference, and a form built directly in
    # `bundles`, so a verdict path that built forms would fail the test above
    monkeypatch.setattr(polynomials, "integer_columns", _raise)
    e = gen_bundle(InstanceSpec("adhm", (4,), framing=2, degree_bound=4, seed=0))
    with pytest.raises(AssertionError, match="a form was built"):
        _reference_generation(e)
    monkeypatch.setattr(bundles, "form", _raise)
    with pytest.raises(AssertionError, match="a form was built"):
        bundles.generation_columns(e)
    # and a product of forms, as the report's total once was
    monkeypatch.setattr(polynomials, "form", _raise)
    with pytest.raises(AssertionError, match="a form was built"):
        HomogPoly.constant(2) * HomogPoly.constant(3)


ENTRY_POINTS = (
    is_stable_quasimap,
    base_locus,
    generated_subsheaf_summary,
    asymptotic_equivalence_check,
    lambda e: sample_points(e, 3),
)


def _count(monkeypatch, name: str) -> list[TwistedQuiverBundle]:
    """The bundles that `bundles.<name>` is called with, in order."""
    calls: list[TwistedQuiverBundle] = []
    real = getattr(bundles, name)
    monkeypatch.setattr(bundles, name, lambda e, *a: calls.append(e) or real(e, *a))
    return calls


def _unshared(e: TwistedQuiverBundle) -> list:
    """Every verdict on a record built afresh for it: the reference."""
    out = []
    for fn in ENTRY_POINTS:
        bundles._recent = None
        out.append(_outcome(fn, e))
    return out


def _shared(e: TwistedQuiverBundle) -> list:
    _outcome(is_stable_quasimap, e)  # fills the slot, so every verdict below reads it
    return [_outcome(fn, e) for fn in ENTRY_POINTS]


def _below_full_rank() -> TwistedQuiverBundle:
    for k in range(192):
        e = gen_bundle(bundle_spec(k, 0))
        gen = _generation(e)
        if _kind(e, gen.ranks, gen.stable) == "below full rank":
            return e
    raise AssertionError("no bundle below full rank")


def _mixed() -> list[TwistedQuiverBundle]:
    stable = gen_bundle(InstanceSpec("adhm", (4,), framing=2, degree_bound=4, seed=0))
    return [stable, _below_full_rank()] + _zero_rank_cases()


def test_the_verdicts_of_one_bundle_share_one_record(monkeypatch):
    monkeypatch.setattr(bundles, "_recent", None)
    instances = _mixed()
    walks = _count(monkeypatch, "_walk")
    for e in instances:
        walks.clear()
        for fn in ENTRY_POINTS + ENTRY_POINTS:
            fn(e)
        assert len(walks) == 1 and walks[0] is e
        # the record lives in the slot, never on the bundle
        assert not any(isinstance(v, _Generation) for v in vars(e).values())


def test_interleaved_bundles_each_get_their_own_verdicts(monkeypatch):
    monkeypatch.setattr(bundles, "_recent", None)
    e1, e2 = _mixed()[:2]
    want = {id(e): _unshared(e) for e in (e1, e2)}
    assert want[id(e1)] != want[id(e2)]
    walks = _count(monkeypatch, "_walk")
    for e in (e1, e2, e1):
        assert [_outcome(fn, e) for fn in ENTRY_POINTS] == want[id(e)]
    assert [id(e) for e in walks] == [id(e1), id(e2), id(e1)]


def test_data_off_the_relation_is_refused_on_every_call(monkeypatch):
    # the loops do not commute, so the moment residual is nonzero
    zero, one = HomogPoly.zero(), HomogPoly.constant(1)
    off = adhm_bundle(
        [2, 1, 0],
        b1=[[zero, one, zero], [zero, zero, one], [zero, zero, zero]],
        b2=[[zero, one, zero], [zero, zero, zero], [zero, zero, zero]],
    )
    e = _mixed()[0]
    recent = _generation(e)
    checks = _count(monkeypatch, "relation_rows")
    walks = _count(monkeypatch, "_walk")
    for fn in ENTRY_POINTS + ENTRY_POINTS:
        with pytest.raises(HypothesisError, match="moment residual nonzero"):
            fn(off)
    assert len(checks) == 2 * len(ENTRY_POINTS) and walks == []
    assert bundles._recent is recent


def test_shared_records_match_unshared_ones():
    corpus = [gen_bundle(bundle_spec(k, s)) for s in (0, 3) for k in range(96)] + [
        gen_bundle(InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s))
        for r in range(3, 7)
        for f in (1, 2)
        for s in range(2)
    ]
    corpus += _zero_rank_cases()
    # all references first, so each shared pass starts with the slot
    # holding the record of the bundle before
    wants = [_unshared(e) for e in corpus]
    kinds: dict[str, int] = {}
    for e, want in zip(corpus, wants):
        assert _shared(e) == want
        report = want[1]  # base_locus
        kind = _kind(e, dict(report.vertex_ranks), report.stable)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["stable"] > 50 and kinds["below full rank"] > 5 and kinds["zero rank"] >= 3


def test_threads_each_get_their_own_record():
    # `_generation` reads the slot once per call, so a thread never returns
    # the record that another thread stored in between
    instances = _mixed()[:2] + _zero_rank_cases()[:2]
    wants = [_unshared(e)[1] for e in instances]  # base_locus
    wrong: list[TwistedQuiverBundle] = []

    def ask(e: TwistedQuiverBundle, want) -> None:
        for _ in range(100):
            if _generation(e).e is not e or base_locus(e) != want:
                wrong.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=pair) for pair in zip(instances, wants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
