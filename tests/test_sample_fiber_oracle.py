"""The sample fiber of `asymptotic_equivalence_check` on integer rows.

`bundles._Generation.fiber_generated(k)` evaluates the arrows' integer
rows L Phi_a at [1 : k] and runs the framing closure on those integer
matrices.  The reference is the rational route it replaced:
`is_stable_framed(fiber_at(e, (1, k))).stable`.  They must agree at the
first three points off the base locus, under a rational gauge (L > 1)
too, and raise the same exception when the framing rank is 0.

A guard test then makes the rational fiber and the framed verdict on a
`FramedRep` raise while the verdicts run.  The rational central charge is
test code (`_oracles.central_charge`), which `test_layering.py` shows that
no library code reaches.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

from quiverbundles.bundles import _arrow_rows, _generation, fiber_at
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.representations import is_stable_framed
from quiverbundles.serialization import parse_document
from quiverbundles.stability import (
    asymptotic_equivalence_check,
    check_delta_stability,
    hn_quotient_bound_check,
    instance_threshold,
    subobject_family,
)

from _builders import adhm_bundle, rational_gauge

FIXTURES = Path(__file__).parent / "fixtures"


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as err:
        return (type(err).__name__, str(err))


def _bundles() -> list:
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("bundle_*.json"))]
    out = [parse_document(d).bundle for d in docs]
    out += [gen_bundle(bundle_spec(k, s)) for s in (0, 3) for k in range(96)]
    out += [
        gen_bundle(InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s))
        for r in range(3, 9)
        for f in (1, 2)
        for s in range(2)
    ]
    return out


def _assert_fiber_matches(e) -> bool:
    """Equal verdicts at the first three points off the base locus, and
    the asymmetric check's own sample; returns the first verdict."""
    gen = _generation(e)
    verdicts = []
    for k in islice(gen.off_locus_points(), 3):
        want = is_stable_framed(fiber_at(e, (1, k))).stable
        assert gen.fiber_generated(k) is want
        verdicts.append(want)
    report = asymptotic_equivalence_check(e)
    assert report.generically_generated is verdicts[0]
    assert report.sample_point == (1, next(gen.off_locus_points()))
    return verdicts[0]


def test_sample_fiber_matches_the_rational_fiber():
    stable = [_assert_fiber_matches(e) for e in _bundles()]
    assert sum(stable) > 100 and len(stable) - sum(stable) > 30


def test_sample_fiber_matches_under_a_rational_gauge():
    gauged = [rational_gauge(e) for e in _bundles()]
    assert sum(_arrow_rows(e)[1] > 1 for e in gauged) > 200
    stable = [_assert_fiber_matches(e) for e in gauged]
    assert sum(stable) > 100 and len(stable) - sum(stable) > 30


def test_sample_fiber_without_framing_rank_raises_as_the_rational_fiber():
    e = adhm_bundle((0,), r=0)
    gen = _generation(e)
    k = next(gen.off_locus_points())
    want = _outcome(lambda: is_stable_framed(fiber_at(e, (1, k))))
    assert want == ("HypothesisError", "no framing dimension: v is zero at the framing vertex")
    assert _outcome(gen.fiber_generated, k) == want


def _raise(*args, **kwargs):
    raise AssertionError("a rational fiber or charge was built on the verdict path")


def _forbid(monkeypatch, fn) -> None:
    """Make fn raise under every name a `quiverbundles` module binds it to.
    The package binds its public names on the first access to one; that
    access comes first, so the package's binding is patched and restored
    too rather than bound to the patch for good."""
    package = sys.modules["quiverbundles"]
    getattr(package, package.__all__[0])
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("quiverbundles"):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, _raise)


def _guarded_instances() -> list:
    return [
        gen_bundle(InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s))
        for r in (4, 6)
        for s in range(4)
    ] + [gen_bundle(bundle_spec(k, 3)) for k in range(72)]


def _verdicts(e) -> int:
    family = subobject_family(e)
    delta = max(instance_threshold(e), 1)
    asymptotic_equivalence_check(e)
    check_delta_stability(e, delta, family)
    check_delta_stability(e, delta / 7, family)
    hn_quotient_bound_check(e, delta)
    return 1


def test_verdicts_build_no_rational_fiber_or_charge(monkeypatch):
    instances = _guarded_instances()
    assert len(instances) == 80
    for fn in (fiber_at, is_stable_framed):
        _forbid(monkeypatch, fn)
    assert sum(_verdicts(e) for e in instances) == 80


def test_the_guard_sees_the_rational_routes(monkeypatch):
    # the guard catches each forbidden route, so a verdict path that took
    # one would fail the test above
    e = _guarded_instances()[0]
    for fn in (fiber_at, is_stable_framed):
        _forbid(monkeypatch, fn)
    with pytest.raises(AssertionError, match="a rational fiber"):
        sys.modules["quiverbundles.bundles"].fiber_at(e, (1, 1))
    with pytest.raises(AssertionError, match="a rational fiber"):
        sys.modules["quiverbundles"].is_stable_framed(None)
    monkeypatch.undo()
    assert sys.modules["quiverbundles"].is_stable_framed is is_stable_framed
