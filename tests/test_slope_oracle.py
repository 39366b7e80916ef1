"""The integer slope arithmetic against the `Fraction` versions it replaced.

`stability` compares weighted slopes as integer pairs: mu_delta(c) at
delta = p/q is (q d + p v0) / (q v1), compared by cross-multiplication,
and `delta_threshold` floors by integer division.  The references here
are the former `mu_delta` (through `_oracles.central_charge` and
`slope_of`), `check_delta_stability`, `hn_quotient_bound_check` and
`delta_threshold`, kept verbatim.  Results must be equal, and so must every exception, type
and message, on the `verdicts` bench lists, on the 624-bundle corpus and
on seeded classes, deltas and families.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor
from typing import Iterable

from quiverbundles.bundles import hn_filtration_split
from quiverbundles.quivers import HypothesisError
from quiverbundles.generators import InstanceSpec, bundle_spec, gen_bundle
from quiverbundles.stability import (
    DeltaVerdict,
    NumericalClass,
    Slope,
    check_delta_stability,
    delta_threshold,
    hn_quotient_bound_check,
    instance_threshold,
    mu_delta,
    numerical_class,
    subobject_family,
    subsheaf_degree_bound,
)

from _oracles import central_charge, slope_of

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# the Fraction versions, verbatim


def reference_mu_delta(c: NumericalClass, delta) -> Slope:
    return slope_of(central_charge(c, delta))


def reference_delta_threshold(v0: int, v1: int, mu1_of_e, N: int) -> Fraction:
    if v0 < 1 or v1 < 1:
        raise ValueError("need positive framing and ordinary ranks")
    if N < 0:
        raise ValueError("degree bound must be nonnegative")
    gap = Fraction(v0, v1 * (v1 - 1)) if v1 > 1 else Fraction(v0)
    return Fraction(floor((N + abs(Fraction(mu1_of_e))) / gap) + 1)


def _family_entry(f: NumericalClass, total: NumericalClass) -> NumericalClass:
    if not isinstance(f, NumericalClass):
        raise ValueError(f"family entry {f!r} is not a numerical class")
    if f.v0 == 0 and f.v1 == 0:
        raise ValueError(f"family entry {f} is zero or torsion")
    if f == total:
        raise ValueError("family entry equals the total class")
    if f.v0 > total.v0 or f.v1 > total.v1:
        raise ValueError(f"family entry {f} exceeds the total class ranks")
    return f


def reference_check_delta_stability(e, delta, family: Iterable[NumericalClass]) -> DeltaVerdict:
    total = e if isinstance(e, NumericalClass) else numerical_class(e)
    delta = Fraction(delta)
    mu_total = reference_mu_delta(total, delta)
    entries = [(f, reference_mu_delta(_family_entry(f, total), delta)) for f in family]
    witness: NumericalClass | None = None
    witness_mu: Slope | None = None
    ge = gt = False
    for f, mu in entries:
        if mu >= mu_total:
            ge = True
            gt = gt or mu > mu_total
            if witness_mu is None or mu > witness_mu:
                witness, witness_mu = f, mu
    return DeltaVerdict(delta, total, ge, gt, witness, len(entries))


def reference_hn_quotient_bound_check(e, delta) -> bool:
    mu = reference_mu_delta(numerical_class(e), Fraction(delta))
    if mu.is_infinite:
        return True
    strata = hn_filtration_split(e)
    l = len(strata)
    step = max([0] + [d for _, d in e.twist.m])
    base = max(ZERO, mu.value)
    return all(
        s.slope <= base + (l - i) * step for i, s in enumerate(strata, start=1)
    )


def reference_instance_threshold(e) -> Fraction:
    c = numerical_class(e)
    if c.v0 < 1 or c.v1 < 1:
        raise HypothesisError("threshold needs framing and ordinary rank")
    return reference_delta_threshold(c.v0, c.v1, Fraction(c.d, c.v1), subsheaf_degree_bound(e))


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as err:
        return (type(err).__name__, str(err))


def _same(got, want) -> None:
    assert got == want
    if got[0] == "value" and isinstance(got[1], (Fraction, Slope)):
        assert repr(got[1]) == repr(want[1])


def _verdicts_list(seed: int) -> list:
    """The input list of the `verdicts` bench workload at one seed."""
    specs = [
        InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
        for r in (5, 6, 7)
        for s in range(4)
    ]
    specs += [bundle_spec(k, 0) for k in range(192)]
    specs += [bundle_spec(k, seed) for k in range(16)]
    return [gen_bundle(spec) for spec in specs]


def _corpus() -> list:
    out = [gen_bundle(bundle_spec(k, s)) for s in (0, 3, 9) for k in range(192)]
    out += [
        gen_bundle(InstanceSpec("adhm", (r,), framing=f, degree_bound=r, seed=s))
        for r in range(3, 9)
        for f in (1, 2)
        for s in range(4)
    ]
    return out


def _assert_bundle_matches(e) -> bool:
    """Equal threshold, slopes and verdicts at the threshold and at four
    other deltas; True when the threshold exists."""
    threshold = _outcome(instance_threshold, e)
    _same(threshold, _outcome(reference_instance_threshold, e))
    family = _outcome(subobject_family, e)
    deltas = [Fraction(1, 3), Fraction(1), Fraction(7, 1000003), Fraction(-2)]
    if threshold[0] == "value":
        deltas += [threshold[1], threshold[1] - 1, max(threshold[1], Fraction(1))]
    c = numerical_class(e)
    for delta in deltas:
        _same(_outcome(mu_delta, c, delta), _outcome(reference_mu_delta, c, delta))
        _same(
            _outcome(hn_quotient_bound_check, e, delta),
            _outcome(reference_hn_quotient_bound_check, e, delta),
        )
        if family[0] == "value":
            _same(
                _outcome(check_delta_stability, e, delta, family[1]),
                _outcome(reference_check_delta_stability, e, delta, family[1]),
            )
    return threshold[0] == "value"


def test_bundle_verdicts_match_on_the_verdicts_lists():
    seen = 0
    for seed in (1, 2, 3):
        for e in _verdicts_list(seed):
            seen += _assert_bundle_matches(e)
    assert seen == 3 * 220


def test_bundle_verdicts_match_on_the_corpus():
    items = _corpus()
    assert len(items) == 624
    assert sum(_assert_bundle_matches(e) for e in items) == 624


def _random_delta(rng: random.Random) -> Fraction | int:
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(1, 60)
    if kind == 1:
        return Fraction(rng.randint(1, 10**12), rng.randint(1, 10**9))
    if kind == 2:
        return Fraction(rng.randint(1, 9), rng.randint(10**6, 10**9))
    if kind == 3:
        return Fraction(rng.randint(-5, 0), rng.randint(1, 4))
    return Fraction(rng.randint(1, 40), rng.randint(1, 12))


def _random_class(rng: random.Random) -> NumericalClass:
    return NumericalClass(rng.randint(0, 3), rng.choice((0, 1, 2, 3, 5)), rng.randint(-15, 15))


def _ties(total: NumericalClass, delta) -> list[NumericalClass]:
    """Subobject-shaped classes whose slope equals the total's, solved for
    their degree with the reference arithmetic."""
    want = _outcome(reference_mu_delta, total, delta)
    if want[0] != "value":
        return []
    delta = Fraction(delta)
    out = []
    for v0 in sorted({0, total.v0}):
        for v1 in range(total.v1 + 1):
            if (v0, v1) == (0, 0) or (v1 == 0) != want[1].is_infinite:
                continue
            if v1 == 0:  # +inf: any degree with d + delta v0 > 0
                d = floor(-delta * v0) + 1
                degrees = [d, d + 3]
            else:
                d = want[1].value * v1 - delta * v0
                degrees = [int(d)] if d.denominator == 1 else []
            out += [f for f in (NumericalClass(v0, v1, d) for d in degrees) if f != total]
    return out


def _random_family(rng: random.Random, total: NumericalClass, delta) -> list:
    """Up to five entries, half of them ties where one exists, and in one
    family of six an entry that `check_delta_stability` refuses."""
    family: list = []
    for _ in range(rng.randint(0, 5)):
        ties = _ties(total, delta) if rng.random() < 0.5 else []
        if ties:
            family.append(rng.choice(ties))
            continue
        f = NumericalClass(
            rng.choice(sorted({0, total.v0})), rng.randint(0, total.v1), rng.randint(-20, 20)
        )
        if (f.v0, f.v1) != (0, 0) and f != total:
            family.append(f)
    if rng.randrange(6) == 0:
        refused = (
            NumericalClass(0, 0, rng.randint(-3, 3)),  # zero or torsion
            total,
            NumericalClass(total.v0 + 1, total.v1, 0),  # ranks too large
            (total.v0, total.v1, total.d),  # not a class
        )
        family.insert(rng.randint(0, len(family)), rng.choice(refused))
    return family


def test_seeded_classes_deltas_and_families_match():
    rng = random.Random(20261019)
    counts = {"ties": 0, "v1 = 0": 0, "refutes stability only": 0, "errors": 0, "witness": 0}
    for _ in range(2400):
        total = _random_class(rng)
        delta = _random_delta(rng)
        family = _random_family(rng, total, delta)
        got = _outcome(check_delta_stability, total, delta, family)
        want = _outcome(reference_check_delta_stability, total, delta, family)
        _same(got, want)
        _same(_outcome(mu_delta, total, delta), _outcome(reference_mu_delta, total, delta))
        for f in family:
            if isinstance(f, NumericalClass):
                _same(_outcome(mu_delta, f, delta), _outcome(reference_mu_delta, f, delta))
        ties = _outcome(reference_mu_delta, total, delta)
        counts["ties"] += any(
            isinstance(f, NumericalClass) and f != total and ties[0] == "value"
            and _outcome(reference_mu_delta, f, delta) == ties
            for f in family
        )
        counts["v1 = 0"] += total.v1 == 0
        counts["errors"] += want[0] != "value"
        if want[0] == "value":
            verdict = want[1]
            counts["refutes stability only"] += (
                verdict.refutes_stability and not verdict.refutes_semistability
            )
            counts["witness"] += verdict.witness is not None
    # ties separate refutes_stability from refutes_semistability
    assert counts["ties"] > 400 and counts["refutes stability only"] > 200
    assert counts["v1 = 0"] > 400
    assert counts["errors"] > 600 and counts["witness"] > 600


def test_seeded_thresholds_match():
    rng = random.Random(7)
    for _ in range(2000):
        v0, v1, n = rng.randint(-1, 4), rng.randint(-1, 7), rng.randint(-2, 120)
        mu1 = rng.choice(
            (
                rng.randint(-30, 30),
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            )
        )
        _same(
            _outcome(delta_threshold, v0, v1, mu1, n),
            _outcome(reference_delta_threshold, v0, v1, mu1, n),
        )
    for args in ((1, 2, "-5/2", 3), (2, 3, 0.1, 4), (1, 1, "x", 0)):
        _same(_outcome(delta_threshold, *args), _outcome(reference_delta_threshold, *args))
