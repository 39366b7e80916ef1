"""Central charges, slope functions, and the large-delta stability range.

For slope purposes a framed instance reduces to its numerical class
(v0, v1, d): framing rank, total ordinary rank, total ordinary degree.
The weighted charge Z(c) = (v1, d + delta*v0) orders subobject classes
by im/re; quasimap stability is the large-delta limit of that order,
and the crossover threshold is computable from any bound on subsheaf
degrees.  Family checks here are one-sided by design: a refutation is
exact, while consistency only covers the family supplied.

The numerical side needs no bundle, so each bundle verdict imports the
`bundles` names it calls when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .quivers import HypothesisError

if TYPE_CHECKING:
    from .bundles import GeneratedSummary, TwistedQuiverBundle

Rational = Fraction | int


@dataclass(frozen=True)
class NumericalClass:
    """Class (v0, v1, d): framing rank, ordinary rank, ordinary degree."""

    v0: int
    v1: int
    d: int

    def __post_init__(self) -> None:
        if self.v0 < 0 or self.v1 < 0:
            raise ValueError("ranks must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.v0 == 0 and self.v1 == 0 and self.d == 0

    def __add__(self, other: NumericalClass) -> NumericalClass:
        return NumericalClass(self.v0 + other.v0, self.v1 + other.v1, self.d + other.d)

    def __str__(self) -> str:
        return f"({self.v0}, {self.v1}, {self.d})"


@dataclass(frozen=True)
class Slope:
    """Element of (-inf, +inf]; +inf is encoded by value None."""

    value: Fraction | None = None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _cmp(self, other: Slope) -> int:
        if self.value is None or other.value is None:
            return (other.value is not None) - (self.value is not None)
        return (self.value > other.value) - (self.value < other.value)

    def __lt__(self, other: Slope) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Slope) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Slope) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Slope) -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITE_SLOPE = Slope(None)


def mu_delta(c: NumericalClass, delta: Rational) -> Slope:
    """The slope of the charge (v1, d + delta*v0) of c, taken on integers
    by `_mu`."""
    delta = Fraction(delta)
    mu = _mu(c, delta.numerator, delta.denominator)
    return INFINITE_SLOPE if mu is None else Slope(Fraction(*mu))


def _mu(c: NumericalClass, p: int, q: int) -> tuple[int, int] | None:
    """mu_delta(c) at delta = p/q, q > 0, as integers: (numerator,
    denominator > 0) of (q d + p v0) / (q v1), or None for +inf, when
    v1 = 0 < q d + p v0.  The charge is (v1, (q d + p v0) / q), so this
    is its slope; delta <= 0, and a charge with no slope in (-inf, +inf],
    raise ValueError."""
    if p <= 0:
        raise ValueError("delta must be positive")
    im = q * c.d + p * c.v0
    if c.v1 > 0:
        return im, q * c.v1
    if im > 0:
        return None
    raise ValueError(f"no slope in (-inf, +inf] for charge (0, {Fraction(im, q)})")


def _compare(a: tuple[int, int] | None, b: tuple[int, int] | None) -> int:
    """Sign of a - b for slopes from `_mu`, None being +inf."""
    if a is None or b is None:
        return (b is not None) - (a is not None)
    x, y = a[0] * b[1], b[0] * a[1]
    return (x > y) - (x < y)


@dataclass(frozen=True)
class SlopeTable:
    """All slope readings of one class.  Entries degenerate to None when
    both charge parts vanish (no ray to take a slope of)."""

    mu_delta: Slope
    mu_st: Slope | None
    mu1: Slope | None
    mu2_proof: Slope | None
    mu2_Z: Slope | None


def _ratio(re: Fraction, im: Fraction) -> Slope | None:
    if re > 0:
        return Slope(im / re)
    if re == 0 and im > 0:
        return INFINITE_SLOPE
    return None


def slopes(c: NumericalClass, delta: Rational) -> SlopeTable:
    """Weighted slope, standard slope of the underlying sheaf, and the
    two charge-part slopes.

    The part slopes come in two normalizations differing by a global
    factor 2 that never reorders anything; d/v1 and delta*v0/v1 are
    primary, the doubled variants are reported alongside.
    """
    if c.is_zero:
        raise ValueError("zero class has no slopes")
    delta = Fraction(delta)
    d = Fraction(c.d)
    return SlopeTable(
        mu_delta=mu_delta(c, delta),
        mu_st=_ratio(Fraction(c.v0 + c.v1), d),
        mu1=_ratio(Fraction(c.v1), d),
        mu2_proof=_ratio(Fraction(c.v1), delta * c.v0),
        mu2_Z=_ratio(Fraction(c.v1, 2), delta * c.v0),
    )


def n_bound(deg_l: int, g: int, rank_e: int) -> int:
    """Degree bound (|deg L| + |1 - g|) * rank on twisted global sections."""
    if rank_e < 1:
        raise ValueError("rank must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return (abs(deg_l) + abs(1 - g)) * rank_e


def _proper_rank_pairs(v0: int, v1: int) -> list[tuple[int, int]]:
    # a subobject class either carries the whole framing or none of it
    out = []
    for v0p in sorted({0, v0}):
        for v1p in range(v1 + 1):
            if (v0p, v1p) in ((0, 0), (v0, v1)):
                continue
            out.append((v0p, v1p))
    return out


def delta_threshold(v0: int, v1: int, mu1_of_e: Rational, N: int) -> Fraction:
    """Smallest integer delta making the rank-part slope gaps dominate
    N + |mu1|, so slope comparisons against subobject classes of degree
    at most N are decided by rank parts alone: floor((N + |mu1|) / gap) + 1,
    gap = v0 / (v1 (v1 - 1)) for v1 >= 2 and gap = v0 for v1 = 1.

    Over both charge normalizations, scale 1 and 2, the value is the
    largest floor((N + scale |mu1|) / min gap) + 1, min over the proper
    rank pairs (v0', v1') with v1' > 0 (a pair with no ordinary part has
    infinite gap and imposes nothing) of the gap
    scale |v0 / v1 - v0' / v1'|.  A pair with v0' = 0 has gap
    scale v0 / v1; one with v0' = v0 and v1' < v1 has gap
    scale v0 (v1 - v1') / (v1 v1'), least at v1' = v1 - 1, where it is
    scale v0 / (v1 (v1 - 1)) <= scale v0 / v1; there is none when
    v1 = 1.  So the min gap is
    scale * gap, and the bound (N + scale |mu1|) / (scale gap) =
    N / (scale gap) + |mu1| / gap is largest at scale 1, as N >= 0.
    """
    if v0 < 1 or v1 < 1:
        raise ValueError("need positive framing and ordinary ranks")
    if N < 0:
        raise ValueError("degree bound must be nonnegative")
    # with |mu1| = a/b and gap = v0/g: (N + a/b) / gap = (N b + a) g / (b v0)
    mu1 = Fraction(mu1_of_e)
    a, b = abs(mu1.numerator), mu1.denominator
    g = v1 * (v1 - 1) if v1 > 1 else 1
    return Fraction((N * b + a) * g // (b * v0) + 1)


def threshold_inequality_holds(
    v0: int, v1: int, mu1_of_e: Rational, N: int, delta0: Rational
) -> bool:
    """Re-substitution check: delta0 * gap > N + |mu1| strictly, for every
    admissible rank pair under both normalizations."""
    mu1 = Fraction(mu1_of_e)
    delta0 = Fraction(delta0)
    for v0p, v1p in _proper_rank_pairs(v0, v1):
        if v1p == 0:
            continue
        for scale in (1, 2):
            gap = abs(Fraction(scale * v0, v1) - Fraction(scale * v0p, v1p))
            if delta0 * gap <= N + abs(scale * mu1):
                return False
    return True


# ---------------------------------------------------------------------------
# instance-level classes, bounds, and verdicts


def numerical_class(e: TwistedQuiverBundle) -> NumericalClass:
    """Class (framing rank, total ordinary rank, total ordinary degree)."""
    framing = e.double.framing
    if framing is None:
        raise HypothesisError("numerical class needs a framing vertex")
    v1 = sum(e.bundles[i].rank for i in e.double.ordinary_vertices)
    d = sum(e.bundles[i].degree for i in e.double.ordinary_vertices)
    return NumericalClass(e.bundles[framing].rank, v1, d)


def subsheaf_degree_bound(e: TwistedQuiverBundle) -> int:
    """Bound on |deg| over saturated subsheaves of the underlying sheaf:
    twist all summand degrees above -1, bound the section count of the
    twisted sheaf, and pad by one so every degree reachable by a split
    filtration step is covered."""
    degrees = [d for v in e.double.vertices for d in e.bundles[v].multidegree]
    if not degrees:
        raise HypothesisError("degree bound needs a nonzero instance")
    rk = len(degrees)
    m0 = max(0, -1 - min(degrees))
    n0 = abs(rk + m0 * rk + sum(degrees))
    return (n0 + 1) * rk


def instance_threshold(e: TwistedQuiverBundle) -> Fraction:
    """Per-instance crossover delta from the instance's own degree bound."""
    c = numerical_class(e)
    if c.v0 < 1 or c.v1 < 1:
        raise HypothesisError("threshold needs framing and ordinary rank")
    return delta_threshold(c.v0, c.v1, Fraction(c.d, c.v1), subsheaf_degree_bound(e))


@dataclass(frozen=True)
class DeltaVerdict:
    """Slope comparison outcome against an explicit subobject family.

    One-sided: refutations are exact, while `consistent` certifies
    nothing beyond the supplied family.
    """

    delta: Fraction
    total: NumericalClass
    refutes_stability: bool
    refutes_semistability: bool
    witness: NumericalClass | None
    family_size: int

    @property
    def consistent(self) -> bool:
        return not self.refutes_stability


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


def check_delta_stability(
    e: TwistedQuiverBundle | NumericalClass,
    delta: Rational,
    family: Iterable[NumericalClass],
) -> DeltaVerdict:
    """Compare mu_delta of every family member against the total class.

    A member of slope >= (resp. >) the total refutes stability
    (resp. semistability); the witness is a slope-maximal offender.
    """
    total = e if isinstance(e, NumericalClass) else numerical_class(e)
    delta = Fraction(delta)
    p, q = delta.numerator, delta.denominator
    mu_total = _mu(total, p, q)
    entries = [(f, _mu(_family_entry(f, total), p, q)) for f in family]
    witness: NumericalClass | None = None
    witness_mu: tuple[int, int] | None = None
    ge = gt = False
    for f, mu in entries:
        order = _compare(mu, mu_total)
        if order >= 0:
            ge = True
            gt = gt or order > 0
            if witness is None or _compare(mu, witness_mu) > 0:
                witness, witness_mu = f, mu
    return DeltaVerdict(delta, total, ge, gt, witness, len(entries))


def subobject_family(e: TwistedQuiverBundle) -> tuple[NumericalClass, ...]:
    """Classes of the canonical proper nonzero subobjects: the
    framing-generated subsheaf and every arrow-invariant step of the
    split Harder-Narasimhan filtration.

    Non-invariant steps are not subobjects and are dropped after an
    exact invariance check; including them would refute instances that
    are genuinely stable.
    """
    from .bundles import generated_subsheaf_summary

    return _subobject_family(e, generated_subsheaf_summary(e))


def _subobject_family(
    e: TwistedQuiverBundle, summary: GeneratedSummary
) -> tuple[NumericalClass, ...]:
    """`subobject_family` from the generated subsheaf's summary."""
    from .bundles import hn_filtration_split, hn_step_indices, subbundle_is_arrow_invariant

    total = numerical_class(e)
    framing = e.double.framing
    fam: list[NumericalClass] = []

    gen = NumericalClass(
        total.v0,
        sum(r for _, r in summary.ranks),
        sum(d for _, d in summary.degrees),
    )
    if not gen.is_zero and gen != total:
        fam.append(gen)

    strata = hn_filtration_split(e)
    for upto in range(1, len(strata)):
        idx = hn_step_indices(strata, upto, e.double.vertices)
        if not subbundle_is_arrow_invariant(e, idx):
            continue
        v0p = len(idx[framing]) if framing is not None else 0
        v1p = sum(len(idx[i]) for i in e.double.ordinary_vertices)
        dp = sum(
            e.bundles[i].multidegree[k]
            for i in e.double.ordinary_vertices
            for k in idx[i]
        )
        cls = NumericalClass(v0p, v1p, dp)
        if not cls.is_zero and cls != total and cls not in fam:
            fam.append(cls)
    return tuple(fam)


@dataclass(frozen=True)
class AsymReport:
    """Agreement record between the two stability routes and the
    family-limited slope check at one delta."""

    stable_quasimap: bool
    generically_generated: bool
    sample_point: tuple[Fraction, Fraction]
    delta: Fraction
    delta0: Fraction
    verdict: DeltaVerdict
    informative_only: bool

    @property
    def agree(self) -> bool:
        if self.stable_quasimap != self.generically_generated:
            return False
        if self.informative_only:
            return True
        return self.verdict.refutes_stability == (not self.stable_quasimap)


def asymptotic_equivalence_check(
    e: TwistedQuiverBundle, delta: Rational | None = None
) -> AsymReport:
    """Evaluate stability through two independent routes, symbolic
    generic rank and fiber closure at a sampled off-locus point, plus
    the family slope check at delta (default: the instance threshold).

    At or above the threshold all verdicts must agree; below it the
    slope check is reported as informative only.

    The sample point is the first [1 : k], k >= 1, at which every vertex
    fiber of the generation matrices M_i has full rank n_i, or [1 : 1]
    when some generic rank is short: the first point off the base locus,
    found without computing its form.  One generation record
    (`bundles._generation`) serves the rank verdict, the sample point, the
    closure on the sample fiber (taken on the arrows' integer rows) and
    the generated subsheaf of the subobject family; it is the record that
    `is_stable_quasimap` or `base_locus`, asked of the same bundle just
    before, left in the slot of `_generation`, so it is not built again.
    """
    from .bundles import _generation

    delta0 = instance_threshold(e)
    delta = delta0 if delta is None else Fraction(delta)
    gen = _generation(e)
    k = next(gen.off_locus_points())
    cond_fiber = gen.fiber_generated(k)
    family = _subobject_family(e, gen.summary())
    verdict = check_delta_stability(e, delta, family)
    return AsymReport(
        stable_quasimap=gen.stable,
        generically_generated=cond_fiber,
        sample_point=(Fraction(1), Fraction(k)),
        delta=delta,
        delta0=delta0,
        verdict=verdict,
        informative_only=delta < delta0,
    )


def hn_quotient_bound_check(e: TwistedQuiverBundle, delta: Rational) -> bool:
    """Each split Harder-Narasimhan quotient slope is at most
    max(0, mu_delta(total)) plus one maximal twist step per remaining
    stratum.

    Delta-dependent: small delta can fail the bound even on stable
    instances, so callers pick delta at or above the instance threshold.
    """
    from .bundles import hn_filtration_split

    c = numerical_class(e)
    delta = Fraction(delta)
    mu = _mu(c, delta.numerator, delta.denominator)
    if mu is None:
        return True
    n, q = mu
    strata = hn_filtration_split(e)
    l = len(strata)
    step = max([0] + [d for _, d in e.twist.m])
    # slope <= max(0, n/q) + (l - i) step: m = slope - (l - i) step is at
    # most 0 or m q <= n; every stratum slope is an integer degree
    for i, s in enumerate(strata, start=1):
        m = s.slope.numerator - (l - i) * step
        if m > 0 and m * q > n:
            return False
    return True
