"""Seeded instance generators and brute-force comparison corpora.

Generators sample every arrow block except one designated solvable block
(the framing-return arrow by default) and solve the linear system the
moment relation imposes on that block; when that system is not generically
solvable they fall back to data satisfying the relation by construction:
commuting loop pairs, zero return arrows, and for adhm at a nonzero level
a Calogero-Moser point.  All sampling is exact over the rationals and
bit-for-bit deterministic in the seed.

The comparison corpus enumerates column-selecting 0/1 instances, the class
on which the independent subset-enumeration stability oracle is total, in
two exhaustive families: every shape with at most two unit entries, and
every column-selecting datum on a few small shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Iterator, Sequence

from . import linalg
from .bundles import (
    SplitBundle,
    TwistData,
    TwistedQuiverBundle,
    _generation,
    fiber_at,
    is_stable_quasimap,
    residual_is_zero,
    validate,
)
from .errors import HypothesisError, InvariantError
from .linalg import Matrix
from .polynomials import (
    HomogPoly,
    PolyMatrix,
    integer_rows,
    poly_mat_is_zero,
    poly_matmul,
    poly_zeros,
)
from .quivers import Arrow, DimensionVector, DoubleQuiver, Quiver, double
from .representations import (
    FramedRep,
    LieElement,
    TangentVector,
    brute_force_framed_check,
    hamiltonian_residual,
    is_stable_framed,
    moment,
)

ZERO = Fraction(0)

ADHM_DOUBLE = double(
    Quiver(("0", "1"), (Arrow("loop", "1", "1"), Arrow("frame", "0", "1")), framing="0")
)
ADHM_TWIST = TwistData.of({"loop+": -1, "loop-": -1, "frame+": 0, "frame-": -2})

CHAIN_DOUBLE = double(
    Quiver(("0", "1", "2"), (Arrow("f", "0", "1"), Arrow("e", "1", "2")), framing="0")
)
CHAIN_TWIST = TwistData.of({"f+": 0, "f-": -2, "e+": 0, "e-": -2})

PRESETS = ("adhm", "chain")

MAX_ATTEMPTS = 64


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe: preset shape, size bounds, and a seed.

    dims lists the ordinary-vertex dimensions in vertex order ("1" for the
    adhm preset; "1", "2" for the chain).  level is the moment level at
    every ordinary vertex; bundle generation always works at level zero.
    """

    preset: str
    dims: tuple[int, ...]
    framing: int = 1
    degree_bound: int = 2
    height: int = 3
    seed: int = 0
    level: Fraction = ZERO

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        want = 1 if self.preset == "adhm" else 2
        if len(self.dims) != want:
            raise ValueError(
                f"preset {self.preset!r} takes {want} ordinary dimensions, got {len(self.dims)}"
            )
        if any(n < 0 for n in self.dims):
            raise ValueError("negative ordinary dimension")
        if self.framing < 1:
            raise ValueError("framing dimension must be positive")
        if self.degree_bound < 0:
            raise ValueError("negative degree bound")
        if self.height < 1:
            raise ValueError("coefficient height must be positive")
        object.__setattr__(self, "level", Fraction(self.level))

    @property
    def double(self) -> DoubleQuiver:
        return ADHM_DOUBLE if self.preset == "adhm" else CHAIN_DOUBLE

    @property
    def twist(self) -> TwistData:
        return ADHM_TWIST if self.preset == "adhm" else CHAIN_TWIST

    def dimension_vector(self) -> DimensionVector:
        named = {"0": self.framing}
        for v, n in zip(self.double.ordinary_vertices, self.dims):
            named[v] = n
        return DimensionVector.of(self.double, named)


def _require_positive_ordinary(spec: InstanceSpec) -> None:
    if any(n == 0 for n in spec.dims):
        raise HypothesisError("zero-dimensional ordinary vertex")


# ---------------------------------------------------------------------------
# seeded rational sampling


def _rand_matrix(rng: random.Random, m: int, n: int, height: int) -> Matrix:
    return tuple(
        tuple(Fraction(rng.randint(-height, height)) for _ in range(n)) for _ in range(m)
    )


def _rand_form(rng: random.Random, degree: int, height: int) -> HomogPoly:
    if degree < 0:
        return HomogPoly.zero()
    return HomogPoly.of(degree, [rng.randint(-height, height) for _ in range(degree + 1)])


def _rand_form_matrix(
    rng: random.Random, degrees: Sequence[Sequence[int]], height: int
) -> PolyMatrix:
    return tuple(tuple(_rand_form(rng, d, height) for d in row) for row in degrees)


# ---------------------------------------------------------------------------
# unconstrained samples: the hamiltonian identity holds for arbitrary data


def random_rep(spec: InstanceSpec) -> FramedRep:
    """Representation with every arrow block sampled independently."""
    rng = random.Random(spec.seed)
    dims = spec.dimension_vector()
    x = {
        a.name: _rand_matrix(rng, dims[a.head], dims[a.tail], spec.height)
        for a in spec.double.arrows
    }
    return FramedRep(spec.double, dims, x)


def random_tangent(x: FramedRep, seed: int, height: int = 3) -> TangentVector:
    rng = random.Random(seed)
    return TangentVector(
        {
            a.name: _rand_matrix(rng, x.dims[a.head], x.dims[a.tail], height)
            for a in x.double.arrows
        }
    )


def random_lie(x: FramedRep, seed: int, height: int = 3) -> LieElement:
    rng = random.Random(seed)
    return LieElement(
        {i: _rand_matrix(rng, x.dims[i], x.dims[i], height) for i in x.double.ordinary_vertices}
    )


# ---------------------------------------------------------------------------
# zero-residual representations


def _commuting_pair(rng: random.Random, n: int, height: int) -> tuple[Matrix, Matrix]:
    """b2 is a seeded quadratic polynomial in b1, so the pair commutes."""
    b1 = _rand_matrix(rng, n, n, height)
    c0, c1, c2 = (Fraction(rng.randint(-height, height)) for _ in range(3))
    b2 = linalg.add(
        linalg.scale(c2, linalg.matmul(b1, b1)),
        linalg.add(linalg.scale(c1, b1), linalg.scale(c0, linalg.identity(n))),
    )
    return b1, b2


def _try_rep_adhm(spec: InstanceSpec, rng: random.Random, solve_mode: bool) -> FramedRep | None:
    (n,), r = spec.dims, spec.framing
    if solve_mode:
        b1 = _rand_matrix(rng, n, n, spec.height)
        b2 = _rand_matrix(rng, n, n, spec.height)
        iota = _rand_matrix(rng, n, r, spec.height)
        rhs = linalg.sub(
            linalg.scale(spec.level, linalg.identity(n)), linalg.commutator(b1, b2)
        )
        j = linalg.solve(iota, rhs)
        if j is None:
            return None
    else:
        if spec.level != 0:
            return None
        b1, b2 = _commuting_pair(rng, n, spec.height)
        iota = _rand_matrix(rng, n, r, spec.height)
        j = linalg.zeros(r, n)
    x = {"loop+": b1, "loop-": b2, "frame+": iota, "frame-": j}
    return FramedRep(spec.double, spec.dimension_vector(), x)


def _calogero_moser(spec: InstanceSpec, rng: random.Random) -> FramedRep:
    """An adhm point at level lam != 0 for any framing: B1 = diag(x) with
    distinct x, B2 with off-diagonal entries lam / (x_l - x_k), so that
    [B1, B2] = lam (I - J) for J the all-ones matrix, and iota j = lam J
    through framing coordinate 0."""
    (n,), r, lam = spec.dims, spec.framing, spec.level
    xs = rng.sample(range(-n * spec.height, n * spec.height + 1), n)
    b1 = tuple(tuple(Fraction(x) if k == l else ZERO for l in range(n)) for k, x in enumerate(xs))
    b2 = tuple(
        tuple(
            Fraction(rng.randint(-spec.height, spec.height)) if k == l else lam / (xs[l] - xs[k])
            for l in range(n)
        )
        for k in range(n)
    )
    iota = tuple((lam,) + (ZERO,) * (r - 1) for _ in range(n))
    j = ((Fraction(1),) * n,) + linalg.zeros(r - 1, n)
    x = {"loop+": b1, "loop-": b2, "frame+": iota, "frame-": j}
    return FramedRep(spec.double, spec.dimension_vector(), x)


def _try_rep_chain(spec: InstanceSpec, rng: random.Random, solve_mode: bool) -> FramedRep | None:
    (n1, n2), r = spec.dims, spec.framing
    f_plus = _rand_matrix(rng, n1, r, spec.height)
    e_plus = _rand_matrix(rng, n2, n1, spec.height)
    if solve_mode:
        e_minus = linalg.solve(e_plus, linalg.scale(spec.level, linalg.identity(n2)))
        if e_minus is None:
            return None
        rhs = linalg.add(
            linalg.scale(spec.level, linalg.identity(n1)), linalg.matmul(e_minus, e_plus)
        )
        f_minus = linalg.solve(f_plus, rhs)
        if f_minus is None:
            return None
    else:
        if spec.level != 0:
            return None
        e_minus = linalg.zeros(n1, n2)
        f_minus = linalg.zeros(r, n1)
    x = {"f+": f_plus, "f-": f_minus, "e+": e_plus, "e-": e_minus}
    return FramedRep(spec.double, spec.dimension_vector(), x)


def gen_rep(spec: InstanceSpec) -> FramedRep:
    """Representation with exactly zero moment residual at the requested level.

    Even attempts sample all blocks but the framing-return arrow and solve
    the relation for it column by column; odd attempts (level zero only)
    use commuting loops and zero return arrows, which satisfy the relation
    by construction.  At a nonzero level the solves generically fail
    unless the framing covers the dimensions (n <= framing for adhm,
    n2 <= n1 <= framing for the chain).  Once every attempt fails, an adhm
    spec at a nonzero level falls back to a Calogero-Moser point
    (`_calogero_moser`); the chain has no fallback, and any other spec
    raises RuntimeError.
    """
    _require_positive_ordinary(spec)
    rng = random.Random(spec.seed)
    level = {i: spec.level for i in spec.double.ordinary_vertices}
    for attempt in range(MAX_ATTEMPTS):
        if spec.preset == "adhm":
            x = _try_rep_adhm(spec, rng, solve_mode=attempt % 2 == 0)
        else:
            x = _try_rep_chain(spec, rng, solve_mode=attempt % 2 == 0)
        if x is not None and all(
            linalg.is_zero_matrix(m) for m in moment(x, level).values()
        ):
            return x
    if spec.preset == "adhm" and spec.level != 0:
        return _calogero_moser(spec, rng)
    raise RuntimeError(f"no zero-residual representation for {spec} after {MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# zero-residual twisted bundles


def _sorted_degrees(rng: random.Random, count: int, bound: int) -> tuple[int, ...]:
    return tuple(sorted((rng.randint(0, bound) for _ in range(count)), reverse=True))


def _loop_degree_grid(degrees: Sequence[int], twist: int) -> list[list[int]]:
    return [[dk + twist - dl for dl in degrees] for dk in degrees]


def _masked_form_matrix(
    rng: random.Random,
    degrees: Sequence[Sequence[int]],
    height: int,
    keep: set[tuple[int, int]],
) -> PolyMatrix:
    return tuple(
        tuple(
            _rand_form(rng, d, height) if (k, l) in keep else HomogPoly.zero()
            for l, d in enumerate(row)
        )
        for k, row in enumerate(degrees)
    )


def _bundle_adhm(spec: InstanceSpec, rng: random.Random, mode: int) -> TwistedQuiverBundle:
    (n,), r = spec.dims, spec.framing
    degrees = _sorted_degrees(rng, n, spec.degree_bound)
    grid = _loop_degree_grid(degrees, -1)
    if mode == 0:
        # one loop a seeded scalar multiple of the other
        b1 = _rand_form_matrix(rng, grid, spec.height)
        c = Fraction(rng.randint(-spec.height, spec.height))
        b2 = tuple(tuple(p.scaled(c) for p in row) for row in b1)
    elif mode == 1 and n >= 2:
        # both loops feed a fixed summand subset into its complement
        size = rng.randint(1, n - 1)
        chosen = set(rng.sample(range(n), size))
        keep = {(k, l) for k in range(n) for l in range(n) if l in chosen and k not in chosen}
        b1 = _masked_form_matrix(rng, grid, spec.height, keep)
        b2 = _masked_form_matrix(rng, grid, spec.height, keep)
    else:
        b1 = _rand_form_matrix(rng, grid, spec.height)
        b2 = poly_zeros(n, n)
    iota = _rand_form_matrix(rng, [[d] * r for d in degrees], spec.height)
    bundles = {"0": SplitBundle((0,) * r), "1": SplitBundle(degrees)}
    phi = {"loop+": b1, "loop-": b2, "frame+": iota, "frame-": poly_zeros(r, n)}
    return TwistedQuiverBundle(spec.double, bundles, spec.twist, phi)


def _form_matrix_from_vector(
    degrees: Sequence[Sequence[int]], slots: Sequence[tuple[int, int, int]], values: Sequence[Fraction]
) -> PolyMatrix:
    coeffs = {}
    for (k, l, c), val in zip(slots, values):
        coeffs.setdefault((k, l), {})[c] = val
    out = []
    for k, row in enumerate(degrees):
        entries = []
        for l, d in enumerate(row):
            if d < 0:
                entries.append(HomogPoly.zero())
            else:
                got = coeffs.get((k, l), {})
                entries.append(HomogPoly.of(d, [got.get(c, ZERO) for c in range(d + 1)]))
        out.append(tuple(entries))
    return tuple(out)


def _vanishing_product_solutions(
    e_plus: PolyMatrix, degrees: Sequence[Sequence[int]]
) -> tuple[Sequence[tuple[int, int, int]], tuple[linalg.Vector, ...]]:
    """Coefficient nullspace of e+ X = 0 and X e+ = 0 over the degree grid.

    The unknown (k, l, c), coefficient c of X[k][l], adds e+[i][k] shifted
    by c to the equations for (e+ X)[i][l], and e+[l][m] shifted by c to
    those for (X e+)[k][m], read off e+'s `integer_rows`.
    """
    slots = [
        (k, l, c)
        for k, row in enumerate(degrees)
        for l, d in enumerate(row)
        if d >= 0
        for c in range(d + 1)
    ]
    if not slots:
        return slots, ()
    rows, _ = integer_rows(e_plus)
    columns: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for i, row in enumerate(rows):
        for k, p in row:
            columns.setdefault(k, []).append((i, p))
    equations: dict[tuple[int, int, int, int], dict[int, int]] = {}
    for s, (k, l, c) in enumerate(slots):
        placed = [((0, i, l), p) for i, p in columns.get(k, ())]
        placed += [((1, k, m), p) for m, p in rows[l]]
        for key, p in placed:
            for j, y in enumerate(p):
                equations.setdefault((*key, c + j), {})[s] = y
    # identically vanishing products: no constraint at all
    matrix = [tuple(eq.get(s, 0) for s in range(len(slots))) for eq in equations.values()]
    return slots, linalg.nullspace(tuple(matrix) or ((0,) * len(slots),))


def _bundle_chain(spec: InstanceSpec, rng: random.Random, mode: int) -> TwistedQuiverBundle:
    (n1, n2), r = spec.dims, spec.framing
    deg1 = _sorted_degrees(rng, n1, spec.degree_bound)
    deg2 = _sorted_degrees(rng, n2, spec.degree_bound)
    f_plus = _rand_form_matrix(rng, [[d] * r for d in deg1], spec.height)
    e_plus = _rand_form_matrix(rng, [[dk - dl for dl in deg1] for dk in deg2], spec.height)
    back_degrees = [[dk - 2 - dl for dl in deg2] for dk in deg1]
    if mode == 0:
        e_minus = poly_zeros(n1, n2)
    else:
        # seeded combination of the coefficient nullspace of both products
        slots, basis = _vanishing_product_solutions(e_plus, back_degrees)
        if not basis:
            e_minus = poly_zeros(n1, n2)
        else:
            weights = [Fraction(rng.randint(-spec.height, spec.height)) for _ in basis]
            if all(w == 0 for w in weights):
                weights[0] = Fraction(1)
            values = [
                sum((w * v[i] for w, v in zip(weights, basis)), ZERO)
                for i in range(len(slots))
            ]
            e_minus = _form_matrix_from_vector(back_degrees, slots, values)
    bundles = {
        "0": SplitBundle((0,) * r),
        "1": SplitBundle(deg1),
        "2": SplitBundle(deg2),
    }
    phi = {"f+": f_plus, "f-": poly_zeros(r, n1), "e+": e_plus, "e-": e_minus}
    return TwistedQuiverBundle(spec.double, bundles, spec.twist, phi)


def gen_bundle(spec: InstanceSpec) -> TwistedQuiverBundle:
    """Twisted bundle with exactly zero sheaf residual; degree patterns hold
    by construction, so validation passes.  Works at level zero only.

    One seeded draw picks the mode, and every mode lies on the relation by
    construction.  The framing-return arrow has strictly negative entry
    degrees under both presets and is zero, which leaves the commutator of
    the loops (adhm) and the products e- e+ and e+ e- (chain).  A loop
    commutes with its scalar multiple (adhm mode 0); two loops that map one
    seeded summand subset into its complement and vanish on the complement
    have both products zero (mode 1, rank >= 2); so does a zero partner
    (adhm otherwise, chain mode 0); and the chain's e- of mode 1 lies in the
    exact coefficient nullspace of e+ X = 0 and X e+ = 0
    (`_vanishing_product_solutions`).  The residual is still checked: a
    nonzero one is an `InvariantError`.
    """
    _require_positive_ordinary(spec)
    if spec.level != 0:
        raise HypothesisError("bundle generation works at level zero")
    rng = random.Random(spec.seed)
    if spec.preset == "adhm":
        e = _bundle_adhm(spec, rng, mode=rng.randrange(3))
    else:
        e = _bundle_chain(spec, rng, mode=rng.randrange(2))
    if not residual_is_zero(e):
        raise InvariantError(f"generated bundle for {spec} is off the moment relation")
    return e


def zero_arrow_rep(x: FramedRep, arrow: str) -> FramedRep:
    """Copy with one arrow block zeroed; residual preservation is on the caller."""
    a = x.double.arrow(arrow)
    blocks = dict(x.x)
    blocks[arrow] = linalg.zeros(x.dims[a.head], x.dims[a.tail])
    return FramedRep(x.double, x.dims, blocks)


# ---------------------------------------------------------------------------
# fiber consistency oracle


def sample_points(e: TwistedQuiverBundle, count: int) -> tuple[tuple[int, int], ...]:
    """Deterministic rational points [1 : k] avoiding the base locus.

    These are the k at which every vertex fiber of the generation matrices
    has full rank (`bundles._generation`).  A zero locus form (generic
    generation failure) leaves every point equally informative, so then
    the first count integers are used as is.
    """
    points = _generation(e).off_locus_points()
    return tuple((1, k) for k in islice(points, max(count, 0)))


def oracle_fiber_consistency(e: TwistedQuiverBundle, samples: int = 5) -> bool:
    """Fiber verdicts off the base locus must match the symbolic verdict.

    Checks is_stable_framed on the fiber at each sampled point against
    is_stable_quasimap, then rescales the trivialization at the first point
    and requires the verdict to be unchanged.  Any disagreement raises
    ArithmeticError naming the witness point.  At least one sample is
    needed: the rescaling check takes the first.
    """
    if samples < 1:
        raise ValueError(f"fiber consistency needs at least one sample, got {samples}")
    symbolic = is_stable_quasimap(e)
    points = sample_points(e, samples)
    for z in points:
        fiber = is_stable_framed(fiber_at(e, z)).stable
        if fiber != symbolic:
            raise ArithmeticError(
                f"fiber verdict {fiber} at [{z[0]}:{z[1]}] disagrees with symbolic verdict {symbolic}"
            )
    s0, t0 = points[0]
    rescaled = is_stable_framed(fiber_at(e, (3 * s0, 3 * t0))).stable
    if rescaled != symbolic:
        raise ArithmeticError(
            f"rescaled trivialization at [{s0}:{t0}] flips the verdict to {rescaled}"
        )
    return True


# ---------------------------------------------------------------------------
# comparison corpus for the two stability routines


def _column_selecting(rows: int, cols: int) -> Iterator[Matrix]:
    """Every 0/1 matrix with at most one nonzero per column."""
    one = Fraction(1)
    for choice in product(range(rows + 1), repeat=cols):
        yield tuple(
            tuple(one if choice[c] == r + 1 else ZERO for c in range(cols))
            for r in range(rows)
        )


def _shape_blocks(
    preset: str, dims: tuple[int, ...], r: int
) -> tuple[DoubleQuiver, DimensionVector, tuple[tuple[str, int, int], ...]]:
    if preset == "adhm":
        (n,) = dims
        dq = ADHM_DOUBLE
        dv = DimensionVector.of(dq, {"0": r, "1": n})
        blocks = (("loop+", n, n), ("loop-", n, n), ("frame+", n, r), ("frame-", r, n))
    else:
        n1, n2 = dims
        dq = CHAIN_DOUBLE
        dv = DimensionVector.of(dq, {"0": r, "1": n1, "2": n2})
        blocks = (("f+", n1, r), ("f-", r, n1), ("e+", n2, n1), ("e-", n1, n2))
    return dq, dv, blocks


def _sparse_instances(
    preset: str, dims: tuple[int, ...], r: int
) -> Iterator[FramedRep]:
    """All instances with at most two unit entries over all blocks."""
    dq, dv, blocks = _shape_blocks(preset, dims, r)
    cells = [
        (name, row, col)
        for name, m, n in blocks
        for row in range(m)
        for col in range(n)
    ]
    choices: list[tuple[tuple[str, int, int], ...]] = [()]
    choices.extend((c,) for c in cells)
    choices.extend(
        pair
        for pair in combinations(cells, 2)
        if not (pair[0][0] == pair[1][0] and pair[0][2] == pair[1][2])
    )
    one = Fraction(1)
    for chosen in choices:
        x = {name: [[ZERO] * n for _ in range(m)] for name, m, n in blocks}
        for name, row, col in chosen:
            x[name][row][col] = one
        yield FramedRep(dq, dv, {k: tuple(map(tuple, v)) for k, v in x.items()})


def _complete_instances(
    preset: str, dims: tuple[int, ...], r: int
) -> Iterator[FramedRep]:
    """Every column-selecting datum on one shape."""
    dq, dv, blocks = _shape_blocks(preset, dims, r)
    pools = [tuple(_column_selecting(m, n)) for _, m, n in blocks]
    names = [name for name, _, _ in blocks]
    for combo in product(*pools):
        yield FramedRep(dq, dv, dict(zip(names, combo)))


SPARSE_SHAPES: tuple[tuple[str, tuple[int, ...], int], ...] = tuple(
    [("adhm", (n,), r) for n in range(1, 6) for r in range(1, 7 - n)]
    + [
        ("chain", (n1, n2), r)
        for n1 in range(1, 5)
        for n2 in range(1, 5)
        for r in range(1, 7 - n1 - n2)
        if n1 + n2 <= 5
    ]
)

COMPLETE_SHAPES: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("adhm", (1,), 1),
    ("adhm", (1,), 2),
    ("adhm", (1,), 3),
    ("adhm", (2,), 1),
    ("adhm", (2,), 2),
    ("chain", (1, 1), 1),
    ("chain", (1, 1), 2),
    ("chain", (1, 1), 3),
    ("chain", (2, 1), 1),
    ("chain", (1, 2), 1),
    ("chain", (2, 1), 2),
    ("chain", (1, 2), 2),
    ("chain", (2, 2), 1),
    ("chain", (3, 1), 1),
    ("chain", (1, 3), 1),
)


def comparison_corpus() -> Iterator[FramedRep]:
    """Column-selecting corpus with total dimension at most six.

    Union of the at-most-two-entries family over every shape and the full
    column-selecting family over the small shapes; both are exhaustive
    within their class, so the brute-force oracle applies to every item.
    """
    for preset, dims, r in SPARSE_SHAPES:
        yield from _sparse_instances(preset, dims, r)
    for preset, dims, r in COMPLETE_SHAPES:
        yield from _complete_instances(preset, dims, r)


# ---------------------------------------------------------------------------
# named property suites


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    instances: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


_REP_SHAPES: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("adhm", (1,), 1),
    ("adhm", (2,), 1),
    ("adhm", (2,), 2),
    ("adhm", (3,), 1),
    ("adhm", (3,), 2),
    ("chain", (1, 1), 1),
    ("chain", (2, 1), 1),
    ("chain", (1, 2), 2),
    ("chain", (2, 2), 2),
)

_BUNDLE_SHAPES: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("adhm", (1,), 1),
    ("adhm", (2,), 1),
    ("adhm", (2,), 2),
    ("adhm", (3,), 2),
    ("chain", (1, 1), 1),
    ("chain", (2, 1), 2),
    ("chain", (1, 2), 2),
    ("chain", (2, 2), 2),
)

_LEVELS: tuple[Fraction, ...] = (ZERO, Fraction(1), Fraction(-2))


def _mix(seed: int, k: int) -> int:
    return seed * 1000003 + k


def rep_spec(k: int, seed: int = 0, height: int = 3) -> InstanceSpec:
    """k-th representation spec in the deterministic rotation.

    Nonzero levels are used only where the column solves are generically
    feasible: framing at least the loop vertex for adhm, weakly decreasing
    ranks along the chain.
    """
    preset, dims, r = _REP_SHAPES[k % len(_REP_SHAPES)]
    level = ZERO
    solvable = dims[0] <= r if preset == "adhm" else dims[1] <= dims[0] <= r
    if solvable:
        level = _LEVELS[(k // len(_REP_SHAPES)) % len(_LEVELS)]
    return InstanceSpec(preset, dims, r, height=height, seed=_mix(seed, k), level=level)


def bundle_spec(k: int, seed: int = 0, degree_bound: int = 2, height: int = 3) -> InstanceSpec:
    """k-th bundle spec in the deterministic rotation."""
    preset, dims, r = _BUNDLE_SHAPES[k % len(_BUNDLE_SHAPES)]
    return InstanceSpec(
        preset, dims, r, degree_bound=degree_bound, height=height, seed=_mix(seed, k)
    )


def stable_bundles(
    count: int, seed: int = 0, degree_bound: int = 2, height: int = 3
) -> Iterator[TwistedQuiverBundle]:
    """First count quasimap-stable instances from the bundle rotation; none
    for count 0, and a negative count is refused."""
    if count < 0:
        raise ValueError(f"stable bundle count must be nonnegative, got {count}")
    found = 0
    for k in range(200 * count):
        e = gen_bundle(bundle_spec(k, seed, degree_bound, height))
        if is_stable_quasimap(e):
            yield e
            found += 1
            if found == count:
                return
    if found < count:
        raise RuntimeError(f"only {found} stable instances within the attempt budget")


def run_suite(name: str, count: int = 50, seed: int = 0) -> SuiteReport:
    """Run one named property suite and report per-instance failures.

    hamiltonian       pairing identity on unconstrained samples
    moment-zero       generated representations have zero residual
    sheaf-residual    generated bundles validate with zero residual
    defcomplex        the two differentials compose to zero, multiplied
                      out: the runtime check of the equivariance proof
                      that lets `build_complex` skip the product
    fiber-consistency fiber verdicts match the symbolic verdict
    closure-brute     closure stability equals the brute-force oracle
                      (count caps the corpus; zero means the whole corpus)

    A negative count is refused: every loop would run zero times and the
    suite would pass over no instance.
    """
    if count < 0:
        raise ValueError(f"suite count must be nonnegative, got {count}")
    failures: list[str] = []
    instances = 0
    if name == "hamiltonian":
        for k in range(count):
            instances += 1
            x = random_rep(rep_spec(k, seed))
            xi = random_tangent(x, _mix(seed, 2 * k + 1))
            g = random_lie(x, _mix(seed, 2 * k + 2))
            if hamiltonian_residual(x, xi, g) != 0:
                failures.append(f"instance {k}: nonzero hamiltonian residual")
    elif name == "moment-zero":
        for k in range(count):
            instances += 1
            spec = rep_spec(k, seed)
            try:
                x = gen_rep(spec)
            except RuntimeError as err:
                failures.append(f"instance {k}: {err}")
                continue
            level = {i: spec.level for i in spec.double.ordinary_vertices}
            if any(not linalg.is_zero_matrix(m) for m in moment(x, level).values()):
                failures.append(f"instance {k}: nonzero moment residual")
    elif name == "sheaf-residual":
        for k in range(count):
            instances += 1
            e = gen_bundle(bundle_spec(k, seed))
            report = validate(e)
            if not report.valid:
                failures.append(f"instance {k}: {'; '.join(report.violations)}")
            elif not residual_is_zero(e):
                failures.append(f"instance {k}: nonzero sheaf residual")
    elif name == "defcomplex":
        from .complexes import build_complex

        for k in range(count):
            instances += 1
            e = gen_bundle(bundle_spec(k, seed))
            c = build_complex(e)
            if not poly_mat_is_zero(poly_matmul(c.d_mu, c.d_kappa)):
                failures.append(f"instance {k}: differentials do not compose to zero")
    elif name == "fiber-consistency":
        for k in range(count):
            instances += 1
            e = gen_bundle(bundle_spec(k, seed))
            try:
                oracle_fiber_consistency(e, samples=3)
            except ArithmeticError as err:
                failures.append(f"instance {k}: {err}")
    elif name == "closure-brute":
        for x in comparison_corpus():
            if count and instances >= count:
                break
            instances += 1
            fast = is_stable_framed(x).stable
            slow = brute_force_framed_check(x)
            if fast != slow:
                failures.append(
                    f"instance {instances - 1}: closure says {fast}, enumeration says {slow}"
                )
    else:
        raise ValueError(f"unknown suite {name!r}")
    return SuiteReport(name, instances, tuple(failures))
