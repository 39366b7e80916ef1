"""Output checks for the benchmark workloads.

Every check here uses a property the method must have, or a computation
made apart from the library: fiber generation ranks come from sympy on
the evaluated arrow matrices, Euler numbers from Riemann-Roch on the split
data, document validity and expected exit codes from the raw JSON.  No
check compares against a stored copy of earlier output.

Each checker returns a list of problems; an empty list means the output
passed.  sympy is imported lazily so that it never inflates the memory
or the timing of the measured passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

# A point [s : t] of the projective line far from any small rational root:
# the fiber there is the generic fiber unless a base-locus form with small
# coefficients happens to vanish at 1000003/7919, which needs both primes
# to divide its end coefficients.
GENERIC_POINT = (Fraction(1), Fraction(1000003, 7919))
SAMPLE_POINTS = (
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(-2)),
    (Fraction(2), Fraction(3)),
)
MAX_ROOT_POINTS = 3


# ---------------------------------------------------------------------------
# quiver data in a neutral form, from library objects or from JSON documents


@dataclass(frozen=True)
class FiberData:
    """Arrow matrices of forms (coefficients of s^(d-j) t^j, or None for a
    zero entry), keyed by doubled arrow name with (tail, head)."""

    framing: str
    dims: Mapping[str, int]
    arrows: tuple[tuple[str, str, str, tuple[tuple[tuple[Fraction, ...] | None, ...], ...]], ...]

    @property
    def ordinary(self) -> tuple[str, ...]:
        return tuple(v for v in self.dims if v != self.framing)


def fiber_data_of_bundle(e) -> FiberData:
    arrows = []
    for a in e.double.arrows:
        rows = tuple(
            tuple(None if p.is_zero() else tuple(p.coeffs) for p in row) for row in e.phi[a.name]
        )
        arrows.append((a.name, a.tail, a.head, rows))
    dims = {v: e.bundles[v].rank for v in e.double.vertices}
    return FiberData(e.double.framing, dims, tuple(arrows))


def _doubled_arrows(doc: dict) -> list[tuple[str, str, str]]:
    out = []
    for a in doc["quiver"]["arrows"]:
        out.append((a["name"] + "+", a["tail"], a["head"]))
        out.append((a["name"] + "-", a["head"], a["tail"]))
    return out


def _framing_of(doc: dict) -> str:
    return next(v["name"] for v in doc["quiver"]["vertices"] if v.get("framing"))


def fiber_data_of_doc(doc: dict) -> FiberData:
    framing = _framing_of(doc)
    arrows = []
    if doc["kind"] == "rep":
        dims = {v["name"]: int(doc["dims"][v["name"]]) for v in doc["quiver"]["vertices"]}
        for name, tail, head in _doubled_arrows(doc):
            rows = tuple(tuple((Fraction(x),) for x in row) for row in doc["data"][name])
            arrows.append((name, tail, head, rows))
    else:
        dims = {v["name"]: len(doc["bundles"][v["name"]]) for v in doc["quiver"]["vertices"]}
        for name, tail, head in _doubled_arrows(doc):
            rows = tuple(
                tuple(
                    None
                    if entry is None or all(Fraction(c) == 0 for c in entry)
                    else tuple(Fraction(c) for c in entry)
                    for entry in row
                )
                for row in doc["data"][name]
            )
            arrows.append((name, tail, head, rows))
    return FiberData(framing, dims, tuple(arrows))


def eval_form(coeffs: Sequence[Fraction] | None, point: tuple[Fraction, Fraction]) -> Fraction:
    if coeffs is None:
        return Fraction(0)
    s0, t0 = point
    d = len(coeffs) - 1
    return sum((Fraction(c) * s0 ** (d - j) * t0**j for j, c in enumerate(coeffs)), Fraction(0))


def generated_dims(data: FiberData, point: tuple[Fraction, Fraction]) -> dict[str, int]:
    """Dimension, per vertex, of the smallest arrow-invariant subspace
    family of the fiber at `point` that contains the framing fiber,
    computed with sympy's exact matrices over QQ."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def q(x: Fraction):
        return QQ(x.numerator, x.denominator)

    mats = {}
    for name, tail, head, rows in data.arrows:
        m, n = data.dims[head], data.dims[tail]
        if m == 0 or n == 0:
            continue
        mats[name] = DomainMatrix(
            [[q(eval_form(entry, point)) for entry in row] for row in rows], (m, n), QQ
        )
    r = data.dims[data.framing]
    basis = {data.framing: DomainMatrix.eye(r, QQ)}
    for _ in range(sum(data.dims.values()) + 1):
        grew = False
        for name, tail, head, _ in data.arrows:
            if name not in mats or tail not in basis:
                continue
            image = mats[name] * basis[tail]
            cand = image if head not in basis else basis[head].hstack(image)
            _, pivots = cand.rref()
            if not pivots:
                continue
            before = basis[head].shape[1] if head in basis else 0
            basis[head] = cand.extract(list(range(cand.shape[0])), list(pivots))
            grew = grew or len(pivots) > before
        if not grew:
            break
    return {v: (basis[v].shape[1] if v in basis else 0) for v in data.dims}


def fiber_full(data: FiberData, point: tuple[Fraction, Fraction]) -> bool:
    dims = generated_dims(data, point)
    return all(dims[v] == data.dims[v] for v in data.ordinary)


def generically_stable(data: FiberData) -> bool:
    return fiber_full(data, GENERIC_POINT)


# ---------------------------------------------------------------------------
# cohomology


def rr_euler(e) -> int:
    """Riemann-Roch count -chi(C^-1) + chi(C^0) - chi(C^1) of the
    deformation complex, with chi(O(n)) = n + 1 on the line: End of each
    ordinary bundle in degree -1, the arrow Hom bundles twisted by their
    line bundles in degree 0, End tensor O(-2) in degree 1."""
    chi = 0
    framing = e.double.framing
    for v in e.double.vertices:
        if v == framing:
            continue
        a = e.bundles[v].multidegree
        chi -= sum(ak - al + 1 for ak in a for al in a)
        chi -= sum(ak - al - 2 + 1 for ak in a for al in a)
    for arrow in e.double.arrows:
        head = e.bundles[arrow.head].multidegree
        tail = e.bundles[arrow.tail].multidegree
        m = e.twist.degree(arrow.name)
        chi += sum(hk + m - tl + 1 for hk in head for tl in tail)
    return chi


def cohomology_problems(e, report) -> list[str]:
    """Symmetric signature of a stable quasimap's deformation complex."""
    h = dict(report.h)
    out = []
    if h.get(-1) != 0 or h.get(2) != 0:
        out.append(f"outer hypercohomology nonzero: {report.h}")
    if h.get(0) != h.get(1):
        out.append(f"h0 != h1: {report.h}")
    euler = -h.get(-1, 0) + h.get(0, 0) - h.get(1, 0) + h.get(2, 0)
    if report.euler != euler:
        out.append(f"reported euler {report.euler} is not the alternating sum {euler}")
    if report.euler != 0:
        out.append(f"euler {report.euler} != 0")
    rr = rr_euler(e)
    if report.euler != rr:
        out.append(f"euler {report.euler} != Riemann-Roch count {rr}")
    if report.stabilized is not True:
        out.append("window not stabilized")
    return out


def window_problems(report, wider) -> list[str]:
    if report.h != wider.h:
        return [f"dims {report.h} at the default window but {wider.h} three steps wider"]
    return []


# ---------------------------------------------------------------------------
# verdicts


def _form_roots(coeffs: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Rational zeros [s : t] of a nonzero binary form, found by sympy."""
    from sympy import Poly, Rational, symbols

    t = symbols("t")
    points = []
    if coeffs[-1] == 0:
        points.append((Fraction(0), Fraction(1)))
    dehom = [Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    poly = Poly(dehom, t)
    if poly.degree() > 0:
        for root in sorted(poly.ground_roots()):
            points.append((Fraction(1), Fraction(int(root.p), int(root.q))))
    return points


def factored_problems(text: str, coeffs: Sequence[Fraction] | None) -> list[str]:
    """The factored display must expand back to the form exactly."""
    from sympy import Rational, expand, parse_expr, symbols

    s, t = symbols("s t")
    if coeffs is None:
        return [] if text == "0" else [f"zero form displayed as {text!r}"]
    d = len(coeffs) - 1
    want = sum(Rational(c.numerator, c.denominator) * s ** (d - j) * t**j for j, c in enumerate(coeffs))
    got = parse_expr(text.replace("^", "**"), {"s": s, "t": t})
    if expand(got - want) != 0:
        return [f"factored display {text!r} does not expand to the form"]
    return []


def verdict_problems(e, out) -> list[str]:
    """Checks on (is_stable_quasimap, base_locus report, its factored
    display, asymptotic report, HN bound) for one bundle."""
    stable, locus, factored, asym, hn = out
    data = fiber_data_of_bundle(e)
    problems = []
    poly = locus.polynomial
    coeffs = None if poly.is_zero() else tuple(poly.coeffs)
    points = list(SAMPLE_POINTS)
    if coeffs is not None:
        points.extend(_form_roots(coeffs)[:MAX_ROOT_POINTS])
    for z in points:
        full = fiber_full(data, z)
        nonzero = eval_form(coeffs, z) != 0
        if full != nonzero:
            problems.append(
                f"fiber at [{z[0]}:{z[1]}] full={full} but base-locus form nonzero={nonzero}"
            )
    generic = generically_stable(data)
    if stable != generic:
        problems.append(f"quasimap verdict {stable} but generic fiber stability {generic}")
    if locus.stable != stable:
        problems.append(f"base-locus verdict {locus.stable} != quasimap verdict {stable}")
    problems.extend(factored_problems(factored, coeffs))
    if asym.agree is not True:
        problems.append("asymptotic routes disagree")
    if asym.stable_quasimap != stable:
        problems.append("asymptotic report carries a different quasimap verdict")
    if stable and hn is not True:
        problems.append("HN quotient bound fails on a stable instance")
    return problems


# ---------------------------------------------------------------------------
# CLI documents, exit codes and stdout


def bundle_doc_violations(doc: dict) -> list[str]:
    """Framing triviality, twist pairing to -2 and forced entry degrees,
    read straight from a bundle document."""
    out = []
    bundles, twist, data = doc["bundles"], doc["twist"], doc["data"]
    framing = _framing_of(doc)
    if any(d != 0 for d in bundles[framing]):
        out.append("framing bundle not trivial")
    for a in doc["quiver"]["arrows"]:
        if twist[a["name"] + "+"] + twist[a["name"] + "-"] != -2:
            out.append(f"twist pairing on {a['name']!r}")
    for name, tail, head in _doubled_arrows(doc):
        for k, row in enumerate(data[name]):
            for l, entry in enumerate(row):
                if entry is None or all(Fraction(c) == 0 for c in entry):
                    continue
                want = bundles[head][k] + twist[name] - bundles[tail][l]
                if len(entry) - 1 != want:
                    out.append(f"{name} entry ({k}, {l}) has degree {len(entry) - 1}, forced {want}")
    return out


BUNDLE_ONLY = ("base-locus", "asym-check", "hn-bound", "defcomplex")


def expected_exit(argv: Sequence[str], doc: dict | None) -> int:
    """Exit code the README promises: 0 for a computed verdict, 2 for an
    input problem (an invalid document, or a bundle-only subcommand given
    a representation)."""
    command = argv[0]
    if doc is None:
        return 0
    if doc["kind"] == "rep":
        return 2 if command in BUNDLE_ONLY else 0
    return 2 if bundle_doc_violations(doc) else 0


def canonical_json_problems(stdout: str) -> list[str]:
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"stdout is not JSON: {err}"]
    if not isinstance(obj, dict):
        return ["stdout is not one JSON object"]
    if json.dumps(obj, sort_keys=True, indent=2) + "\n" != stdout:
        return ["stdout is not one sorted-key JSON object in canonical layout"]
    return []


def _threshold_holds(v0: int, v1: int, mu1: Fraction, n: int, delta0: Fraction) -> bool:
    for v0p in sorted({0, v0}):
        for v1p in range(1, v1 + 1):
            if (v0p, v1p) == (v0, v1):
                continue
            for scale in (1, 2):
                gap = abs(Fraction(scale * v0, v1) - Fraction(scale * v0p, v1p))
                if delta0 * gap <= n + abs(scale * mu1):
                    return False
    return True


def _flags(argv: Sequence[str]) -> dict[str, str]:
    """Flag values of an argv written as --name=value or --name value."""
    out, i = {}, 1
    while i < len(argv):
        if "=" in argv[i]:
            name, value = argv[i].split("=", 1)
            i += 1
        else:
            name, value = argv[i], argv[i + 1]
            i += 2
        out[name] = value
    return out


def cli_problems(
    argv: Sequence[str], doc: dict | None, code: int, stdout: str, stderr: str,
    stable: bool | None,
) -> list[str]:
    """Content checks on a CLI invocation that exited as expected.
    `stable` is the generic fiber verdict of the document, when it has one."""
    command = argv[0]
    if code == 2:
        if command == "validate":
            problems = canonical_json_problems(stdout)
            if not problems and json.loads(stdout)["valid"] is not False:
                problems.append("validate exits 2 on a document it reports valid")
            return problems
        if stdout:
            return ["input error with output on stdout"]
        if not stderr.startswith("error: "):
            return ["input error without an 'error:' line on stderr"]
        return []
    problems = canonical_json_problems(stdout)
    if problems:
        return problems
    obj = json.loads(stdout)
    if command == "validate":
        if obj != {"valid": True, "violations": []}:
            problems.append("validate exits 0 without a clean report")
    elif command in ("stability", "base-locus"):
        if obj["stable"] is not stable:
            problems.append(f"{command} says stable={obj['stable']}, generic fiber says {stable}")
    elif command == "asym-check":
        if obj["agree"] is not True:
            problems.append("asym-check routes disagree")
    elif command == "hn-bound":
        if stable and obj["holds"] is not True:
            problems.append("HN bound fails on a stable document")
    elif command == "defcomplex":
        h = obj["h"]
        if obj["euler"] != obj["euler_rr"]:
            problems.append("euler differs from its Riemann-Roch count")
        if stable and not (
            h["-1"] == "0" and h["2"] == "0" and h["0"] == h["1"]
            and obj["euler"] == "0" and obj["stabilized"] is True
        ):
            problems.append(f"stable document without the symmetric signature: {obj}")
    elif command == "gen":
        from quiverbundles import parse_document, validate

        if not validate(parse_document(obj).bundle).valid:
            problems.append("gen output does not pass validate")
        if bundle_doc_violations(obj):
            problems.append("gen output breaks the degree conventions")
    elif command == "delta-threshold":
        flags = _flags(argv)
        v0, v1, n = int(flags["--v0"]), int(flags["--v1"]), int(flags["--N"])
        mu1 = Fraction(flags["--mu1"])
        delta0 = Fraction(obj["delta0"])
        if not _threshold_holds(v0, v1, mu1, n, delta0):
            problems.append(f"delta0 {delta0} does not dominate the slope gaps")
        if _threshold_holds(v0, v1, mu1, n, delta0 - 1):
            problems.append(f"delta0 {delta0} is not the smallest such integer")
    elif command == "slope":
        flags = _flags(argv)
        v0, v1, d = int(flags["--v0"]), int(flags["--v1"]), int(flags["--d"])
        delta = Fraction(flags["--delta"])
        if obj["mu_delta"] != str((d + delta * v0) / v1):
            problems.append(f"mu_delta {obj['mu_delta']} != (d + delta*v0)/v1")
    return problems
