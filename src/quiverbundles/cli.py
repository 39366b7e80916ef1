"""Command line interface over the JSON instance format.

One executable with subcommands for validation, moment residuals, the
stability routines, slope and threshold arithmetic, the deformation
complex, instance generation, and named property suites.  Machine output
is a single JSON object with sorted keys and exact "p/q" scalars; exit 0
on computed verdicts, 1 for refuted verdicts under --strict, 2 on input
problems, 3 when an internal invariant fails.  Each handler imports the
library names it runs when it runs, so a subcommand loads only its modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .quivers import HypothesisError, InvariantError

if TYPE_CHECKING:
    from .bundles import TwistedQuiverBundle
    from .serialization import InstanceDocument
    from .stability import DeltaVerdict, NumericalClass, Slope


class _InputError(Exception):
    pass


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({err})") from None


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Spell `--mu1 -5/2` as `--mu1=-5/2`, for every option name and its
    abbreviations: argparse takes a token that starts with "-" for an
    option unless it reads as a negative decimal, and would leave the
    option without its value."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[\w-]+", out[-1]) and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load(path: str) -> InstanceDocument:
    from .serialization import parse_document

    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise _InputError(f"{path}: invalid JSON: {err}") from None
    return parse_document(raw)


def _need_bundle(item: InstanceDocument) -> TwistedQuiverBundle:
    """The document's bundle, refused unless `validate` finds no violation."""
    from .bundles import validate

    if item.kind != "bundle" or item.bundle is None:
        raise _InputError("this subcommand needs a bundle document")
    violations = validate(item.bundle).violations
    if violations:
        raise _InputError(violations[0])
    return item.bundle


def _slope_json(s: Slope | None) -> str | None:
    if s is None:
        return None
    return "inf" if s.is_infinite else str(s.value)


def _class_json(c: NumericalClass) -> dict:
    return {"v0": str(c.v0), "v1": str(c.v1), "d": str(c.d)}


def _point_json(z: tuple[Fraction, Fraction]) -> str:
    return f"[{z[0]}:{z[1]}]"


def _verdict_json(v: DeltaVerdict) -> dict:
    return {
        "delta": str(v.delta),
        "refutes_stability": v.refutes_stability,
        "refutes_semistability": v.refutes_semistability,
        "witness": None if v.witness is None else _class_json(v.witness),
        "family_size": str(v.family_size),
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    from .bundles import validate

    item = _load(args.input)
    violations: list[str] = []
    if item.kind == "bundle":
        violations = list(validate(item.bundle).violations)
    _emit({"valid": not violations, "violations": violations})
    if violations:
        print(f"error: {violations[0]}", file=sys.stderr)
        return 2
    return 0


def _cmd_moment(args: argparse.Namespace) -> int:
    from .bundles import moment_residual_sheaf
    from .linalg import is_zero_matrix
    from .polynomials import poly_mat_is_zero
    from .representations import moment
    from .serialization import encode_form_matrix, encode_scalar_matrix

    item = _load(args.input)
    if item.kind == "rep":
        residual = moment(item.rep, item.level or None)
        payload = {i: encode_scalar_matrix(m) for i, m in residual.items()}
        zero = all(is_zero_matrix(m) for m in residual.values())
    else:
        e = _need_bundle(item)
        residual = moment_residual_sheaf(e)
        payload = {i: encode_form_matrix(m) for i, m in residual.items()}
        zero = all(poly_mat_is_zero(m) for m in residual.values())
    _emit({"zero": zero, "residual": payload})
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from .bundles import is_stable_quasimap
    from .representations import is_stable_framed
    from .stability import check_delta_stability, subobject_family

    item = _load(args.input)
    refuted = False
    if item.kind == "rep":
        verdict = is_stable_framed(item.rep)
        witness = None
        if verdict.witness is not None:
            witness = {
                "dims": {v: str(verdict.witness.dims[v]) for v in item.rep.double.vertices}
            }
        payload: dict = {"stable": verdict.stable, "witness": witness}
        refuted = not verdict.stable
    else:
        e = _need_bundle(item)
        stable = is_stable_quasimap(e)
        payload = {"stable": stable, "witness": None}
        refuted = not stable
        if args.delta is not None:
            dv = check_delta_stability(e, args.delta, subobject_family(e))
            payload["delta_verdict"] = _verdict_json(dv)
            refuted = refuted or dv.refutes_stability
    _emit(payload)
    return 1 if args.strict and refuted else 0


def _cmd_base_locus(args: argparse.Namespace) -> int:
    from .bundles import base_locus
    from .polynomials import format_factored

    e = _need_bundle(_load(args.input))
    report = base_locus(e)
    factored = functools.cache(format_factored)  # equal forms are factored once
    _emit(
        {
            "stable": report.stable,
            "polynomial": factored(report.polynomial),
            "vertex_ranks": {v: str(r) for v, r in report.vertex_ranks},
            "vertex_polynomials": {v: factored(p) for v, p in report.vertex_polynomials},
        }
    )
    return 1 if args.strict and not report.stable else 0


def _cmd_slope(args: argparse.Namespace) -> int:
    from .stability import NumericalClass, instance_threshold, numerical_class, slopes

    flags = (args.v0, args.v1, args.d)
    if args.input is not None:
        if any(f is not None for f in flags):
            raise _InputError("give either --input or the class flags, not both")
        e = _need_bundle(_load(args.input))
        c = numerical_class(e)
        delta = args.delta if args.delta is not None else instance_threshold(e)
    else:
        if any(f is None for f in flags):
            raise _InputError("class flags --v0 --v1 --d are required without --input")
        if args.delta is None:
            raise _InputError("--delta is required without --input")
        c = NumericalClass(args.v0, args.v1, args.d)
        delta = args.delta
    table = slopes(c, delta)
    _emit(
        {
            "class": _class_json(c),
            "delta": str(delta),
            "mu_delta": _slope_json(table.mu_delta),
            "mu_st": _slope_json(table.mu_st),
            "mu1": _slope_json(table.mu1),
            "mu2_proof": _slope_json(table.mu2_proof),
            "mu2_Z": _slope_json(table.mu2_Z),
        }
    )
    return 0


def _cmd_delta_threshold(args: argparse.Namespace) -> int:
    from .stability import (
        delta_threshold, instance_threshold, numerical_class, subsheaf_degree_bound,
    )

    flags = (args.v0, args.v1, args.mu1, args.N)
    if args.input is not None:
        if any(f is not None for f in flags):
            raise _InputError("give either --input or the bound flags, not both")
        e = _need_bundle(_load(args.input))
        c = numerical_class(e)
        _emit(
            {
                "delta0": str(instance_threshold(e)),
                "N": str(subsheaf_degree_bound(e)),
                "mu1": str(Fraction(c.d, c.v1)),
            }
        )
        return 0
    if any(f is None for f in flags):
        raise _InputError("flags --v0 --v1 --mu1 --N are required without --input")
    _emit({"delta0": str(delta_threshold(args.v0, args.v1, args.mu1, args.N))})
    return 0


def _cmd_asym_check(args: argparse.Namespace) -> int:
    from .stability import asymptotic_equivalence_check

    e = _need_bundle(_load(args.input))
    report = asymptotic_equivalence_check(e, args.delta)
    _emit(
        {
            "stable_quasimap": report.stable_quasimap,
            "generically_generated": report.generically_generated,
            "sample_point": _point_json(report.sample_point),
            "delta": str(report.delta),
            "delta0": str(report.delta0),
            "informative_only": report.informative_only,
            "verdict": _verdict_json(report.verdict),
            "agree": report.agree,
        }
    )
    return 1 if args.strict and not report.agree else 0


def _cmd_hn_bound(args: argparse.Namespace) -> int:
    from .bundles import residual_is_zero
    from .stability import hn_quotient_bound_check, instance_threshold

    e = _need_bundle(_load(args.input))
    if not residual_is_zero(e):
        raise HypothesisError("moment residual nonzero; not quasimap data")
    delta = args.delta if args.delta is not None else max(instance_threshold(e), Fraction(1))
    holds = hn_quotient_bound_check(e, delta)
    _emit({"delta": str(delta), "holds": holds})
    return 1 if args.strict and not holds else 0


def _cmd_defcomplex(args: argparse.Namespace) -> int:
    from .complexes import build_complex, euler_char_rr, hypercoh_dims

    e = _need_bundle(_load(args.input))
    c = build_complex(e)
    report = hypercoh_dims(c, args.window)
    _emit(
        {
            "term_ranks": {
                "-1": str(c.term_minus1.rank),
                "0": str(c.term_zero.rank),
                "1": str(c.term_one.rank),
            },
            "min_window": str(c.min_window),
            "window": str(report.window),
            "h": {str(k): str(report.dim(k)) for k in (-1, 0, 1, 2)},
            "euler": str(report.euler),
            "euler_rr": str(euler_char_rr(e)),
            "stabilized": report.stabilized,
        }
    )
    return 0


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _InputError(f"bad dims {text!r}; expected comma-separated integers") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import InstanceSpec, gen_bundle, gen_rep
    from .serialization import bundle_to_doc, dumps, rep_to_doc

    spec = InstanceSpec(
        args.preset,
        _parse_dims(args.dims),
        framing=args.framing,
        degree_bound=args.degree_bound,
        height=args.height,
        seed=args.seed,
        level=args.level,
    )
    meta = {"seed": spec.seed, "preset": spec.preset}
    if args.kind == "rep":
        x = gen_rep(spec)
        level = None
        if spec.level != 0:
            level = {i: spec.level for i in spec.double.ordinary_vertices}
        doc = rep_to_doc(x, level=level, meta=meta)
    else:
        e = gen_bundle(spec)
        doc = bundle_to_doc(e, meta=meta)
    text = dumps(doc)
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as err:
        raise _InputError(f"cannot write {args.out}: {err}") from None
    _emit({"written": args.out})
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .generators import run_suite

    report = run_suite(args.name, count=args.count, seed=args.seed)
    _emit(
        {
            "suite": report.suite,
            "instances": str(report.instances),
            "passed": report.passed,
            "failures": list(report.failures),
        }
    )
    return 1 if args.strict and not report.passed else 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call rather than at import;
    every `parse_args` returns a fresh Namespace, so one tree serves all."""
    parser = argparse.ArgumentParser(
        prog="quiverbundles",
        description="exact stability and cohomology toolkit for framed quiver data",
    )
    parser.add_argument(
        "--schema", action="store_true", help="print the instance JSON schema and exit"
    )
    sub = parser.add_subparsers(dest="command")

    def add(name: str, handler, help_text: str, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, **kw)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "schema, reference, and twist-pairing checks")
    p.add_argument("--input", required=True)

    p = add("moment", _cmd_moment, "moment relation residual per ordinary vertex")
    p.add_argument("--input", required=True)

    p = add("stability", _cmd_stability, "framed or quasimap stability verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=_fraction_flag, default=None,
                   help="also run the slope comparison at this delta (bundles)")
    p.add_argument("--strict", action="store_true")

    p = add("base-locus", _cmd_base_locus, "generation failure locus as a factored form")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", action="store_true")

    p = add("slope", _cmd_slope, "slope table of an instance or explicit class")
    p.add_argument("--input", default=None)
    p.add_argument("--v0", type=int, default=None)
    p.add_argument("--v1", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--delta", type=_fraction_flag, default=None)

    p = add("delta-threshold", _cmd_delta_threshold, "crossover delta for a class or instance")
    p.add_argument("--input", default=None)
    p.add_argument("--v0", type=int, default=None)
    p.add_argument("--v1", type=int, default=None)
    p.add_argument("--mu1", type=_fraction_flag, default=None)
    p.add_argument("--N", type=int, default=None)

    p = add("asym-check", _cmd_asym_check, "two-route stability agreement at large delta")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=_fraction_flag, default=None)
    p.add_argument("--strict", action="store_true")

    p = add("hn-bound", _cmd_hn_bound, "filtration quotient degree bound check")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=_fraction_flag, default=None)
    p.add_argument("--strict", action="store_true")

    p = add("defcomplex", _cmd_defcomplex, "deformation complex and hypercohomology dims")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, default=None)

    p = add("gen", _cmd_gen, "write a seeded generated instance as JSON")
    p.add_argument("--kind", choices=("rep", "bundle"), required=True)
    p.add_argument("--preset", choices=("adhm", "chain"), required=True)
    p.add_argument("--dims", required=True, help="ordinary dims, comma separated")
    p.add_argument("--framing", type=int, default=1)
    p.add_argument("--degree-bound", type=int, default=2)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=_fraction_flag, default=Fraction(0))
    p.add_argument("--out", required=True, help="output path, or - for stdout")

    p = add("suite", _cmd_suite, "run a named property suite")
    p.add_argument("--name", required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as err:
        return int(err.code or 0)
    if args.schema:
        from importlib import resources

        text = resources.files("quiverbundles").joinpath("schema/instance-v1.json").read_text()
        sys.stdout.write(text)
        return 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except InvariantError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (HypothesisError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
