"""JSON document encoding for representation and bundle instances.

A document carries the quiver (vertices with a framing flag, base arrows),
a kind tag, and per-doubled-arrow data blocks: "p/q" scalar matrices for
representations, form matrices (null or a coefficient list per entry) for
bundles, plus dims and an optional moment level, or multidegrees and twist
degrees.  Schema and cross-reference problems are reported with the JSON
pointer of the offending field.  Validation runs the shipped schema file
compiled once per process into one closure per keyword (`_compile`), with
Draft 2020-12 semantics and the messages of `jsonschema` 4.26; `jsonschema`
is only a test dependency, the oracle those closures are compared against.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from numbers import Number
from typing import Callable, Mapping, Sequence

from .bundles import SplitBundle, TwistData, TwistedQuiverBundle
from .errors import InvariantError
from .linalg import Matrix
from .polynomials import HomogPoly, PolyMatrix
from .quivers import Arrow, DimensionVector, DoubleQuiver, Quiver, double
from .representations import FramedRep

VERSION = 1


class DocumentError(ValueError):
    """Input document problem, carrying the JSON pointer of the field."""

    def __init__(self, pointer: str, message: str) -> None:
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _schema() -> dict:
    text = resources.files("quiverbundles").joinpath("schema/instance-v1.json").read_text()
    return json.loads(text)


def _inline_refs(node: object, defs: dict) -> object:
    """node with every {"$ref": "#/$defs/name"} replaced by that definition,
    itself inlined (no definition refers to itself): `_compile` then
    resolves no reference."""
    if isinstance(node, dict):
        if list(node) == ["$ref"]:
            return _inline_refs(defs[node["$ref"].removeprefix("#/$defs/")], defs)
        return {k: _inline_refs(v, defs) for k, v in node.items()}
    if isinstance(node, list):
        return [_inline_refs(v, defs) for v in node]
    return node


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    # Draft 2020-12: an integral float such as 1.0 is an integer, a bool is not
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
# the keywords `_compile` implements, and the annotations it passes over
_KEYWORDS = {
    "type", "const", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "minLength", "minimum", "pattern", "oneOf", "$schema", "title", "$defs",
}


def _known(schema: object) -> dict:
    """schema, refused unless `_compile` knows each keyword and type in it
    and the branches of each oneOf have pairwise different types."""
    branches = schema.get("oneOf", []) if isinstance(schema, dict) else []
    types = [b.get("type") for b in branches if isinstance(b, dict)]
    if (
        not isinstance(schema, dict)
        or set(schema) - _KEYWORDS
        or schema.get("type", "null") not in list(_TYPES)  # a list of types too
        or None in types
        or len(set(types)) < len(branches)
    ):
        raise InvariantError(f"a schema the validator does not know: {schema!r}")
    subs = [*schema.get("properties", {}).values(), *branches]
    subs += [v for k, v in schema.items() if k == "items" or k == "additionalProperties" and v]
    for sub in subs:
        _known(sub)
    return schema


@functools.cache
def _validation_schema() -> dict:
    """The shipped schema with its $refs inlined, built when the first document comes."""
    schema = _schema()
    return _known(_inline_refs(schema, schema["$defs"]))


def _equal(a: object, b: object) -> bool:
    """JSON equality: True and 1 differ, also inside arrays and objects."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


Violations = Sequence[tuple[tuple[str, ...], str]]
Check = Callable[[object], Violations]


def _prefixed(key: str, found: Violations) -> Violations:
    return [((key, *path), message) for path, message in found]


def _keyword(schema: dict, key: str, value: object) -> Check | None:
    """The check of one keyword of schema, None for an annotation: it
    gives the violations of x as (path below x, message) pairs, in the
    words of jsonschema 4.26.  A child's path is prefixed only when the
    child has violations, so a valid document builds no path and no
    message."""
    if key == "type":
        holds = _TYPES[value]
        return lambda x: () if holds(x) else [((), f"{x!r} is not of type {value!r}")]
    if key == "const":
        return lambda x: () if _equal(x, value) else [((), f"{value!r} was expected")]
    if key == "enum":
        return lambda x: (
            () if any(_equal(x, v) for v in value) else [((), f"{x!r} is not one of {value!r}")]
        )
    if key == "pattern":
        search = re.compile(value).search
        return lambda x: (
            [((), f"{x!r} does not match {value!r}")]
            if isinstance(x, str) and not search(x) else ()
        )
    if key in ("minLength", "minItems"):
        kind = str if key == "minLength" else list
        says = "should be non-empty" if value == 1 else "is too short"
        return lambda x: [((), f"{x!r} {says}")] if isinstance(x, kind) and len(x) < value else ()
    if key == "minimum":
        return lambda x: (
            [((), f"{x!r} is less than the minimum of {value!r}")]
            if isinstance(x, Number) and not isinstance(x, bool) and x < value else ()
        )
    if key == "oneOf":
        # `_known` checked that every branch has a type and that the types
        # are pairwise different, so only the branch of x's type can hold
        # and "is valid under each of" cannot arise
        branches = [(_TYPES[b["type"]], _compile(b)) for b in value]

        def one_of(x: object) -> Violations:
            for holds, branch in branches:
                if holds(x):
                    if not branch(x):
                        return ()
                    break
            return [((), f"{x!r} is not valid under any of the given schemas")]

        return one_of
    if key == "items":
        item_check = _compile(value)

        def items(x: object) -> Violations:
            if not isinstance(x, list):
                return ()
            out: list = []
            for i, item in enumerate(x):
                found = item_check(item)
                if found:
                    out += _prefixed(str(i), found)
            return out

        return items
    if key == "required":
        return lambda x: (
            [((), f"{name!r} is a required property") for name in value if name not in x]
            if isinstance(x, dict) else ()
        )
    if key == "properties":
        subs = [(name, _compile(sub)) for name, sub in value.items()]

        def properties(x: object) -> Violations:
            if not isinstance(x, dict):
                return ()
            out: list = []
            for name, sub in subs:
                if name in x:
                    found = sub(x[name])
                    if found:
                        out += _prefixed(name, found)
            return out

        return properties
    if key == "additionalProperties":
        known = frozenset(schema.get("properties", {}))
        if isinstance(value, dict):
            extra_check = _compile(value)

            def extras(x: object) -> Violations:
                if not isinstance(x, dict):
                    return ()
                out: list = []
                for k, v in x.items():
                    if k not in known:
                        found = extra_check(v)
                        if found:
                            out += _prefixed(str(k), found)
                return out

            return extras
        if value:
            return None

        def no_extras(x: object) -> Violations:
            names = [k for k in x if k not in known] if isinstance(x, dict) else ()
            if not names:
                return ()
            listed = ", ".join(repr(k) for k in sorted(names, key=str))
            verb = "was" if len(names) == 1 else "were"
            return [((), f"Additional properties are not allowed ({listed} {verb} unexpected)")]

        return no_extras
    return None  # "$schema", "title", "$defs": annotations


def _compile(schema: dict) -> Check:
    """The check of a schema `_known` accepted, with Draft 2020-12
    semantics: one closure per keyword, run in schema key order."""
    checks = [
        check for key, value in schema.items()
        if (check := _keyword(schema, key, value)) is not None
    ]
    if len(checks) == 1:
        return checks[0]

    def node(x: object) -> Violations:
        out: list = []
        for check in checks:
            found = check(x)
            if found:
                out += found
        return out

    return node


@functools.cache
def _validator() -> Check:
    """The shipped schema compiled once, when the first document comes."""
    return _compile(_validation_schema())


def schema_errors(doc: object) -> list[tuple[str, str]]:
    """(pointer, message) schema violations, sorted by document position."""
    found = sorted(_validator()(doc), key=lambda e: e[0])
    return [("/" + "/".join(path), message) for path, message in found]


@dataclass(frozen=True)
class InstanceDocument:
    """Parsed document: exactly one of rep or bundle is set."""

    kind: str
    rep: FramedRep | None = None
    bundle: TwistedQuiverBundle | None = None
    level: Mapping[str, Fraction] = field(default_factory=dict)
    meta: Mapping[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# encoding


def _quiver_block(dq: DoubleQuiver) -> dict:
    vertices = []
    for v in dq.vertices:
        entry: dict = {"name": v}
        if v == dq.framing:
            entry["framing"] = True
        vertices.append(entry)
    arrows = [{"name": a.name, "tail": a.tail, "head": a.head} for a in dq.base.arrows]
    return {"vertices": vertices, "arrows": arrows}


def encode_scalar_matrix(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def encode_form_matrix(m: PolyMatrix) -> list[list[object]]:
    return [
        [None if p.is_zero() else [str(c) for c in p.coeffs] for p in row] for row in m
    ]


def rep_to_doc(
    x: FramedRep,
    level: Mapping[str, object] | None = None,
    meta: Mapping[str, object] | None = None,
) -> dict:
    doc: dict = {
        "version": VERSION,
        "kind": "rep",
        "quiver": _quiver_block(x.double),
        "dims": {v: x.dims[v] for v in x.double.vertices},
        "data": {a.name: encode_scalar_matrix(x.x[a.name]) for a in x.double.arrows},
    }
    if level:
        doc["lambda"] = {v: str(Fraction(c)) for v, c in level.items()}
    if meta:
        doc["meta"] = dict(meta)
    return doc


def bundle_to_doc(e: TwistedQuiverBundle, meta: Mapping[str, object] | None = None) -> dict:
    doc: dict = {
        "version": VERSION,
        "kind": "bundle",
        "quiver": _quiver_block(e.double),
        "bundles": {v: list(e.bundles[v].multidegree) for v in e.double.vertices},
        "twist": {a.name: e.twist.degree(a.name) for a in e.double.arrows},
        "data": {a.name: encode_form_matrix(e.phi[a.name]) for a in e.double.arrows},
    }
    if meta:
        doc["meta"] = dict(meta)
    return doc


# ---------------------------------------------------------------------------
# decoding


def _parse_quiver(block: dict) -> DoubleQuiver:
    names = [v["name"] for v in block["vertices"]]
    framing = [v["name"] for v in block["vertices"] if v.get("framing")]
    if len(framing) > 1:
        raise DocumentError("/quiver/vertices", "more than one framing vertex")
    declared = set(names)
    for i, a in enumerate(block["arrows"]):
        for end in ("tail", "head"):
            if a[end] not in declared:
                raise DocumentError(
                    f"/quiver/arrows/{i}/{end}", f"unknown vertex {a[end]!r}"
                )
    try:
        q = Quiver(
            tuple(names),
            tuple(Arrow(a["name"], a["tail"], a["head"]) for a in block["arrows"]),
            framing=framing[0] if framing else None,
        )
    except ValueError as err:
        raise DocumentError("/quiver", str(err)) from None
    return double(q)


def _require_keys(block: Mapping[str, object], want: set[str], pointer: str) -> None:
    missing = sorted(want - set(block))
    extra = sorted(set(block) - want)
    if missing:
        raise DocumentError(pointer, f"missing keys {missing}")
    if extra:
        raise DocumentError(pointer, f"unknown keys {extra}")


def _rational(text: str, *where: object) -> Fraction:
    """A "p/q" string the schema pattern admitted, as a Fraction.  A
    numerator or denominator longer than Python's int-string limit is
    refused with the pointer made of where (the field's pointer and the
    indices or key below it)."""
    p, slash, q = text.partition("/")
    try:
        return Fraction(int(p), int(q)) if slash else Fraction(int(p))
    except ValueError as err:
        raise DocumentError("/".join(map(str, where)), str(err)) from None


def _parse_scalar_matrix(raw: list, rows: int, cols: int, pointer: str) -> Matrix:
    if len(raw) != rows or any(len(r) != cols for r in raw):
        raise DocumentError(pointer, f"expected a {rows}x{cols} matrix")
    for i, row in enumerate(raw):
        for j, entry in enumerate(row):
            if not isinstance(entry, str):
                raise DocumentError(f"{pointer}/{i}/{j}", "expected a \"p/q\" scalar")
    return tuple(
        tuple([_rational(x, pointer, i, j) for j, x in enumerate(row)])
        for i, row in enumerate(raw)
    )


def _parse_form_matrix(raw: list, rows: int, cols: int, pointer: str) -> PolyMatrix:
    if len(raw) != rows or any(len(r) != cols for r in raw):
        raise DocumentError(pointer, f"expected a {rows}x{cols} matrix")
    out = []
    for i, row in enumerate(raw):
        entries = []
        for j, entry in enumerate(row):
            if entry is None:
                entries.append(HomogPoly.zero())
            elif isinstance(entry, list):
                cs = tuple([_rational(c, pointer, i, j, k) for k, c in enumerate(entry)])
                entries.append(HomogPoly(len(cs) - 1, cs) if any(cs) else HomogPoly.zero())
            else:
                raise DocumentError(
                    f"{pointer}/{i}/{j}", "expected null or a coefficient list"
                )
        out.append(tuple(entries))
    return tuple(out)


def _parse_rep(doc: dict, dq: DoubleQuiver) -> tuple[FramedRep, dict[str, Fraction]]:
    if "dims" not in doc:
        raise DocumentError("/dims", "representation documents need dims")
    for key in ("bundles", "twist"):
        if key in doc:
            raise DocumentError(f"/{key}", "not a representation field")
    _require_keys(doc["dims"], set(dq.vertices), "/dims")
    dims = DimensionVector.of(dq, doc["dims"])
    _require_keys(doc["data"], {a.name for a in dq.arrows}, "/data")
    x = {
        a.name: _parse_scalar_matrix(
            doc["data"][a.name], dims[a.head], dims[a.tail], f"/data/{a.name}"
        )
        for a in dq.arrows
    }
    level: dict[str, Fraction] = {}
    ordinary = set(dq.ordinary_vertices)
    for v, c in doc.get("lambda", {}).items():
        if v not in ordinary:
            raise DocumentError(f"/lambda/{v}", "not an ordinary vertex")
        level[v] = _rational(c, "/lambda", v)
    return FramedRep(dq, dims, x), level


def _parse_bundle(doc: dict, dq: DoubleQuiver) -> TwistedQuiverBundle:
    for key in ("bundles", "twist"):
        if key not in doc:
            raise DocumentError(f"/{key}", "bundle documents need this field")
    if "dims" in doc or "lambda" in doc:
        raise DocumentError("/dims" if "dims" in doc else "/lambda", "not a bundle field")
    _require_keys(doc["bundles"], set(dq.vertices), "/bundles")
    # int(): the schema takes an integral float such as 1.0 for an integer
    bundles = {v: SplitBundle(tuple(map(int, doc["bundles"][v]))) for v in dq.vertices}
    _require_keys(doc["twist"], {a.name for a in dq.arrows}, "/twist")
    # canonical arrow order, so equal twists compare equal after a roundtrip
    twist = TwistData(tuple((a.name, int(doc["twist"][a.name])) for a in dq.arrows))
    _require_keys(doc["data"], {a.name for a in dq.arrows}, "/data")
    phi = {
        a.name: _parse_form_matrix(
            doc["data"][a.name],
            bundles[a.head].rank,
            bundles[a.tail].rank,
            f"/data/{a.name}",
        )
        for a in dq.arrows
    }
    try:
        return TwistedQuiverBundle(dq, bundles, twist, phi)
    except (ValueError, KeyError) as err:
        raise DocumentError("/data", str(err)) from None


def parse_document(doc: object) -> InstanceDocument:
    """Validate against the schema, resolve references, build the instance."""
    errors = schema_errors(doc)
    if errors:
        raise DocumentError(*errors[0])
    if not isinstance(doc, dict):
        raise InvariantError("schema-valid document is not an object")
    dq = _parse_quiver(doc["quiver"])
    meta = dict(doc.get("meta", {}))
    if doc["kind"] == "rep":
        rep, level = _parse_rep(doc, dq)
        return InstanceDocument("rep", rep=rep, level=level, meta=meta)
    bundle = _parse_bundle(doc, dq)
    return InstanceDocument("bundle", bundle=bundle, meta=meta)


def instance_to_doc(item: InstanceDocument) -> dict:
    if item.kind == "rep":
        if item.rep is None:
            raise InvariantError("rep document without a representation")
        return rep_to_doc(item.rep, level=item.level, meta=item.meta)
    if item.bundle is None:
        raise InvariantError("bundle document without a bundle")
    return bundle_to_doc(item.bundle, meta=item.meta)


def dumps(doc: dict) -> str:
    """Canonical bytes: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
