import copy
import json
import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from quiverbundles import serialization
from quiverbundles.bundles import validate
from quiverbundles.generators import bundle_spec, gen_bundle, gen_rep, rep_spec
from quiverbundles.polynomials import poly_mat_is_zero
from quiverbundles.quivers import InvariantError
from quiverbundles.serialization import (
    DocumentError,
    InstanceDocument,
    _inline_refs,
    _known,
    _rational,
    _schema,
    _validation_schema,
    bundle_to_doc,
    dumps,
    instance_to_doc,
    parse_document,
    rep_to_doc,
    schema_errors,
)


def _rep_doc():
    spec = rep_spec(9, seed=0)
    x = gen_rep(spec)
    level = {i: spec.level for i in spec.double.ordinary_vertices}
    return x, level, rep_to_doc(x, level=level, meta={"seed": spec.seed, "preset": spec.preset})


def _bundle_doc():
    e = gen_bundle(bundle_spec(6, seed=3))
    return e, bundle_to_doc(e, meta={"seed": 3, "preset": "chain"})


def test_rep_roundtrip_exact():
    x, level, doc = _rep_doc()
    assert schema_errors(doc) == []
    parsed = parse_document(json.loads(dumps(doc)))
    assert parsed.kind == "rep"
    assert parsed.rep == x
    assert parsed.level == level
    assert parsed.meta["preset"] == "adhm"
    assert dumps(instance_to_doc(parsed)) == dumps(doc)


def test_bundle_roundtrip_exact():
    e, doc = _bundle_doc()
    assert schema_errors(doc) == []
    parsed = parse_document(json.loads(dumps(doc)))
    assert parsed.kind == "bundle"
    assert parsed.bundle == e
    assert validate(parsed.bundle).valid
    assert dumps(instance_to_doc(parsed)) == dumps(doc)
    assert not poly_mat_is_zero(parsed.bundle.phi["e-"])


def test_zero_entries_encode_as_null():
    e, doc = _bundle_doc()
    assert all(entry is None for row in doc["data"]["f-"] for entry in row)


def test_schema_error_pointers():
    _, doc = _bundle_doc()
    bad = json.loads(dumps(doc))
    bad["twist"]["loop+"] = "x"
    (pointer, message) = schema_errors(bad)[0]
    assert pointer == "/twist/loop+"
    assert "integer" in message
    bad = json.loads(dumps(doc))
    bad["version"] = 2
    assert schema_errors(bad)[0][0] == "/version"
    x, _, rdoc = _rep_doc()
    bad = json.loads(dumps(rdoc))
    bad["data"]["loop+"][0][0] = "1/2/3"
    assert schema_errors(bad)[0][0].startswith("/data/loop+/0/0")


def test_parse_rejects_bad_references():
    _, doc = _bundle_doc()
    bad = json.loads(dumps(doc))
    bad["quiver"]["arrows"][0]["head"] = "9"
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/quiver/arrows/0/head"

    bad = json.loads(dumps(doc))
    bad["quiver"]["vertices"][1]["framing"] = True
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/quiver/vertices"

    bad = json.loads(dumps(doc))
    del bad["twist"]["e-"]
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/twist"


def test_parse_rejects_kind_mismatches():
    x, _, rdoc = _rep_doc()
    bad = json.loads(dumps(rdoc))
    del bad["dims"]
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/dims"

    _, doc = _bundle_doc()
    bad = json.loads(dumps(doc))
    bad["dims"] = {"0": 1}
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/dims"

    bad = json.loads(dumps(rdoc))
    bad["lambda"] = {"0": "1"}
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/lambda/0"


def test_parse_rejects_shape_and_entry_problems():
    _, doc = _bundle_doc()
    bad = json.loads(dumps(doc))
    bad["data"]["e-"][0] = []
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/data/e-"

    x, _, rdoc = _rep_doc()
    bad = json.loads(dumps(rdoc))
    bad["data"]["frame+"][0][0] = ["1", "0"]
    with pytest.raises(DocumentError) as err:
        parse_document(bad)
    assert err.value.pointer == "/data/frame+/0/0"


def test_level_survives_and_defaults_empty():
    x, level, doc = _rep_doc()
    assert level and parse_document(doc).level == level
    bare = rep_to_doc(x)
    assert "lambda" not in bare
    assert parse_document(bare).level == {}


def test_instance_document_wrapper():
    e, doc = _bundle_doc()
    item = InstanceDocument("bundle", bundle=e, meta={"seed": 3, "preset": "chain"})
    assert instance_to_doc(item) == doc


FIXTURES = Path(__file__).parent / "fixtures"
# values that break an entry, a coefficient or a field: type swaps and
# strings just outside the "p/q" pattern
BAD_VALUES = (
    "1/0", "01/", "1/-2", "1/2/3", "", "-", "x", 7, -1, 2.5, True, None,
    [], [None], ["1", 2], {}, {"x": "1"},
)


# a plain validator over the shipped schema file, its $refs resolved by
# jsonschema itself
ORACLE = jsonschema.Draft202012Validator(
    json.loads(resources.files("quiverbundles").joinpath("schema/instance-v1.json").read_text())
)


def _oracle_errors(doc: object) -> list[tuple[str, str]]:
    found = sorted(ORACLE.iter_errors(doc), key=lambda e: [str(p) for p in e.absolute_path])
    return [("/" + "/".join(str(p) for p in e.absolute_path), e.message) for e in found]


def _paths(node: object, path: tuple = ()) -> list[tuple]:
    out = [path]
    if isinstance(node, dict):
        for k, v in node.items():
            out.extend(_paths(v, path + (k,)))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.extend(_paths(v, path + (i,)))
    return out


def _corrupt(doc: dict, rng: random.Random, values: tuple = BAD_VALUES) -> object:
    """doc with one to three seeded corruptions: a value replaced, a key
    dropped or added, a list emptied, a bad moment level, or the whole root
    swapped."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.03:
            return rng.choice(([doc], "doc", 1, None))
        path = rng.choice(_paths(doc)[1:])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node, move = parent[path[-1]], rng.randrange(5)
        if move == 4:
            doc["lambda"] = {"1": copy.deepcopy(rng.choice(values))}
        elif move == 0 or (move == 2 and not isinstance(node, dict)):
            parent[path[-1]] = copy.deepcopy(rng.choice(values))
        elif move == 1 and isinstance(parent, dict):
            del parent[path[-1]]
        elif move == 2:
            key = rng.choice(("extra", "name", "framing", "seed"))
            node[key] = copy.deepcopy(rng.choice(values))
        elif isinstance(node, (list, dict)):
            node.clear()
        else:
            parent[path[-1]] = rng.choice(("1/0", "01/", "1/-2"))
    return doc


def test_schema_errors_match_a_plain_validator():
    fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    for doc in fixtures:
        assert schema_errors(doc) == _oracle_errors(doc)
    rng = random.Random(15)
    invalid = 0
    for _ in range(1000):
        doc = _corrupt(rng.choice(fixtures), rng)
        want = _oracle_errors(doc)
        assert schema_errors(doc) == want, doc
        invalid += bool(want)
    assert invalid > 850


# integral floats (integers under Draft 2020-12), False against the const 1,
# integers past 64 bits, a non-ASCII name, a coefficient that is a number,
# and three unknown keys at once ("were unexpected")
WIDER_VALUES = BAD_VALUES + (
    1.0, -0.0, 100.0, 1e300, False, 10**30, "é", ["1", 1.0], {"x": "1", "y": 2, "z": None},
)


def test_schema_errors_match_a_plain_validator_on_wider_values():
    fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(16)
    messages = []
    for _ in range(2000):
        doc = _corrupt(rng.choice(fixtures), rng, WIDER_VALUES)
        want = _oracle_errors(doc)
        assert schema_errors(doc) == want, doc
        messages += [message for _, message in want]
    for part in ("were unexpected", "1 was expected", "is not valid under any", "'é'", "1e+300"):
        assert any(part in message for message in messages), part
    # the seeded corruptions seldom reach dims, the one field with a minimum
    rep = json.loads((FIXTURES / "rep_adhm_stable.json").read_text())
    for value in (0, -0.0, -1, -1.0, -1.5, 0.5, True, 10**30):
        rep["dims"]["0"] = value
        assert schema_errors(rep) == _oracle_errors(rep), value


def test_the_walk_refuses_a_schema_it_does_not_know():
    shipped = _schema()
    _known(_inline_refs(shipped, shipped["$defs"]))
    for schema in (
        shipped,  # its $refs not inlined
        {"type": "object", "properties": {"a": {"type": "string", "maxLength": 3}}},
        {"type": "array", "items": {"type": "number"}},
        {"additionalProperties": {"uniqueItems": True}},
        {"oneOf": [{"type": "string"}, {"type": "string", "minLength": 2}]},
        {"oneOf": [{"type": "null"}, {"minItems": 1}]},
        {"items": True},
    ):
        with pytest.raises(InvariantError):
            _known(schema)


def test_entry_branches_have_pairwise_different_types():
    # at most one branch of the entry oneOf can hold, which is why the walk
    # stops at the first branch that does
    schema = _schema()
    branches = _inline_refs(schema["$defs"]["entry"], schema["$defs"])["oneOf"]
    types = [branch["type"] for branch in branches]
    assert sorted(types) == ["array", "null", "string"]


def _rational_text(rng: random.Random) -> str:
    """A seeded string the shipped rational pattern admits: leading zeros,
    "-0", a zero numerator over a denominator, numerators past 64 bits and
    the trailing newline that "$" lets through."""
    numerator = rng.choice((
        str(rng.randint(0, 9)),
        "0" * rng.randint(1, 3) + str(rng.randint(0, 999)),
        str(rng.randint(0, 10**rng.randint(19, 60))),
        "0",
    ))
    text = rng.choice(("", "-")) + numerator
    if rng.random() < 0.6:
        text += "/" + str(rng.randint(1, 10**rng.randint(1, 40)))
    return text + ("\n" if rng.random() < 0.1 else "")


def test_rational_reads_what_fraction_reads():
    rational = _validation_schema()["properties"]["lambda"]["additionalProperties"]
    pattern = re.compile(rational["pattern"])
    rng = random.Random(25)
    texts = [_rational_text(rng) for _ in range(2000)]
    texts += ["-0", "0/7", "-0/7", "007", "-007/3", "3\n", "1/2\n", str(2**64), str(-(2**64) - 1)]
    for text in texts:
        assert pattern.search(text), repr(text)
        value = _rational(text)
        assert type(value) is Fraction and value == Fraction(text), repr(text)
    assert any(text.endswith("\n") and "/" in text for text in texts)
    assert any(abs(Fraction(text).numerator) >= 2**64 for text in texts)


def test_generated_documents_and_fixtures_are_valid_under_both():
    docs = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    for seed in range(20):
        docs.append(json.loads(dumps(bundle_to_doc(gen_bundle(bundle_spec(seed, seed=seed))))))
        spec = rep_spec(seed, seed=seed)
        level = {v: spec.level for v in spec.double.ordinary_vertices}
        docs.append(json.loads(dumps(rep_to_doc(gen_rep(spec), level=level))))
    assert sum("lambda" in doc for doc in docs) > 10
    for doc in docs:
        assert schema_errors(doc) == _oracle_errors(doc) == []


def test_the_schema_is_compiled_once(monkeypatch):
    calls = []
    compile_ = serialization._compile

    def counted(schema):
        calls.append(schema)
        return compile_(schema)

    monkeypatch.setattr(serialization, "_compile", counted)
    serialization._validator.cache_clear()
    _, doc = _bundle_doc()
    _, _, rdoc = _rep_doc()
    parse_document(doc)
    compiled = len(calls)
    for k in range(49):
        parse_document(rdoc if k % 2 else doc)
    assert [schema for schema in calls if schema is _validation_schema()] == [_validation_schema()]
    assert len(calls) == compiled > 1  # every subschema, during the first call only
    serialization._validator.cache_clear()
