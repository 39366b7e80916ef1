"""Private names that cross module boundaries inside `quiverbundles`.

A leading underscore marks a name as its module's own.  Every use of one
from another module, `from .m import _name` or `m._name` on an imported
module m, must be listed in ALLOWED, so that a protocol shared by several
modules shows up here rather than as a scatter of private imports.  The
generation analysis of `bundles` (residual check, generation matrices,
generic ranks, sample points, generated subsheaf) is shared through one
record, `_generation`, the only routine that builds it.

Rationals become integers over a common denominator in one place,
`linalg.cleared`.  Every other function in `src/` that reads
`.denominator` splits a single rational into numerator and denominator,
and is listed in DENOMINATOR_READERS, so a second clearing step shows up
here.  Only `linalg` takes `math.lcm`, so a second clearing convention,
data over per-part denominators brought to a common one, shows up here
too.

Every top-level definition in `src/` is reached, by the names that
definitions read, from an entry point: an `__all__` name at its home module
in the package's `_HOMES` table, a definition in `cli`, a name that a demo
imports, or a function that the bench tracer wraps.  What
only the tests need lives beside them in the helper modules HELPERS, whose
imports are checked as the package's are.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import quiverbundles

PACKAGE = Path(quiverbundles.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
TRACER = ROOT / "bench" / "tracer.py"
HELPERS = sorted(Path(__file__).resolve().parent.glob("_*.py"))

# (importing module, defining module, private name)
ALLOWED = {
    ("bundles", "polynomials", "_int_full_rank_minor_gcd"),
    ("bundles", "representations", "_framing_closure"),
    ("bundles", "representations", "_residual"),
    ("generators", "bundles", "_generation"),
    ("stability", "bundles", "_generation"),
}

# (module, function) pairs that read `.denominator`; a method is Class.method
DENOMINATOR_READERS = {
    ("linalg", "cleared"),
    ("polynomials", "HomogPoly.evaluate"),
    ("polynomials", "factor_binary_form"),
    ("stability", "mu_delta"),
    ("stability", "delta_threshold"),
    ("stability", "check_delta_stability"),
    ("stability", "hn_quotient_bound_check"),
}


def _relative(node: ast.ImportFrom) -> str | None:
    """The package-relative module an import names ("" for the package)."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "quiverbundles":
        return node.module.partition(".")[2]
    return None


def private_uses(path: Path) -> set[tuple[str, str, str]]:
    tree = ast.parse(path.read_text())
    uses = set()
    modules: dict[str, str] = {}  # local alias -> imported sibling module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = _relative(node)
        if source is None:
            continue
        for alias in node.names:
            if source == "":
                modules[alias.asname or alias.name] = alias.name
            elif alias.name.startswith("_"):
                uses.add((path.stem, source, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            uses.add((path.stem, modules[node.value.id], node.attr))
    return uses


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; a `__future__` import
    binds no name, and a redundant alias (`from .m import X as X`) marks a
    re-export, the PEP 484 convention."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if alias.asname != alias.name
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_import_no_unused_names():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + HELPERS
    assert {"_builders", "_oracles"} <= {p.stem for p in HELPERS}
    found = {p.stem: unused_imports(p) for p in modules}
    assert {m: names for m, names in found.items() if names} == {}
    # the one re-export: the error types live in `errors`, and the import
    # path `quiverbundles.quivers` still serves them
    reexported = {
        (p.stem, alias.name)
        for p in modules
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname == alias.name
    }
    assert reexported == {("quivers", "HypothesisError"), ("quivers", "InvariantError")}


def test_unused_import_detection(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from math import gcd, lcm as l\n"
        "from os import sep as sep\n"
        "def f(x: Fraction) -> int:\n"
        "    return l(x.denominator, 2)\n"
    )
    assert unused_imports(probe) == ["gcd", "os"]


def test_private_names_cross_modules_only_by_the_allowlist():
    found = set().union(*(private_uses(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert found - ALLOWED == set()
    assert ALLOWED - found == set(), "allowlist entries no module uses any more"


def test_stability_and_generators_take_only_the_generation_record():
    for module in ("stability", "generators"):
        uses = private_uses(PACKAGE / f"{module}.py")
        assert {name for _, source, name in uses if source == "bundles"} == {"_generation"}


def test_private_use_detection_on_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import linalg\n"
        "from .bundles import _summary, base_locus\n"
        "from quiverbundles.polynomials import _echelon\n"
        "x = linalg._rref\n"
    )
    assert private_uses(probe) == {
        ("probe", "bundles", "_summary"),
        ("probe", "polynomials", "_echelon"),
        ("probe", "linalg", "_rref"),
    }


def _scopes(path: Path) -> list[tuple[str, ast.AST]]:
    """The top-level scopes of a module by name: a method as Class.method,
    a nested function or lambda under the top-level function or method
    that holds it, and code outside any function under its class or as
    <module>."""
    scopes: list[tuple[str, ast.AST]] = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                scopes.append((f"{node.name}.{item.name}" if method else node.name, item))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.name, node))
        else:
            scopes.append(("<module>", node))
    return scopes


def denominator_readers(path: Path) -> set[tuple[str, str]]:
    """The (module, scope) pairs of a module that read an attribute
    `denominator` (scopes as in `_scopes`)."""
    return {
        (path.stem, name)
        for name, scope in _scopes(path)
        for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and node.attr == "denominator"
    }


def callers(path: Path, callee: str) -> set[tuple[str, str]]:
    """The (module, scope) pairs of a module that call `callee` by name or
    as an attribute (scopes as in `_scopes`)."""
    return {
        (path.stem, name)
        for name, scope in _scopes(path)
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def test_the_generation_record_is_built_only_in_generation():
    # one builder, so the slot of `_generation` sees every record and no
    # other routine keeps or rebuilds one; `generation_columns` walks for
    # the form pipeline, which no verdict takes
    files = sorted(PACKAGE.glob("*.py"))
    assert set().union(*(callers(p, "_Generation") for p in files)) == {
        ("bundles", "_generation")
    }
    assert set().union(*(callers(p, "_walk") for p in files)) == {
        ("bundles", "_generation"),
        ("bundles", "generation_columns"),
    }


def test_only_cleared_takes_a_common_denominator():
    found = set().union(*(denominator_readers(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert found - DENOMINATOR_READERS == set()
    assert DENOMINATOR_READERS - found == set(), "readers that no longer read `.denominator`"


def lcm_uses(path: Path) -> set[tuple[str, str]]:
    """The (module, scope) pairs of a module that import `math.lcm` or
    read it, under any alias or as an attribute of an imported `math`
    (scopes as in `_scopes`)."""
    names, modules = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "lcm"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "math"}
    found = set()
    for name, scope in _scopes(path):
        for node in ast.walk(scope):
            imported = isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name == "lcm" for alias in node.names
            )
            read = (isinstance(node, ast.Name) and node.id in names) or (
                isinstance(node, ast.Attribute)
                and node.attr == "lcm"
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            )
            if imported or read:
                found.add((path.stem, name))
    return found


def test_only_linalg_takes_an_lcm():
    # one clearing convention: every common denominator is the one that
    # `linalg.cleared` takes
    found = set().union(*(lcm_uses(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert found == {("linalg", "<module>"), ("linalg", "cleared")}


def test_lcm_use_detection(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math as m\n"
        "from math import gcd, lcm as l\n"
        "def aliased(xs):\n"
        "    return l(*xs)\n"
        "def attribute(xs):\n"
        "    return m.lcm(*xs)\n"
        "def local(xs):\n"
        "    from math import lcm\n"
        "    return lcm(*xs)\n"
        "def untouched(xs):\n"
        "    return gcd(*xs)\n"
    )
    assert lcm_uses(probe) == {
        ("probe", "<module>"),
        ("probe", "aliased"),
        ("probe", "attribute"),
        ("probe", "local"),
    }


def test_denominator_reader_detection(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from fractions import Fraction\n"
        "HALF = Fraction(1, 2).denominator\n"
        "class Form:\n"
        "    scale = HALF\n"
        "    def value(self, x):\n"
        "        return x.numerator\n"
        "    def cleared(self, xs):\n"
        "        return [x * max(y.denominator for y in xs) for x in xs]\n"
        "def split(x):\n"
        "    def inner(y):\n"
        "        return y.denominator\n"
        "    return inner(x)\n"
        "def lcm_of(xs):\n"
        "    return sorted(xs, key=lambda x: x.denominator)\n"
        "def untouched(x):\n"
        "    return x.numerator\n"
    )
    assert denominator_readers(probe) == {
        ("probe", "<module>"),
        ("probe", "Form.cleared"),
        ("probe", "split"),
        ("probe", "lcm_of"),
    }


def _bound(statement: ast.stmt) -> list[str]:
    """The names a top-level statement binds: a def or class, or the
    targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _sibling_imports(nodes) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """What the relative imports among nodes bind: local name -> (sibling
    module, name), and local alias -> sibling module for `from . import m`."""
    imported: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (source := _relative(node)) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                else:
                    imported[local] = (source, alias.name)
    return imported, modules


def name_graph(paths: list[Path]) -> tuple[set[tuple[str, str]], dict[tuple[str, str], set]]:
    """The top-level definitions of a package's modules as (module, name),
    and the (module, name) pairs that each one reads: its own module's
    names, names imported from a sibling, and attributes of an imported
    sibling module.  An import inside a definition (a handler that loads
    its modules when it runs) counts for that definition.  An imported
    name reads its source; code that binds no name reads under
    (module, "<module>")."""
    definitions: set[tuple[str, str]] = set()
    reads: dict[tuple[str, str], set] = {}
    for path in paths:
        module, tree = path.stem, ast.parse(path.read_text())
        own = {name for statement in tree.body for name in _bound(statement)}
        top_imported, top_modules = _sibling_imports(tree.body)
        for local, source in top_imported.items():
            reads[(module, local)] = {source}
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            inner_imported, inner_modules = _sibling_imports(ast.walk(statement))
            imported = {**top_imported, **inner_imported}
            modules = {**top_modules, **inner_modules}
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    if node.id in own:
                        names.add((module, node.id))
                    elif node.id in imported:
                        names.add(imported[node.id])
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    names.add((modules[node.value.id], node.attr))
            bound = _bound(statement)
            definitions.update((module, name) for name in bound)
            for name in bound or ["<module>"]:
                reads.setdefault((module, name), set()).update(names)
    return definitions, reads


def unreached(paths: list[Path], roots: set[tuple[str, str]]) -> list[tuple[str, str]]:
    """The top-level definitions that no chain of reads reaches from the
    roots, from code that runs on import, or from a dunder name."""
    definitions, reads = name_graph(paths)
    todo = [*roots, *(key for key in reads if key[1] == "<module>" or key[1].startswith("__"))]
    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(reads.get(key, ()))
    return sorted(definitions - seen)


def table_roots(init: Path) -> set[tuple[str, str]]:
    """The public names of a package's `_HOMES` table, each at its home
    module, as (module, name)."""
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and _bound(node) == ["_HOMES"]:
            table = ast.literal_eval(node.value)
            return {(module, name) for module, names in table.items() for name in names}
    raise AssertionError(f"{init} has no _HOMES table")


def entry_points() -> set[tuple[str, str]]:
    """`__all__` at the home modules of its names, every definition in
    `cli`, the names that the demos import and the (module, function)
    pairs of the bench tracer's LAYERS, the tracer loaded read-only."""
    roots = table_roots(PACKAGE / "__init__.py")
    assert {name for _, name in roots} == set(quiverbundles.__all__)
    home = {name: module for module, name in roots}
    roots |= name_graph([PACKAGE / "cli.py"])[0]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (source := _relative(node)) is not None:
                roots |= {(source or home.get(alias.name, "__init__"), alias.name)
                          for alias in node.names}
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return roots | {(module, func) for _, module, func in tracer.LAYERS}


def test_src_holds_only_what_an_entry_point_reaches():
    # poly_det, poly_gcd (with _univ_gcd and _univ_divmod) and
    # generation_columns are reached only as tracer layers: once the tracer
    # drops them, this test names them
    assert unreached(sorted(PACKAGE.glob("*.py")), entry_points()) == []


def test_unreached_definition_detection(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "_HOMES = {'b': ('public',)}\n"
        "__all__ = [name for names in _HOMES.values() for name in names]\n"
    )
    (tmp_path / "a.py").write_text(
        "from . import b\n"
        "from .b import shared, _helper as helper\n"
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "def api():\n"
        "    from .b import lazy\n"
        "    return shared() + b.by_attribute() + helper() + lazy()\n"
        "def dead():\n"
        "    from .b import only_dead\n"
        "    return LIMIT + only_dead()\n"
        "class Orphan:\n"
        "    def method(self):\n"
        "        return api()\n"
    )
    (tmp_path / "b.py").write_text(
        "REGISTRY: dict = {}\n"
        "def shared():\n"
        "    return 1\n"
        "def by_attribute():\n"
        "    return 2\n"
        "def _helper():\n"
        "    return 3\n"
        "def lazy():\n"
        "    return 4\n"
        "def only_dead():\n"
        "    return 5\n"
        "def public():\n"
        "    return 6\n"
        "def only_tests():\n"
        "    return shared()\n"
        "print(len(REGISTRY))\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    public = table_roots(tmp_path / "__init__.py")
    assert public == {("b", "public")}
    assert unreached(paths, {("a", "api")} | public) == [
        ("a", "LIMIT"),
        ("a", "Orphan"),
        ("a", "dead"),
        ("b", "only_dead"),
        ("b", "only_tests"),
    ]
    assert ("b", "public") in unreached(paths, {("a", "api")})
    assert unreached(paths, {("a", "api"), ("a", "Orphan"), ("a", "dead"), ("b", "only_tests")}
                     | public) == []
