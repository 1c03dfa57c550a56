"""Source-tree rules that no single module test covers."""

import ast
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "implicax"


def test_invariants_raise_instead_of_assert():
    # `python -O` strips assert statements, so a checked invariant must raise
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements in implicax: %s" % ", ".join(found)


def test_traced_names_are_module_attributes():
    # the benchmark's tracer wraps these names where callers look them up; a
    # renamed or inlined one would otherwise only break a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        "%s.%s" % (owner.__name__, attr)
        for _, owners, _, _ in tracer._targets()
        for owner, attr in owners
        if attr not in owner.__dict__
    ]
    assert not missing, "traced names missing: %s" % ", ".join(missing)


def test_traced_bindings_are_the_engine_itself():
    # a name the tracer wraps in more than one module, and the alias
    # strands.gcd_homogeneous_by_lines, is one function object under every
    # binding, the very function of the module that defines it: a traced span
    # then times the one engine, and no second gcd can hide behind a binding
    from implicax import strands

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    owners = {}
    for _, targets, _, _ in tracer._targets():
        for owner, attr in targets:
            if isinstance(owner, types.ModuleType):
                owners.setdefault(attr, []).append(owner)
    shared = {attr: mods for attr, mods in owners.items() if len(mods) > 1}
    assert set(shared) == {"multivariate_gcd", "det_fraction_free", "check_rank_profile"}
    bindings = [(module, attr, attr) for attr, mods in shared.items() for module in mods]
    bindings.append((strands, "gcd_homogeneous_by_lines", "multivariate_gcd"))
    engines, stray = {}, []
    for module, attr, name in bindings:
        fn = module.__dict__[attr]
        defined = getattr(sys.modules[fn.__module__], fn.__name__, None)
        if fn.__name__ != name or fn is not defined or engines.setdefault(name, fn) is not fn:
            stray.append("%s.%s" % (module.__name__, attr))
    assert not stray, "traced bindings that are not the engine itself: %s" % ", ".join(stray)


def test_all_exports_resolve():
    # every name a module lists in __all__ exists there, so a deleted
    # function cannot leave a stale export behind
    import implicax

    modules = [implicax] + [
        importlib.import_module("implicax." + path.stem)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    missing = [
        "%s.%s" % (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, "stale exports: %s" % ", ".join(missing)


def test_imports_are_stdlib_only():
    # implicax has no runtime dependency and no native extension: every import
    # under src/implicax is relative or names a standard-library module
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                "%s:%d %s" % (path.name, node.lineno, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, "non-stdlib imports in implicax: %s" % ", ".join(found)


def test_no_imports_inside_functions():
    # every import under src/implicax sits at module level, so the module
    # headers show the whole import graph and no back edge between modules
    # can hide in a function body
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    "%s:%d" % (path.name, sub.lineno)
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))
                )
    assert not found, "imports inside functions in implicax: %s" % ", ".join(sorted(found))


def test_report_keys_match_schema():
    # every diagnostic the report emits is declared in the schema, and every
    # declared one is emitted, so `--format json` and the schema cannot drift
    from implicax.arith import QQ, make_parameterization
    from implicax.geometry import analyze_parameterization

    schema = json.loads((SRC / "schema" / "result.schema.json").read_text())
    declared = set(schema["properties"]["diagnostics"]["properties"])
    conic = make_parameterization(QQ, ["X1", "X2"], ["X1^2", "X1*X2", "X2^2"])
    emitted = set(analyze_parameterization(conic).to_dict())
    assert emitted == declared



def test_source_names_have_callers():
    # every module-level function and class, every method not in dunder
    # style, and every function nested in a module-level function is looked
    # up somewhere in the package outside its own body: a method through an
    # attribute, a module-level name through a loaded name, a nested
    # function through any name or attribute.  So a local variable, an
    # assignment or a dataclass field that shares a dead member's name does
    # not hide it.  A name that only the tests use belongs in the tests
    allowed = {"make_parameterization", "saturation_piece"}  # public, and called only by users
    defs, attrs, names, stores = [], [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.append((node, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((node, node.id))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                stores.append((node, node.id if isinstance(node, ast.Name) else node.attr))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, top.name, top, "top"))
                kind = "method" if isinstance(top, ast.ClassDef) else "nested"
                defs += [
                    (path.name, "%s.%s" % (top.name, sub.name), sub, kind)
                    for sub in top.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                ]
    missing = []
    uses_of = {"method": attrs, "top": names, "nested": attrs + names + stores}
    for module, qualname, node, kind in defs:
        name = qualname.rpartition(".")[2]
        uses = uses_of[kind]
        inside = {id(n) for n in ast.walk(node)}
        if qualname not in allowed and not any(
            used == name and id(n) not in inside for n, used in uses
        ):
            missing.append("%s:%s" % (module, qualname))
    assert not missing, "source names with no caller in implicax: %s" % ", ".join(missing)


def test_dataclass_fields_are_read():
    # every annotated field of a dataclass is read as an attribute somewhere
    # in the package, so a field that is only ever set cannot keep its value
    # alive unseen.  A diagnostic that only users and tests read is listed
    allowed = {"SyzygeticReport.witness"}  # the first saturated failure, for users
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(dec) for dec in node.decorator_list
            ):
                fields += [
                    (path.name, "%s.%s" % (node.name, stmt.target.id), stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    assert fields
    unread = [
        "%s:%s" % (module, qualname)
        for module, qualname, name in fields
        if qualname not in allowed and name not in read
    ]
    assert not unread, "dataclass fields never read in implicax: %s" % ", ".join(unread)
