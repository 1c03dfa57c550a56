"""Source-tree rules that no single module test covers."""

import ast
import importlib
import importlib.util
import json
import sys
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
    # every module-level function and class, and every method not in dunder
    # style, is looked up somewhere in the package outside its own body; a
    # name that only the tests use belongs in the tests
    allowed = {"make_parameterization"}  # public, and called only by users
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses += [
            (node, node.id if isinstance(node, ast.Name) else node.attr)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        ]
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, top.name, top))
                defs += [
                    (path.name, "%s.%s" % (top.name, sub.name), sub)
                    for sub in top.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                ]
    missing = []
    for module, qualname, node in defs:
        name = qualname.rpartition(".")[2]
        inside = {id(n) for n in ast.walk(node)}
        if qualname not in allowed and not any(
            used == name and id(n) not in inside for n, used in uses
        ):
            missing.append("%s:%s" % (module, qualname))
    assert not missing, "source names with no caller in implicax: %s" % ", ".join(missing)
