"""Every name that a module of the package or a test file imports is used
there, every private module-level name of the package is referenced, and
every package name the benchmark imports or patches resolves."""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quadcover"
BENCH = TESTS.parent / "bench"


def _unused_imports(tree: ast.Module) -> list:
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))  # re-exports count as uses
    return sorted(bound - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}"
                         if p.parent == TESTS else p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_definitions(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree: ast.Module) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_package_references_every_private_name():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    defined = set().union(*map(_private_definitions, trees))
    referenced = set().union(*map(_references, trees))
    assert sorted(defined - referenced) == []


def test_package_exports_resolve():
    import quadcover

    assert [name for name in quadcover.__all__ if not hasattr(quadcover, name)] == []


def _literal(tree: ast.Module, name: str):
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name)


def test_bench_import_surface_resolves():
    """Every package name the benchmark imports or patches exists.  The
    benchmark lives outside the test paths, so without this check a name
    dropped from the package fails only when the benchmark runs."""
    from quadcover.gf2n import FieldCtx

    missing = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "quadcover"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                try:
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    tracing = ast.parse((BENCH / "tracing.py").read_text())
    projgeom = importlib.import_module("quadcover.projgeom")
    missing += [f"projgeom.{name}" for name in _literal(tracing, "PROJGEOM_COUNTED")
                if not hasattr(projgeom, name)]
    # the tracer patches the methods in the class dict
    missing += [f"FieldCtx.{name}" for name in _literal(tracing, "GF2N_COUNTED")
                if name not in vars(FieldCtx)]
    for name in _literal(tracing, "PROJGEOM_IMPORTERS"):
        importlib.import_module(f"quadcover.{name}")
    assert missing == []
