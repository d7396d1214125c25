"""Every name that a module of the package or a test file imports is used
there, every private module-level name of the package is referenced, every
package name the benchmark imports or patches resolves, and every function
and class of the package is reached from a command or the benchmark."""

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


def _bound_names(node: ast.stmt) -> list:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _package_references() -> dict:
    """(module, name) of each top-level binding of the package, outside
    `__init__`, mapped to the (module, name) bindings that its statement
    loads: its own module's by name, the others through its module's
    ``from .module import name`` lines."""
    refs = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names}
        own = {name for node in tree.body for name in _bound_names(node)}
        for node in tree.body:
            loads = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            targets = ({imported[n] for n in loads if n in imported}
                       | {(path.stem, n) for n in loads & own if n not in imported})
            for name in _bound_names(node):
                refs[(path.stem, name)] = targets
    return refs


def _bench_references() -> set:
    """(module, name) of the package names the benchmark reaches: what it
    imports from a package module, the attributes it reads off an imported
    package module (``cli.main``), and what the tracer patches."""
    out = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "quadcover":
                modules.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quadcover."):
                out |= {(node.module.split(".")[1], a.name) for a in node.names}
        out |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules}
    tracing = ast.parse((BENCH / "tracing.py").read_text())
    out |= {("projgeom", name) for name in _literal(tracing, "PROJGEOM_COUNTED")}
    if _literal(tracing, "GF2N_COUNTED"):       # methods of the field class
        out.add(("gf2n", "FieldCtx"))
    return out


def test_package_defines_only_what_commands_and_benchmark_reach():
    """Walk the package's references from the CLI's command table and from
    what the benchmark reaches.  A function or class of the package that the
    walk misses is run only by tests, and belongs in a test oracle; a
    re-export in `__init__` is not a use."""
    refs = _package_references()
    reached, todo = set(), [("cli", "_COMMANDS"), *_bench_references()]
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += refs.get(key, ())
    defined = {(path.stem, node.name) for path in SRC.glob("*.py") if path.stem != "__init__"
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(f"{m}.{n}" for m, n in defined - reached) == []


def _attribute_uses(tree: ast.Module, names: set) -> list:
    """Source of each read or assignment of an attribute named in names:
    ``<expr>.name`` in any context, and a ``getattr``, ``setattr``,
    ``hasattr`` or ``delattr`` call that names it."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
                and any(isinstance(a, ast.Constant) and a.value in names
                        for a in node.args[1:2]))]


def test_gram_attribute_check_sees_direct_and_aliased_reads():
    tree = ast.parse("a = m.gram[r, c] == 0\n"
                     "g = cov.model.gram\nb = g[np.ix_(r, c)]\n"
                     "mm = m\nd = mm.gram\ne = getattr(mm, 'gram')\n"
                     "m.gram = t\nsetattr(m, 'gram', t)\n"
                     "gram = 1\nf = m.grammar\nh = getattr(m, 'grammar')\n")
    assert sorted(_attribute_uses(tree, {"gram"})) == [
        "cov.model.gram", "getattr(mm, 'gram')", "m.gram", "m.gram", "mm.gram",
        "setattr(m, 'gram', t)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_reads_gram_blocks_through_collinear(path):
    """No module reads or assigns a ``gram`` attribute: the bilinear form is
    read in blocks through `QuadricModel.alpha`, `alpha_blocks` and
    `collinear`, which evaluate it from the model's q^2-row pair tables, and
    no |Q| x |Q| table of it is held."""
    assert _attribute_uses(ast.parse(path.read_text()), {"gram"}) == []


_PAIR_TABLES = {"pair_tables", "pair_keys"}


def test_pair_table_check_sees_direct_and_aliased_reads():
    tree = ast.parse("a = m.pair_tables.take(c, axis=1)\n"
                     "k = cov.model.pair_keys\nb = k[:, r]\n"
                     "mm = m\nd = mm.pair_keys\ne = getattr(mm, 'pair_tables')\n"
                     "m.pair_keys = t\nhasattr(m, 'pair_tables')\n"
                     "pair_tables = 1\nf = m.pair_tables_cache\n"
                     "h = getattr(m, 'pair_key')\n")
    assert sorted(_attribute_uses(tree, _PAIR_TABLES)) == [
        "cov.model.pair_keys", "getattr(mm, 'pair_tables')", "hasattr(m, 'pair_tables')",
        "m.pair_keys", "m.pair_tables", "mm.pair_keys"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "quadric.py"]
                         + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}"
                         if p.parent == TESTS else p.name)
def test_only_quadric_reads_the_pair_tables(path):
    """The pair tables and keys are the storage of `QuadricModel.alpha` and
    `alpha_blocks`: every other module, and every test, reads the form
    through those methods, so the tables' layout stays private to
    `quadric.py`."""
    assert _attribute_uses(ast.parse(path.read_text()), _PAIR_TABLES) == []


def _class_methods(path: Path, name: str) -> dict:
    """The methods defined in the body of class `name` of a file, by name."""
    cls = next(node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == name)
    return {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}


def test_table_model_overrides_every_pair_table_reader():
    """`quadric_oracle.TableModel` evaluates the form from its own table.
    A `QuadricModel` method that reads the pair tables and that the double
    does not override would read the real form, so a corruption test
    through it would pass silently."""
    readers = {name for name, f in _class_methods(SRC / "quadric.py", "QuadricModel").items()
               if _attribute_uses(f, _PAIR_TABLES)}
    assert {"alpha", "alpha_blocks", "perp_blocks"} <= readers
    assert readers <= set(_class_methods(TESTS / "quadric_oracle.py", "TableModel"))


def _packs(tree: ast.Module) -> list:
    """(enclosing top-level function or "<module>", source) of each
    ``packbits`` or ``unpackbits`` call, under any module name and in any
    bit order."""
    out = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        out += [(where, ast.unparse(node)) for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
                in ("packbits", "unpackbits")]
    return out


def test_pack_check_sees_every_spelling():
    tree = ast.parse("def f(A):\n    return np.packbits(A, axis=1, bitorder='little')\n"
                     "g = numpy.packbits(gx.tangency, bitorder='little')\n"
                     "h = packbits(A[rows], axis=-1, bitorder='little')\n"
                     "b = np.packbits(A, axis=1)\nc = np.packbits(A, bitorder='big')\n"
                     "d = np.unpackbits(A, bitorder='little')\n"
                     "e = unpackbits(A, axis=1, count=n, bitorder='little')\n"
                     "u = np.unpackbits(A, axis=1)\nv = unpackbits(A, bitorder='big')\n"
                     "w = np.pack_bits(A)\nx = packbits\n")
    assert _packs(tree) == [
        ("f", "np.packbits(A, axis=1, bitorder='little')"),
        ("<module>", "numpy.packbits(gx.tangency, bitorder='little')"),
        ("<module>", "packbits(A[rows], axis=-1, bitorder='little')"),
        ("<module>", "np.packbits(A, axis=1)"),
        ("<module>", "np.packbits(A, bitorder='big')"),
        ("<module>", "np.unpackbits(A, bitorder='little')"),
        ("<module>", "unpackbits(A, axis=1, count=n, bitorder='little')"),
        ("<module>", "np.unpackbits(A, axis=1)"),
        ("<module>", "unpackbits(A, bitorder='big')")]


def test_package_packs_rows_only_through_pack_rows():
    """Every relation the package holds as bit rows is packed by
    `quadric.pack_rows` and unpacked by `quadric.unpack_rows`: the perp rows
    of `_build_lines`, the rosette laws' membership and perp rows, the cube
    code of `extend_cube_bruteforce`, the tangency table that the census
    gathers from and the pencil counts add, the census's completion rows
    and the covering's collinearity rows.  One layout, which the byte and
    word reads of `row_bits` and the census rely on: no other ``packbits``
    or ``unpackbits`` call, in any bit order, is made in the package."""
    packs = {path.name: _packs(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: p for name, p in packs.items() if p} == {
        "quadric.py": [("pack_rows", "np.packbits(S.reshape(-1), bitorder='little')"),
                       ("unpack_rows", "np.unpackbits(words.view(np.uint8), axis=-1, "
                                       "count=n, bitorder='little')")]}


def test_adjacency_attribute_check_sees_direct_and_aliased_reads():
    tree = ast.parse("a = gx.adjacency[r, c]\n"
                     "g = cov.geom.adjacency\nb = g[np.ix_(r, c)]\n"
                     "e = getattr(gx, 'adjacency')\ngx.adjacency = t\n"
                     "adjacency = 1\nf = gx.adjacency_bits\nh = row_bits(gx.tangency, a, b)\n")
    assert sorted(_attribute_uses(tree, {"adjacency"})) == [
        "cov.geom.adjacency", "getattr(gx, 'adjacency')", "gx.adjacency", "gx.adjacency"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}"
                         if p.parent == TESTS else p.name)
def test_no_module_reads_a_boolean_tangency_matrix(path):
    """Tangency is held in one form, the packed table
    `OvoidGeometry.tangency`: no module or test reads or assigns an
    ``adjacency`` attribute, the V x V boolean matrix that the geometry no
    longer holds.  Tests read the boolean matrix through
    `tangency_oracle.tangency_matrix`."""
    assert _attribute_uses(ast.parse(path.read_text()), {"adjacency"}) == []


# the scalar routines of the figure and closure path, which read rows of
# `FieldCtx.mul_rows` and `inv_row` once and index them
_ROW_ROUTINES = {
    "gf2n.py": ["conic_solution_set"],
    "projgeom.py": ["vec_scale", "normalize_tuple"],
    "quadric.py": ["QuadricModel.f_scalar", "QuadricModel.alpha_scalar", "second_intersection"],
    "figures.py": ["_check_pairs", "_cube_vertex_pairs", "_combination", "build_adapted_frame",
                   "_frame_and_center", "extend_hexagon_to_cubes", "cube_params", "extend_cube"],
    "subf2.py": ["scale_figure_representatives", "f2_closure"],
}
# the `FieldCtx` methods that multiply or invert: `square` and `div` call `mul`
_SCALAR_METHODS = {"mul", "inv", "square", "div"}


def _definition(tree: ast.Module, dotted: str) -> ast.AST:
    """The function or method ``name`` or ``Class.name`` at the top of a module."""
    body = tree.body
    for part in dotted.split("."):
        node = next(n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
        body = node.body
    return node


def test_scalar_method_check_sees_direct_and_aliased_calls():
    tree = ast.parse("class K:\n    def f(self, a, b):\n        m = self.ctx.mul\n"
                     "        return m(a, b) ^ ctx.inv(a) ^ getattr(ctx, 'mul')(a, b)\n"
                     "def g(ctx, a):\n    return ctx.square(a) ^ model.ctx.div(a, a)\n"
                     "def h(ctx, a):\n    M = ctx.mul_rows\n"
                     "    return M[a][ctx.inv_row[a]] ^ ctx.mul_table[a, a] ^ ctx.sqrt(a)\n")
    assert sorted(_attribute_uses(_definition(tree, "K.f"), _SCALAR_METHODS)) == [
        "ctx.inv", "getattr(ctx, 'mul')", "self.ctx.mul"]
    assert sorted(_attribute_uses(_definition(tree, "g"), _SCALAR_METHODS)) == [
        "ctx.square", "model.ctx.div"]
    assert _attribute_uses(_definition(tree, "h"), _SCALAR_METHODS) == []


@pytest.mark.parametrize("path,name", [(p, n) for p, names in _ROW_ROUTINES.items()
                                       for n in names], ids=lambda x: str(x))
def test_figure_path_makes_no_scalar_method_call(path, name):
    """The figure and closure path reads a table row once and indexes it,
    as a `FieldCtx.mul` or `inv` method call costs one dispatch a product
    and a figures-q4 round makes about 2,000 products there.  The methods
    stay the scalar API of the test oracles, and `projgeom.rref` and
    `null_space`, which run once a frame, keep them."""
    node = _definition(ast.parse((SRC / path).read_text()), name)
    assert _attribute_uses(node, _SCALAR_METHODS) == []



# kernels the package replaced, kept in the oracles to diff the new ones
# against: (oracle file, function)
_MOVED_KERNELS = [("tangency_oracle.py", "keyed_srg"), ("ovoid_oracle.py", "byte_pencil_counts")]


class _Bare(ast.NodeTransformer):
    """Reads ``cliquecensus.SRG_BLOCK`` and ``ovoid.PENCIL_BLOCK``, the
    oracles' spelling of the package's block sizes, as the bare names a
    package module uses."""

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if isinstance(node.value, ast.Name) and node.value.id in ("cliquecensus", "ovoid"):
            return ast.copy_location(ast.Name(node.attr, node.ctx), node)
        return node


def _loops(tree: ast.AST) -> set:
    """The source of every ``for`` loop in tree, module-qualified names bare."""
    return {ast.unparse(_Bare().visit(node)) for node in ast.walk(tree)
            if isinstance(node, ast.For)}


def _moved_block_loops() -> dict:
    """The block loop, the last top-level ``for``, of each moved kernel, by name."""
    out = {}
    for file, name in _MOVED_KERNELS:
        f = _definition(ast.parse((TESTS / file).read_text()), name)
        loop = [node for node in f.body if isinstance(node, ast.For)][-1]
        out[name] = ast.unparse(_Bare().visit(loop))
    return out


def test_moved_kernel_check_sees_a_kernel_put_back():
    # each oracle kernel, copied into a package module with the package's
    # spelling of its block size, is seen
    for file, name in _MOVED_KERNELS:
        f = _definition(ast.parse((TESTS / file).read_text()), name)
        back = ast.parse(ast.unparse(_Bare().visit(f)))
        assert _moved_block_loops()[name] in _loops(back)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_keeps_no_kernel_it_replaced(path):
    """`verify_srg` no longer splits every count out of its lane and keys
    it (`tangency_oracle.keyed_srg`), and `pencil_counts` no longer adds
    byte rows (`ovoid_oracle.byte_pencil_counts`): neither block loop is
    left in the package beside its replacement."""
    assert not _loops(ast.parse(path.read_text())) & set(_moved_block_loops().values())
