"""Hygiene: every module-level import in the package is used, every
private function reads all of its parameters, and every function, class and
method the package defines is read somewhere in the repository.

No linter is installed and the runtime stays numpy-only, so this walks the
syntax trees with ``ast``.  Names re-exported by ``__init__.py`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "motline"
TRACING = ROOT / "perfbench" / "tracing.py"

# (module file, name) -> why the import stays although the module never reads it
KEPT = {
    ("cli.py", "barycentre_report"):
        "perfbench/tracing.py traces the name motline.cli.barycentre_report",
    ("nested.py", "make_coupling"):
        "perfbench/tracing.py traces the name motline.nested.make_coupling; "
        "project_to_martingale builds its coupling through transport.grid_coupling",
    ("nested.py", "w_p_1d"):
        "perfbench/tracing.py traces the name motline.nested.w_p_1d; "
        "nested_w_p reads its inner costs off one quantile_cells staircase",
}


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as -> "CostSpec"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return [name for name in _imported_names(tree)
            if name not in used and (path.name, name) not in KEPT]


def test_no_unused_module_level_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_kept_imports_are_still_unused():
    # an exemption outlives its reason once the module reads the name itself
    for (module, name) in KEPT:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert name in set(_imported_names(tree))
        assert name not in _used_names(tree)


def _defined_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCHES" for t in node.targets):
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py has no PATCHES table")


def test_traced_names_exist_where_the_trace_patches_them():
    # the traced benchmark run replaces each (module, name) with getattr and
    # setattr, so the name must stay a module-level attribute; an imported
    # name must also still be read there, or its span never fires
    patches = _traced_names()
    assert patches
    for module, name in patches:
        package, _, stem = module.partition(".")
        assert package == "motline", module
        path = PACKAGE / f"{stem}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if name in _defined_names(tree):
            continue
        assert name in set(_imported_names(tree)), (module, name)
        assert name in _used_names(tree) or (path.name, name) in KEPT, (module, name)


def test_lp_attributes_the_trace_reads_exist():
    # the traced benchmark run hands each captured program to HiGHS through
    # lp.<name> reads; getattr, not attribute syntax, so that this test does
    # not count as a reader of them
    from motline.lp import LinearProgram

    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "lp"}
    assert names
    lp = LinearProgram(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    for name in sorted(names):
        getattr(lp, name)


def test_checker_flags_an_unused_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from __future__ import annotations\n"
                      "import os\nimport numpy as np\nfrom typing import Optional, Union\n"
                      "def f(x) -> \"Optional[int]\":\n    return np.abs(x)\n")
    assert unused_imports(source) == ["os", "Union"]


def unused_parameters(path: Path) -> list:
    """"name(parameter)" for each parameter that a private (``_``-prefixed,
    not dunder) function never reads; ``self`` and ``cls`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({p})" for p in params
                  if p not in read and p not in ("self", "cls")]
    return found


def test_private_functions_read_every_parameter():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: unused_parameters(p) for p in modules}
    assert {name: params for name, params in found.items() if params} == {}


def test_checker_flags_an_unused_parameter(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("def _f(a, b, *args, c=1, **kw):\n    b = a\n    return c\n"
                      "def g(unused):\n    return 0\n"
                      "class K:\n    def _m(self, x):\n        return [x for _ in ()]\n"
                      "    def __init__(self, y):\n        pass\n")
    assert unused_parameters(source) == ["_f(b)", "_f(args)", "_f(kw)"]


def _read_names(tree: ast.Module) -> set:
    """Names a file reads: bare names (string annotations included) and
    attribute names, so a method counts as read wherever ``.name`` occurs."""
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return _used_names(tree) | attrs


def unused_definitions(defining: list, reading: list) -> list:
    """"file:name" for each function, class or method (not dunder) defined in
    ``defining`` whose name no file in ``reading`` reads."""
    read = set()
    for path in reading:
        read |= _read_names(ast.parse(path.read_text(encoding="utf-8")))
    found = []
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and node.name not in read:
                found.append(f"{path.name}:{node.name}")
    return found


def test_every_definition_is_read():
    # a public name with no caller in the package, its tests or the
    # benchmark is dead code
    reading = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    assert unused_definitions(sorted(PACKAGE.glob("*.py")), reading) == []


def test_checker_flags_an_unused_definition(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("def used():\n    return 1\n"
                      "def dead():\n    return 2\n"
                      "class K:\n    def __init__(self):\n        pass\n"
                      "    def called(self):\n        return used()\n"
                      "    def orphan(self) -> \"K\":\n        return self\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from sample import K\nK().called()\n")
    assert unused_definitions([source], [source, reader]) == ["sample.py:dead", "sample.py:orphan"]
