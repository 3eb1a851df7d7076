"""The package depends on the Python standard library alone, and its
command line loads none of the heavier standard modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "recone"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_the_cli_imports_no_dataclasses_typing_or_inspect():
    # -S keeps site, which may import some of them, out of the child
    heavy = "dataclasses", "typing", "inspect"
    code = f"import recone.cli, sys; print(*[m for m in {heavy!r} if m in sys.modules])"
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


# the package's modules from the bottom up; a module imports, at module
# level, only from the layers below its own
LAYERS = (("record",), ("lattice",), ("cone",), ("states",), ("schemes",), ("realize",),
          ("demos", "jsonio"), ("cli",), ("__init__", "__main__"))
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def relative_imports(tree):
    """(module, imported names, whether the import sits in a function) for
    each relative import of a parsed module."""
    late = {id(node) for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            for module in [node.module] if node.module else names:
                yield module, names, id(node) in late


def test_modules_import_only_from_the_layers_below():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} == set(RANK)
    upward = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, names, late in relative_imports(tree):
            if RANK[module] >= RANK[path.stem]:
                assert late, f"{path.name} imports {module} at module level"
                upward.update((path.stem, module, name) for name in names)
    # a ProductPair's rho and sigma read realize.dense_pair, the one fold
    assert upward == {("states", "realize", "dense_pair")}
