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
