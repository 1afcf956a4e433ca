"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "causetlab"


def test_the_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
