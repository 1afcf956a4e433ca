"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module. Importing it, and running a serial hunt, load
none of the modules it no longer needs; nor does a hunt with two workers."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "causetlab"

# modules no decision needs: `dataclasses` pulls in `inspect`, a hunt with
# several workers forks its own (`hunter._forked_map`) and needs no
# `multiprocessing`, and `hashlib` serves only the digests of findings and
# checkpoints
UNNEEDED = ("dataclasses", "hashlib", "inspect", "multiprocessing")


def _absolute_imports() -> list[tuple[str, str]]:
    """(file name, module name) for every absolute import in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    return found


def test_the_package_imports_only_the_standard_library():
    foreign = [
        (file, name) for file, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_no_module_imports_dataclasses():
    assert [(file, name) for file, name in _absolute_imports() if name.split(".")[0] == "dataclasses"] == []


def test_import_and_a_serial_hunt_load_no_unneeded_module():
    # -S as well as -I: no site-packages hook can load anything first; two
    # usable cores are claimed, and a break-even of 0 makes any work pay for
    # them, so that the second hunt forks
    probe = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})",
        f"unneeded = {UNNEEDED!r}",
        "import causetlab.cli",
        "print(sorted(m for m in unneeded if m in sys.modules))",
        "from causetlab.hunter import SearchConfig, hunt",
        "hunt(SearchConfig(max_elements=2))",
        "print(sorted(m for m in unneeded if m in sys.modules))",
        "import os",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "import causetlab.hunter",
        "causetlab.hunter._BREAK_EVEN = 0",
        "hunt(SearchConfig(max_elements=2, workers=2))",
        "print(sorted(m for m in unneeded if m in sys.modules))",
    ])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]
