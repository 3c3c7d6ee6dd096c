"""The package depends on numpy alone.

Every import in ``src/faframe`` names ``__future__``, a standard-library
module, numpy, or the package itself.
"""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "faframe"
ALLOWED = {"__future__", "numpy", "faframe"}


def _imported_roots(path: Path):
    """``(line, top-level module)`` of each import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # A relative import (level > 0) stays inside the package.
            yield node.lineno, "faframe" if node.level else node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_numpy():
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) > 1
    outside = [f"{path.name}:{line} imports {root}"
               for path in paths for line, root in _imported_roots(path)
               if root not in ALLOWED and root not in sys.stdlib_module_names]
    assert outside == []
