"""The package declares every third-party module ``src/`` imports.

``pyproject.toml``'s ``[project] dependencies`` must name each
top-level import that is neither the standard library nor ``repro``
itself, so ``pip install .`` pulls what the code needs.  (Parsed with
a regex: ``tomllib`` is not available on Python 3.10.)
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml declares no [project] dependencies"
    return {
        name.lower().replace("-", "_")
        for name in re.findall(r"\"([A-Za-z0-9_.\-]+)", match.group(1))
    }


def third_party_imports():
    """{top-level module: first importing file} over every ``src`` file."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, path.relative_to(ROOT))
    return found


def test_every_third_party_import_is_declared():
    imports = third_party_imports()
    undeclared = {
        module: str(path)
        for module, path in imports.items()
        if module.lower() not in declared_dependencies()
    }
    assert not undeclared, f"undeclared runtime dependencies: {undeclared}"


def test_scan_sees_the_numeric_stack():
    # Guards the scanner itself: an empty scan would pass vacuously.
    assert {"numpy", "scipy"} <= set(third_party_imports())
