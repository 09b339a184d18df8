"""Every module of the package (but `__init__.py`, which imports to re-export)
and of the tests uses each name it imports: an import nothing reads is left
over from code that went."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(
    p
    for p in [*(_ROOT / "src" / "portqubo").glob("*.py"), *(_ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom math import inf, pi\nprint(np.pi, inf)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: pi"]


def _package_imports(path: Path) -> set[str]:
    """The package modules that the module at `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


@pytest.mark.parametrize(
    "module, allowed",
    [
        # the number rules every record applies sit at the bottom of the graph
        ("model", set()),
        ("data", {"model"}),
        ("qubo", {"model", "data"}),
        ("solvers", {"model", "qubo"}),
        ("tuning", {"model", "qubo", "solvers"}),
        ("bench", {"data", "model", "solvers", "tuning"}),
    ],
)
def test_module_imports_only_the_layers_below_it(module, allowed):
    assert _package_imports(_ROOT / "src" / "portqubo" / f"{module}.py") <= allowed
