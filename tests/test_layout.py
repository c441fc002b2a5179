"""Package layout: no module of ``src/tactilab`` grows past MAX_LINES, every
public top-level function and class there has a caller, and only ``blas``
may import scipy.

A caller is a use of the name (a name, an attribute or an import) anywhere
in ``src/`` outside the name's own definition, an import or a
``tactilab.<name>`` use in ``tests/test_acceptance.py`` (the package's public
surface), or the ``pyproject.toml`` entry point. References that only other
tests call belong in ``tests/oracles.py``."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tactilab"
MAX_LINES = 500


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node) -> set[str]:
    """The names that ``node`` reads: bare names, attributes and imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _acceptance_names() -> set[str]:
    """Names that the acceptance suite imports from ``tactilab`` or reads as
    ``tactilab.<name>``."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tactilab"):
            found.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "tactilab"
        ):
            found.add(node.attr)
    return found


def _entry_points() -> set[str]:
    """The attributes that ``[project.scripts]`` in pyproject.toml names."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r'^\S+\s*=\s*"[\w.]+:(\w+)"', section.group(1), re.M))


def test_no_module_over_max_lines():
    sizes = {path.name: len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > MAX_LINES} == {}


def test_every_public_name_has_a_caller():
    statements = [(module, node) for module, tree in _modules().items() for node in tree.body]
    reads = [_names(node) for _, node in statements]  # per top-level statement
    counts = Counter(name for names in reads for name in names)
    outside = _acceptance_names() | _entry_points()
    uncalled = [
        f"{module}.{node.name}"
        for (module, node), names in zip(statements, reads)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and counts[node.name] == (node.name in names)  # read only in its own definition
    ]
    assert uncalled == []


def _scipy_imports(tree: ast.Module) -> list[str]:
    """The scipy modules that ``tree`` imports with an import statement."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] == "scipy"]


def test_only_blas_imports_scipy():
    # blas loads the two extension modules the engine calls; a scipy import
    # elsewhere runs scipy's inits (``import scipy.linalg``: some 18 MB).
    imports = {module: _scipy_imports(tree) for module, tree in _modules().items()}
    assert {module: names for module, names in imports.items() if names and module != "blas"} == {}
