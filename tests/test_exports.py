"""The package's public surface: ``__all__`` and what the docs import from it."""

import ast
import re
from pathlib import Path

import thermalwigner

ROOT = Path(__file__).resolve().parent.parent


def package_imports(source: str) -> set[str]:
    """Names imported by ``from thermalwigner import ...`` in Python source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "thermalwigner"
        for alias in node.names
    }


def test_every_exported_name_resolves():
    missing = [name for name in thermalwigner.__all__ if not hasattr(thermalwigner, name)]
    assert missing == []
    assert len(set(thermalwigner.__all__)) == len(thermalwigner.__all__)


def test_readme_and_demo_imports_are_exported():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    sources += [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    imported = set().union(*(package_imports(source) for source in sources))
    assert imported, "expected the README and demos to import from thermalwigner"
    assert imported <= set(thermalwigner.__all__)


def test_test_only_references_are_not_exported():
    # the dense point evaluator and the explicit Laguerre references serve
    # the tests alone: they stay out of the public surface
    from thermalwigner import specfun

    assert "wigner_from_density" not in thermalwigner.__all__
    assert not hasattr(thermalwigner, "wigner_from_density")
    assert not hasattr(specfun, "laguerre_sum") and not hasattr(specfun, "laguerre_from_hermite")
