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


def test_names_without_callers_are_gone():
    # no caller outside the tests: the normalization constants and the Bose
    # occupation live in test helpers, laguerre in thermalwigner.specfun
    from thermalwigner import closed_form, specfun, thermo

    removed = ("norm_const_added", "norm_const_subtracted", "wigner_thermal_vacuum",
               "mean_photon_number", "laguerre")
    for name in removed:
        assert name not in thermalwigner.__all__
        assert not hasattr(thermalwigner, name), name
    for module, name in [(closed_form, "norm_const_added"), (closed_form, "norm_const_subtracted"),
                         (closed_form, "wigner_thermal_vacuum"), (thermo, "mean_photon_number")]:
        assert not hasattr(module, name), name
    assert callable(specfun.laguerre)
