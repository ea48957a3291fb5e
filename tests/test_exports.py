"""The package's public surface: ``__all__`` and what the docs import from it."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

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


def readme_python_blocks() -> list[str]:
    """The source of each python block of README.md."""
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def test_every_exported_name_resolves():
    missing = [name for name in thermalwigner.__all__ if not hasattr(thermalwigner, name)]
    assert missing == []
    assert len(set(thermalwigner.__all__)) == len(thermalwigner.__all__)


def test_readme_and_demo_imports_are_exported():
    sources = readme_python_blocks()
    sources += [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    imported = set().union(*(package_imports(source) for source in sources))
    assert imported, "expected the README and demos to import from thermalwigner"
    assert imported <= set(thermalwigner.__all__)


def test_readme_library_example_runs():
    # each python block of the README runs as written, in a fresh namespace
    sources = readme_python_blocks()
    assert sources, "expected a python example in the README"
    for source in sources:
        exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})


def test_test_only_references_are_not_exported():
    # the dense point evaluator and the explicit Laguerre references serve
    # the tests alone: they stay out of the public surface
    from thermalwigner import closed_form

    assert "wigner_from_density" not in thermalwigner.__all__
    assert not hasattr(thermalwigner, "wigner_from_density")
    for name in ("laguerre_sum", "laguerre_from_hermite"):
        assert not hasattr(closed_form, name), name


def test_names_without_callers_are_gone():
    # no caller outside the tests: the normalization constants and the Bose
    # occupation live in test helpers; laguerre lives in thermalwigner.closed_form,
    # and the special-function module it came from is gone; every family is
    # evaluated at a point by wigner_closed_form(StateSpec(...), point), so
    # the per-family wrappers and the one-theta layer are gone; the
    # reduction checks are tier-1 tests, so limit_suite and the limits
    # command are gone; |n> is the theta = 0 added or thermal number state
    # and the occupation form is the subtracted state at
    # params_from_mean_photons(n_c), so their evaluators are test references
    from thermalwigner import analysis, cli, closed_form, thermo

    wrappers = ("wigner_photon_subtracted", "wigner_photon_added", "wigner_thermal_number")
    references = ("wigner_number_state", "wigner_number_grid", "wigner_photon_subtracted_ncform")
    removed = ("norm_const_added", "norm_const_subtracted", "wigner_thermal_vacuum",
               "mean_photon_number", "laguerre", "limit_suite", *wrappers, *references)
    for name in removed:
        assert name not in thermalwigner.__all__
        assert not hasattr(thermalwigner, name), name
    for module, name in [(closed_form, "norm_const_added"), (closed_form, "norm_const_subtracted"),
                         (closed_form, "wigner_thermal_vacuum"), (thermo, "mean_photon_number"),
                         *[(closed_form, name) for name in wrappers],
                         *[(closed_form, name) for name in references],
                         (closed_form, "_number_kernel"), (closed_form, "_subtracted_nc_kernel"),
                         (closed_form, "wigner_closed_gaussian"),
                         (analysis, "_state_integrals"), (analysis, "limit_suite"),
                         (analysis, "LIMIT_N_VALUES"), (analysis, "LIMIT_SMALL_THETA"),
                         (analysis, "LIMIT_SEED"), (cli, "_cmd_limits")]:
        assert not hasattr(module, name), name
    with pytest.raises(SystemExit) as usage_error:
        cli.main(["limits"])
    assert usage_error.value.code == 2
    assert callable(closed_form.laguerre)
    assert importlib.util.find_spec("thermalwigner.specfun") is None
