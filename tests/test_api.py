import ast
import importlib
import inspect
import pathlib
import re

import kapteyn


def test_every_exported_name_resolves():
    assert len(set(kapteyn.__all__)) == len(kapteyn.__all__)
    for name in kapteyn.__all__:
        assert hasattr(kapteyn, name), name


def test_every_public_function_and_class_is_exported():
    public = {name for name, obj in vars(kapteyn).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert public and public <= set(kapteyn.__all__), public - set(kapteyn.__all__)


def test_version_matches_the_project_metadata():
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == kapteyn.__version__


def _relative_imports(module: str) -> dict:
    """{sibling module: names} of kapteyn.<module>'s `from .x import` lines."""
    path = importlib.import_module(f"kapteyn.{module}").__file__
    graph: dict = {}
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                graph.setdefault(node.module or alias.name, set()).add(alias.name)
    return graph


def test_each_layer_imports_only_the_layers_below_it():
    # errors is no layer: bessel and coeffs stand on it alone, domain adds
    # coeffs (for a_eval_logabs), and series takes the trapezoid rule from
    # bessel through one name
    assert set(_relative_imports("bessel")) <= {"errors"}
    assert set(_relative_imports("coeffs")) <= {"errors"}
    assert set(_relative_imports("domain")) <= {"coeffs", "errors"}
    assert len(_relative_imports("series")["bessel"]) == 1
