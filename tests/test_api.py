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
