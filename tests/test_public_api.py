"""The README's library block names exactly the package's public exports,
and the package's version is the one pyproject.toml declares."""

import re
import types
from pathlib import Path

import pytest

import georeward

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_block():
    blocks = re.findall(r"```python\n(from georeward import \(.*?\))\n```", README.read_text(), re.S)
    assert len(blocks) == 1, "README must hold exactly one `from georeward import (...)` block"
    return blocks[0]


def test_readme_library_block_imports_every_export():
    namespace = {}
    exec(_library_block(), namespace)
    documented = set(namespace) - {"__builtins__"}
    exported = {
        name
        for name, value in vars(georeward).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert documented == exported


def test_pyproject_version_is_the_package_version():
    # run manifests record georeward.__version__; an installed wheel reports
    # the pyproject one
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == georeward.__version__
