"""The README's library block names exactly the package's public exports."""

import re
import types
from pathlib import Path

import georeward

README = Path(__file__).resolve().parent.parent / "README.md"


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
