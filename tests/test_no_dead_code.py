"""Every function, class and method that src/georeward defines is used
somewhere in src/georeward: code that nothing calls is deleted, not kept."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "georeward"

# the oracle that test_camera.py checks matrix34 and relative_transform against
ALLOWED = {"PoseSE3.apply"}


def _definitions(tree):
    """(qualified name, bare name) of every top-level function and class
    and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname


def test_every_definition_in_src_is_used_in_src():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    used = {name for tree in trees for name in _uses(tree)}
    unused = sorted(qual for tree in trees for qual, name in _definitions(tree) if name not in used)
    assert [qual for qual in unused if qual not in ALLOWED] == []
    assert unused == sorted(ALLOWED), "an allowed name is used now: take it off the list"
