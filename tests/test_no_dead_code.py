"""Every function, class, method and module-level constant that
src/georeward defines is used somewhere in src/georeward: code that nothing
calls is deleted, not kept.

A use counts only outside the definition's own body, so recursion or a
class naming itself does not keep it alive. A method or property counts as
used only through an attribute (`x.name`): a local variable that happens to
share its name does not reach it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "georeward"

# the oracle that test_camera.py checks matrix34 and relative_transform against
ALLOWED = {"PoseSE3.apply"}


def _definitions(tree):
    """(qualified name, name, node, is_method) of every top-level function,
    class and constant (`NAME = ...`) and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _uses(node, inside=()):
    """(name, is_attribute, ids of the definitions enclosing it) of every
    name, attribute and import alias under node."""
    if isinstance(node, ast.Name):
        yield node.id, False, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, inside
    elif isinstance(node, ast.alias):
        yield node.name, False, inside
        if node.asname:
            yield node.asname, False, inside
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign)):
        inside = inside + (id(node),)
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, inside)


def test_every_definition_in_src_is_used_in_src():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    uses = {}
    for tree in trees:
        for name, attr, inside in _uses(tree):
            uses.setdefault(name, []).append((attr, inside))
    unused = sorted(
        qual
        for tree in trees
        for qual, name, node, is_method in _definitions(tree)
        if not any((attr or not is_method) and id(node) not in inside for attr, inside in uses.get(name, []))
    )
    assert [qual for qual in unused if qual not in ALLOWED] == []
    assert unused == sorted(ALLOWED), "an allowed name is used now: take it off the list"
