"""Every public function, class and method of wavesym has a caller in the package.

A name counts as used when a module of the package other than __init__
and __main__ mentions it: a top-level function or class as a bare name
or an imported name, a method as an attribute.  So a function is not
kept alive by an attribute or method of the same name elsewhere.  Its
own definition does not count, and neither does a re-export in
__init__.  So a helper that only tests call fails here: it gets a
caller in the package, or it moves to tests/oracles.py.
"""

import ast
from pathlib import Path

import wavesym

PACKAGE = Path(wavesym.__file__).resolve().parent

# public names kept without a caller, each with its reason
EXEMPT: set[str] = set()


def parsed_modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in ("__init__.py", "__main__.py")}


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, is a method) of each public top-level
    function and class and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, True


def used_names(tree: ast.Module):
    """(name, through an attribute) of each mention of a name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, False) for alias in node.names)


def test_every_public_name_has_a_caller():
    modules = parsed_modules()
    used = {use for tree in modules.values() for use in used_names(tree)}
    unused = [(f"{mod}.{qual}", name) for mod, tree in modules.items()
              for qual, name, method in public_definitions(tree) if (name, method) not in used]
    assert [q for q, name in unused if name not in EXEMPT] == []
    # an exemption that gained a caller, or lost its definition, goes too
    assert {name for _, name in unused} == EXEMPT
