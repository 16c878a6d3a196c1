"""Every public function, class and method of wavesym has a caller in the package.

A name counts as used when a module of the package other than __init__
and __main__ mentions it as a name, an attribute or an imported name;
its own definition does not count, and neither does a re-export in
__init__.  So a helper that only tests call fails here: it gets a
caller in the package, or it moves to tests/oracles.py.
"""

import ast
from pathlib import Path

import wavesym

PACKAGE = Path(wavesym.__file__).resolve().parent

# public names kept without a caller, each with its reason
EXEMPT = {
    # the Poincare-Hopf sum of local indices over a closed mesh, the paper's
    # count of the optic axes; it is kept for the axis search to certify
    # its four axes with
    "signed_zero_count",
}


def parsed_modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in ("__init__.py", "__main__.py")}


def public_definitions(tree: ast.Module):
    """(qualified name, bare name) of each public top-level function and
    class and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def used_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller():
    modules = parsed_modules()
    used = {name for tree in modules.values() for name in used_names(tree)}
    defined = [(f"{mod}.{qual}", name) for mod, tree in modules.items()
               for qual, name in public_definitions(tree)]
    assert [q for q, name in defined if name not in used and name not in EXEMPT] == []
    # an exemption that gained a caller, or lost its definition, goes too
    assert {name for _, name in defined if name not in used} == EXEMPT
